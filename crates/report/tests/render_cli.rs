//! `render` fails (exit 1, with a message) on input it cannot draw in
//! full, instead of panicking or reporting success.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn render(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_render"))
        .args(args)
        .output()
        .expect("render starts")
}

#[test]
fn an_unreadable_figure_fails_after_the_rest_are_written() {
    let dir = scratch("render_unreadable");
    let input = dir.join("results.json");
    std::fs::write(
        &input,
        r#"{"figure9a": [{"workload": "Search", "target": 0.25, "added_latency_us": 1.0},
                         {"workload": "Search", "target": 0.5, "added_latency_us": 2.0}],
            "figure7": 42}"#,
    )
    .expect("input written");
    let out_dir = dir.join("out");
    let out = render(&[&input, &out_dir]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "render succeeded: {stderr}");
    assert!(
        stderr.contains("figure7 present but unreadable"),
        "{stderr}"
    );
    assert!(
        out_dir.join("figure9a.svg").exists(),
        "readable figure written"
    );
}

#[test]
fn a_one_column_figure9_fails_after_the_rest_are_written() {
    let dir = scratch("render_one_column");
    let input = dir.join("results.json");
    std::fs::write(
        &input,
        r#"{"figure9a": [{"workload": "Search", "target": 0.25, "added_latency_us": 1.0},
                         {"workload": "Search", "target": 0.5, "added_latency_us": 2.0}],
            "figure9b": [{"workload": "Search", "reactivation_ns": 1000, "added_latency_us": 1.0}]}"#,
    )
    .expect("input written");
    let out_dir = dir.join("out");
    let out = render(&[&input, &out_dir]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("figure9b has a single x value"), "{stderr}");
    assert!(
        out_dir.join("figure9a.svg").exists(),
        "drawable figure written"
    );
    assert!(!out_dir.join("figure9b.svg").exists());
}

#[test]
fn a_failed_write_fails() {
    let dir = scratch("render_unwritable");
    let input = dir.join("results.json");
    std::fs::write(
        &input,
        r#"{"figure9a": [{"workload": "Search", "target": 0.25, "added_latency_us": 1.0},
                         {"workload": "Search", "target": 0.5, "added_latency_us": 2.0}]}"#,
    )
    .expect("input written");
    let out_dir = dir.join("out");
    std::fs::create_dir_all(out_dir.join("figure9a.svg")).expect("a directory in the way");
    let out = render(&[&input, &out_dir]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "render succeeded: {stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
}

#[test]
fn decisions_only_beyond_the_timeline_channels_fail() {
    let dir = scratch("render_trace_high_channels");
    let trace = dir.join("trace.jsonl");
    std::fs::write(
        &trace,
        r#"{"at_ps":1000,"cat":"controller","channel":40,"utilization":0.3,"old_rate":"40 Gb/s","new_rate":"20 Gb/s","reason":"downshift"}
"#,
    )
    .expect("trace written");
    let out_dir = dir.join("out");
    let out = render(&[Path::new("--trace"), &trace, &out_dir]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("channels 0..32"), "{stderr}");
    assert!(!out_dir.exists(), "nothing written");
}
