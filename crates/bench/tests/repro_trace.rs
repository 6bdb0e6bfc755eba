//! `repro` refuses `EPNET_TRACE`: a target runs many simulations, each
//! of which would truncate and write the one trace file.

use std::process::Command;

#[test]
fn repro_refuses_a_trace_before_running_any_target() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_trace");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let trace = dir.join("t.jsonl");
    let _ = std::fs::remove_file(&trace);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "tiny", "table1"])
        .env("EPNET_TRACE", &trace)
        .output()
        .expect("repro starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "repro ran with EPNET_TRACE set");
    assert!(stderr.contains("tracesmoke <path>"), "{stderr}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("Table 1"),
        "a target ran"
    );
    assert!(!trace.exists(), "repro created the trace file");
}
