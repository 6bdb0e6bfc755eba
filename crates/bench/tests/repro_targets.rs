//! `repro` checks every target name before the first simulation, so a
//! typo late in the list (or a mistyped flag, which becomes a target)
//! fails at once and leaves nothing written.

use std::process::Command;

#[test]
fn unknown_targets_fail_before_any_target_runs() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_targets");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let json = dir.join("out.json");
    let _ = std::fs::remove_file(&json);
    let json = json.to_str().expect("UTF-8 path");
    for (args, bad) in [
        (vec!["table1", "fgure8"], "fgure8"),
        (vec!["table1", "--jsn", json], "jsn"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--scale", "tiny"])
            .args(&args)
            .output()
            .expect("repro starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "repro {args:?} succeeded");
        assert!(
            stderr.contains(&format!("unknown target '{bad}'")),
            "{stderr}"
        );
        assert!(stderr.contains("figure7"), "valid targets listed: {stderr}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("Table 1"),
            "repro {args:?} ran a target"
        );
    }
    assert!(!std::path::Path::new(json).exists(), "repro wrote a file");
}
