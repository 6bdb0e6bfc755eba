//! Golden-report pin: the canonical engine scenario must serialize
//! byte-identically to the report captured before the struct-of-arrays
//! hot-state refactor.
//!
//! The SoA split, the free-list recycling (packets, messages, queue
//! and credit chunks), the channel-target table, and the calendar-queue
//! sizing hint are all pure layout/speed changes — none of them may
//! move a single event, metric, or residency picosecond. This test
//! enforces that against a checked-in fixture rather than a same-build
//! cross-check, so a regression that shifts *both* modes equally still
//! gets caught.
//!
//! Regenerate `tests/golden/canonical_report.json` only for a change
//! that intentionally alters simulation semantics, and say so in the
//! commit message:
//!
//! ```text
//! cargo test -p epnet-integration --test golden_report -- --ignored regenerate
//! ```

use epnet::sim::RunOptions;
use epnet_bench::enginebench::{canonical_simulator, HORIZON};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/canonical_report.json")
}

fn canonical_report_json() -> String {
    let report = canonical_simulator(RunOptions::default()).run_until(HORIZON);
    serde_json::to_string_pretty(&report).expect("report serializes")
}

#[test]
fn canonical_report_matches_pre_refactor_golden() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden fixture present");
    let actual = canonical_report_json();
    if golden != actual {
        // Pinpoint the first divergence — a full-report assert_eq dump
        // is unreadable at 2 KB.
        let byte = golden
            .bytes()
            .zip(actual.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| golden.len().min(actual.len()));
        let lo = byte.saturating_sub(80);
        panic!(
            "canonical report diverged from the golden fixture at byte {byte}\n\
             golden:  ...{}\n\
             actual:  ...{}",
            &golden[lo..(byte + 80).min(golden.len())],
            &actual[lo..(byte + 80).min(actual.len())],
        );
    }
}

/// Rewrites the fixture. `#[ignore]`d so it never runs in CI; invoke
/// explicitly when a semantic change is intentional.
#[test]
#[ignore]
fn regenerate() {
    std::fs::write(golden_path(), canonical_report_json()).expect("fixture written");
}
