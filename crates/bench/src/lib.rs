//! Shared helpers for the `repro` harness, the benchmark axes behind
//! `benchrun`/`benchcheck`, and the Criterion benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axis;
pub mod csv;
pub mod enginebench;
pub mod loadbench;
pub mod scalebench;

use epnet::exp::EvalScale;

/// Parses a scale name (`tiny` / `quick` / `paper`).
///
/// # Errors
///
/// Returns the unrecognized input on failure.
pub fn parse_scale(name: &str) -> Result<EvalScale, String> {
    match name {
        "tiny" => Ok(EvalScale::tiny()),
        "quick" => Ok(EvalScale::quick()),
        "paper" | "full" => Ok(EvalScale::paper()),
        other => Err(format!("unknown scale '{other}' (tiny|quick|paper)")),
    }
}

/// The reproduction targets the harness understands.
pub const TARGETS: &[&str] = &[
    "table1",
    "table2",
    "figure1",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9a",
    "figure9b",
    "costs",
    "topology-sim",
    "sensitivity",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse() {
        assert_eq!(parse_scale("tiny").unwrap().hosts(), 64);
        assert_eq!(parse_scale("quick").unwrap().hosts(), 512);
        assert_eq!(parse_scale("paper").unwrap().hosts(), 3375);
        assert_eq!(parse_scale("full").unwrap().hosts(), 3375);
        assert!(parse_scale("nope").is_err());
    }

    #[test]
    fn target_list_is_complete() {
        assert_eq!(TARGETS.len(), 12);
    }
}
