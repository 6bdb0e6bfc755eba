//! Shared helpers for the `repro` harness and the benchmark axes behind
//! `benchrun`.

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
        "paper" => Ok(EvalScale::paper()),
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
        for bad in ["full", "nope"] {
            let err = parse_scale(bad).unwrap_err();
            assert!(err.contains("tiny|quick|paper"), "{err}");
        }
    }

    #[test]
    fn target_list_is_complete() {
        assert_eq!(TARGETS.len(), 12);
    }
}
