//! Per-run options.
//!
//! [`RunOptions`] carries every execution choice of one run: the
//! simulation model and the epoch-tick implementation. The library
//! takes it explicitly
//! ([`Simulator::with_options`](crate::Simulator::with_options)), so two
//! configurations can be compared inside one process, and nothing in
//! this crate reads the process environment. A trace is attached with
//! [`Simulator::set_tracer`](crate::Simulator::set_tracer).

/// Which simulation regime the engine runs.
///
/// `Packet` is the default bit-faithful discrete-event model; `Hybrid`
/// aggregates steady flows into analytic per-epoch fluid state while
/// keeping packet-level simulation where the interesting dynamics live
/// (see DESIGN.md "Hybrid flow/packet model").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimModel {
    /// Pure packet-level simulation (the default).
    #[default]
    Packet,
    /// Flow-level aggregation for steady traffic, packets elsewhere.
    Hybrid,
}

/// Which epoch-tick implementation the engine runs. Both produce
/// byte-identical reports.
///
/// The default visits only the *active set* — channels that
/// transmitted, queued, blocked, drained, changed power state, or sit
/// above the floor rate — making epoch ticks O(touched). The sweep
/// visits every channel and link every tick; controller tracing forces
/// it so traced holds still emit a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EpochMode {
    /// Visit only channels in the active set (the default).
    #[default]
    ActiveSet,
    /// Visit every channel and link, every tick.
    Sweep,
}

/// Gives a run-option enum its one vocabulary: `name`, the parser
/// `from_name`, and serde as that name (benchmark records store options
/// by name, so the parser and the records cannot drift apart).
macro_rules! named {
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $ty {
            /// Every value, in vocabulary order.
            const ALL: &'static [$ty] = &[$($ty::$variant),+];

            /// The value's stable lowercase name.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name),+
                }
            }

            /// The value called `name` (case-insensitive, surrounding
            /// whitespace ignored).
            fn from_name(name: &str) -> Option<Self> {
                let name = name.trim();
                Self::ALL
                    .iter()
                    .copied()
                    .find(|v| v.name().eq_ignore_ascii_case(name))
            }

            /// The vocabulary as `a, b`, for error messages.
            fn names() -> String {
                Self::ALL.iter().map(|v| v.name()).collect::<Vec<_>>().join(", ")
            }
        }

        impl serde::Serialize for $ty {
            fn to_value(&self) -> serde::Value {
                serde::Value::Str(self.name().to_string())
            }
        }

        impl serde::Deserialize for $ty {
            fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
                let raw = v.as_str().unwrap_or_default();
                Self::from_name(raw).ok_or_else(|| {
                    serde::DeError::msg(format!(
                        "unknown {} '{raw}'; valid: {}",
                        stringify!($ty),
                        Self::names()
                    ))
                })
            }
        }
    };
}

named!(SimModel { Packet => "packet", Hybrid => "hybrid" });
named!(EpochMode { ActiveSet => "active", Sweep => "sweep" });

/// Every execution choice of one run.
///
/// [`RunOptions::default`] is the library default: packet model,
/// active-set epochs. Benchmark records serialize a run's options by
/// their names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct RunOptions {
    /// Simulation regime.
    pub model: SimModel,
    /// Epoch-tick implementation.
    pub epoch: EpochMode,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_names_round_trip() {
        use serde::{Deserialize, Serialize, Value};
        for (name, epoch) in [
            ("active", EpochMode::ActiveSet),
            ("sweep", EpochMode::Sweep),
        ] {
            assert_eq!(
                (epoch.name(), EpochMode::from_name(name)),
                (name, Some(epoch))
            );
        }
        assert_eq!(EpochMode::from_name(" Active "), Some(EpochMode::ActiveSet));
        assert_eq!(EpochMode::from_name("lazy"), None);
        let json = SimModel::Hybrid.to_value();
        assert_eq!(json, Value::Str("hybrid".into()));
        assert_eq!(SimModel::from_value(&json).ok(), Some(SimModel::Hybrid));
        let err = EpochMode::from_value(&Value::Str("lazy".into())).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown EpochMode 'lazy'; valid: active, sweep"
        );
    }

    #[test]
    fn defaults_are_the_serial_packet_engine() {
        let d = RunOptions::default();
        assert_eq!((d.model, d.epoch), (SimModel::Packet, EpochMode::ActiveSet));
    }
}
