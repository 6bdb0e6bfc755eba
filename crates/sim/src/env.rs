//! Per-run options, and the one place they are read from the
//! environment.
//!
//! [`RunOptions`] carries every execution choice of one run: the
//! simulation model, the route and epoch-tick implementations, and the
//! trace destination. The library takes it
//! explicitly ([`Simulator::with_options`](crate::Simulator::with_options)),
//! so two configurations can be compared inside one process without
//! touching process-global state. [`RunOptions::from_env`] parses the
//! `EPNET_*` switches, and this module is the only reader of
//! `std::env` in the crate.
//!
//! Every switch follows one rule for bad input: a value outside its
//! vocabulary prints an error naming the valid forms to stderr and
//! falls back to the default. It never panics, and it never silently
//! simulates something the user did not ask for.
//!
//! | Variable | Values | Default |
//! |---|---|---|
//! | `EPNET_MODEL` | `packet`, `hybrid` | `packet` |
//! | `EPNET_THREADS` | a positive integer, `off`, `0` | machine parallelism |
//! | `EPNET_TRACE` | a file path | no trace |
//! | `EPNET_TRACE_FILTER` | comma-separated trace categories | all |
//!
//! `EPNET_THREADS` sizes the sweep/campaign job pool of `epnet::exp`
//! and is read through [`env_threads`]; the rest fill [`RunOptions`].
//!
//! `EPNET_PAR` used to select a sharded parallel engine, which has been
//! removed. Setting it prints one line saying so, and the run goes ahead
//! on the one serial engine.

use std::path::PathBuf;

use epnet_telemetry::trace::parse_filter;
use epnet_telemetry::TraceCategory;

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

/// How the engine finds each hop's candidate ports. Both produce
/// byte-identical reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routes {
    /// A precomputed [`RouteTable`](epnet_topology::RouteTable),
    /// rebuilt lazily when the link mask changes (the default).
    #[default]
    Table,
    /// Per-hop coordinate computation. The hybrid model always routes
    /// this way: a table is O(switch pairs) memory at its scale.
    Dynamic,
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
named!(Routes { Table => "table", Dynamic => "dynamic" });
named!(EpochMode { ActiveSet => "active", Sweep => "sweep" });

/// A trace destination: a JSONL file and the categories written to it
/// (a [`TraceCategory`] bit mask).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOptions {
    /// The file to create (truncating).
    pub path: PathBuf,
    /// Categories to emit.
    pub mask: u32,
}

/// Every execution choice of one run.
///
/// [`RunOptions::default`] is the library default and ignores the
/// environment: packet model, route tables, active-set epochs, no
/// trace. Explicit options always win over the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Simulation regime.
    pub model: SimModel,
    /// Route lookup (the hybrid model forces [`Routes::Dynamic`]).
    pub routes: Routes,
    /// Epoch-tick implementation.
    pub epoch: EpochMode,
    /// Where to write a JSONL trace, if anywhere.
    pub trace: Option<TraceOptions>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            model: SimModel::Packet,
            routes: Routes::Table,
            epoch: EpochMode::ActiveSet,
            trace: None,
        }
    }
}

impl RunOptions {
    /// Parses `EPNET_MODEL`, `EPNET_TRACE` and `EPNET_TRACE_FILTER` from
    /// the process environment.
    ///
    /// Bad values follow the module's rule: a stderr message naming the
    /// valid forms, then the default (a bad trace filter disables
    /// tracing rather than narrowing it). A set `EPNET_PAR` prints one
    /// line saying the sharded engine is gone, and changes nothing.
    pub fn from_env() -> Self {
        Self::from_vars(|var| std::env::var(var).ok())
    }

    /// [`RunOptions::from_env`] over an arbitrary variable lookup, so
    /// the parser can be exercised without touching process state.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let model = var("EPNET_MODEL").map_or(SimModel::Packet, |raw| {
            parse_model(&raw).unwrap_or_else(|msg| {
                eprintln!("epnet: {msg}");
                SimModel::Packet
            })
        });
        if let Some(raw) = var("EPNET_PAR") {
            eprintln!("epnet: {}", par_retired(&raw));
        }
        let trace = var("EPNET_TRACE")
            .filter(|path| !path.is_empty())
            .and_then(|path| {
                let mask = match var("EPNET_TRACE_FILTER") {
                    None => TraceCategory::ALL_MASK,
                    Some(filter) => match parse_filter(&filter) {
                        Ok(mask) => mask,
                        Err(msg) => {
                            eprintln!("epnet: {msg}");
                            return None;
                        }
                    },
                };
                Some(TraceOptions {
                    path: path.into(),
                    mask,
                })
            });
        Self {
            model,
            trace,
            ..Self::default()
        }
    }

    /// The route lookup the run actually uses: [`Routes::Dynamic`]
    /// under the hybrid model, `routes` otherwise.
    pub fn routes_used(&self) -> Routes {
        match self.model {
            SimModel::Hybrid => Routes::Dynamic,
            SimModel::Packet => self.routes,
        }
    }
}

/// Parses an `EPNET_MODEL` value.
///
/// Accepts `packet` and `hybrid` (case-insensitive, surrounding
/// whitespace ignored); an empty value means the default. Anything
/// else is an error naming the offending value and the vocabulary.
pub fn parse_model(raw: &str) -> Result<SimModel, String> {
    let v = raw.trim();
    if v.is_empty() {
        return Ok(SimModel::default());
    }
    SimModel::from_name(v).ok_or_else(|| {
        format!(
            "unknown simulation model '{v}' in EPNET_MODEL; valid models: {}",
            SimModel::names()
        )
    })
}

/// The message a set `EPNET_PAR` prints: the switch outlived the
/// sharded parallel engine it selected, and the run is serial.
fn par_retired(raw: &str) -> String {
    format!(
        "EPNET_PAR='{}' ignored: the sharded parallel engine was removed; running serially",
        raw.trim()
    )
}

/// Parses a worker-width value of the switch `var` (`EPNET_THREADS`).
///
/// A positive integer `n` is `Some(n)`; `off`, `0` and an empty value
/// are `None` (feature off). Anything else is an error naming the
/// offending value and the valid forms.
fn parse_width(var: &str, raw: &str) -> Result<Option<usize>, String> {
    let v = raw.trim();
    if v.is_empty() || v.eq_ignore_ascii_case("off") {
        return Ok(None);
    }
    match v.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "invalid width '{v}' in {var}; valid values: a positive integer, off, 0"
        )),
    }
}

fn width_or_warn(var: &str, raw: &str) -> Option<usize> {
    parse_width(var, raw).unwrap_or_else(|msg| {
        eprintln!("epnet: {msg}");
        None
    })
}

/// Reads a worker-width switch from the process environment.
///
/// A positive integer `n` is `Some(n)`. Unset, empty, `off` and `0` are
/// `None`; a malformed value prints an error naming the valid forms to
/// stderr and is also `None`. Callers that need a machine-derived
/// default (like the sweep worker pool) layer it on top of the `None`
/// case.
pub fn env_threads(var: &str) -> Option<usize> {
    width_or_warn(var, &std::env::var(var).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |var| {
            pairs
                .iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn parses_positive_widths_and_rejects_everything_else() {
        for (value, expect) in [
            ("4", Some(4)),
            ("1", Some(1)),
            (" 8 ", Some(8)),
            ("off", None),
            ("OFF", None),
            ("0", None),
            ("", None),
        ] {
            assert_eq!(
                parse_width("EPNET_THREADS", value),
                Ok(expect),
                "value {value:?}"
            );
        }
        for value in ["many", "-2"] {
            assert_eq!(
                parse_width("EPNET_THREADS", value),
                Err(format!(
                    "invalid width '{value}' in EPNET_THREADS; valid values: a positive integer, off, 0"
                )),
            );
        }
    }

    #[test]
    fn retired_par_switch_warns_and_runs_serially() {
        assert_eq!(
            par_retired(" 2 "),
            "EPNET_PAR='2' ignored: the sharded parallel engine was removed; running serially"
        );
        for value in ["2", "off", "many"] {
            assert_eq!(
                RunOptions::from_vars(vars(&[("EPNET_PAR", value)])),
                RunOptions::default(),
                "EPNET_PAR={value}"
            );
        }
    }

    #[test]
    fn retired_parallel_trace_category_is_an_unknown_name() {
        let msg = parse_filter("controller,parallel").unwrap_err();
        assert!(msg.contains("'parallel'"), "{msg}");
        for cat in TraceCategory::ALL {
            assert!(msg.contains(cat.name()), "{msg} lists {}", cat.name());
        }
        let traced = RunOptions::from_vars(vars(&[
            ("EPNET_TRACE", "t.jsonl"),
            ("EPNET_TRACE_FILTER", "parallel"),
        ]));
        assert_eq!(traced.trace, None, "a bad filter disables tracing");
    }

    #[test]
    fn parses_models_and_pins_the_unknown_value_message() {
        for (value, expect) in [
            ("packet", Ok(SimModel::Packet)),
            ("PACKET", Ok(SimModel::Packet)),
            (" hybrid ", Ok(SimModel::Hybrid)),
            ("Hybrid", Ok(SimModel::Hybrid)),
            ("", Ok(SimModel::Packet)),
            (
                "fluid",
                Err("unknown simulation model 'fluid' in EPNET_MODEL; \
                     valid models: packet, hybrid"
                    .to_string()),
            ),
        ] {
            assert_eq!(parse_model(value), expect, "value {value:?}");
        }
        // The options parser rejects unknown values by falling back to
        // the packet default (after printing the error above).
        let model = |v| RunOptions::from_vars(vars(&[("EPNET_MODEL", v)])).model;
        assert_eq!(model("fluid"), SimModel::Packet);
        assert_eq!(model("hybrid"), SimModel::Hybrid);
        assert_eq!(RunOptions::from_vars(vars(&[])).model, SimModel::Packet);
    }

    #[test]
    fn trace_options_follow_path_and_filter() {
        assert_eq!(RunOptions::from_vars(vars(&[])).trace, None);
        assert_eq!(
            RunOptions::from_vars(vars(&[("EPNET_TRACE", "")])).trace,
            None
        );
        let traced = RunOptions::from_vars(vars(&[
            ("EPNET_TRACE", "t.jsonl"),
            ("EPNET_TRACE_FILTER", "controller"),
        ]));
        assert_eq!(
            traced.trace,
            Some(TraceOptions {
                path: "t.jsonl".into(),
                mask: TraceCategory::Controller.bit(),
            })
        );
        let all = RunOptions::from_vars(vars(&[("EPNET_TRACE", "t.jsonl")]));
        assert_eq!(all.trace.map(|t| t.mask), Some(TraceCategory::ALL_MASK));
        // A typo disables tracing instead of narrowing it.
        let typo = RunOptions::from_vars(vars(&[
            ("EPNET_TRACE", "t.jsonl"),
            ("EPNET_TRACE_FILTER", "controller,bogus"),
        ]));
        assert_eq!(typo.trace, None);
    }

    #[test]
    fn option_names_round_trip_and_hybrid_routes_dynamically() {
        use serde::{Deserialize, Serialize, Value};
        for (name, route) in [("table", Routes::Table), ("dynamic", Routes::Dynamic)] {
            assert_eq!((route.name(), Routes::from_name(name)), (name, Some(route)));
        }
        assert_eq!(EpochMode::from_name(" Active "), Some(EpochMode::ActiveSet));
        assert_eq!(EpochMode::Sweep.name(), "sweep");
        assert_eq!(Routes::from_name("hash"), None);
        let json = SimModel::Hybrid.to_value();
        assert_eq!(json, Value::Str("hybrid".into()));
        assert_eq!(SimModel::from_value(&json).ok(), Some(SimModel::Hybrid));
        let err = Routes::from_value(&Value::Str("hash".into())).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown Routes 'hash'; valid: table, dynamic"
        );

        let hybrid = RunOptions {
            model: SimModel::Hybrid,
            ..RunOptions::default()
        };
        assert_eq!(hybrid.routes_used(), Routes::Dynamic);
        assert_eq!(RunOptions::default().routes_used(), Routes::Table);
    }

    #[test]
    fn defaults_are_the_serial_packet_engine() {
        let d = RunOptions::default();
        assert_eq!(
            (d.model, d.routes, d.epoch, d.trace),
            (SimModel::Packet, Routes::Table, EpochMode::ActiveSet, None)
        );
    }
}
