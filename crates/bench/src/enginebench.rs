//! The canonical engine scenario.
//!
//! One fixed scenario — an FBFLY(2,8,2) fabric (16 hosts, 8 switches)
//! under merged uniform-random (30% load) and search-like bursty
//! traffic for 10 ms of simulated time, default §4.1 configuration. The
//! golden report fixture, `tracesmoke` and the trace tests all run it,
//! and the full `scale` sweep measures it as its `fbfly_2x8x2` point.

use crate::axis::{self, Point, PointSource, Recipe, Topo};
use epnet_sim::{RunOptions, SimModel, SimTime, Simulator};

/// Simulated horizon of the canonical run.
pub const HORIZON: SimTime = SimTime::from_ms(10);

/// The canonical scenario as a benchmark point.
pub fn canonical_point() -> Point {
    Point {
        name: "fbfly_2x8x2".to_string(),
        topo: Topo::Fbfly { c: 2, k: 8, n: 2 },
        recipe: Recipe::Canonical,
        horizon: HORIZON,
        model: SimModel::Packet,
    }
}

/// Builds the canonical scenario under `options`, ready to run for
/// [`HORIZON`] of simulated time.
pub fn canonical_simulator(options: RunOptions) -> Simulator<PointSource> {
    axis::simulator_for(&canonical_point(), options)
}

/// The canonical fabric's positional channel layout, for grouping
/// chrome-trace channel tracks by switch (FBFLY(2,8,2): 16 host
/// injection channels, then 9 output channels per switch).
pub fn canonical_layout() -> epnet_telemetry::TrackLayout {
    let spec = epnet_topology::FlattenedButterfly::new(2, 8, 2).expect("fixed canonical shape");
    epnet_telemetry::TrackLayout {
        hosts: spec.num_hosts() as u32,
        ports_per_switch: u32::from(spec.ports_per_switch()),
    }
}
