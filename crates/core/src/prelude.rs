//! Convenience re-exports: `use epnet::prelude::*;` pulls in everything
//! needed for typical experiments.

pub use crate::exp::{EvalScale, Experiment, ExperimentOutcome, WorkloadKind};
pub use epnet_power::{
    DatacenterPowerModel, EnergyCostModel, LinkPowerProfile, LinkRate, NetworkEnergyModel,
    SwitchPowerModel, TopologyPowerComparison, RATE_LADDER,
};
pub use epnet_sim::{
    ControlMode, DynamicTopology, DynamicTopologyConfig, EpochMode, Message, RatePolicy,
    ReactivationModel, ReactivationStrategy, ReplaySource, RoutingPolicy, RunOptions, SimConfig,
    SimModel, SimReport, SimTime, Simulator, TrafficSource,
};
pub use epnet_topology::{
    BillOfMaterials, FabricGraph, FabricKind, FlattenedButterfly, FoldedClos, HostId, LinkMask,
    Medium, RoutingTopology, SubtopologyKind, SwitchId, TopologyError, TwoTierClos,
};
pub use epnet_workloads::{
    Incast, Permutation, ServiceTrace, ServiceTraceConfig, TraceAnalysis, TraceAnalyzer,
    UniformRandom,
};
