//! Datacenter network topology models for energy-proportional networks.
//!
//! This crate implements the topologies studied by Abts et&nbsp;al.,
//! *Energy Proportional Datacenter Networks* (ISCA 2010):
//!
//! * [`FlattenedButterfly`] — the *k*-ary *n*-flat direct topology with
//!   configurable concentration *c*, written `(c, k, n)` as in the paper.
//! * [`FoldedClos`] — the chassis-based folded-Clos (fat tree) baseline the
//!   paper compares against (§2.2).
//!
//! Both expose analytical *part counts* (switch chips, electrical vs optical
//! links) and bisection bandwidth, which feed the power comparison of
//! Table&nbsp;1 in the companion `epnet-power` crate. The flattened butterfly
//! additionally lowers into a port-level [`FabricGraph`] consumed by the
//! event-driven simulator in `epnet-sim`, including the minimal-adaptive
//! route-candidate computation the paper relies on ("the choice of a packet's
//! route is inherently a local decision", §3.2).
//!
//! # Example
//!
//! ```
//! use epnet_topology::{FlattenedButterfly, Medium};
//!
//! // The paper's evaluation network: a 15-ary 3-flat with c = 15 (§4.1).
//! let fbfly = FlattenedButterfly::new(15, 15, 3)?;
//! assert_eq!(fbfly.num_hosts(), 3375);
//! assert_eq!(fbfly.num_switches(), 225);
//! assert_eq!(fbfly.ports_per_switch(), 15 + 14 * 2);
//!
//! // The 32k-host comparison network of Table 1: an 8-ary 5-flat.
//! let big = FlattenedButterfly::new(8, 8, 5)?;
//! assert_eq!(big.num_hosts(), 32_768);
//! assert_eq!(big.link_count(Medium::Electrical), 47_104);
//! assert_eq!(big.link_count(Medium::Optical), 43_008);
//! # Ok::<(), epnet_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod bom;
mod clos;
mod coord;
mod error;
mod fabric;
mod fbfly;
mod ids;
mod routes;
mod subtopology;
mod twotier;

pub use bom::BillOfMaterials;
pub use clos::{ChassisSpec, FoldedClos};
pub use coord::Coord;
pub use error::TopologyError;
pub use fabric::{FabricGraph, FabricKind, Medium, PortTarget, RoutingTopology};
pub use fbfly::FlattenedButterfly;
pub use ids::{ChannelId, HostId, LinkId, PortIndex, SwitchId};
pub use routes::HopHistogram;
pub use subtopology::{LinkMask, SubtopologyKind};
pub use twotier::TwoTierClos;
