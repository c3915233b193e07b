//! Xilinx XC4000-style FPGA device model.
//!
//! The paper's experiments all run on the XC4000 family: an array of
//! configurable logic blocks (CLBs), each holding two 4-input lookup
//! tables and two flip-flops, surrounded by I/O blocks (IOBs) and
//! connected by segmented channel routing. This crate models that
//! architecture closely enough for every physical-design question the
//! tiling technique asks:
//!
//! * [`device::Device`] — the CLB/IOB grid and its capacities;
//! * [`rrg`] — the routing-resource graph (channel tracks, switch
//!   boxes, connection boxes, cell pins) that the router negotiates
//!   over;
//! * [`placedb::Placement`] — which netlist cell sits on which BEL;
//! * [`routedb::Routing`] — per-net route trees over RRG nodes;
//! * [`timing`] — a unit-delay-per-resource model and static timing
//!   analysis, used for Table 1's timing-overhead column;
//! * [`hash`] — the fixed hasher behind the placer's and router's
//!   per-move lookups.
//!
//! The model is *not* bit-exact Xilinx silicon: delays are idealized
//! and switch patterns simplified (disjoint switch boxes, full
//! connection boxes). The paper's results are all relative quantities
//! measured on the same substrate, so this preserves every comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bel;
pub mod coords;
pub mod device;
pub mod hash;
pub mod placedb;
pub mod routedb;
pub mod rrg;
pub mod timing;

pub use bel::{BelLoc, ClbSlot, IobSide, IobSite};
pub use coords::{Coord, Rect};
pub use device::{Device, DeviceError};
pub use hash::{FxHashMap, FxHashSet};
pub use placedb::Placement;
pub use routedb::{RouteTree, Routing};
pub use rrg::{NodeId, NodeKind, RoutingGraph};
pub use timing::{DelayModel, TimingReport};
