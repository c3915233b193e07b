//! Tiling: physical-design partitioning for FPGA emulation debugging.
//!
//! This crate is the paper's contribution. It partitions a
//! placed-and-routed FPGA design into independent rectangular *tiles*
//! with locked interfaces and deliberate resource slack, so that each
//! debugging step — test-logic insertion or an engineering change —
//! only requires clearing and re-placing-and-routing the affected
//! tiles. Everything else, including all routing that crosses tile
//! boundaries, stays frozen.
//!
//! The flow mirrors the paper's pseudo-code (§3.1):
//!
//! 1. [`flow::implement`] — synthesize → place with slack → route →
//!    [`partition`](mod@partition) into tiles → lock interfaces ([`interface`]);
//! 2. debugging iterations through a [`session::DebugSession`]:
//!    detect and localize with inserted test logic (strategy chosen
//!    via [`strategy`]), correct with an ECO, trace the change to
//!    tiles ([`affected`]), and re-implement through a pluggable
//!    physical flow ([`flows`]) — the tiled flow clears only the
//!    affected tiles ([`eco_flow`]);
//! 3. compare the CAD effort against the non-tiled alternatives
//!    (the same [`flows`] behind one trait; [`flow_effort`] prices
//!    them on clones): full re-place-and-route, incremental, and
//!    Quick_ECO functional-block granularity.
//!
//! [`testpoints`] computes the paper's Figure 3 / Figure 4 quantities
//! (tiles affected by logic insertion; maximum test-logic size per
//! test-point count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affected;
pub mod diagnosis;
pub mod eco_flow;
pub mod effort;
pub mod error;
pub mod flow;
pub mod flows;
pub mod interface;
pub mod partition;
pub mod preflight;
pub mod report;
pub mod session;
pub mod strategy;
pub mod testpoints;
pub mod tile;

// Re-exported so `TilingError::Drc { findings }` callers can name the
// finding types without depending on the analyzer crate directly.
pub use drc;

pub use affected::AffectedSet;
pub use diagnosis::{
    cluster_failures, collect_responses, fsm_merge_witnesses, merge_fsm_clusters, traced_responses,
    ConePartition, EvidenceBase, EvidenceStats, FailureCluster, MultiErrorScheduler,
    ObservationWindow, ResponseSignature, SuspectCone,
};
pub use eco_flow::{replace_and_route, EcoPhysicalOutcome};
pub use effort::{CadEffort, EffortLedger, Phase};
pub use error::TilingError;
pub use flow::{implement, TiledDesign, TilingOptions};
pub use flows::{
    flow_effort, standard_flows, FullReplaceFlow, IncrementalFlow, QuickEcoFlow, ReimplFlow,
    TiledFlow,
};
pub use partition::partition;
pub use preflight::{audit_confined_eco, check_design, preflight, tile_views};
pub use report::{DebugReport, TilingReport};
pub use session::{CampaignOutcome, DebugEvent, DebugOutcome, DebugSession, PatternSpec};
pub use strategy::{BinarySearch, LinearBatches, LocalizationStrategy};
pub use tile::{Tile, TileId, TilePlan};
