//! `debugd` — debug-as-a-service over the tiled FPGA debug flow.
//!
//! The paper's protocol (detect → localize → confirm → correct,
//! paying only tiled re-place-and-route per iteration) is wrapped
//! here as a service: clients submit *campaign requests* — design,
//! error budget, localization strategy, physical flow, stimulus —
//! and the orchestrator executes hundreds of them side by side with
//! one parallel map, sharing each design's implemented artifact
//! (netlist, routing graph, tile plan) as [`std::sync::Arc`]s across
//! every campaign that requests it.
//!
//! The layers, bottom-up:
//!
//! * [`json`] — the hand-rolled parser/escaper the wire protocol
//!   uses (the workspace is offline; there is no serde).
//! * [`request`] — [`request::CampaignRequest`]: the JSON request
//!   schema and its decoding into session-level objects.
//! * [`artifacts`] — [`artifacts::ArtifactStore`]: build each
//!   distinct (design, tiles, seed) implement once, share it forever.
//! * [`campaign`] — one request → one `DebugSession` campaign →
//!   a deterministic report document plus a `DebugEvent` stream.
//! * [`orchestrator`] — [`orchestrator::run_batch`] maps campaigns
//!   over worker threads (panics caught per campaign, every campaign
//!   always runs); [`orchestrator::serve`] wraps it in the
//!   requests-dir/reports-dir file-queue protocol the `debugd` bin
//!   speaks.
//! * [`telemetry`] — fleet-wide counters: campaigns/sec, per-phase
//!   effort ledgers, tap/ECO distributions, worker utilization,
//!   artifact-cache hits.
//!
//! Determinism contract: everything campaign-scoped (reports, event
//! streams) is bit-identical whatever the worker count; wall-clock
//! lives only in the telemetry. `tests/fleet.rs` enforces this.

pub mod artifacts;
pub mod campaign;
pub mod json;
pub mod orchestrator;
pub mod request;
pub mod telemetry;

pub use artifacts::{ArtifactStore, DesignArtifact};
pub use campaign::{run_campaign, run_campaign_observed, CampaignResult, CampaignStatus};
pub use orchestrator::{
    run_batch, run_batch_observed, serve, FleetOutcome, ServeOptions, ServeSummary,
};
pub use request::{CampaignRequest, FlowKind, PatternKind, StrategyKind};
pub use telemetry::FleetTelemetry;
