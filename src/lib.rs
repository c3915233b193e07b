//! # fpga-debug-tiling
//!
//! A from-scratch reproduction of *"Efficient Error Detection,
//! Localization, and Correction for FPGA-Based Debugging"* (Lach,
//! Mangione-Smith, Potkonjak — DAC 2000), including the entire CAD
//! substrate the paper sits on: an XC4000-style device model,
//! simulated-annealing placement, PathFinder routing, a cycle-accurate
//! emulation substrate, benchmark generators for all nine evaluation
//! designs, and the paper's contribution — **tiling**: physical-design
//! partitioning that confines each debugging iteration's
//! re-place-and-route to the affected tiles.
//!
//! This crate is a facade: it re-exports the workspace crates and adds
//! one convenience entry point, [`implement_paper_design`].
//!
//! ## Quickstart
//!
//! ```no_run
//! use fpga_debug_tiling::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate + map the paper's 9sym benchmark, implement it with 20%
//! // slack, 10 tiles, locked interfaces.
//! let mut td = fpga_debug_tiling::implement_paper_design(
//!     PaperDesign::NineSym,
//!     TilingOptions::default(),
//! )?;
//!
//! // Plant a design error, then run one full debug iteration:
//! // detect -> localize (observation-tap ECOs) -> correct. The
//! // session's strategy and physical flow are pluggable.
//! let golden = td.netlist.clone();
//! let error = sim::inject::random_error(&mut td.netlist, 7)?;
//! let outcome = DebugSession::new(&mut td, &golden)
//!     .strategy(BinarySearch::new())
//!     .seed(42)
//!     .run(&error)?;
//! assert!(outcome.repaired);
//! println!("per-phase effort:\n{}", outcome.ledger);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fpga;
pub use netlist;
pub use place;
pub use route;
pub use sim;
pub use synth;
pub use tiling;

use synth::PaperDesign;
use tiling::{TiledDesign, TilingError, TilingOptions};

/// Generates one of the paper's nine designs and runs the full tiled
/// implementation flow on it (place with slack → route → partition →
/// lock interfaces).
///
/// # Errors
///
/// Propagates generation and implementation failures.
pub fn implement_paper_design(
    design: PaperDesign,
    options: TilingOptions,
) -> Result<TiledDesign, TilingError> {
    tiling::implement(design.generate()?, options)
}

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use fpga::{BelLoc, ClbSlot, Coord, Device, Placement, Rect, Routing, RoutingGraph};
    pub use netlist::{CellId, CellKind, EcoOp, NetId, Netlist, TruthTable};
    pub use sim::{PatternGen, Simulator};
    pub use synth::PaperDesign;
    pub use tiling::{
        AffectedSet, BinarySearch, CadEffort, CampaignOutcome, ConePartition, DebugEvent,
        DebugOutcome, DebugReport, DebugSession, EffortLedger, EvidenceBase, FailureCluster,
        FullReplaceFlow, IncrementalFlow, LinearBatches, LocalizationStrategy, MultiErrorScheduler,
        ObservationWindow, PatternSpec, Phase, QuickEcoFlow, ReimplFlow, ResponseSignature,
        SuspectCone, TileId, TilePlan, TiledDesign, TiledFlow, TilingError, TilingOptions,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_implements_a_design() {
        let td = implement_paper_design(PaperDesign::NineSym, TilingOptions::fast(1)).unwrap();
        assert!(td.routing.is_feasible());
    }
}
