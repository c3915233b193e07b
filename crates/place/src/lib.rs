//! Placement engines with region and lock constraints.
//!
//! Two engines, selected per call via [`config::PlaceEngine`] and
//! dispatched by [`run_placer`]:
//!
//! * **annealing** — the original VPR-style simulated annealer;
//! * **analytical** (default) — clique/star-decomposed quadratic
//!   wirelength solved by conjugate gradient, tetris legalization onto
//!   compatible BELs, then a short low-temperature anneal polish. Same
//!   final HPWL ballpark at a fraction of the moves.
//!
//! Both serve the tiling flow's two modes of operation:
//!
//! * **full placement** — every cell is movable anywhere on the device
//!   (paper step 2, and the full re-place-and-route baseline);
//! * **tile-confined placement** — most cells are *locked* at their
//!   existing locations and the movable rest carry a *region
//!   constraint* confining them to the cleared tile rectangles (paper
//!   steps 17–20). This is the mechanism by which "tiling is achieved
//!   through physical design constraints imposed on the place-and-route
//!   tool" (§3.2).
//!
//! Placement effort is metered in *moves evaluated*, the quantity
//! Figure 5's speedups are computed from (wall-clock on 1996 hardware
//! is not reproducible; the move count is, and is proportional). The
//! analytical engine folds its conjugate-gradient iterations into the
//! same meter so cross-engine comparisons stay honest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analytical;
pub mod config;
pub mod cost;
pub mod initial;
mod legalize;
mod placer;
pub mod sa;

pub use config::{Constraints, PlaceEngine, PlacerConfig};
pub use cost::{net_bbox_cost, total_wirelength_cost};
pub use initial::initial_place;
pub use placer::run_placer;
pub use sa::{place, PlaceError, PlaceOutcome};
