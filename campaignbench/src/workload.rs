//! The named workloads and the seed → request mapping.
//!
//! A workload is an endless, deterministic stream of
//! [`CampaignRequest`]s through the tiled flow. Request `i` has the
//! campaign *shape* `shapes[i % shapes.len()]` (design, strategy, error
//! budget), so every stretch of whole cycles visits the shapes in the
//! same proportions; its error seeds and session seed are hashed from
//! the workload seed and `i`. The program only ever sees the generated
//! requests.

use debugd::{CampaignRequest, StrategyKind};
use synth::PaperDesign;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential FSM designs, one client: simulation and diagnosis
    /// dominate.
    FsmTiled,
    /// Combinational designs, two clients: many short campaigns on a
    /// saturated farm.
    CombTiled,
}

/// One campaign shape: everything about a request except its seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// The design debugged.
    pub design: PaperDesign,
    /// The localization strategy.
    pub strategy: StrategyKind,
    /// Planted errors (the campaign's error budget).
    pub errors: usize,
}

/// Tile count of every artifact (the service default).
pub const TARGET_TILES: usize = 10;

/// Placer seed of every artifact (the service default). It is fixed,
/// not drawn from the workload seed: one placement can make a design's
/// ECOs several times dearer than another's, which would swamp the
/// campaign-to-campaign differences the seed is meant to vary.
pub const IMPL_SEED: u64 = 41;

const STRATEGIES: [StrategyKind; 2] = [StrategyKind::LinearBatches, StrategyKind::BinarySearch];

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 2] = [Self::FsmTiled, Self::CombTiled];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Self::FsmTiled => "fsm-tiled",
            Self::CombTiled => "comb-tiled",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients: each sends its next request as soon as the
    /// previous one returns.
    pub fn clients(self) -> usize {
        match self {
            Self::FsmTiled => 1,
            Self::CombTiled => 2,
        }
    }

    /// Requests in the checked prefix: the first whole cycles of the
    /// stream, which every run completes. The output fingerprint and the
    /// deterministic metrics are computed over them, so they repeat
    /// exactly for a given seed.
    pub fn prefix_len(self) -> usize {
        self.shapes().len()
            * match self {
                Self::FsmTiled => 20,
                Self::CombTiled => 50,
            }
    }

    /// The designs the workload debugs; one artifact each.
    pub fn designs(self) -> &'static [PaperDesign] {
        match self {
            Self::FsmTiled => &[PaperDesign::Styr, PaperDesign::Sand],
            Self::CombTiled => &[PaperDesign::NineSym, PaperDesign::C499, PaperDesign::C880],
        }
    }

    fn budgets(self) -> &'static [usize] {
        match self {
            Self::FsmTiled => &[1, 2, 3],
            Self::CombTiled => &[1, 2, 3, 4],
        }
    }

    /// One cycle of the stream: every combination of design, strategy
    /// and budget, with the design varying fastest so that consecutive
    /// requests alternate designs.
    pub fn shapes(self) -> Vec<Shape> {
        let mut shapes = Vec::new();
        for &errors in self.budgets() {
            for strategy in STRATEGIES {
                for &design in self.designs() {
                    shapes.push(Shape {
                        design,
                        strategy,
                        errors,
                    });
                }
            }
        }
        shapes
    }

    /// Request `i` of the stream for workload seed `seed`.
    pub fn request(self, shapes: &[Shape], seed: u64, i: usize) -> CampaignRequest {
        let shape = shapes[i % shapes.len()];
        let i = i as u64;
        CampaignRequest {
            id: format!("{}-{seed}-{i:05}", self.name()),
            design: shape.design,
            target_tiles: TARGET_TILES,
            impl_seed: IMPL_SEED,
            strategy: shape.strategy,
            seed: mix(seed, i, 0),
            error_seeds: (0..shape.errors as u64)
                .map(|e| mix(seed, i, 1 + e))
                .collect(),
            ..CampaignRequest::default()
        }
    }
}

/// A 32-bit seed for slot `slot` of request `i`: splitmix64 over the
/// workload seed, the request index and the slot.
fn mix(seed: u64, i: u64, slot: u64) -> u64 {
    let h = splitmix64(splitmix64(seed) ^ splitmix64(i.wrapping_mul(64).wrapping_add(slot)));
    h >> 32
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_other_seed_other_errors() {
        let w = Workload::CombTiled;
        let shapes = w.shapes();
        assert_eq!(shapes.len(), 24);
        let a = w.request(&shapes, 3, 17);
        assert_eq!(a, w.request(&shapes, 3, 17));
        assert_ne!(a.error_seeds, w.request(&shapes, 4, 17).error_seeds);
        assert_eq!(a.error_seeds.len(), shapes[17].errors);
        assert_eq!(a.flow, debugd::FlowKind::Tiled);
        assert!(a.validate().is_ok());
    }
}
