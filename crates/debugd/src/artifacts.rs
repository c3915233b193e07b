//! Shared, deduplicated design artifacts.
//!
//! `implement()` is the expensive step of any campaign — synthesis,
//! partitioning, annealed placement, PathFinder routing. Its output
//! is also exactly the state that is immutable across a debugging
//! campaign's *start points*: every campaign begins from the same
//! tiled design and golden netlist. The store therefore builds each
//! distinct (design, tiles, seed) artifact once and hands out
//! [`Arc`]s; campaigns clone the [`TiledDesign`] they mutate, and the
//! clone shares the device/RRG/tile-plan `Arc`s inside it —
//! so a thousand concurrent campaigns on one design carry one routing
//! graph between them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use netlist::Netlist;
use place::PlacerConfig;
use synth::PaperDesign;
use tiling::{implement, TiledDesign, TilingError, TilingOptions};

use crate::request::CampaignRequest;

/// One implemented design, shared read-only across campaigns.
#[derive(Debug)]
pub struct DesignArtifact {
    /// The design this artifact implements.
    pub design: PaperDesign,
    /// The tiled implementation campaigns start from.
    pub td: TiledDesign,
    /// The golden reference model (pre-injection netlist).
    pub golden: Netlist,
}

/// Channel width per design: denser designs need wider channels to
/// route at low slack (the XC4000 family likewise scaled its routing
/// with array size).
fn tracks_for(design: PaperDesign) -> u16 {
    if design.paper_clbs() >= 200 {
        18
    } else {
        11
    }
}

/// The paper's implement options, shared by service campaigns and
/// the bench sweeps: 20% slack, `target_tiles` tiles, the design's
/// channel width, deterministic seeds.
pub fn implement_options(design: PaperDesign, target_tiles: usize, seed: u64) -> TilingOptions {
    TilingOptions {
        overhead: 0.20,
        target_tiles,
        tracks: tracks_for(design),
        placer: PlacerConfig {
            seed,
            max_temps: 120,
            ..Default::default()
        },
        router: route::RouteOptions {
            max_iterations: 45,
            ..Default::default()
        },
    }
}

/// Builds one artifact from scratch (no store involved).
///
/// # Errors
///
/// Propagates generation / implementation failures.
pub fn build_artifact(
    design: PaperDesign,
    target_tiles: usize,
    seed: u64,
) -> Result<DesignArtifact, TilingError> {
    let td = implement(
        design.generate()?,
        implement_options(design, target_tiles, seed),
    )?;
    let golden = td.netlist.clone();
    Ok(DesignArtifact { design, td, golden })
}

/// Deduplicating artifact cache, safe to hit from every worker.
#[derive(Debug, Default)]
pub struct ArtifactStore {
    map: Mutex<HashMap<String, Arc<DesignArtifact>>>,
    builds: AtomicUsize,
    hits: AtomicUsize,
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The artifact a request runs against, building it on first use.
    ///
    /// Held under a store-wide lock for the duration of a build: the
    /// fleet's request batches are grouped by artifact anyway (see
    /// [`crate::orchestrator::run_batch`]), so serializing the rare
    /// build beats letting two workers implement the same design.
    ///
    /// # Errors
    ///
    /// Propagates implementation failures; failed builds are not
    /// cached, so a later request may retry.
    pub fn get_or_build(&self, req: &CampaignRequest) -> Result<Arc<DesignArtifact>, TilingError> {
        let key = req.artifact_key();
        let mut map = self.map.lock().expect("artifact store poisoned");
        if let Some(a) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(a));
        }
        let built = Arc::new(build_artifact(req.design, req.target_tiles, req.impl_seed)?);
        self.builds.fetch_add(1, Ordering::Relaxed);
        map.insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// (artifacts built, cache hits) so far.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.builds.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_are_paper_shaped() {
        let o = implement_options(PaperDesign::NineSym, 10, 3);
        assert!((o.overhead - 0.20).abs() < 1e-9);
        assert_eq!(o.target_tiles, 10);
        assert_eq!(o.placer.seed, 3);
        assert!(tracks_for(PaperDesign::Des) > tracks_for(PaperDesign::NineSym));
    }

    #[test]
    fn store_dedups_by_design_tiles_seed() {
        let store = ArtifactStore::new();
        let a = CampaignRequest {
            id: "a".into(),
            ..Default::default()
        };
        let b = CampaignRequest {
            id: "b".into(),
            ..Default::default()
        };
        let mut c = a.clone();
        c.impl_seed += 1;
        let ra = store.get_or_build(&a).unwrap();
        let rb = store.get_or_build(&b).unwrap();
        let rc = store.get_or_build(&c).unwrap();
        assert!(Arc::ptr_eq(&ra, &rb), "same key must share one artifact");
        assert!(
            !Arc::ptr_eq(&ra, &rc),
            "different impl seed is a new artifact"
        );
        assert_eq!(store.stats(), (2, 1));
        // The campaign-side clone shares the immutable innards.
        let clone = ra.td.clone();
        assert!(Arc::ptr_eq(&clone.rrg, &ra.td.rrg));
        assert!(Arc::ptr_eq(&clone.plan, &ra.td.plan));
        assert!(Arc::ptr_eq(&clone.device, &ra.td.device));
    }
}
