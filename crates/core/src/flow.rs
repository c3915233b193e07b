//! The global flow (paper §3.1 steps 1–8): implement a design with
//! resource slack, draw tile boundaries, lock interfaces.

use std::sync::Arc;

use fpga::{DelayModel, Device, Placement, Routing, RoutingGraph, TimingReport};
use netlist::{CellId, NetId, Netlist};
use place::{Constraints, PlacerConfig};
use route::RouteOptions;

use crate::effort::CadEffort;
use crate::error::TilingError;
use crate::partition::partition;
use crate::tile::{TileId, TilePlan};

/// Options for the tiled implementation flow.
#[derive(Debug, Clone)]
pub struct TilingOptions {
    /// Spare logic capacity to leave for future insertion (paper
    /// step 5's user-controlled parameter; Table 1 uses ~20%).
    pub overhead: f64,
    /// Number of tiles to partition into (the paper's worked examples
    /// use ten).
    pub target_tiles: usize,
    /// Routing channel width.
    pub tracks: u16,
    /// Annealer schedule.
    pub placer: PlacerConfig,
    /// Router parameters.
    pub router: RouteOptions,
}

impl Default for TilingOptions {
    fn default() -> Self {
        Self {
            overhead: 0.20,
            target_tiles: 10,
            tracks: 10,
            placer: PlacerConfig::default(),
            router: RouteOptions::default(),
        }
    }
}

impl TilingOptions {
    /// Light-effort options for tests: a short annealing schedule
    /// compensated by a slightly wider channel (low placement quality
    /// costs routability).
    pub fn fast(seed: u64) -> Self {
        Self {
            tracks: 12,
            placer: PlacerConfig::fast(seed),
            router: RouteOptions {
                max_iterations: 30,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// A fully implemented, tiled design: the object every debugging
/// iteration operates on.
///
/// The artifacts that are immutable after [`implement`] — the device,
/// its routing-resource graph, and the tile plan — are held behind
/// [`Arc`]s, so cloning a `TiledDesign` (one clone per
/// fleet campaign) shares them instead of duplicating them; only the
/// ECO-mutated state (netlist, placement, routing) is deep-copied.
/// Every flow reads these fields through deref coercion, which is why
/// the `Arc` wrappers stay invisible at call sites.
#[derive(Debug, Clone)]
pub struct TiledDesign {
    /// The mapped netlist (mutated by ECOs).
    pub netlist: Netlist,
    /// The slack-sized device (shared, immutable after implement).
    pub device: Arc<Device>,
    /// Its routing-resource graph (shared, immutable after
    /// implement — the heaviest artifact a fleet would otherwise
    /// clone per campaign).
    pub rrg: Arc<RoutingGraph>,
    /// Tile boundaries (shared, immutable after implement; tiles are
    /// unlocked transiently by flows via placement/routing state, not
    /// by mutating the plan).
    pub plan: Arc<TilePlan>,
    /// Current placement.
    pub placement: Placement,
    /// Current routing.
    pub routing: Routing,
    /// Effort of the initial full implementation (the Figure 5
    /// denominator's sibling: one full re-place-and-route).
    pub initial_effort: CadEffort,
    /// The options the design was implemented with.
    pub options: TilingOptions,
}

impl TiledDesign {
    /// Area overhead of the tiled layout: device CLB capacity over
    /// used CLBs, minus one (Table 1's `area overhead` column).
    pub fn area_overhead(&self) -> f64 {
        let used = self.netlist.stats().clb_estimate().max(1);
        self.device.num_clbs() as f64 / used as f64 - 1.0
    }

    /// Post-route static timing.
    ///
    /// # Errors
    ///
    /// Propagates combinational-loop detection.
    pub fn timing(&self) -> Result<TimingReport, TilingError> {
        Ok(TimingReport::analyze_routed(
            &self.netlist,
            &self.device,
            &self.placement,
            &self.routing,
            &self.rrg,
            &DelayModel::default(),
        )?)
    }

    /// Free CLBs in one tile.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::UnknownTile`] on bad ids.
    pub fn free_clbs(&self, tile: TileId) -> Result<usize, TilingError> {
        Ok(self.plan.usage(tile, &self.placement)?.free_clbs())
    }

    /// Total free CLBs across all tiles.
    pub fn total_free_clbs(&self) -> usize {
        self.plan
            .iter()
            .filter_map(|(id, _)| self.free_clbs(id).ok())
            .sum()
    }

    /// Average tile size in *used* CLBs (the paper quotes tile sizes
    /// this way: "ten tiles that average 23.5 CLBs" for s9234).
    pub fn mean_used_clbs_per_tile(&self) -> f64 {
        let used: usize = self
            .plan
            .iter()
            .filter_map(|(id, _)| self.plan.usage(id, &self.placement).ok())
            .map(|u| u.used_clbs())
            .sum();
        used as f64 / self.plan.len().max(1) as f64
    }
}

/// Drops physical state that refers to netlist-deleted objects:
/// placements of removed cells (retired observation taps and control
/// points) and routes of removed nets. Every re-implementation flow
/// calls this before touching placement or routing, so instrument
/// retirement folds into the next ECO regardless of which flow runs
/// it.
pub(crate) fn drop_stale_physical_state(td: &mut TiledDesign) {
    let stale: Vec<CellId> = td
        .placement
        .iter()
        .map(|(c, _)| c)
        .filter(|&c| td.netlist.cell(c).is_err())
        .collect();
    for c in stale {
        let _ = td.placement.unplace(c);
    }
    let dead: Vec<NetId> = td
        .routing
        .iter()
        .map(|(n, _)| n)
        .filter(|&n| td.netlist.net(n).is_err())
        .collect();
    for n in dead {
        td.routing.clear_route(n);
    }
}

/// Implements a design: place with slack, route, partition, lock.
///
/// This is paper steps 1–8. The returned [`TiledDesign`] has every
/// interface locked by construction (locking is the *default*; tiles
/// are unlocked only while an ECO clears them).
///
/// # Errors
///
/// Propagates device-sizing, placement, and routing failures.
pub fn implement(netlist: Netlist, options: TilingOptions) -> Result<TiledDesign, TilingError> {
    let stats = netlist.stats();
    let device = Device::for_design(
        stats.luts,
        stats.ffs,
        stats.inputs + stats.outputs,
        options.overhead,
        options.tracks,
    )?;
    let rrg = RoutingGraph::new(&device);

    // Step 5: place-and-route with resource slack.
    let outcome = place::run_placer(
        &netlist,
        &device,
        &Constraints::free(),
        None,
        &options.placer,
    )?;
    let mut placement = outcome.placement;
    let mut effort = CadEffort {
        place_moves: outcome.moves_evaluated,
        route_expansions: 0,
    };

    // Step 6: draw tile boundaries (cut-minimizing).
    let plan = partition(&netlist, &device, &placement, options.target_tiles);

    // Per-tile slack enforcement (paper step 5 is per-tile, not just
    // global): relocate cells out of tiles that kept less than half
    // the slack budget.
    rebalance(&netlist, &plan, &mut placement, options.overhead)?;

    // Route the full design (completes step 5's "and-route").
    let mut routing = Routing::new(rrg.num_nodes());
    let rstats = route::route_design(&netlist, &placement, &rrg, &mut routing, &options.router)?;
    effort.route_expansions = rstats.expansions;
    // Normalize trees so `sink_delay(k)` is exact for branched nets.
    let all_nets: Vec<netlist::NetId> = netlist.nets().map(|(id, _)| id).collect();
    route::normalize_routes(&netlist, &placement, &rrg, &mut routing, all_nets);

    // Steps 7–8: interfaces are locked by default from here on; the
    // ECO flow (crate::eco_flow) is the only code that unlocks tiles.
    Ok(TiledDesign {
        netlist,
        device: Arc::new(device),
        rrg: Arc::new(rrg),
        plan: Arc::new(plan),
        placement,
        routing,
        initial_effort: effort,
        options,
    })
}

/// Moves cells out of over-utilized tiles into adjacent slack until
/// every tile keeps at least `overhead / 2` of its capacity free. A
/// lone tile has no neighbour to shed into and is left as placed.
fn rebalance(
    nl: &Netlist,
    plan: &TilePlan,
    placement: &mut Placement,
    overhead: f64,
) -> Result<(), TilingError> {
    for _ in 0..4 * plan.len() {
        // Find the most over-utilized tile.
        let mut worst: Option<(TileId, usize, usize)> = None; // (tile, free, want)
        for (id, tile) in plan.iter() {
            let u = plan.usage(id, placement)?;
            let want = ((tile.capacity_clbs() as f64) * overhead / 2.0).floor() as usize;
            let free = u.free_clbs();
            if free < want {
                match worst {
                    Some((_, wf, ww)) if (ww - wf) >= (want - free) => {}
                    _ => worst = Some((id, free, want)),
                }
            }
        }
        let Some((tile, _, _)) = worst else {
            return Ok(());
        };
        // Move one cell from this tile to the adjacent tile with the
        // most slack.
        let neighbors = plan.neighbors(tile)?;
        let mut best_n: Option<(usize, TileId)> = None;
        for n in neighbors {
            let f = plan.usage(n, placement)?.free_clbs();
            if best_n.is_none_or(|(bf, _)| f > bf) {
                best_n = Some((f, n));
            }
        }
        let Some((nf, target)) = best_n else {
            return Ok(());
        };
        if nf == 0 {
            return Ok(()); // nowhere to shed load
        }
        let cells = plan.cells_in_tile(tile, nl, placement)?;
        let Some(&victim) = cells.last() else {
            return Ok(());
        };
        // Find a free compatible slot in the target tile.
        let rect = plan.tile(target)?.rect;
        let kind = &nl.cell(victim)?.kind;
        let mut moved = false;
        'scan: for c in rect.iter() {
            for slot in fpga::ClbSlot::ALL {
                let ok = match kind {
                    netlist::CellKind::Lut(_) => slot.is_lut(),
                    netlist::CellKind::Ff { .. } => slot.is_ff(),
                    _ => false,
                };
                if !ok {
                    continue;
                }
                let loc = fpga::BelLoc::Clb { coord: c, slot };
                if placement.is_free(loc) {
                    placement
                        .place(victim, loc)
                        .map_err(|_| TilingError::UnknownTile(target.index()))?;
                    moved = true;
                    break 'scan;
                }
            }
        }
        if !moved {
            return Ok(());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use synth::PaperDesign;

    fn implement_9sym() -> TiledDesign {
        let nl = PaperDesign::NineSym.generate().unwrap();
        implement(nl, TilingOptions::fast(7)).unwrap()
    }

    #[test]
    fn implement_produces_feasible_layout() {
        let td = implement_9sym();
        assert!(td.routing.is_feasible());
        assert!(td.routing.num_routed() > 0);
        assert!(td.initial_effort.total() > 0);
        // target_tiles = 10; the aspect-matched grid may round up.
        assert!(
            (10..=14).contains(&td.plan.len()),
            "{} tiles",
            td.plan.len()
        );
    }

    #[test]
    fn area_overhead_near_target() {
        let td = implement_9sym();
        let oh = td.area_overhead();
        // Square-grid rounding makes the overhead land at or a bit
        // above the requested 20%.
        assert!((0.18..=0.40).contains(&oh), "overhead {oh}");
    }

    #[test]
    fn tiles_keep_slack() {
        let td = implement_9sym();
        let mut starved = 0;
        for (id, tile) in td.plan.iter() {
            let free = td.free_clbs(id).unwrap();
            let want = ((tile.capacity_clbs() as f64) * td.options.overhead / 2.0).floor() as usize;
            if free < want {
                starved += 1;
            }
        }
        assert!(starved <= 2, "{starved} tiles below half the slack budget");
    }

    #[test]
    fn timing_is_positive_and_finite() {
        let td = implement_9sym();
        let t = td.timing().unwrap();
        assert!(t.critical_ns > 0.0);
        assert!(t.critical_ns < 1000.0);
    }
}
