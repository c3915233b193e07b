//! The unified re-implementation surface: one [`ReimplFlow`] trait
//! covering the paper's tiled flow *and* the three Figure 5 rivals.
//!
//! Every flow answers the same question — "the netlist changed at
//! `seeds`, with `added` new cells awaiting placement; produce a
//! consistent physical implementation and report what it cost" — but
//! each pays a different price:
//!
//! * [`TiledFlow`] clears only the affected tiles ([`crate::eco_flow`]);
//! * [`FullReplaceFlow`] re-places-and-routes the whole design;
//! * [`IncrementalFlow`] re-implements an inflated window around the
//!   change;
//! * [`QuickEcoFlow`] re-implements at functional-block granularity.
//!
//! [`crate::session::DebugSession`] drives an arbitrary
//! `&mut dyn ReimplFlow` through a whole debugging campaign, which is
//! exactly the Figure 5 experiment: the *same* sequence of ECOs run
//! through rival physical flows.

use std::collections::BTreeSet;

use fpga::{NodeId, Placement, Rect, Routing};
use netlist::{CellId, NetId};
use place::Constraints;

use crate::affected::AffectedSet;
use crate::eco_flow::{replace_and_route, EcoPhysicalOutcome};
use crate::effort::CadEffort;
use crate::error::TilingError;
use crate::flow::TiledDesign;

/// A physical re-implementation flow.
///
/// Implementations **commit** their result to the [`TiledDesign`]:
/// after a successful call, placement and routing are consistent with
/// the (already edited) netlist, so a debug session can keep iterating
/// on the same design through any flow. Callers that only want the
/// *cost* of a flow run it on a clone (see [`crate::baselines`]).
///
/// ```no_run
/// use tiling::flows::{standard_flows, ReimplFlow};
/// # fn demo(td: &tiling::TiledDesign, victim: netlist::CellId)
/// #     -> Result<(), tiling::TilingError> {
/// // Figure 5: the same change, priced by every flow.
/// for mut flow in standard_flows() {
///     let mut trial = td.clone();
///     let outcome = flow.reimplement(&mut trial, &[victim], &[])?;
///     println!("{:<12} {}", flow.name(), outcome.effort);
/// }
/// # Ok(())
/// # }
/// ```
/// (The `Send` supertrait is load-bearing: campaign fleets move
/// boxed flows across worker threads — see the compile-time
/// assertions in [`crate::session`].)
pub trait ReimplFlow: Send {
    /// Short stable name for reports ("tiled", "full", ...).
    fn name(&self) -> &'static str;

    /// Re-implements the design after a netlist change.
    ///
    /// `seeds` are perturbed pre-existing cells (back-annotated from
    /// the ECO); `added` are newly created cells awaiting placement.
    ///
    /// # Errors
    ///
    /// Propagates placement/routing failures. On error the design's
    /// placement and routing are left as they were before the call
    /// (every flow snapshots or defers its commit), so a session can
    /// surface the error without corrupting the live design.
    fn reimplement(
        &mut self,
        td: &mut TiledDesign,
        seeds: &[CellId],
        added: &[CellId],
    ) -> Result<EcoPhysicalOutcome, TilingError>;
}

impl<T: ReimplFlow + ?Sized> ReimplFlow for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn reimplement(
        &mut self,
        td: &mut TiledDesign,
        seeds: &[CellId],
        added: &[CellId],
    ) -> Result<EcoPhysicalOutcome, TilingError> {
        (**self).reimplement(td, seeds, added)
    }
}

/// The paper's contribution: clear and re-implement only the affected
/// tiles, with every interface to the rest of the design locked.
#[derive(Debug, Clone, Copy, Default)]
pub struct TiledFlow;

impl ReimplFlow for TiledFlow {
    fn name(&self) -> &'static str {
        "tiled"
    }

    fn reimplement(
        &mut self,
        td: &mut TiledDesign,
        seeds: &[CellId],
        added: &[CellId],
    ) -> Result<EcoPhysicalOutcome, TilingError> {
        replace_and_route(td, seeds, added)
    }
}

/// Full re-place-and-route from scratch — what a flow without any
/// change tracking must do for every ECO.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullReplaceFlow;

impl ReimplFlow for FullReplaceFlow {
    fn name(&self) -> &'static str {
        "full"
    }

    fn reimplement(
        &mut self,
        td: &mut TiledDesign,
        _seeds: &[CellId],
        _added: &[CellId],
    ) -> Result<EcoPhysicalOutcome, TilingError> {
        let out = place::run_placer(
            &td.netlist,
            &td.device,
            &Constraints::free(),
            None,
            &td.options.placer,
        )?;
        let mut routing = Routing::new(td.rrg.num_nodes());
        let stats = route::route_design(
            &td.netlist,
            &out.placement,
            &td.rrg,
            &mut routing,
            &td.options.router,
        )?;
        td.placement = out.placement;
        td.routing = routing;
        let all_nets: Vec<NetId> = td.netlist.nets().map(|(id, _)| id).collect();
        route::normalize_routes(
            &td.netlist,
            &td.placement,
            &td.rrg,
            &mut td.routing,
            all_nets,
        );
        let replaced = td.netlist.cells().filter(|(_, c)| c.is_logic()).count();
        Ok(EcoPhysicalOutcome {
            effort: CadEffort {
                place_moves: out.moves_evaluated,
                route_expansions: stats.expansions,
            },
            cg_iterations: out.cg_iterations,
            affected: whole_design_affected(td)?,
            replaced_cells: replaced,
            rerouted_nets: td.routing.num_routed(),
            kept_routes: false,
            confined: false,
        })
    }
}

/// Incremental place-and-route: no locked interfaces, so the tool
/// re-places everything inside an *inflated* window around the change
/// (it needs room to shuffle surrounding logic) and fully re-routes
/// every net that touches the window.
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrementalFlow;

impl IncrementalFlow {
    /// Window inflation in CLBs on each side.
    const MARGIN: u16 = 2;
    /// CLB cost of new logic budgeted for when sizing the seed window.
    const EXTRA_CLBS: usize = 0;
}

impl ReimplFlow for IncrementalFlow {
    fn name(&self) -> &'static str {
        "incremental"
    }

    fn reimplement(
        &mut self,
        td: &mut TiledDesign,
        seeds: &[CellId],
        added: &[CellId],
    ) -> Result<EcoPhysicalOutcome, TilingError> {
        // Window: bounding box of the tiles the change maps to,
        // inflated by the margin.
        let affected = AffectedSet::compute(&td.plan, &td.placement, seeds, Self::EXTRA_CLBS)?;
        let mut bbox: Option<Rect> = None;
        for &t in &affected.tiles {
            let r = td.plan.tile(t)?.rect;
            bbox = Some(match bbox {
                None => r,
                Some(b) => b.union(&r),
            });
        }
        let b = td.device.bounds();
        let bbox = bbox.unwrap_or(b);
        let window = Rect::new(
            bbox.x0.saturating_sub(Self::MARGIN),
            bbox.y0.saturating_sub(Self::MARGIN),
            (bbox.x1 + Self::MARGIN).min(b.x1),
            (bbox.y1 + Self::MARGIN).min(b.y1),
        );
        let movable: Vec<CellId> = td
            .netlist
            .cells()
            .filter(|(id, c)| {
                c.is_logic()
                    && td
                        .placement
                        .loc_of(*id)
                        .and_then(|l| l.coord())
                        .is_some_and(|co| window.contains(co))
            })
            .map(|(id, _)| id)
            .collect();
        reimplement_subset(td, &movable, added, Some(window))
    }
}

/// Quick_ECO: change tracking stops at the netlist level, so the
/// re-implemented unit is the *functional block* — the hierarchy
/// children of the root. For the paper's experiments "each design
/// will be considered the size of one functional block" (§6), which
/// `whole_design_as_block` reproduces; with `false` the real hierarchy
/// blocks of our generators are used instead.
#[derive(Debug, Clone, Copy)]
pub struct QuickEcoFlow {
    /// Treat the whole design as one functional block (the paper's
    /// experimental setting).
    pub whole_design_as_block: bool,
}

impl Default for QuickEcoFlow {
    fn default() -> Self {
        Self {
            whole_design_as_block: true,
        }
    }
}

impl ReimplFlow for QuickEcoFlow {
    fn name(&self) -> &'static str {
        "quick_eco"
    }

    fn reimplement(
        &mut self,
        td: &mut TiledDesign,
        seeds: &[CellId],
        added: &[CellId],
    ) -> Result<EcoPhysicalOutcome, TilingError> {
        let movable: Vec<CellId> = if self.whole_design_as_block {
            td.netlist
                .cells()
                .filter(|(_, c)| c.is_logic())
                .map(|(id, _)| id)
                .collect()
        } else {
            let mut blocks = BTreeSet::new();
            for &s in seeds {
                if let Some(b) = td.hierarchy.functional_block_of(s) {
                    blocks.insert(b);
                }
            }
            let mut cells = BTreeSet::new();
            for b in blocks {
                for c in td.hierarchy.subtree_cells(b)? {
                    if td.netlist.cell(c).map(|cc| cc.is_logic()).unwrap_or(false) {
                        cells.insert(c);
                    }
                }
            }
            cells.into_iter().collect()
        };
        reimplement_subset(td, &movable, added, None)
    }
}

/// The four Figure 5 flows with their default settings, boxed for
/// uniform iteration. Order: tiled, full, incremental, quick_eco.
pub fn standard_flows() -> Vec<Box<dyn ReimplFlow>> {
    vec![
        Box::new(TiledFlow),
        Box::new(FullReplaceFlow),
        Box::new(IncrementalFlow),
        Box::new(QuickEcoFlow::default()),
    ]
}

/// `AffectedSet` covering every tile (the non-tiled flows disturb the
/// entire device).
fn whole_design_affected(td: &TiledDesign) -> Result<AffectedSet, TilingError> {
    let tiles: Vec<crate::tile::TileId> = td.plan.iter().map(|(id, _)| id).collect();
    let mut free_clbs = 0;
    for &t in &tiles {
        free_clbs += td.plan.usage(t, &td.placement)?.free_clbs();
    }
    Ok(AffectedSet {
        tiles,
        needed_clbs: 0,
        free_clbs,
        fits: true,
    })
}

/// Re-places `movable` plus any added logic (optionally confined to a
/// window) with the rest locked, then fully re-routes every net
/// incident to a moved cell. No interface locking: severed nets are
/// re-routed pin-to-pin, which is what both baseline flows do. The
/// result is committed to `td`; on error the design is restored to
/// its pre-call state (sessions drive these flows on the live design,
/// so a failed ECO must not leave it half-implemented).
fn reimplement_subset(
    td: &mut TiledDesign,
    movable: &[CellId],
    added: &[CellId],
    window: Option<Rect>,
) -> Result<EcoPhysicalOutcome, TilingError> {
    let placement_snapshot = td.placement.clone();
    let routing_snapshot = td.routing.clone();
    reimplement_subset_inner(td, movable, added, window).inspect_err(|_| {
        td.placement = placement_snapshot;
        td.routing = routing_snapshot;
    })
}

fn reimplement_subset_inner(
    td: &mut TiledDesign,
    movable: &[CellId],
    added: &[CellId],
    window: Option<Rect>,
) -> Result<EcoPhysicalOutcome, TilingError> {
    // Drop stale placements/routes of netlist-deleted objects
    // (retired instruments) — shared with the tiled flow.
    crate::flow::drop_stale_physical_state(td);

    // Moved set: the flow's movable selection plus added logic (added
    // IO cells go to free pads, constrained by site type, not window).
    let mut moved: BTreeSet<CellId> = movable.iter().copied().collect();
    for &c in added {
        if td.netlist.cell(c).map(|cc| cc.is_logic()).unwrap_or(false) {
            moved.insert(c);
        }
    }

    let mut placement: Placement = std::mem::take(&mut td.placement);
    for &c in &moved {
        let _ = placement.unplace(c);
    }
    let mut constraints = Constraints::free();
    for (id, _) in td.netlist.cells() {
        if moved.contains(&id) {
            if let Some(w) = window {
                constraints.confine(id, w);
            }
        } else if placement.loc_of(id).is_some() {
            constraints.lock(id);
        }
    }
    let out = place::run_placer(
        &td.netlist,
        &td.device,
        &constraints,
        Some(placement),
        &td.options.placer,
    )?;
    td.placement = out.placement;
    let mut effort = CadEffort {
        place_moves: out.moves_evaluated,
        route_expansions: 0,
    };
    let cg_iterations = out.cg_iterations;

    // Re-route, from scratch, every net incident to a moved cell plus
    // any net whose tree became stale (a terminal no longer matches a
    // live placed sink — e.g. a path to a retired observation pad).
    let mut work: BTreeSet<NetId> = BTreeSet::new();
    for (net_id, net) in td.netlist.nets() {
        let mut touched = net.driver.map(|d| moved.contains(&d)).unwrap_or(false);
        touched |= net.sinks.iter().any(|s| moved.contains(&s.cell));
        if !touched {
            if let Some(tree) = td.routing.route(net_id) {
                let live_pins: BTreeSet<NodeId> = net
                    .sinks
                    .iter()
                    .filter_map(|s| {
                        td.placement
                            .loc_of(s.cell)
                            .map(|l| td.rrg.sink_node(l, s.pin))
                    })
                    .collect();
                touched = tree.paths.iter().any(|p| {
                    let last = *p.last().expect("paths are non-empty");
                    let is_wire = matches!(
                        td.rrg.node(last),
                        fpga::NodeKind::ChanX { .. } | fpga::NodeKind::ChanY { .. }
                    );
                    !is_wire && !live_pins.contains(&last)
                });
            } else {
                // Unrouted net with live placed terminals: a new
                // connection (observation tap, control point) whose
                // cells did not need to move.
                touched = net.driver.is_some() && !net.sinks.is_empty();
            }
        }
        if touched {
            work.insert(net_id);
        }
    }
    for &n in &work {
        td.routing.clear_route(n);
    }
    let mut requests = Vec::with_capacity(work.len());
    for &net_id in &work {
        let net = td.netlist.net(net_id)?;
        let Some(driver) = net.driver else { continue };
        let Some(src_loc) = td.placement.loc_of(driver) else {
            continue;
        };
        let mut sinks = Vec::new();
        for s in &net.sinks {
            if let Some(loc) = td.placement.loc_of(s.cell) {
                sinks.push(td.rrg.sink_node(loc, s.pin));
            }
        }
        if sinks.is_empty() {
            continue;
        }
        requests.push(route::ConnectionRequest {
            net: net_id,
            source: td.rrg.source_node(src_loc),
            sinks,
        });
    }
    if !requests.is_empty() {
        let stats = route::route(&td.rrg, &requests, &mut td.routing, &td.options.router)?;
        effort.route_expansions = stats.expansions;
    }
    route::normalize_routes(
        &td.netlist,
        &td.placement,
        &td.rrg,
        &mut td.routing,
        work.iter().copied(),
    );

    // Affected tiles: those overlapping the window, or all of them
    // when the flow has no spatial confinement.
    let tiles: Vec<crate::tile::TileId> = match window {
        Some(w) => td
            .plan
            .iter()
            .filter(|(_, t)| t.rect.intersects(&w))
            .map(|(id, _)| id)
            .collect(),
        None => td.plan.iter().map(|(id, _)| id).collect(),
    };
    let mut free_clbs = 0;
    for &t in &tiles {
        free_clbs += td.plan.usage(t, &td.placement)?.free_clbs();
    }
    Ok(EcoPhysicalOutcome {
        effort,
        cg_iterations,
        affected: AffectedSet {
            tiles,
            needed_clbs: 0,
            free_clbs,
            fits: true,
        },
        replaced_cells: moved.len(),
        rerouted_nets: work.len(),
        kept_routes: false,
        confined: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{implement, TilingOptions};
    use synth::PaperDesign;

    fn victim_of(td: &TiledDesign) -> CellId {
        td.netlist
            .cells()
            .find(|(_, c)| c.lut_function().is_some())
            .map(|(id, _)| id)
            .unwrap()
    }

    #[test]
    fn every_flow_commits_a_feasible_implementation() {
        let b = PaperDesign::NineSym.generate().unwrap();
        let td0 = implement(b.netlist, b.hierarchy, TilingOptions::fast(31)).unwrap();
        let victim = victim_of(&td0);
        for mut flow in standard_flows() {
            let mut td = td0.clone();
            let tt = td
                .netlist
                .cell(victim)
                .unwrap()
                .lut_function()
                .unwrap()
                .complement();
            td.netlist.set_lut_function(victim, tt).unwrap();
            let out = flow.reimplement(&mut td, &[victim], &[]).unwrap();
            // A function-only change moves no cell and no net: the tiled
            // flow rewrites the LUT in place, while every rival flow
            // re-implements at least part of the design regardless.
            match flow.name() {
                "tiled" => assert_eq!(out.effort.total(), 0, "tiled did work"),
                "full" | "incremental" | "quick_eco" => {
                    assert!(out.effort.total() > 0, "{} did no work", flow.name());
                }
                other => panic!("unexpected flow {other}"),
            }
            assert!(
                td.routing.is_feasible(),
                "{} left infeasible routing",
                flow.name()
            );
            assert!(td.routing.num_routed() > 0, "{}", flow.name());
        }
    }

    #[test]
    fn full_flow_affects_every_tile_and_tiled_does_not() {
        let b = PaperDesign::NineSym.generate().unwrap();
        let td0 = implement(b.netlist, b.hierarchy, TilingOptions::fast(32)).unwrap();
        let victim = victim_of(&td0);

        let mut full_td = td0.clone();
        let full = FullReplaceFlow
            .reimplement(&mut full_td, &[victim], &[])
            .unwrap();
        assert_eq!(full.affected.tiles.len(), full_td.plan.len());

        let mut tiled_td = td0.clone();
        let tiled = TiledFlow
            .reimplement(&mut tiled_td, &[victim], &[])
            .unwrap();
        assert!(tiled.affected.tiles.len() < tiled_td.plan.len());
    }
}
