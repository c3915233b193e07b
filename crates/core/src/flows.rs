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
//! * [`QuickEcoFlow`] re-implements at functional-block granularity,
//!   which for the paper's experiments is the whole design.
//!
//! [`crate::session::DebugSession`] drives an arbitrary
//! `&mut dyn ReimplFlow` through a whole debugging campaign, which is
//! exactly the Figure 5 experiment: the *same* sequence of ECOs run
//! through rival physical flows.

use std::collections::BTreeSet;

use fpga::{NodeId, Rect, Routing};
use netlist::{CellId, NetId};
use place::Constraints;

use crate::affected::AffectedSet;
use crate::eco_flow::{
    added_logic, full_reroute, or_restore, place_moved, replace_and_route, EcoPhysicalOutcome,
    Spent,
};
use crate::effort::CadEffort;
use crate::error::TilingError;
use crate::flow::{drop_stale_physical_state, TiledDesign};

/// A physical re-implementation flow.
///
/// Implementations **commit** their result to the [`TiledDesign`]:
/// after a successful call, placement and routing are consistent with
/// the (already edited) netlist, so a debug session can keep iterating
/// on the same design through any flow. Callers that only want the
/// *cost* of a flow run it on a clone (see [`flow_effort`]).
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
    /// (the full flow commits only once it succeeded; the others copy
    /// the placement and roll the routing back through its undo log),
    /// so a session can surface the error without corrupting the live
    /// design.
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
        let mut spent = Spent::default();
        spent.place(&out);
        // Commit only once routing succeeded, so a failed call leaves
        // the design as it was.
        let mut routing = Routing::new(td.rrg.num_nodes());
        full_reroute(
            &td.netlist,
            &td.rrg,
            &out.placement,
            &mut routing,
            &td.options.router,
            &mut spent,
        )?;
        td.placement = out.placement;
        td.routing = routing;
        let all_tiles = td.plan.iter().map(|(id, _)| id).collect();
        Ok(EcoPhysicalOutcome {
            effort: spent.effort,
            cg_iterations: spent.cg_iterations,
            affected: AffectedSet::of_tiles(&td.plan, &td.placement, all_tiles, 0)?,
            replaced_cells: td.netlist.cells().filter(|(_, c)| c.is_logic()).count(),
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
        let b = td.device.bounds();
        let bbox = AffectedSet::compute(&td.plan, &td.placement, seeds, Self::EXTRA_CLBS)?
            .rects(&td.plan)?
            .into_iter()
            .reduce(|bbox, r| bbox.union(&r))
            .unwrap_or(b);
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
/// re-implemented unit is the *functional block*. For the paper's
/// experiments "each design will be considered the size of one
/// functional block" (§6), so every logic cell is re-placed.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuickEcoFlow;

impl ReimplFlow for QuickEcoFlow {
    fn name(&self) -> &'static str {
        "quick_eco"
    }

    fn reimplement(
        &mut self,
        td: &mut TiledDesign,
        _seeds: &[CellId],
        added: &[CellId],
    ) -> Result<EcoPhysicalOutcome, TilingError> {
        let movable: Vec<CellId> = td
            .netlist
            .cells()
            .filter(|(_, c)| c.is_logic())
            .map(|(id, _)| id)
            .collect();
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
        Box::new(QuickEcoFlow),
    ]
}

/// Prices `flow` on a clone of the design: the clone is
/// re-implemented, the caller's design is untouched, and only the
/// effort is returned — the CAD effort the flow spends on the same
/// change the tiled flow handled.
///
/// # Errors
///
/// Propagates placement/routing failures.
pub fn flow_effort(
    td: &TiledDesign,
    flow: &mut dyn ReimplFlow,
    seeds: &[CellId],
) -> Result<CadEffort, TilingError> {
    let mut trial = td.clone();
    Ok(flow.reimplement(&mut trial, seeds, &[])?.effort)
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
    or_restore(td, |td, _| {
        // Drop stale placements/routes of netlist-deleted objects
        // (retired instruments) — shared with the tiled flow.
        drop_stale_physical_state(td);

        // Moved set: the flow's movable selection plus added logic
        // (added IO cells go to free pads, constrained by site type,
        // not window).
        let mut moved: BTreeSet<CellId> = movable.iter().copied().collect();
        moved.extend(added_logic(&td.netlist, added));
        let mut spent = Spent::default();
        let moved_cells: Vec<CellId> = moved.iter().copied().collect();
        place_moved(td, &moved_cells, window.as_slice(), &mut spent)?;

        // Re-route, from scratch, every net incident to a moved cell
        // plus any net whose tree became stale (a terminal no longer
        // matches a live placed sink — e.g. a path to a retired
        // observation pad).
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
            spent.effort.route_expansions += stats.expansions;
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
        Ok(EcoPhysicalOutcome {
            effort: spent.effort,
            cg_iterations: spent.cg_iterations,
            affected: AffectedSet::of_tiles(&td.plan, &td.placement, tiles, 0)?,
            replaced_cells: moved.len(),
            rerouted_nets: work.len(),
            kept_routes: false,
            confined: false,
        })
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
        let nl = PaperDesign::NineSym.generate().unwrap();
        let td0 = implement(nl, TilingOptions::fast(31)).unwrap();
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
        let nl = PaperDesign::NineSym.generate().unwrap();
        let td0 = implement(nl, TilingOptions::fast(32)).unwrap();
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

    #[test]
    fn tiling_beats_the_baselines_on_a_small_change() {
        let nl = PaperDesign::NineSym.generate().unwrap();
        let mut td = implement(nl, TilingOptions::fast(21)).unwrap();
        let victim = victim_of(&td);
        // One observation tap: a new output pad to place and the
        // tapped net to route to it, so every flow pays something (a
        // function-only change costs the tiled flow nothing at all).
        let net = td.netlist.cell_output(victim).unwrap();
        let added = sim::testlogic::insert_observation_tap(&mut td.netlist, net, "tap", false)
            .unwrap()
            .added;

        // All four flows priced through the one trait, on the same
        // change (the Figure 5 harness shape).
        let mut efforts = std::collections::HashMap::new();
        for mut flow in standard_flows() {
            let name = flow.name();
            let effort = flow
                .reimplement(&mut td.clone(), &[victim], &added)
                .unwrap()
                .effort;
            efforts.insert(name, effort);
        }
        let full = efforts["full"];
        let quick = efforts["quick_eco"];
        let incr = efforts["incremental"];

        // The tiled flow commits for real (the state the next debug
        // step iterates on).
        let tiled = TiledFlow
            .reimplement(&mut td, &[victim], &added)
            .unwrap()
            .effort;
        assert_eq!(
            efforts["tiled"].total(),
            tiled.total(),
            "probe and committed tiled run disagree"
        );
        assert!(tiled.total() > 0, "a tap places a pad and routes a net");

        assert!(
            full.total() > tiled.total(),
            "full {} vs tiled {}",
            full,
            tiled
        );
        assert!(
            quick.total() > tiled.total(),
            "quick {} vs tiled {}",
            quick,
            tiled
        );
        assert!(
            incr.total() >= tiled.total(),
            "incr {} vs tiled {}",
            incr,
            tiled
        );
        // And the orderings the paper reports: full >= quick(whole) >= incremental.
        assert!(full.total() >= incr.total());
    }
}
