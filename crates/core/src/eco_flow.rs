//! Clear affected tiles and re-place-and-route them (paper §5.2).
//!
//! "Any tile that contains a design portion affected by the debugging
//! change must be cleared, while still maintaining the locked
//! interface to its surrounding tiles. [...] Once all of the affected
//! tiles are cleared, the remainder of the design is locked to its
//! location. The affected portions are then re-placed-and-routed in
//! the cleared tiles, any removed interfaces are re-locked."
//!
//! Two routing passes implement that: a *masked* pass confined to the
//! cleared region whose nets terminate on locked interface nodes, and
//! a small *free* pass for connections that inherently leave the
//! region (new pads, new cross-region connections, feedthroughs) —
//! those may use only free routing resources elsewhere, never locked
//! ones.

use std::collections::BTreeSet;
use std::ops::AddAssign;

use fpga::{NodeId, RouteTree};
use netlist::{CellId, CellKind, NetId};
use place::Constraints;
use route::{ConnectionRequest, RouteOptions};

use crate::affected::AffectedSet;
use crate::effort::CadEffort;
use crate::error::TilingError;
use crate::flow::TiledDesign;
use crate::interface::{split_tree, RegionSet};

/// Result of one tile-confined re-implementation.
#[derive(Debug, Clone)]
pub struct EcoPhysicalOutcome {
    /// CAD effort spent (Figure 5's numerator for the tiled flow).
    pub effort: CadEffort,
    /// Conjugate-gradient iterations the analytical placer spent
    /// (already folded into `effort.place_moves`).
    pub cg_iterations: u64,
    /// Which tiles were cleared.
    pub affected: AffectedSet,
    /// Logic cells re-placed.
    pub replaced_cells: usize,
    /// Nets re-routed (fully or partially).
    pub rerouted_nets: usize,
    /// Whether every surviving route stayed installed, so only the
    /// `rerouted_nets` whose terminals changed were ripped (the tiled
    /// flow's incremental path). `false` when routes were cleared and
    /// re-routed from scratch.
    pub kept_routes: bool,
    /// Whether the re-route stayed confined to the affected tiles, so
    /// the locked-interface / frozen-route contract holds outside them.
    /// The coarse-granularity and full-reroute fallback paths (and the
    /// non-tiled flows) legitimately clear routes everywhere and
    /// report `false`; the post-ECO audit only applies when `true`.
    pub confined: bool,
}

/// CAD work an attempt paid for, charged to the ECO whether or not
/// the attempt succeeded.
#[derive(Debug, Clone, Copy, Default)]
struct Spent {
    effort: CadEffort,
    cg_iterations: u64,
}

impl Spent {
    fn place(&mut self, out: &place::PlaceOutcome) {
        self.effort.place_moves += out.moves_evaluated;
        self.cg_iterations += out.cg_iterations;
    }
}

impl AddAssign for Spent {
    fn add_assign(&mut self, rhs: Spent) {
        self.effort += rhs.effort;
        self.cg_iterations += rhs.cg_iterations;
    }
}

/// Clears the tiles affected by a change and re-implements them.
///
/// `seeds` are the perturbed pre-existing cells (back-annotated from
/// the ECO); `added` are newly created cells awaiting placement. The
/// rest of the design — placement and routing — is locked and
/// provably untouched on return.
///
/// Tile expansion is driven by *both* resources: logic slack first
/// (the [`AffectedSet`] computation), and if the confined routing then
/// fails to converge, neighbouring tiles are drafted and the attempt
/// repeats — "if more resources are needed, neighboring tiles can
/// also be re-placed-and-routed" (§1.2) applies to wires as much as
/// to CLBs. The effort of failed attempts is charged to the outcome,
/// as a real flow would pay for them.
///
/// # Errors
///
/// [`TilingError::InsufficientSlack`] if the change cannot fit even
/// with every tile affected; placement/routing errors otherwise.
pub fn replace_and_route(
    td: &mut TiledDesign,
    seeds: &[CellId],
    added: &[CellId],
) -> Result<EcoPhysicalOutcome, TilingError> {
    // Resource demand of the new logic, in CLBs.
    let (mut new_luts, mut new_ffs) = (0usize, 0usize);
    for &c in added {
        match td.netlist.cell(c).map(|cell| cell.kind.clone()) {
            Ok(CellKind::Lut(_)) => new_luts += 1,
            Ok(CellKind::Ff { .. }) => new_ffs += 1,
            _ => {}
        }
    }
    let extra_clbs = new_luts.max(new_ffs).div_ceil(2);

    // Steps 16–17: identify affected tiles (with neighbour expansion).
    let affected = AffectedSet::compute(&td.plan, &td.placement, seeds, extra_clbs)?;
    if !affected.fits {
        return Err(TilingError::InsufficientSlack {
            needed: extra_clbs,
            available: affected.free_clbs,
        });
    }

    let placement_snapshot = td.placement.clone();
    let routing_snapshot = td.routing.clone();
    let mut tiles = affected.tiles.clone();
    let mut wasted = Spent::default();
    let mut retries = 0usize;
    // The truly incremental path goes first: nothing is cleared, only
    // missing connections are routed. One shot — if the surviving
    // routes leave too little capacity, tile-clearing takes over.
    let mut try_incremental = td.options.incremental_routing;
    loop {
        let incremental_now = std::mem::take(&mut try_incremental);
        let result = if incremental_now {
            attempt_incremental(td, &tiles, added, extra_clbs)
        } else {
            attempt(td, &tiles, added, extra_clbs)
        };
        match result {
            Ok(mut outcome) => {
                outcome.effort += wasted.effort;
                outcome.cg_iterations += wasted.cg_iterations;
                // Debug builds re-prove the paper's contract after
                // every confined ECO: everything outside the cleared
                // tiles — placements and cross-boundary routes — is
                // byte-identical to the snapshots. A violation here is
                // a flow bug, not bad input (pre-flight owns input),
                // so it asserts rather than returning an error.
                #[cfg(debug_assertions)]
                if outcome.confined {
                    let findings = crate::preflight::audit_confined_eco(
                        td,
                        &outcome.affected.tiles,
                        &placement_snapshot,
                        &routing_snapshot,
                    );
                    assert!(
                        findings.is_empty(),
                        "post-ECO DRC audit failed:\n{}",
                        findings
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join("\n")
                    );
                }
                return Ok(outcome);
            }
            // The incremental attempt is best-effort: capacity
            // shortfalls (congestion around the frozen routes, or no
            // free slot for added logic) demote to tile-clearing on
            // the same tiles, with the failed attempt's effort
            // charged. Anything else is a real error.
            Err((TilingError::Route(_) | TilingError::Place(_), spent)) if incremental_now => {
                wasted += spent;
                td.placement = placement_snapshot.clone();
                td.routing = routing_snapshot.clone();
            }
            // Once expansion retries stop being promising — half the
            // device drafted, or several failures already paid for —
            // the cheapest guaranteed exit is one full re-route, which
            // bounds tiled effort by the non-tiled flow's (§6.1).
            Err((TilingError::Route(_), spent))
                if tiles.len() >= td.plan.len()
                    || 2 * tiles.len() >= td.plan.len()
                    || retries >= 3 =>
            {
                // Every tile is already drafted and confined routing
                // still fails: degenerate to a full re-route from the
                // current placement — "the resulting CAD tool effort
                // will never exceed that required by a non-tiled
                // approach" (§6.1). Placement from the failed attempt
                // is kept (all tiles were movable anyway).
                wasted += spent;
                let all_nets: Vec<NetId> = td.routing.iter().map(|(n, _)| n).collect();
                for n in all_nets {
                    td.routing.clear_route(n);
                }
                // Last resort gets a patient schedule: it replaces the
                // entire iteration, so spending double the iterations
                // here is still far cheaper than failing.
                let fallback_router = route::RouteOptions {
                    max_iterations: td.options.router.max_iterations * 2,
                    stall_limit: td.options.router.stall_limit * 2,
                    ..td.options.router.clone()
                };
                let stats = route::route_design(
                    &td.netlist,
                    &td.placement,
                    &td.rrg,
                    &mut td.routing,
                    &fallback_router,
                )
                .map_err(|e| {
                    td.placement = placement_snapshot.clone();
                    td.routing = routing_snapshot.clone();
                    TilingError::Route(e)
                })?;
                wasted.effort.route_expansions += stats.expansions;
                let mut free_clbs = 0;
                for &t in &tiles {
                    free_clbs += td.plan.usage(t, &td.placement)?.free_clbs();
                }
                return Ok(EcoPhysicalOutcome {
                    effort: wasted.effort,
                    cg_iterations: wasted.cg_iterations,
                    affected: AffectedSet {
                        tiles,
                        needed_clbs: extra_clbs,
                        free_clbs,
                        fits: true,
                    },
                    replaced_cells: td.netlist.cells().filter(|(_, c)| c.is_logic()).count(),
                    rerouted_nets: td.routing.num_routed(),
                    kept_routes: false,
                    confined: false,
                });
            }
            Err((TilingError::Route(_), spent)) if tiles.len() < td.plan.len() => {
                // Routing capacity ran out: draft the most-free
                // neighbouring tile and retry on the pristine state.
                retries += 1;
                wasted += spent;
                td.placement = placement_snapshot.clone();
                td.routing = routing_snapshot.clone();
                let mut best: Option<(usize, crate::tile::TileId)> = None;
                for &t in &tiles {
                    for nb in td.plan.neighbors(t)? {
                        if tiles.contains(&nb) {
                            continue;
                        }
                        let f = td.plan.usage(nb, &td.placement)?.free_clbs();
                        if best.is_none_or(|(bf, bid)| f > bf || (f == bf && nb < bid)) {
                            best = Some((f, nb));
                        }
                    }
                }
                match best {
                    Some((_, nb)) => tiles.push(nb),
                    None => {
                        // No neighbours left (disjoint saturated set):
                        // add any remaining tile.
                        let next = td
                            .plan
                            .iter()
                            .map(|(id, _)| id)
                            .find(|id| !tiles.contains(id));
                        match next {
                            Some(id) => tiles.push(id),
                            None => unreachable!("guarded by tiles.len() < plan.len()"),
                        }
                    }
                }
            }
            Err((e, _)) => {
                td.placement = placement_snapshot;
                td.routing = routing_snapshot;
                return Err(e);
            }
        }
    }
}

/// One truly incremental attempt: no clearing at all.
///
/// Surviving placements and routes stay installed (so the router sees
/// their present congestion and treats their wires as locked), added
/// logic is placed into the affected tiles, and only nets whose
/// terminals changed — new nets, added sinks, retired sinks, moved or
/// replaced drivers — are touched. Ripping is minimal: a net keeps
/// every source-connected path that still ends on a live sink pin, and
/// the router grows the missing connections from that seed tree.
///
/// On error the caller restores the snapshots and retries with the
/// tile-clearing path; the work spent is returned so it is charged.
fn attempt_incremental(
    td: &mut TiledDesign,
    tiles: &[crate::tile::TileId],
    added: &[CellId],
    extra_clbs: usize,
) -> Result<EcoPhysicalOutcome, (TilingError, Spent)> {
    let mut spent = Spent::default();
    attempt_incremental_inner(td, tiles, added, extra_clbs, &mut spent).map_err(|e| (e, spent))
}

fn attempt_incremental_inner(
    td: &mut TiledDesign,
    tiles: &[crate::tile::TileId],
    added: &[CellId],
    extra_clbs: usize,
    spent: &mut Spent,
) -> Result<EcoPhysicalOutcome, TilingError> {
    let mut free_clbs = 0;
    for &t in tiles {
        free_clbs += td.plan.usage(t, &td.placement)?.free_clbs();
    }
    let affected = AffectedSet {
        tiles: tiles.to_vec(),
        needed_clbs: extra_clbs,
        free_clbs,
        fits: free_clbs >= extra_clbs,
    };
    let rects: Vec<fpga::Rect> = affected
        .tiles
        .iter()
        .map(|&t| td.plan.tile(t).map(|tile| tile.rect))
        .collect::<Result<_, _>>()?;

    // Retired instruments lose their placements/routes first, so their
    // resources are genuinely free for the new connections.
    crate::flow::drop_stale_physical_state(td);

    // ----- Place only the added logic ------------------------------
    let added_logic: Vec<CellId> = added
        .iter()
        .copied()
        .filter(|&c| td.netlist.cell(c).is_ok_and(netlist::Cell::is_logic))
        .collect();
    let placeable = added
        .iter()
        .any(|&c| td.netlist.cell(c).is_ok() && td.placement.loc_of(c).is_none());
    if placeable {
        let mut constraints = Constraints::free();
        for (id, _) in td.netlist.cells() {
            if td.placement.loc_of(id).is_some() {
                constraints.lock(id);
            }
        }
        for &c in &added_logic {
            constraints.confine_any(c, rects.clone());
        }
        let out = place::run_placer(
            &td.netlist,
            &td.device,
            &constraints,
            Some(std::mem::take(&mut td.placement)),
            &td.options.placer,
        )?;
        spent.place(&out);
        td.placement = out.placement;
    }

    // ----- Minimal routing work list --------------------------------
    // A net needs work iff its installed tree no longer matches its
    // terminals. Everything else stays untouched — including nets
    // threading through the affected tiles.
    let mut requests: Vec<ConnectionRequest> = Vec::new();
    let mut touched: BTreeSet<NetId> = BTreeSet::new();
    let net_ids: Vec<NetId> = td.netlist.nets().map(|(id, _)| id).collect();
    for net_id in net_ids {
        let net = td.netlist.net(net_id)?.clone();
        let Some(driver) = net.driver else {
            if td.routing.route(net_id).is_some() {
                td.routing.clear_route(net_id);
                touched.insert(net_id);
            }
            continue;
        };
        let Some(driver_loc) = td.placement.loc_of(driver) else {
            continue;
        };
        let source = td.rrg.source_node(driver_loc);
        let mut pins: Vec<NodeId> = net
            .sinks
            .iter()
            .filter_map(|s| {
                td.placement
                    .loc_of(s.cell)
                    .map(|loc| td.rrg.sink_node(loc, s.pin))
            })
            .collect();
        pins.sort_unstable();
        pins.dedup();
        let tree = td.routing.route(net_id).cloned();
        let Some(tree) = tree else {
            if !pins.is_empty() {
                requests.push(ConnectionRequest {
                    net: net_id,
                    source,
                    sinks: pins,
                });
                touched.insert(net_id);
            }
            continue;
        };
        if tree.paths.iter().any(|p| p.first() != Some(&source)) {
            // Driver replaced or re-sourced: the tree's root is stale,
            // so the whole net reroutes (its wires are freed first).
            td.routing.clear_route(net_id);
            touched.insert(net_id);
            if !pins.is_empty() {
                requests.push(ConnectionRequest {
                    net: net_id,
                    source,
                    sinks: pins,
                });
            }
            continue;
        }
        let pin_set: BTreeSet<NodeId> = pins.iter().copied().collect();
        let endpoints: BTreeSet<NodeId> = tree
            .paths
            .iter()
            .filter_map(|p| p.last().copied())
            .collect();
        let missing: Vec<NodeId> = pins
            .iter()
            .copied()
            .filter(|p| !endpoints.contains(p))
            .collect();
        let keep: Vec<Vec<NodeId>> = tree
            .paths
            .iter()
            .filter(|p| p.last().is_some_and(|l| pin_set.contains(l)))
            .cloned()
            .collect();
        if keep.len() < tree.paths.len() {
            // A sink retired (e.g. a removed observation tap): strip
            // its path so the wires are freed instead of squatting.
            td.routing.clear_route(net_id);
            if !keep.is_empty() {
                td.routing.set_route(net_id, RouteTree { paths: keep });
            }
            touched.insert(net_id);
        }
        if !missing.is_empty() {
            requests.push(ConnectionRequest {
                net: net_id,
                source,
                sinks: missing,
            });
            touched.insert(net_id);
        }
    }

    // ----- One free routing pass ------------------------------------
    // No mask: new connections (taps, pads) may legitimately leave the
    // region, and every surviving route is locked, so the request nets
    // negotiate only among themselves on genuinely free resources.
    if !requests.is_empty() {
        let stats = route::route(&td.rrg, &requests, &mut td.routing, &td.options.router)?;
        spent.effort.route_expansions += stats.expansions;
    }

    route::normalize_routes(
        &td.netlist,
        &td.placement,
        &td.rrg,
        &mut td.routing,
        touched.iter().copied(),
    );

    Ok(EcoPhysicalOutcome {
        effort: spent.effort,
        cg_iterations: spent.cg_iterations,
        affected,
        replaced_cells: added_logic.len(),
        rerouted_nets: touched.len(),
        kept_routes: true,
        confined: true,
    })
}

/// One clear/re-place/re-route attempt on an explicit tile set.
///
/// On error the caller restores the design from its snapshots; the
/// work spent is returned alongside so it can be charged.
fn attempt(
    td: &mut TiledDesign,
    tiles: &[crate::tile::TileId],
    added: &[CellId],
    extra_clbs: usize,
) -> Result<EcoPhysicalOutcome, (TilingError, Spent)> {
    let mut spent = Spent::default();
    attempt_inner(td, tiles, added, extra_clbs, &mut spent).map_err(|e| (e, spent))
}

fn attempt_inner(
    td: &mut TiledDesign,
    tiles: &[crate::tile::TileId],
    added: &[CellId],
    extra_clbs: usize,
    spent: &mut Spent,
) -> Result<EcoPhysicalOutcome, TilingError> {
    let mut free_clbs = 0;
    for &t in tiles {
        free_clbs += td.plan.usage(t, &td.placement)?.free_clbs();
    }
    let affected = AffectedSet {
        tiles: tiles.to_vec(),
        needed_clbs: extra_clbs,
        free_clbs,
        fits: free_clbs >= extra_clbs,
    };
    let rects: Vec<fpga::Rect> = affected
        .tiles
        .iter()
        .map(|&t| td.plan.tile(t).map(|tile| tile.rect))
        .collect::<Result<_, _>>()?;
    let region = RegionSet::from_tiles(&td.device, &td.plan, &affected.tiles);

    // ----- Clear the affected tiles -------------------------------
    // Remove stale placements/routes of netlist-deleted objects
    // (retired instruments) anywhere.
    crate::flow::drop_stale_physical_state(td);
    // Unplace all logic inside the affected tiles.
    let mut to_replace: Vec<CellId> = Vec::new();
    for &t in &affected.tiles {
        to_replace.extend(td.plan.cells_in_tile(t, &td.netlist, &td.placement)?);
    }
    for &c in &to_replace {
        let _ = td.placement.unplace(c);
    }
    // Added cells: logic goes into the cleared region; new ports go to
    // free pads (constrained by site type, not region).
    let mut added_logic: Vec<CellId> = Vec::new();
    let mut added_io = 0usize;
    for &c in added {
        match td.netlist.cell(c) {
            Ok(cell) if cell.is_logic() => added_logic.push(c),
            Ok(_) => added_io += 1,
            Err(_) => {}
        }
    }
    to_replace.extend(added_logic.iter().copied());

    // ----- Constrained placement ----------------------------------
    let mut constraints = Constraints::free();
    let replace_set: BTreeSet<CellId> = to_replace.iter().copied().collect();
    for (id, _) in td.netlist.cells() {
        if !replace_set.contains(&id) {
            // Added IO cells are unplaced and unlocked (they go to
            // pads); everything else placed outside stays put.
            if td.placement.loc_of(id).is_some() {
                constraints.lock(id);
            }
        }
    }
    for &c in &to_replace {
        constraints.confine_any(c, rects.clone());
    }
    let out = place::run_placer(
        &td.netlist,
        &td.device,
        &constraints,
        Some(std::mem::take(&mut td.placement)),
        &td.options.placer,
    )?;
    spent.place(&out);
    td.placement = out.placement;
    let _ = added_io;

    // Coarse-granularity path: when the cleared region covers a large
    // share of the device, confined negotiation (hundreds of nets
    // threading between locked outer trees) costs more than simply
    // re-routing the whole design — the paper observes that at ~1/4
    // design size tiling's purpose is "effectively eliminated" (§6.1).
    // Placement stayed confined; routing falls back to a clean full
    // pass, which also bounds effort by the non-tiled flow's.
    let region_share = region.area() as f64 / td.device.num_clbs() as f64;
    if region_share >= 0.20 {
        let nets: Vec<NetId> = td.routing.iter().map(|(n, _)| n).collect();
        for n in nets {
            td.routing.clear_route(n);
        }
        let stats = route::route_design(
            &td.netlist,
            &td.placement,
            &td.rrg,
            &mut td.routing,
            &td.options.router,
        )?;
        spent.effort.route_expansions += stats.expansions;
        let all: Vec<NetId> = td.netlist.nets().map(|(id, _)| id).collect();
        let n_rerouted = all.len();
        route::normalize_routes(&td.netlist, &td.placement, &td.rrg, &mut td.routing, all);
        return Ok(EcoPhysicalOutcome {
            effort: spent.effort,
            cg_iterations: spent.cg_iterations,
            affected,
            replaced_cells: to_replace.len(),
            rerouted_nets: n_rerouted,
            kept_routes: false,
            confined: false,
        });
    }

    // ----- Routing work list ---------------------------------------
    // (Dead-net routes were already dropped with the stale state.)
    let mut masked_requests: Vec<ConnectionRequest> = Vec::new();
    let mut free_requests: Vec<ConnectionRequest> = Vec::new();
    let mut rerouted = BTreeSet::new();

    let net_ids: Vec<NetId> = td.netlist.nets().map(|(id, _)| id).collect();
    for net_id in net_ids {
        let net = td.netlist.net(net_id)?.clone();
        let Some(driver) = net.driver else {
            td.routing.clear_route(net_id);
            continue;
        };
        let Some(driver_loc) = td.placement.loc_of(driver) else {
            continue;
        };
        let driver_inside = match driver_loc {
            fpga::BelLoc::Clb { coord, .. } => {
                region.contains_clamped(i32::from(coord.x), i32::from(coord.y))
            }
            fpga::BelLoc::Iob(_) => false,
        };

        // Current pin nodes for each sink.
        let mut inside_pins: Vec<NodeId> = Vec::new();
        let mut outside_pins: Vec<NodeId> = Vec::new();
        for s in &net.sinks {
            let Some(loc) = td.placement.loc_of(s.cell) else {
                continue;
            };
            let pin = td.rrg.sink_node(loc, s.pin);
            let inside = match loc {
                fpga::BelLoc::Clb { coord, .. } => {
                    region.contains_clamped(i32::from(coord.x), i32::from(coord.y))
                }
                fpga::BelLoc::Iob(_) => false,
            };
            if inside {
                inside_pins.push(pin);
            } else {
                outside_pins.push(pin);
            }
        }

        // Split any existing route against the region.
        let split = td
            .routing
            .route(net_id)
            .map(|tree| split_tree(&td.rrg, &region, tree))
            .unwrap_or_default();
        let had_route = td.routing.route(net_id).is_some();

        // Keep only base fragments that still serve a live outside pin
        // or act as an interface stub for surviving inside sinks.
        let outside_set: BTreeSet<NodeId> = outside_pins.iter().copied().collect();
        let mut base = RouteTree::default();
        let mut entry_nodes: Vec<NodeId> = Vec::new();
        let base_paths_before = split.base.paths.len();
        for path in split.base.paths {
            let last = *path.last().expect("paths are non-empty");
            let is_pin_path = outside_set.contains(&last);
            // A genuine interface stub ends on a channel wire (the
            // CrossIn prefix was cut at the region boundary); a path
            // ending on any *pin* that is not a live outside sink is a
            // dangling fragment toward a removed sink (e.g. a retired
            // observation pad) and must be dropped — keeping it would
            // hand the masked pass a dead pad pin as a route source.
            let ends_on_wire = matches!(
                td.rrg.node(last),
                fpga::NodeKind::ChanX { .. } | fpga::NodeKind::ChanY { .. }
            );
            if is_pin_path {
                base.paths.push(path);
            } else if !inside_pins.is_empty() && ends_on_wire {
                // Interface stub (CrossIn prefix ending on a wire).
                entry_nodes.push(last);
                base.paths.push(path);
            }
            // else: dangling fragment toward a removed sink — drop.
        }

        let outside_missing: Vec<NodeId> = {
            let base_nodes = base.nodes();
            outside_pins
                .iter()
                .copied()
                .filter(|p| !base_nodes.contains(p))
                .collect()
        };
        let exits: Vec<NodeId> = split.route_to_interface;

        let needs_inside = !inside_pins.is_empty() || (driver_inside && !exits.is_empty());
        // A kept-path count below the split's means a dangling fragment
        // to a removed sink (e.g. a retired observation pad) was
        // dropped: the net must be re-installed so those resources are
        // actually freed rather than squatting on the dead sink's pin.
        let dropped_fragment = base.paths.len() < base_paths_before;
        let untouched = !needs_inside
            && outside_missing.is_empty()
            && split.reroute_free.is_empty()
            && !driver_inside
            && !dropped_fragment
            && had_route;
        if untouched {
            continue;
        }
        if !had_route && inside_pins.is_empty() && outside_pins.is_empty() {
            continue; // dangling net, nothing to connect
        }

        // Install the preserved base.
        td.routing.clear_route(net_id);
        if !base.paths.is_empty() {
            td.routing.set_route(net_id, base.clone());
        }
        rerouted.insert(net_id);

        if driver_inside {
            let source = td.rrg.source_node(driver_loc);
            let mut sinks = inside_pins.clone();
            sinks.extend(exits.iter().copied());
            if !sinks.is_empty() {
                masked_requests.push(ConnectionRequest {
                    net: net_id,
                    source,
                    sinks,
                });
            }
            if !outside_missing.is_empty() {
                free_requests.push(ConnectionRequest {
                    net: net_id,
                    source,
                    sinks: outside_missing,
                });
            }
        } else {
            // Driver outside. Inside sinks reachable through existing
            // interface entries go in the masked pass; everything else
            // is folded into a *single* free request per net (a second
            // request for the same net in one pass would rip up the
            // first's work).
            let mut free_sinks = outside_missing.clone();
            if !inside_pins.is_empty() {
                if let Some(&entry) = entry_nodes.first() {
                    masked_requests.push(ConnectionRequest {
                        net: net_id,
                        source: entry,
                        sinks: inside_pins.clone(),
                    });
                } else {
                    free_sinks.extend(inside_pins.iter().copied());
                }
            }
            free_sinks.sort_unstable();
            free_sinks.dedup();
            if !free_sinks.is_empty() {
                free_requests.push(ConnectionRequest {
                    net: net_id,
                    source: td.rrg.source_node(driver_loc),
                    sinks: free_sinks,
                });
            }
        }
    }

    // ----- Masked pass: strictly inside the cleared tiles -----------
    if !masked_requests.is_empty() {
        let mask = region.node_mask(&td.rrg);
        // Structural congestion in a confined region is detected by
        // the router's stall limit; slow-but-converging negotiation is
        // allowed to finish (cutting it off just pays for a retry on a
        // bigger region).
        let opts = RouteOptions {
            allowed: Some(mask),
            ..td.options.router.clone()
        };
        let stats = route::route(&td.rrg, &masked_requests, &mut td.routing, &opts)?;
        spent.effort.route_expansions += stats.expansions;
    }
    // ----- Free pass: region-escaping connections --------------------
    if !free_requests.is_empty() {
        let stats = route::route(&td.rrg, &free_requests, &mut td.routing, &td.options.router)?;
        spent.effort.route_expansions += stats.expansions;
    }

    // Normalize the rerouted nets' trees: one contiguous source→sink
    // path per netlist sink, in sink order, so downstream timing
    // analysis indexes them correctly.
    route::normalize_routes(
        &td.netlist,
        &td.placement,
        &td.rrg,
        &mut td.routing,
        rerouted.iter().copied(),
    );

    Ok(EcoPhysicalOutcome {
        effort: spent.effort,
        cg_iterations: spent.cg_iterations,
        affected,
        replaced_cells: to_replace.len(),
        rerouted_nets: rerouted.len(),
        kept_routes: false,
        confined: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{implement, TilingOptions};
    use netlist::TruthTable;
    use synth::PaperDesign;

    fn tiled_9sym() -> TiledDesign {
        let b = PaperDesign::NineSym.generate().unwrap();
        implement(b.netlist, b.hierarchy, TilingOptions::fast(3)).unwrap()
    }

    #[test]
    fn function_only_eco_touches_one_tile() {
        let mut td = tiled_9sym();
        let outside_snapshot: Vec<(CellId, fpga::BelLoc)> = td.placement.iter().collect();
        // Pick a LUT and change its function (no connectivity change).
        let victim = td
            .netlist
            .cells()
            .find(|(_, c)| c.lut_function().is_some_and(|t| t.arity() == 2))
            .map(|(id, _)| id)
            .expect("design has 2-input LUTs");
        let tt = td
            .netlist
            .cell(victim)
            .unwrap()
            .lut_function()
            .unwrap()
            .complement();
        netlist::eco::apply(
            &mut td.netlist,
            &netlist::EcoOp::ChangeLutFunction {
                cell: victim,
                function: tt,
            },
        )
        .unwrap();
        let out = replace_and_route(&mut td, &[victim], &[]).unwrap();
        assert_eq!(out.affected.tiles.len(), 1, "function change fits one tile");
        assert!(td.routing.is_feasible());
        // Cells outside the affected tile did not move.
        let tile = out.affected.tiles[0];
        for (c, old_loc) in outside_snapshot {
            if td.plan.tile_of_cell(&td.placement, c) != Some(tile) && td.netlist.cell(c).is_ok() {
                if let Some(new_loc) = td.placement.loc_of(c) {
                    if td.plan.tile_of_cell(&td.placement, c).is_some() {
                        assert_eq!(new_loc, old_loc, "cell {c} moved outside affected tile");
                    }
                }
            }
        }
        // Effort is a small fraction of the initial implementation.
        assert!(out.effort.total() < td.initial_effort.total());
    }

    #[test]
    fn added_logic_is_placed_in_region_and_routed() {
        let mut td = tiled_9sym();
        // Tap an internal net with a new LUT + PO (observation logic).
        let (net, tile_cell) = {
            let (id, c) = td
                .netlist
                .cells()
                .find(|(_, c)| c.lut_function().is_some())
                .expect("luts exist");
            (c.output.unwrap(), id)
        };
        let rep = netlist::eco::apply(
            &mut td.netlist,
            &netlist::EcoOp::AddLut {
                name: "obs_inv".into(),
                function: TruthTable::not(),
                inputs: vec![net],
            },
        )
        .unwrap();
        let obs = rep.added[0];
        let obs_net = td.netlist.cell_output(obs).unwrap();
        let po = td.netlist.add_output("obs_po", obs_net).unwrap();

        let out = replace_and_route(&mut td, &[tile_cell], &[obs, po]).unwrap();
        assert!(td.routing.is_feasible());
        assert!(out.replaced_cells > 0);
        // The new LUT landed inside an affected tile.
        let t = td
            .plan
            .tile_of_cell(&td.placement, obs)
            .expect("obs placed on a CLB");
        assert!(out.affected.contains(t));
        // Its net is routed.
        assert!(td.routing.route(obs_net).is_some());
        td.netlist.validate().unwrap();
    }

    #[test]
    fn interfaces_stay_locked_outside_region() {
        let mut td = tiled_9sym();
        // Snapshot routing of nets fully outside the future region.
        let victim = td
            .netlist
            .cells()
            .find(|(_, c)| c.lut_function().is_some())
            .map(|(id, _)| id)
            .unwrap();
        let before: Vec<(NetId, RouteTree)> =
            td.routing.iter().map(|(n, t)| (n, t.clone())).collect();
        let tt = td
            .netlist
            .cell(victim)
            .unwrap()
            .lut_function()
            .unwrap()
            .complement();
        td.netlist.set_lut_function(victim, tt).unwrap();
        let out = replace_and_route(&mut td, &[victim], &[]).unwrap();
        let region = RegionSet::from_tiles(&td.device, &td.plan, &out.affected.tiles);
        let mut checked = 0;
        for (net, tree) in before {
            // Nets with no node inside the region must be bit-identical.
            let touches = tree
                .nodes()
                .iter()
                .any(|&n| region.contains_node(&td.rrg, n));
            if !touches {
                assert_eq!(
                    td.routing.route(net),
                    Some(&tree),
                    "net {net} was perturbed"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "test must check at least one outside net");
    }
}
