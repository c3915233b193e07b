//! Re-implement a debugging change in the affected tiles (paper §5.2)
//! with effort bounded by one full re-route (§6.1).
//!
//! "Any tile that contains a design portion affected by the debugging
//! change must be cleared, while still maintaining the locked
//! interface to its surrounding tiles. [...] Once all of the affected
//! tiles are cleared, the remainder of the design is locked to its
//! location. The affected portions are then re-placed-and-routed in
//! the cleared tiles, any removed interfaces are re-locked."
//!
//! [`replace_and_route`] climbs a ladder of three rungs. Each rung is
//! tried only when the one before it runs out of capacity, and every
//! rung starts from the design as it was before the change, except
//! the last, which keeps the failed attempt's placement.
//!
//! 1. **Incremental.** Nothing is cleared. Surviving placements and
//!    routes stay installed, the added logic is placed into the
//!    affected tiles, and only nets whose terminals changed are
//!    routed. A function-only change re-routes nothing.
//! 2. **Tile clearing.** The affected tiles are cleared and their
//!    logic re-placed inside them. Routing takes two passes: a
//!    *masked* pass confined to the cleared region, whose nets
//!    terminate on locked interface nodes, and a small *free* pass for
//!    connections that inherently leave the region (new pads, new
//!    cross-region connections, feedthroughs), which may use only free
//!    routing resources elsewhere, never locked ones. A region of a
//!    fifth of the device or more is re-routed whole instead (the
//!    coarse branch). When routing fails, the neighbouring tile with
//!    the most free CLBs is drafted and the rung runs again.
//! 3. **Full re-route.** Once drafting stops being promising, the
//!    whole design is re-routed from the last attempt's placement, so
//!    the tiled flow never costs more than the non-tiled one.
//!
//! The rungs share one place step and one full re-route with the rival
//! flows in [`crate::flows`]. The ladder snapshots the design once and
//! restores it if the change fails.

use std::collections::BTreeSet;

use fpga::{NodeId, Placement, Rect, RouteTree, Routing, RoutingGraph};
use netlist::{CellId, CellKind, NetId, Netlist};
use place::Constraints;
use route::{ConnectionRequest, RouteOptions};

use crate::affected::AffectedSet;
use crate::effort::CadEffort;
use crate::error::TilingError;
use crate::flow::{drop_stale_physical_state, TiledDesign};
use crate::interface::{split_tree, RegionSet};

/// Result of one re-implementation.
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
    /// flow's incremental rung). `false` when routes were cleared and
    /// re-routed from scratch.
    pub kept_routes: bool,
    /// Whether the re-route stayed confined to the affected tiles, so
    /// the locked-interface / frozen-route contract holds outside them.
    /// The coarse branch and the full re-route (and the non-tiled
    /// flows) legitimately clear routes everywhere and report `false`;
    /// the post-ECO audit only applies when `true`.
    pub confined: bool,
}

/// CAD work paid for, charged to the ECO whether or not the attempt
/// that paid it succeeded.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Spent {
    pub(crate) effort: CadEffort,
    pub(crate) cg_iterations: u64,
}

impl Spent {
    pub(crate) fn place(&mut self, out: &place::PlaceOutcome) {
        self.effort.place_moves += out.moves_evaluated;
        self.cg_iterations += out.cg_iterations;
    }
}

/// The placement and routing an ECO started from.
pub(crate) struct Snapshot {
    placement: Placement,
    routing: Routing,
}

impl Snapshot {
    /// Puts the design's placement and routing back as they were.
    fn restore(&self, td: &mut TiledDesign) {
        td.placement = self.placement.clone();
        td.routing = self.routing.clone();
    }
}

/// Runs `eco` on the design and, if it fails, restores the placement
/// and routing it started from, so a failed ECO never leaves the live
/// design half-implemented. `eco` gets the snapshot to restart from.
pub(crate) fn or_restore<T>(
    td: &mut TiledDesign,
    eco: impl FnOnce(&mut TiledDesign, &Snapshot) -> Result<T, TilingError>,
) -> Result<T, TilingError> {
    let snapshot = Snapshot {
        placement: td.placement.clone(),
        routing: td.routing.clone(),
    };
    eco(td, &snapshot).inspect_err(|_| snapshot.restore(td))
}

/// Clears the tiles affected by a change and re-implements them.
///
/// `seeds` are the perturbed pre-existing cells (back-annotated from
/// the ECO); `added` are newly created cells awaiting placement. The
/// rest of the design — placement and routing — is locked and
/// provably untouched on return, unless the ladder reached the coarse
/// branch or the full re-route (`confined == false`).
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
/// with every tile affected; placement/routing errors otherwise. On
/// error the design's placement and routing are left as they were.
pub fn replace_and_route(
    td: &mut TiledDesign,
    seeds: &[CellId],
    added: &[CellId],
) -> Result<EcoPhysicalOutcome, TilingError> {
    let affected = affected_by(td, seeds, added)?;
    or_restore(td, |td, snapshot| {
        let outcome = climb(td, affected, added, snapshot)?;
        // Debug builds re-prove the paper's contract after every
        // confined ECO: everything outside the cleared tiles —
        // placements and cross-boundary routes — is byte-identical to
        // the snapshot. A violation here is a flow bug, not bad input
        // (pre-flight owns input), so it asserts rather than returning
        // an error.
        #[cfg(debug_assertions)]
        if outcome.confined {
            let findings = crate::preflight::audit_confined_eco(
                td,
                &outcome.affected.tiles,
                &snapshot.placement,
                &snapshot.routing,
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
        Ok(outcome)
    })
}

/// Steps 16–17: the tiles a change needs — its seeds' tiles, with
/// neighbours drafted until the added logic's CLBs fit.
fn affected_by(
    td: &TiledDesign,
    seeds: &[CellId],
    added: &[CellId],
) -> Result<AffectedSet, TilingError> {
    let (mut new_luts, mut new_ffs) = (0usize, 0usize);
    for &c in added {
        match td.netlist.cell(c).map(|cell| &cell.kind) {
            Ok(CellKind::Lut(_)) => new_luts += 1,
            Ok(CellKind::Ff { .. }) => new_ffs += 1,
            _ => {}
        }
    }
    let extra_clbs = new_luts.max(new_ffs).div_ceil(2);
    let affected = AffectedSet::compute(&td.plan, &td.placement, seeds, extra_clbs)?;
    if !affected.fits {
        return Err(TilingError::InsufficientSlack {
            needed: extra_clbs,
            available: affected.free_clbs,
        });
    }
    Ok(affected)
}

/// The ladder. One `Spent` is charged across every attempt; `snapshot`
/// is the design before the change.
fn climb(
    td: &mut TiledDesign,
    mut affected: AffectedSet,
    added: &[CellId],
    snapshot: &Snapshot,
) -> Result<EcoPhysicalOutcome, TilingError> {
    let mut spent = Spent::default();
    // Rung 1 is best-effort: capacity shortfalls (congestion around
    // the frozen routes, or no free slot for added logic) demote to
    // tile clearing on the same tiles. Anything else is a real error.
    match incremental_rung(td, &affected, added, &mut spent) {
        Err(TilingError::Route(_) | TilingError::Place(_)) => snapshot.restore(td),
        done => return done,
    }
    // Rung 2 drafts a neighbour after each routing failure while that
    // is still promising: fewer than half the tiles affected and fewer
    // than three retries paid for. The next attempt starts from the
    // snapshot, so the most free neighbour is judged there.
    let mut retries = 0;
    loop {
        match clearing_rung(td, &affected, added, &mut spent) {
            Err(TilingError::Route(_)) => {}
            done => return done,
        }
        let promising = 2 * affected.tiles.len() < td.plan.len() && retries < 3;
        if !promising || !affected.draft_neighbour(&td.plan, &snapshot.placement)? {
            break;
        }
        snapshot.restore(td);
        retries += 1;
    }
    // Rung 3 keeps the failed attempt's placement: every drafted tile
    // was movable anyway.
    full_reroute_rung(td, affected, &mut spent)
}

/// Rung 1: no clearing at all.
///
/// Surviving placements and routes stay installed (so the router sees
/// their present congestion and treats their wires as locked), added
/// logic is placed into the affected tiles, and only nets whose
/// terminals changed — new nets, added sinks, retired sinks, moved or
/// replaced drivers — are touched. Ripping is minimal: a net keeps
/// every source-connected path that still ends on a live sink pin, and
/// the router grows the missing connections from that seed tree.
fn incremental_rung(
    td: &mut TiledDesign,
    affected: &AffectedSet,
    added: &[CellId],
    spent: &mut Spent,
) -> Result<EcoPhysicalOutcome, TilingError> {
    let rects = affected.rects(&td.plan)?;
    // Retired instruments lose their placements/routes first, so their
    // resources are genuinely free for the new connections.
    drop_stale_physical_state(td);

    // ----- Place only the added logic ------------------------------
    let new_logic: Vec<CellId> = added_logic(&td.netlist, added).collect();
    let placeable = added
        .iter()
        .any(|&c| td.netlist.cell(c).is_ok() && td.placement.loc_of(c).is_none());
    if placeable {
        place_moved(td, &new_logic, &rects, spent)?;
    }

    // ----- Minimal routing work list --------------------------------
    // A net needs work iff its installed tree no longer matches its
    // terminals. Everything else stays untouched — including nets
    // threading through the affected tiles. Almost every net is
    // settled, and the settled test reads it in place.
    let mut requests: Vec<ConnectionRequest> = Vec::new();
    let mut touched: BTreeSet<NetId> = BTreeSet::new();
    let unsettled: Vec<NetId> = td
        .netlist
        .nets()
        .map(|(id, _)| id)
        .filter(|&id| {
            let skip = settled(td, id);
            // Debug builds prove the skip: the full comparison would
            // have touched nothing.
            debug_assert!(
                !skip || matches!(net_repair(td, id), Ok(None)),
                "settled net {id} needs repair"
            );
            !skip
        })
        .collect();
    for net_id in unsettled {
        let Some(repair) = net_repair(td, net_id)? else {
            continue;
        };
        if repair.rip {
            td.routing.clear_route(net_id);
            if !repair.keep.is_empty() {
                td.routing
                    .set_route(net_id, RouteTree { paths: repair.keep });
            }
        }
        requests.extend(repair.grow);
        touched.insert(net_id);
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
        affected: affected.clone(),
        replaced_cells: new_logic.len(),
        rerouted_nets: touched.len(),
        kept_routes: true,
        confined: true,
    })
}

/// True when `net_id`'s installed tree is one path per sink, in sink
/// order, each from the driver's source pin to that sink's pin. Such a
/// tree has no missing pin, no path to strip and no stale root, so
/// [`net_repair`] would leave it alone; this test reads it in place.
fn settled(td: &TiledDesign, net_id: NetId) -> bool {
    let (Ok(net), Some(tree)) = (td.netlist.net(net_id), td.routing.route(net_id)) else {
        return false;
    };
    let Some(driver_loc) = net.driver.and_then(|d| td.placement.loc_of(d)) else {
        return false;
    };
    let source = td.rrg.source_node(driver_loc);
    tree.paths.len() == net.sinks.len()
        && net.sinks.iter().zip(&tree.paths).all(|(s, path)| {
            td.placement.loc_of(s.cell).is_some_and(|loc| {
                path.first() == Some(&source) && path.last() == Some(&td.rrg.sink_node(loc, s.pin))
            })
        })
}

/// How the incremental rung changes one net whose tree no longer
/// matches its terminals.
#[derive(Debug)]
struct NetRepair {
    /// Rip the installed tree, then reinstall `keep` (when non-empty).
    rip: bool,
    /// The source-connected paths that still end on a live sink pin.
    keep: Vec<Vec<NodeId>>,
    /// The connections the router must grow.
    grow: Option<ConnectionRequest>,
}

/// Compares `net_id`'s installed tree with its terminals: `None` when
/// nothing is to be done. A net without a driver loses its tree; a
/// driver replaced or re-sourced reroutes the whole net; a retired
/// sink's path is stripped; missing sink pins are grown from the kept
/// tree.
fn net_repair(td: &TiledDesign, net_id: NetId) -> Result<Option<NetRepair>, TilingError> {
    let net = td.netlist.net(net_id)?;
    let Some(driver) = net.driver else {
        return Ok(td.routing.route(net_id).is_some().then(|| NetRepair {
            rip: true,
            keep: Vec::new(),
            grow: None,
        }));
    };
    let Some(driver_loc) = td.placement.loc_of(driver) else {
        return Ok(None);
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
    let request = |sinks: Vec<NodeId>| {
        (!sinks.is_empty()).then_some(ConnectionRequest {
            net: net_id,
            source,
            sinks,
        })
    };
    let Some(tree) = td.routing.route(net_id) else {
        return Ok(request(pins).map(|grow| NetRepair {
            rip: false,
            keep: Vec::new(),
            grow: Some(grow),
        }));
    };
    if tree.paths.iter().any(|p| p.first() != Some(&source)) {
        // Driver replaced or re-sourced: the tree's root is stale,
        // so the whole net reroutes (its wires are freed first).
        return Ok(Some(NetRepair {
            rip: true,
            keep: Vec::new(),
            grow: request(pins),
        }));
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
    // A sink retired (e.g. a removed observation tap): strip its path
    // so the wires are freed instead of squatting.
    let rip = keep.len() < tree.paths.len();
    let grow = request(missing);
    Ok((rip || grow.is_some()).then_some(NetRepair { rip, keep, grow }))
}

/// Rung 2: clear the affected tiles and re-place-and-route them, with
/// every interface to the rest of the design locked.
fn clearing_rung(
    td: &mut TiledDesign,
    affected: &AffectedSet,
    added: &[CellId],
    spent: &mut Spent,
) -> Result<EcoPhysicalOutcome, TilingError> {
    let rects = affected.rects(&td.plan)?;
    let region = RegionSet::from_rects(&td.device, &rects);

    // ----- Clear and re-place the affected tiles -------------------
    // Remove stale placements/routes of netlist-deleted objects
    // (retired instruments) anywhere.
    drop_stale_physical_state(td);
    // All logic inside the affected tiles plus the added logic goes
    // into the cleared region; new ports go to free pads (constrained
    // by site type, not region).
    let mut moved: Vec<CellId> = Vec::new();
    for &t in &affected.tiles {
        moved.extend(td.plan.cells_in_tile(t, &td.netlist, &td.placement)?);
    }
    moved.extend(added_logic(&td.netlist, added));
    place_moved(td, &moved, &rects, spent)?;

    // Coarse branch: when the cleared region covers a large share of
    // the device, confined negotiation (hundreds of nets threading
    // between locked outer trees) costs more than simply re-routing
    // the whole design — the paper observes that at ~1/4 design size
    // tiling's purpose is "effectively eliminated" (§6.1). Placement
    // stayed confined; routing takes one full re-route, which also
    // bounds effort by the non-tiled flow's.
    let region_share = region.area() as f64 / td.device.num_clbs() as f64;
    if region_share >= 0.20 {
        full_reroute(
            &td.netlist,
            &td.rrg,
            &td.placement,
            &mut td.routing,
            &td.options.router,
            spent,
        )?;
        return Ok(EcoPhysicalOutcome {
            effort: spent.effort,
            cg_iterations: spent.cg_iterations,
            affected: affected.clone(),
            replaced_cells: moved.len(),
            rerouted_nets: td.netlist.nets().count(),
            kept_routes: false,
            confined: false,
        });
    }

    // ----- Routing work list ---------------------------------------
    // (Dead-net routes were already dropped with the stale state.)
    let mut masked_requests: Vec<ConnectionRequest> = Vec::new();
    let mut free_requests: Vec<ConnectionRequest> = Vec::new();
    let mut rerouted = BTreeSet::new();
    let inside = |loc: fpga::BelLoc| match loc {
        fpga::BelLoc::Clb { coord, .. } => {
            region.contains_clamped(i32::from(coord.x), i32::from(coord.y))
        }
        fpga::BelLoc::Iob(_) => false,
    };

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
        let driver_inside = inside(driver_loc);

        // Current pin nodes for each sink.
        let mut inside_pins: Vec<NodeId> = Vec::new();
        let mut outside_pins: Vec<NodeId> = Vec::new();
        for s in &net.sinks {
            let Some(loc) = td.placement.loc_of(s.cell) else {
                continue;
            };
            let pin = td.rrg.sink_node(loc, s.pin);
            if inside(loc) {
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
        affected: affected.clone(),
        replaced_cells: moved.len(),
        rerouted_nets: rerouted.len(),
        kept_routes: false,
        confined: true,
    })
}

/// Rung 3: one full re-route from the current placement — "the
/// resulting CAD tool effort will never exceed that required by a
/// non-tiled approach" (§6.1).
fn full_reroute_rung(
    td: &mut TiledDesign,
    affected: AffectedSet,
    spent: &mut Spent,
) -> Result<EcoPhysicalOutcome, TilingError> {
    // The last resort gets a patient schedule: it replaces the entire
    // iteration, so spending double the iterations here is still far
    // cheaper than failing.
    let router = RouteOptions {
        max_iterations: td.options.router.max_iterations * 2,
        stall_limit: td.options.router.stall_limit * 2,
        ..td.options.router.clone()
    };
    full_reroute(
        &td.netlist,
        &td.rrg,
        &td.placement,
        &mut td.routing,
        &router,
        spent,
    )?;
    Ok(EcoPhysicalOutcome {
        effort: spent.effort,
        cg_iterations: spent.cg_iterations,
        // Free CLBs are counted on the re-placed tiles, which already
        // hold the added logic, so the request is reported as fitting.
        affected: AffectedSet {
            fits: true,
            ..AffectedSet::of_tiles(
                &td.plan,
                &td.placement,
                affected.tiles,
                affected.needed_clbs,
            )?
        },
        replaced_cells: td.netlist.cells().filter(|(_, c)| c.is_logic()).count(),
        rerouted_nets: td.routing.num_routed(),
        kept_routes: false,
        confined: false,
    })
}

/// The added cells that need a CLB site (new pads find their own).
pub(crate) fn added_logic<'a>(
    netlist: &'a Netlist,
    added: &'a [CellId],
) -> impl Iterator<Item = CellId> + 'a {
    added
        .iter()
        .copied()
        .filter(|&c| netlist.cell(c).is_ok_and(netlist::Cell::is_logic))
}

/// The one place step: unplaces `moved`, locks every other placed
/// cell, confines `moved` to `region` (any of its rectangles; an empty
/// region leaves them free) and re-places them on the current
/// placement. Unplaced cells outside `moved` — added pads — are
/// neither locked nor confined, so they go to free pad sites.
pub(crate) fn place_moved(
    td: &mut TiledDesign,
    moved: &[CellId],
    region: &[Rect],
    spent: &mut Spent,
) -> Result<(), TilingError> {
    let mut placement = std::mem::take(&mut td.placement);
    for &c in moved {
        let _ = placement.unplace(c);
    }
    let mut constraints = Constraints::free();
    for (id, _) in td.netlist.cells() {
        if placement.loc_of(id).is_some() {
            constraints.lock(id);
        }
    }
    if !region.is_empty() {
        for &c in moved {
            constraints.confine_any(c, region.to_vec());
        }
    }
    let out = place::run_placer(
        &td.netlist,
        &td.device,
        &constraints,
        Some(placement),
        &td.options.placer,
    )?;
    spent.place(&out);
    td.placement = out.placement;
    Ok(())
}

/// The one full re-route: clears every route in `routing`, routes
/// every net of the placed design, and normalizes every net's tree to
/// one source-to-sink path per sink, in sink order (timing indexes the
/// paths by sink, and the next incremental ECO reads a path that does
/// not start at the driver as a re-sourced net).
pub(crate) fn full_reroute(
    netlist: &Netlist,
    rrg: &RoutingGraph,
    placement: &Placement,
    routing: &mut Routing,
    options: &RouteOptions,
    spent: &mut Spent,
) -> Result<(), TilingError> {
    let routed: Vec<NetId> = routing.iter().map(|(n, _)| n).collect();
    for n in routed {
        routing.clear_route(n);
    }
    let stats = route::route_design(netlist, placement, rrg, routing, options)?;
    spent.effort.route_expansions += stats.expansions;
    route::normalize_routes(
        netlist,
        placement,
        rrg,
        routing,
        netlist.nets().map(|(id, _)| id),
    );
    Ok(())
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

    /// 9sym at `fast(37)` and its middle LUT. One tile is 17% of this
    /// device, under the coarse branch's fifth, so tile clearing on
    /// the middle LUT's tile runs the masked and free passes.
    fn tiled_9sym_37() -> (TiledDesign, CellId) {
        let b = PaperDesign::NineSym.generate().unwrap();
        let td = implement(b.netlist, b.hierarchy, TilingOptions::fast(37)).unwrap();
        let luts: Vec<CellId> = td
            .netlist
            .cells()
            .filter(|(_, c)| c.lut_function().is_some())
            .map(|(id, _)| id)
            .collect();
        let victim = luts[luts.len() / 2];
        (td, victim)
    }

    fn complement(td: &mut TiledDesign, victim: CellId) {
        let tt = *td.netlist.cell(victim).unwrap().lut_function().unwrap();
        td.netlist
            .set_lut_function(victim, tt.complement())
            .unwrap();
    }

    /// Runs rung 2 alone on the change, as the ladder would after a
    /// failed incremental attempt, and checks it stayed confined and
    /// left everything outside the cleared tiles as it was.
    fn clear_tiles_only(
        base: &TiledDesign,
        td: &mut TiledDesign,
        seeds: &[CellId],
        added: &[CellId],
    ) -> EcoPhysicalOutcome {
        let affected = affected_by(td, seeds, added).unwrap();
        let out = clearing_rung(td, &affected, added, &mut Spent::default()).unwrap();
        assert!(out.confined, "tile clearing slid onto the coarse branch");
        assert!(td.routing.is_feasible());
        let findings = crate::preflight::audit_confined_eco(
            td,
            &out.affected.tiles,
            &base.placement,
            &base.routing,
        );
        assert!(findings.is_empty(), "confinement violated: {findings:?}");
        out
    }

    #[test]
    fn tile_clearing_reroutes_the_tile_where_incremental_reroutes_nothing() {
        // The incremental rung keeps every surviving route installed, so
        // a function-only change re-routes nothing; tile clearing pays
        // for every net crossing the cleared tile.
        let (base, victim) = tiled_9sym_37();
        let mut td = base.clone();
        complement(&mut td, victim);
        let inc = replace_and_route(&mut td, &[victim], &[]).unwrap();
        assert_eq!(
            inc.rerouted_nets, 0,
            "function-only ECO must keep all routes"
        );
        assert_eq!(inc.effort.route_expansions, 0);

        let mut td = base.clone();
        complement(&mut td, victim);
        let full = clear_tiles_only(&base, &mut td, &[victim], &[]);
        assert!(
            full.rerouted_nets > 0,
            "tile clearing re-routes the tile's nets"
        );
        assert!(inc.rerouted_nets < full.rerouted_nets);
    }

    #[test]
    fn tile_clearing_reroutes_more_than_incremental_for_a_tap() {
        // An incremental tap re-routes the tapped net plus the new tap
        // cells' nets — a handful, not a tile.
        let (base, victim) = tiled_9sym_37();
        let tap = |td: &mut TiledDesign| {
            let net = td.netlist.cell_output(victim).unwrap();
            sim::testlogic::insert_observation_tap(&mut td.netlist, net, "cmp_tap", true)
                .unwrap()
                .added
        };
        let mut td = base.clone();
        let added = tap(&mut td);
        let inc = replace_and_route(&mut td, &[victim], &added).unwrap();
        assert!(td.routing.is_feasible());
        td.netlist.validate().unwrap();

        let mut td = base.clone();
        let added = tap(&mut td);
        let full = clear_tiles_only(&base, &mut td, &[victim], &added);
        td.netlist.validate().unwrap();
        assert!(inc.rerouted_nets >= 1);
        assert!(
            inc.rerouted_nets < full.rerouted_nets,
            "incremental tap re-routed {} nets, tile clearing {}",
            inc.rerouted_nets,
            full.rerouted_nets
        );
        assert!(inc.effort.route_expansions < full.effort.route_expansions);
    }

    #[test]
    fn full_reroute_rung_leaves_trees_the_next_eco_can_keep() {
        // Rung 3 re-routes every net. PathFinder's raw trees root branch
        // paths mid-tree, which the next incremental ECO reads as a
        // re-sourced net and re-routes (74 nets on this design), so the
        // rung normalizes every tree.
        let (mut td, victim) = tiled_9sym_37();
        let affected = affected_by(&td, &[victim], &[]).unwrap();
        let out = full_reroute_rung(&mut td, affected, &mut Spent::default()).unwrap();
        assert!(!out.confined && !out.kept_routes);
        assert!(out.effort.route_expansions > 0);
        assert_eq!(out.rerouted_nets, td.routing.num_routed());
        assert!(td.routing.is_feasible());
        for (net_id, tree) in td.routing.iter() {
            let net = td.netlist.net(net_id).unwrap();
            let Some(driver) = net.driver else { continue };
            let src = td.rrg.source_node(td.placement.loc_of(driver).unwrap());
            assert!(
                tree.paths.iter().all(|p| p.first() == Some(&src)),
                "net {net_id} has a path that does not start at its driver"
            );
        }

        complement(&mut td, victim);
        let next = replace_and_route(&mut td, &[victim], &[]).unwrap();
        assert_eq!(next.rerouted_nets, 0);
        assert_eq!(next.effort.route_expansions, 0);
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
