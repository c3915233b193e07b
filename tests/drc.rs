//! DRC malformed-fixture acceptance tests: each fixture corrupts one
//! structural invariant of an otherwise healthy implementation and
//! asserts (a) the analyzer reports the expected [`Rule`] and (b) the
//! session pre-flight surfaces it as a typed [`TilingError::Drc`] —
//! never a panic or a livelock deep inside a debug campaign.

use fpga_debug_tiling::prelude::*;
use fpga_debug_tiling::{sim, tiling};
use tiling::drc::{Rule, Severity};
use tiling::TiledFlow;

/// A 16-LUT inverter chain with a mid-chain branch output — small
/// enough that every fixture implements in milliseconds, big enough
/// to span several tiles and multi-segment routes.
fn little_design() -> netlist::Netlist {
    let mut nl = netlist::Netlist::new("fixture");
    let pi = nl.add_input("a").unwrap();
    let mut net = nl.cell_output(pi).unwrap();
    for k in 0..16 {
        let c = nl
            .add_lut(format!("u{k}"), TruthTable::not(), &[net])
            .unwrap();
        net = nl.cell_output(c).unwrap();
        if k == 7 {
            nl.add_output("mid", net).unwrap();
        }
    }
    nl.add_output("y", net).unwrap();
    nl
}

fn implement_fixture() -> TiledDesign {
    tiling::implement(little_design(), TilingOptions::fast(7)).unwrap()
}

/// Plants a real error on the clean design (so the session has a
/// campaign to run), then corrupts the design and asserts the session
/// rejects it with `TilingError::Drc` naming `rule` before any
/// simulation or tile clearing happens.
fn assert_session_rejects(
    mut td: TiledDesign,
    golden: &netlist::Netlist,
    error: &sim::inject::InjectedError,
    corrupt: impl FnOnce(&mut TiledDesign),
    rule: Rule,
) {
    corrupt(&mut td);

    let findings = tiling::check_design(&td).unwrap();
    assert!(
        findings.iter().any(|f| f.rule == rule),
        "analyzer missed {rule}: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rule && f.severity == Severity::Error),
        "{rule} must be error-severity to trip the pre-flight"
    );

    let result = DebugSession::new(&mut td, golden)
        .flow(TiledFlow)
        .seed(7)
        .run(error);
    match result {
        Err(TilingError::Drc { findings }) => {
            assert!(
                findings.iter().any(|f| f.rule == rule),
                "session error dropped the {rule} finding: {findings:?}"
            );
        }
        other => panic!("expected TilingError::Drc, got {other:?}"),
    }
}

/// Injects the canonical mid-chain error on a fresh implementation
/// and returns everything `assert_session_rejects` needs.
fn planted_fixture() -> (TiledDesign, netlist::Netlist, sim::inject::InjectedError) {
    let mut td = implement_fixture();
    let golden = td.netlist.clone();
    let victim = td.netlist.find_cell("u3").unwrap();
    let error = sim::inject::inject(
        &mut td.netlist,
        victim,
        sim::inject::DesignErrorKind::Complement,
    )
    .unwrap();
    (td, golden, error)
}

#[test]
fn cyclic_netlist_is_rejected_not_diverged_on() {
    let (td, golden, error) = planted_fixture();
    assert_session_rejects(
        td,
        &golden,
        &error,
        |td| {
            // Two fresh LUTs feeding each other: a = !b, b = !a.
            let a = td.netlist.add_net("loop_a").unwrap();
            let b = td.netlist.add_net("loop_b").unwrap();
            td.netlist
                .add_lut_driving("loop_u1", TruthTable::not(), &[b], a)
                .unwrap();
            td.netlist
                .add_lut_driving("loop_u2", TruthTable::not(), &[a], b)
                .unwrap();
        },
        Rule::CombinationalLoop,
    );
}

#[test]
fn multi_driven_net_is_rejected() {
    let (td, golden, error) = planted_fixture();
    assert_session_rejects(
        td,
        &golden,
        &error,
        |td| {
            // Re-point a second LUT's output at a net that already
            // has a driver (only reachable through the import escape
            // hatch).
            let luts: Vec<CellId> = td
                .netlist
                .cells()
                .filter(|(_, c)| c.lut_function().is_some())
                .map(|(id, _)| id)
                .collect();
            let victim_net = td.netlist.cell(luts[0]).unwrap().output.unwrap();
            td.netlist.force_driver(luts[1], victim_net).unwrap();
        },
        Rule::MultiDrivenNet,
    );
}

#[test]
fn dangling_route_segment_is_rejected() {
    let (td, golden, error) = planted_fixture();
    assert_session_rejects(
        td,
        &golden,
        &error,
        |td| {
            // Truncate the longest routed path so it dead-ends on a
            // channel wire instead of a sink pin.
            let (net, tree) = td
                .routing
                .iter()
                .max_by_key(|(_, t)| t.paths.iter().map(Vec::len).max().unwrap_or(0))
                .map(|(n, t)| (n, t.clone()))
                .unwrap();
            let mut broken = tree;
            let path = broken.paths.iter_mut().max_by_key(|p| p.len()).unwrap();
            assert!(path.len() > 2, "fixture needs a multi-segment route");
            path.pop();
            td.routing.set_route(net, broken);
        },
        Rule::DanglingRouteSegment,
    );
}

#[test]
fn moved_outside_cell_fails_the_eco_audit() {
    let td = {
        let mut td = implement_fixture();
        let before_placement = td.placement.clone();
        let before_routing = td.routing.clone();

        // Declare tile 0 the ECO region, then move a cell in a
        // *different* tile between the snapshots: the locked tile
        // interface was not actually locked.
        let region = TileId(0);
        let outsider = td
            .netlist
            .cells()
            .map(|(id, _)| id)
            .find(|&id| {
                td.plan
                    .tile_of_cell(&td.placement, id)
                    .is_some_and(|t| t != region)
            })
            .expect("fixture spans more than one tile");
        let from = td.placement.unplace(outsider).unwrap();
        let free = td
            .device
            .all_clb_bels()
            .find(|&loc| td.placement.is_free(loc) && loc != from)
            .expect("fixture device has a spare CLB slot");
        td.placement.place(outsider, free).unwrap();

        let findings =
            tiling::audit_confined_eco(&td, &[region], &before_placement, &before_routing);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::UnlockedInterfacePin),
            "audit missed the moved outside cell: {findings:?}"
        );
        td
    };

    // The same design with the move *inside* the declared region is
    // clean: the audit complains about broken locks, not about ECOs.
    let all_tiles: Vec<TileId> = td.plan.iter().map(|(id, _)| id).collect();
    let before_placement = td.placement.clone();
    let before_routing = td.routing.clone();
    assert!(
        tiling::audit_confined_eco(&td, &all_tiles, &before_placement, &before_routing).is_empty()
    );
}

#[test]
fn clean_fixture_passes_preflight_and_localizes() {
    let (mut td, golden, error) = planted_fixture();
    let out = DebugSession::new(&mut td, &golden)
        .flow(TiledFlow)
        .seed(7)
        .run(&error)
        .unwrap();
    assert_eq!(out.localized, Some(error.cell));
}
