//! End-to-end integration: the full paper flow on multiple designs.

use fpga_debug_tiling::prelude::*;
use fpga_debug_tiling::{implement_paper_design, sim, tiling};

fn fast(seed: u64) -> TilingOptions {
    TilingOptions::fast(seed)
}

#[test]
fn implement_inject_debug_repair_9sym() {
    let mut td = implement_paper_design(PaperDesign::NineSym, fast(101)).unwrap();
    let golden = td.netlist.clone();
    let error = sim::inject::random_error(&mut td.netlist, 7).unwrap();
    let mut events: Vec<DebugEvent> = Vec::new();
    let out = DebugSession::new(&mut td, &golden)
        .seed(5)
        .on_event(|e| events.push(e.clone()))
        .run(&error)
        .unwrap();
    assert!(out.mismatch.is_some());
    assert!(out.repaired);
    assert!(td.routing.is_feasible());
    assert!(out.ecos >= 2); // at least one tap batch plus the fix
                            // The event stream narrates the iteration in phase order.
    let detected = events
        .iter()
        .position(|e| matches!(e, DebugEvent::Detected { .. }))
        .expect("Detected event");
    let localized = events
        .iter()
        .position(|e| matches!(e, DebugEvent::Localized { .. }))
        .expect("Localized event");
    let corrected = events
        .iter()
        .position(|e| matches!(e, DebugEvent::Corrected { .. }))
        .expect("Corrected event");
    assert!(detected < localized && localized < corrected);
    // Ledger phases reconcile with the flat counters.
    assert_eq!(out.effort, out.ledger.total());
    assert_eq!(out.ecos, out.ledger.total_ecos());
}

#[test]
fn implement_inject_debug_repair_sequential_styr() {
    let mut td = implement_paper_design(PaperDesign::Styr, fast(102)).unwrap();
    assert!(td.netlist.is_sequential());
    let golden = td.netlist.clone();
    let error = sim::inject::random_error(&mut td.netlist, 77).unwrap();
    let out = DebugSession::new(&mut td, &golden)
        .seed(55)
        .run(&error)
        .unwrap();
    // Sequential detection uses an LFSR stream; a deep-state bug can
    // escape, in which case the loop reports repaired-without-detect.
    if out.mismatch.is_some() {
        assert!(out.repaired);
        assert!(td.routing.is_feasible());
    }
}

#[test]
fn eco_locality_invariant_c499() {
    // After a one-LUT ECO, every net with no node inside the affected
    // region must be bit-identical, and every cell outside must sit
    // exactly where it was.
    let mut td = implement_paper_design(PaperDesign::C499, fast(103)).unwrap();
    let placement_before: Vec<(CellId, BelLoc)> = td.placement.iter().collect();
    let routes_before: Vec<(NetId, fpga::RouteTree)> =
        td.routing.iter().map(|(n, t)| (n, t.clone())).collect();

    // Pick the victim inside the smallest tile *that holds a LUT* so
    // the cleared region stays well under the coarse-granularity
    // threshold (a region covering >=20% of the device deliberately
    // falls back to a full re-route — see tiling::eco_flow).
    let victim = td
        .plan
        .iter()
        .filter_map(|(tid, t)| {
            td.netlist
                .cells()
                .find(|(id, c)| {
                    c.lut_function().is_some()
                        && td.plan.tile_of_cell(&td.placement, *id) == Some(tid)
                })
                .map(|(id, _)| (t.rect.area(), id))
        })
        .min_by_key(|&(area, _)| area)
        .map(|(_, id)| id)
        .expect("some tile holds a LUT");
    let tt = td
        .netlist
        .cell(victim)
        .unwrap()
        .lut_function()
        .unwrap()
        .complement();
    td.netlist.set_lut_function(victim, tt).unwrap();
    let out = TiledFlow.reimplement(&mut td, &[victim], &[]).unwrap();
    assert!(td.routing.is_feasible());
    // Placement outside untouched — holds on every path, including
    // the coarse fallback (which only re-routes).
    for (cell, loc) in placement_before {
        let outside = match loc.coord() {
            Some(c) => !out
                .affected
                .tiles
                .iter()
                .any(|&t| td.plan.tile(t).unwrap().rect.contains(c)),
            None => true, // IOBs never move in an ECO
        };
        if outside {
            assert_eq!(td.placement.loc_of(cell), Some(loc), "cell {cell} moved");
        }
    }
    let region_clbs: usize = out
        .affected
        .tiles
        .iter()
        .map(|&t| td.plan.tile(t).unwrap().rect.area())
        .sum();
    if region_clbs as f64 >= 0.20 * td.device.num_clbs() as f64 {
        // Coarse fallback ran (documented): routing locality waived.
        return;
    }

    let region =
        tiling::interface::RegionSet::from_tiles(&td.device, &td.plan, &out.affected.tiles);
    // Routing outside untouched (nets not touching the region).
    let mut checked = 0;
    for (net, tree) in routes_before {
        let touches = tree
            .nodes()
            .iter()
            .any(|&n| region.touches_node(&td.rrg, n));
        if !touches {
            assert_eq!(td.routing.route(net), Some(&tree), "net {net} perturbed");
            checked += 1;
        }
    }
    assert!(
        checked > 10,
        "locality check must cover many nets, got {checked}"
    );
}

#[test]
fn functional_equivalence_preserved_by_physical_eco() {
    // A physical-only ECO (re-place and re-route, no logic change)
    // must not alter design behaviour: emulate before vs after.
    let mut td = implement_paper_design(PaperDesign::C880, fast(104)).unwrap();
    let golden = td.netlist.clone();
    // Touch a tile with a no-op change (same function re-set).
    let victim = td
        .netlist
        .cells()
        .find(|(_, c)| c.lut_function().is_some())
        .map(|(id, _)| id)
        .unwrap();
    let tt = *td.netlist.cell(victim).unwrap().lut_function().unwrap();
    td.netlist.set_lut_function(victim, tt).unwrap();
    TiledFlow.reimplement(&mut td, &[victim], &[]).unwrap();
    let m = sim::emulate::first_mismatch(
        &golden,
        &td.netlist,
        sim::PatternGen::random(golden.primary_inputs().len(), 128, 9),
    )
    .unwrap();
    assert_eq!(m, None, "physical ECO changed behaviour");
}

#[test]
fn observation_logic_figures_in_affected_tiles() {
    let mut td = implement_paper_design(PaperDesign::Sand, fast(105)).unwrap();
    // Insert an event counter (bulky test logic) triggered by an
    // internal net — the paper's "large counter" scenario.
    let (seed_cell, net) = {
        let (id, c) = td
            .netlist
            .cells()
            .find(|(_, c)| c.lut_function().is_some())
            .unwrap();
        (id, c.output.unwrap())
    };
    let rep = sim::testlogic::insert_event_counter(&mut td.netlist, net, 8, "cnt").unwrap();
    let clbs = sim::testlogic::clb_cost(&td.netlist, &rep);
    assert!(clbs >= 4, "8-bit counter is a real block of logic");
    let out = TiledFlow
        .reimplement(&mut td, &[seed_cell], &rep.added)
        .unwrap();
    assert!(td.routing.is_feasible());
    // Every added logic cell landed inside the affected region.
    for &c in &rep.added {
        let cell = td.netlist.cell(c).unwrap();
        if cell.is_logic() {
            let t = td
                .plan
                .tile_of_cell(&td.placement, c)
                .expect("placed on a CLB");
            assert!(
                out.affected.contains(t),
                "added cell {c} outside affected tiles"
            );
        }
    }
    td.netlist.validate().unwrap();
}

#[test]
fn control_point_lets_emulation_force_state() {
    let mut td = implement_paper_design(PaperDesign::NineSym, fast(106)).unwrap();
    let (seed_cell, net) = {
        let (id, c) = td
            .netlist
            .cells()
            .find(|(_, c)| c.lut_function().is_some())
            .unwrap();
        (id, c.output.unwrap())
    };
    let cp = sim::testlogic::insert_control_point(&mut td.netlist, net, "cp").unwrap();
    let mut added = cp.report.added.clone();
    // New PIs occupy pads; the mux is logic.
    TiledFlow
        .reimplement(&mut td, &[seed_cell], &added)
        .unwrap();
    added.clear();
    assert!(td.routing.is_feasible());
    // The mux must be placed and routed.
    let mux_net = td.netlist.cell_output(cp.mux).unwrap();
    assert!(td.routing.route(mux_net).is_some());
    td.netlist.validate().unwrap();
}
