//! Physical-design invariants: timing sanity, wirelength accounting,
//! repeated-ECO robustness, and interface bookkeeping.

use fpga_debug_tiling::prelude::*;
use fpga_debug_tiling::{implement_paper_design, sim, tiling};

#[test]
fn routed_timing_beats_worst_case_estimate() {
    let td = implement_paper_design(PaperDesign::NineSym, TilingOptions::fast(31)).unwrap();
    let routed = td.timing().unwrap();
    assert!(routed.critical_ns > 0.0);
    // Critical path must include at least input, one LUT, and output.
    assert!(routed.critical_path.len() >= 3);
    // And fmax is the reciprocal.
    let f = routed.fmax_mhz();
    assert!((f - 1000.0 / routed.critical_ns).abs() < 1e-6);
}

#[test]
fn wirelength_accounting_is_consistent() {
    let td = implement_paper_design(PaperDesign::NineSym, TilingOptions::fast(32)).unwrap();
    let total = td.routing.total_wirelength();
    let sum: usize = td.routing.iter().map(|(_, t)| t.wirelength()).sum();
    assert_eq!(total, sum);
    assert!(total > 0);
    // Every routed net's first path starts at its driver pin.
    for (net_id, tree) in td.routing.iter() {
        let net = td.netlist.net(net_id).unwrap();
        let Some(driver) = net.driver else { continue };
        let src = td.rrg.source_node(td.placement.loc_of(driver).unwrap());
        assert!(
            tree.paths.iter().any(|p| p.first() == Some(&src)),
            "net {net_id} has no path rooted at its driver"
        );
    }
}

#[test]
fn ten_consecutive_ecos_keep_the_design_consistent() {
    // Stress: alternate function changes and observation-tap
    // insertions across many tiles; the design must stay feasible,
    // valid, and functionally correct (modulo the deliberate change
    // being reverted each time).
    let mut td = implement_paper_design(PaperDesign::Sand, TilingOptions::fast(33)).unwrap();
    let golden = td.netlist.clone();
    let luts: Vec<CellId> = td
        .netlist
        .cells()
        .filter(|(_, c)| c.lut_function().is_some())
        .map(|(id, _)| id)
        .collect();
    for k in 0..10usize {
        let victim = luts[(k * 37) % luts.len()];
        if k % 2 == 0 {
            // Flip a function and flip it back (two ECOs bundled into
            // one physical re-implementation, like a real fix-up).
            let tt = *td.netlist.cell(victim).unwrap().lut_function().unwrap();
            td.netlist
                .set_lut_function(victim, tt.complement())
                .unwrap();
            td.netlist.set_lut_function(victim, tt).unwrap();
            TiledFlow.reimplement(&mut td, &[victim], &[]).unwrap();
        } else {
            // Insert an observation tap (PO only, no logic).
            let net = td.netlist.cell_output(victim).unwrap();
            let rep = sim::testlogic::insert_observation_tap(
                &mut td.netlist,
                net,
                &format!("stress{k}"),
                false,
            )
            .unwrap();
            TiledFlow
                .reimplement(&mut td, &[victim], &rep.added)
                .unwrap();
        }
        assert!(td.routing.is_feasible(), "infeasible after ECO {k}");
        td.netlist.validate().unwrap();
    }
    // Original outputs still behave like the golden model.
    let mut gsim = sim::Simulator::new(&golden).unwrap();
    let mut dsim = sim::Simulator::new(&td.netlist).unwrap();
    let gpos = golden.primary_outputs();
    let dpos = td.netlist.primary_outputs();
    let pairs: Vec<(usize, usize)> = gpos
        .iter()
        .enumerate()
        .filter_map(|(gk, &gpo)| {
            let name = &golden.cell(gpo).unwrap().name;
            let dpo = td.netlist.find_cell(name)?;
            let dk = dpos.iter().position(|&c| c == dpo)?;
            Some((gk, dk))
        })
        .collect();
    assert_eq!(pairs.len(), gpos.len());
    for pat in sim::PatternGen::random(golden.primary_inputs().len(), 64, 17) {
        gsim.set_inputs(&pat);
        dsim.set_inputs(&pat);
        gsim.comb_eval();
        dsim.comb_eval();
        let g = gsim.outputs();
        let d = dsim.outputs();
        for &(gk, dk) in &pairs {
            assert_eq!(g[gk], d[dk], "behaviour drifted after 10 ECOs");
        }
        gsim.step();
        dsim.step();
    }
}

#[test]
fn interface_summary_counts_crossings() {
    let td = implement_paper_design(PaperDesign::NineSym, TilingOptions::fast(34)).unwrap();
    let mut total_crossings = 0;
    for (id, _) in td.plan.iter() {
        let s = tiling::interface::tile_interface(&td.device, &td.plan, &td.rrg, &td.routing, id)
            .unwrap();
        total_crossings += s.crossings;
        assert!(s.interface_nodes <= s.crossings);
    }
    // A connected design split into ~10 tiles must cross boundaries.
    assert!(total_crossings > 0);
}

#[test]
fn timing_after_eco_stays_reasonable() {
    let mut td = implement_paper_design(PaperDesign::C880, TilingOptions::fast(35)).unwrap();
    let before = td.timing().unwrap().critical_ns;
    let victim = td
        .netlist
        .cells()
        .find(|(_, c)| c.lut_function().is_some())
        .map(|(id, _)| id)
        .unwrap();
    let tt = td
        .netlist
        .cell(victim)
        .unwrap()
        .lut_function()
        .unwrap()
        .complement();
    td.netlist.set_lut_function(victim, tt).unwrap();
    TiledFlow.reimplement(&mut td, &[victim], &[]).unwrap();
    let after = td.timing().unwrap().critical_ns;
    // The paper observes tiled-ECO timing deltas within the noise of
    // small placement changes; a 3x blowup would indicate broken
    // routing bookkeeping.
    assert!(after < before * 3.0, "timing exploded: {before} -> {after}");
    assert!(after > 0.0);

    // Post-ECO normalization: every routed net's paths are indexed by
    // netlist sink order and run source pin -> sink pin contiguously.
    for (net_id, tree) in td.routing.iter() {
        let net = td.netlist.net(net_id).unwrap();
        let Some(driver) = net.driver else { continue };
        let src = td.rrg.source_node(td.placement.loc_of(driver).unwrap());
        if tree.paths.len() != net.sinks.len() {
            continue; // untouched partial trees may differ; skip
        }
        for (k, s) in net.sinks.iter().enumerate() {
            let pin = td
                .rrg
                .sink_node(td.placement.loc_of(s.cell).unwrap(), s.pin);
            assert_eq!(tree.paths[k][0], src, "net {net_id} path {k} root");
            assert_eq!(
                *tree.paths[k].last().unwrap(),
                pin,
                "net {net_id} path {k} tip"
            );
        }
    }
}

#[test]
fn incremental_eco_reroutes_only_the_changed_nets() {
    // The truly incremental ECO path keeps every surviving route
    // installed: a function-only change re-routes nothing at all, and
    // a tap insertion re-routes only the nets that gained sinks. (The
    // tile-clearing side of the comparison is a unit test in
    // `tiling::eco_flow`, which runs that rung directly.)
    let base = implement_paper_design(PaperDesign::NineSym, TilingOptions::fast(37)).unwrap();
    let luts: Vec<CellId> = base
        .netlist
        .cells()
        .filter(|(_, c)| c.lut_function().is_some())
        .map(|(id, _)| id)
        .collect();
    let victim = luts[luts.len() / 2];

    let mut td = base.clone();
    let tt = *td.netlist.cell(victim).unwrap().lut_function().unwrap();
    td.netlist
        .set_lut_function(victim, tt.complement())
        .unwrap();
    let inc = TiledFlow.reimplement(&mut td, &[victim], &[]).unwrap();
    assert!(td.routing.is_feasible());
    assert_eq!(
        inc.rerouted_nets, 0,
        "function-only ECO must keep all routes"
    );
    assert_eq!(inc.effort.route_expansions, 0);
    assert!(inc.confined && inc.kept_routes);

    let mut td = base.clone();
    let net = td.netlist.cell_output(victim).unwrap();
    let rep =
        sim::testlogic::insert_observation_tap(&mut td.netlist, net, "cmp_tap", true).unwrap();
    let inc_tap = TiledFlow
        .reimplement(&mut td, &[victim], &rep.added)
        .unwrap();
    assert!(td.routing.is_feasible());
    td.netlist.validate().unwrap();
    // The tapped net plus the new tap cells' nets — a handful, not a tile.
    assert!(inc_tap.rerouted_nets >= 1);
    assert!(inc_tap.confined && inc_tap.kept_routes);
}

#[test]
fn incremental_eco_survivors_stay_frozen_and_drc_clean() {
    // After an incremental tap ECO the surviving route trees outside
    // the affected tiles must be byte-identical to the pre-ECO state
    // (the locked-interface contract), and the whole design must still
    // pass the static design-rule audit.
    let mut td = implement_paper_design(PaperDesign::Styr, TilingOptions::fast(38)).unwrap();
    let luts: Vec<CellId> = td
        .netlist
        .cells()
        .filter(|(_, c)| c.lut_function().is_some())
        .map(|(id, _)| id)
        .collect();
    let victim = luts[luts.len() / 3];
    let before_placement = td.placement.clone();
    let before_routing = td.routing.clone();

    let net = td.netlist.cell_output(victim).unwrap();
    let rep =
        sim::testlogic::insert_observation_tap(&mut td.netlist, net, "frozen_tap", true).unwrap();
    let out = TiledFlow
        .reimplement(&mut td, &[victim], &rep.added)
        .unwrap();
    assert!(out.confined, "tap ECO should stay on the incremental path");
    assert!(out.rerouted_nets >= 1);

    // Confinement audit: placement and routing outside the affected
    // tiles are untouched; interface pins did not move.
    let findings =
        tiling::audit_confined_eco(&td, &out.affected.tiles, &before_placement, &before_routing);
    assert!(findings.is_empty(), "confinement violated: {findings:?}");

    // The surviving trees plus the freshly routed connections must be
    // drc-clean as a whole design (no dangling segments, no overuse,
    // no phantom pins).
    let drc = tiling::check_design(&td).unwrap();
    assert!(drc.is_empty(), "post-ECO drc findings: {drc:?}");
    assert!(td.routing.is_feasible());
    td.netlist.validate().unwrap();
}

#[test]
fn incremental_congestion_fallback_converges() {
    // Starve the channel so the one-shot incremental pass cannot
    // thread a burst of new connections between frozen survivor trees.
    // The flow must detect the congestion, fall back to tile clearing
    // (visible as re-placing far more than just the added cells), and
    // still converge to a feasible routed design.
    // At the fast-options default of 12 tracks this same burst stays
    // on the incremental path; at 8 the frozen survivors leave too
    // little channel and the one-shot pass congests deterministically.
    let mut opts = TilingOptions::fast(39);
    opts.tracks = 8;
    let mut td = implement_paper_design(PaperDesign::NineSym, opts).unwrap();

    // Tap the highest-fanout nets in one bundled ECO: many new
    // connections landing in the same neighbourhood.
    let mut by_fanout: Vec<(usize, CellId)> = td
        .netlist
        .cells()
        .filter(|(_, c)| c.lut_function().is_some())
        .map(|(id, _)| {
            let net = td.netlist.cell_output(id).unwrap();
            (td.netlist.net(net).unwrap().sinks.len(), id)
        })
        .collect();
    by_fanout.sort();
    by_fanout.reverse();
    let mut seeds = Vec::new();
    let mut added = Vec::new();
    for (k, &(_, cell)) in by_fanout.iter().take(6).enumerate() {
        let net = td.netlist.cell_output(cell).unwrap();
        let rep = sim::testlogic::insert_observation_tap(
            &mut td.netlist,
            net,
            &format!("burst{k}"),
            true,
        )
        .unwrap();
        seeds.push(cell);
        added.extend(rep.added);
    }

    let out = TiledFlow.reimplement(&mut td, &seeds, &added).unwrap();
    // Fallback proof: the incremental path only ever places the added
    // cells; tile clearing re-places every cell in the cleared tiles.
    assert!(
        out.replaced_cells > added.len(),
        "expected tile-clearing fallback, got incremental outcome \
         (replaced {} cells for {} added)",
        out.replaced_cells,
        added.len()
    );
    assert!(td.routing.is_feasible());
    td.netlist.validate().unwrap();
}

/// The session and error seeds of request `i` of the campaign
/// benchmark's stream at workload seed `seed`: splitmix64 over the
/// seed, the request index and the seed's slot (0 for the session,
/// `1 + e` for error `e`), as `campaignbench` derives them.
fn bench_seed(seed: u64, i: u64, slot: u64) -> u64 {
    fn splitmix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    splitmix64(splitmix64(seed) ^ splitmix64(i.wrapping_mul(64).wrapping_add(slot))) >> 32
}

/// The tiled flow, recording every ECO's outcome.
struct Recording<'a>(&'a mut Vec<tiling::EcoPhysicalOutcome>);

impl ReimplFlow for Recording<'_> {
    fn name(&self) -> &'static str {
        "recording"
    }

    fn reimplement(
        &mut self,
        td: &mut TiledDesign,
        seeds: &[CellId],
        added: &[CellId],
    ) -> Result<tiling::EcoPhysicalOutcome, TilingError> {
        let out = TiledFlow.reimplement(td, seeds, added)?;
        self.0.push(out.clone());
        Ok(out)
    }
}

#[test]
fn c499_control_points_beside_full_pad_channels_stay_incremental() {
    // Seed-7 comb-tiled benchmark requests 10 (binary search, two
    // errors) and 13 (linear batches, three errors). Each plants a
    // control point on c499 whose incremental route stalled on a few
    // wires beside its new force pads; tile clearing then re-routed
    // the whole device, because the pads' tile is a quarter of it.
    // Moving the pads to free channel keeps every ECO incremental.
    use debugd::{ArtifactStore, CampaignRequest, StrategyKind};
    let store = ArtifactStore::new();
    for (i, strategy, errors) in [
        (10, StrategyKind::BinarySearch, 2),
        (13, StrategyKind::LinearBatches, 3),
    ] {
        let req = CampaignRequest {
            design: PaperDesign::C499,
            strategy,
            seed: bench_seed(7, i, 0),
            error_seeds: (0..errors).map(|e| bench_seed(7, i, 1 + e)).collect(),
            ..CampaignRequest::default()
        };
        let artifact = store.get_or_build(&req).unwrap();
        let mut td = artifact.td.clone();
        let mut outcomes = Vec::new();
        let campaign = DebugSession::new(&mut td, &artifact.golden)
            .strategy_boxed(req.strategy.instantiate())
            .flow(Recording(&mut outcomes))
            .patterns(req.patterns.to_spec(req.pattern_count))
            .seed(req.seed)
            .confirm_with_control(req.confirm_with_control)
            .run_campaign(&req.error_seeds)
            .unwrap();
        assert!(campaign.iterations.iter().all(|row| row.repaired));
        assert!(!outcomes.is_empty());
        for (k, out) in outcomes.iter().enumerate() {
            assert!(
                out.kept_routes && out.confined,
                "request {i}, ECO {k} left the incremental rung: {} nets re-routed",
                out.rerouted_nets
            );
        }
        assert!(td.routing.is_feasible());
    }
}
