//! Property-based tests on the core data structures and invariants.

use fpga_debug_tiling::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Truth tables
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn tt_complement_is_involutive(arity in 0usize..=6, bits: u64) {
        let t = TruthTable::from_bits(arity, bits).unwrap();
        prop_assert_eq!(t.complement().complement(), t);
    }

    #[test]
    fn tt_cofactors_reconstruct_shannon(arity in 1usize..=6, bits: u64, var_raw: usize) {
        let t = TruthTable::from_bits(arity, bits).unwrap();
        let var = var_raw % arity;
        let f0 = t.cofactor(var, false);
        let f1 = t.cofactor(var, true);
        // f(x) = x ? f1 : f0 for every row.
        for row in 0..(1u64 << arity) {
            let reduced = {
                let low = row & ((1 << var) - 1);
                let high = (row >> (var + 1)) << var;
                low | high
            };
            let expect = if row >> var & 1 == 1 { f1.eval_row(reduced) } else { f0.eval_row(reduced) };
            prop_assert_eq!(t.eval_row(row), expect);
        }
    }

    #[test]
    fn tt_swap_vars_is_involutive(arity in 2usize..=6, bits: u64, a_raw: usize, b_raw: usize) {
        let t = TruthTable::from_bits(arity, bits).unwrap();
        let (a, b) = (a_raw % arity, b_raw % arity);
        prop_assert_eq!(t.with_swapped_vars(a, b).with_swapped_vars(a, b), t);
    }

    #[test]
    fn tt_flip_row_changes_exactly_one(arity in 0usize..=6, bits: u64, row_raw: u64) {
        let t = TruthTable::from_bits(arity, bits).unwrap();
        let row = row_raw % (1 << arity);
        let f = t.with_flipped_row(row);
        prop_assert_eq!((f.bits() ^ t.bits()).count_ones(), 1);
    }
}

// ---------------------------------------------------------------------
// Pattern generators
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn lfsr_patterns_have_declared_width_and_count(
        width in 1usize..=16,
        count in 0usize..=64,
        seed: u64,
    ) {
        let pats: Vec<Vec<bool>> = PatternGen::lfsr(width, count, seed).collect();
        prop_assert_eq!(pats.len(), count);
        prop_assert!(pats.iter().all(|p| p.len() == width));
        // LFSR states are never all-zero.
        prop_assert!(pats.iter().all(|p| p.iter().any(|&b| b)));
    }

    #[test]
    fn random_patterns_are_reproducible(width in 1usize..=24, seed: u64) {
        let a: Vec<_> = PatternGen::random(width, 16, seed).collect();
        let b: Vec<_> = PatternGen::random(width, 16, seed).collect();
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn rect_union_contains_both(
        ax0 in 0u16..20, ay0 in 0u16..20, aw in 0u16..10, ah in 0u16..10,
        bx0 in 0u16..20, by0 in 0u16..20, bw in 0u16..10, bh in 0u16..10,
    ) {
        let a = Rect::new(ax0, ay0, ax0 + aw, ay0 + ah);
        let b = Rect::new(bx0, by0, bx0 + bw, by0 + bh);
        let u = a.union(&b);
        for c in a.iter().chain(b.iter()) {
            prop_assert!(u.contains(c));
        }
        prop_assert!(u.area() >= a.area().max(b.area()));
    }

    #[test]
    fn adjacency_is_symmetric_and_disjoint(
        ax0 in 0u16..12, ay0 in 0u16..12, aw in 0u16..5, ah in 0u16..5,
        bx0 in 0u16..12, by0 in 0u16..12, bw in 0u16..5, bh in 0u16..5,
    ) {
        let a = Rect::new(ax0, ay0, ax0 + aw, ay0 + ah);
        let b = Rect::new(bx0, by0, bx0 + bw, by0 + bh);
        prop_assert_eq!(a.is_adjacent(&b), b.is_adjacent(&a));
        if a.is_adjacent(&b) {
            prop_assert!(!a.intersects(&b));
        }
    }
}

// ---------------------------------------------------------------------
// RRG structural invariants on random device shapes
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn rrg_roundtrip_and_symmetry(w in 2u16..7, h in 2u16..7, t in 1u16..5) {
        let dev = Device::new(w, h, t, 2).unwrap();
        let rrg = RoutingGraph::new(&dev);
        let mut nbrs = Vec::new();
        let mut back = Vec::new();
        for i in 0..rrg.num_nodes() {
            let id = fpga::NodeId::default_for_test(i as u32);
            let kind = rrg.node(id);
            // Wire-wire edges must be symmetric.
            if matches!(kind, fpga::NodeKind::ChanX { .. } | fpga::NodeKind::ChanY { .. }) {
                rrg.neighbors(id, &mut nbrs);
                let snapshot = nbrs.clone();
                for &n in &snapshot {
                    let nk = rrg.node(n);
                    if matches!(nk, fpga::NodeKind::ChanX { .. } | fpga::NodeKind::ChanY { .. }) {
                        rrg.neighbors(n, &mut back);
                        prop_assert!(back.contains(&id));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Indexed pad sites (the placer draws pad moves by index)
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn iob_site_index_matches_iob_sites(w in 1u16..=24, h in 1u16..=24, k in 1u8..=3) {
        let dev = Device::new(w, h, 4, k).unwrap();
        let sites: Vec<fpga::IobSite> = dev.iob_sites().collect();
        prop_assert_eq!(dev.io_capacity(), sites.len());
        let indexed: Vec<Option<fpga::IobSite>> =
            (0..dev.io_capacity()).map(|i| dev.iob_site(i)).collect();
        prop_assert_eq!(indexed, sites.into_iter().map(Some).collect::<Vec<_>>());
        prop_assert_eq!(dev.iob_site(dev.io_capacity()), None);
    }
}

// ---------------------------------------------------------------------
// Placement invariants under random constraints
// ---------------------------------------------------------------------

fn chain_netlist(luts: usize) -> Netlist {
    let mut nl = Netlist::new("chain");
    let a = nl.add_input("a").unwrap();
    let mut prev = nl.cell_output(a).unwrap();
    for i in 0..luts {
        let u = nl
            .add_lut(format!("u{i}"), TruthTable::not(), &[prev])
            .unwrap();
        prev = nl.cell_output(u).unwrap();
    }
    nl.add_output("y", prev).unwrap();
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn placement_respects_random_regions(
        luts in 2usize..10,
        rx in 0u16..4,
        ry in 0u16..4,
        seed: u64,
    ) {
        let nl = chain_netlist(luts);
        let dev = Device::new(8, 8, 4, 2).unwrap();
        let region = Rect::new(rx, ry, rx + 3, ry + 3);
        let mut cons = place::Constraints::free();
        for (id, c) in nl.cells() {
            if c.is_logic() {
                cons.confine(id, region);
            }
        }
        let out = place::place(&nl, &dev, &cons, None, &place::PlacerConfig::fast(seed)).unwrap();
        for (id, c) in nl.cells() {
            if c.is_logic() {
                let loc = out.placement.loc_of(id).unwrap();
                prop_assert!(region.contains(loc.coord().unwrap()));
            }
        }
        // No two cells share a BEL (placement DB invariant).
        let mut seen = std::collections::BTreeSet::new();
        for (_, loc) in out.placement.iter() {
            prop_assert!(seen.insert(loc));
        }
    }
}

// ---------------------------------------------------------------------
// Routing invariants on random placements
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn routed_paths_connect_correct_pins(luts in 2usize..8, seed: u64) {
        let nl = chain_netlist(luts);
        let dev = Device::new(8, 8, 6, 2).unwrap();
        let out = place::place(
            &nl,
            &dev,
            &place::Constraints::free(),
            None,
            &place::PlacerConfig::fast(seed),
        )
        .unwrap();
        let rrg = RoutingGraph::new(&dev);
        let mut routing = Routing::new(rrg.num_nodes());
        route::route_design(&nl, &out.placement, &rrg, &mut routing, &route::RouteOptions::default())
            .unwrap();
        prop_assert!(routing.is_feasible());
        for (net_id, net) in nl.nets() {
            let Some(tree) = routing.route(net_id) else { continue };
            let driver = net.driver.unwrap();
            let src = rrg.source_node(out.placement.loc_of(driver).unwrap());
            for (k, sink) in net.sinks.iter().enumerate() {
                let pin = rrg.sink_node(out.placement.loc_of(sink.cell).unwrap(), sink.pin);
                let path = &tree.paths[k];
                prop_assert_eq!(path[0], src);
                prop_assert_eq!(*path.last().unwrap(), pin);
                // Consecutive nodes are RRG neighbours.
                let mut nbrs = Vec::new();
                for w in path.windows(2) {
                    rrg.neighbors(w[0], &mut nbrs);
                    prop_assert!(nbrs.contains(&w[1]), "broken path edge");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Suspect-cone algebra (multi-error diagnosis)
// ---------------------------------------------------------------------

fn cone_of(cells: &[usize]) -> SuspectCone {
    cells.iter().map(|&i| netlist::CellId::new(i)).collect()
}

/// A `bb`-cell backbone chain fanning into `branches` chains of
/// `blen` cells, each with its own output — the canonical
/// overlapping-cone shape.
fn backbone_netlist(bb: usize, branches: usize, blen: usize) -> Netlist {
    let mut nl = Netlist::new("bb");
    let a = nl.add_input("a").unwrap();
    let mut net = nl.cell_output(a).unwrap();
    for k in 0..bb {
        let c = nl
            .add_lut(format!("bb{k}"), TruthTable::not(), &[net])
            .unwrap();
        net = nl.cell_output(c).unwrap();
    }
    for b in 0..branches {
        let mut bnet = net;
        for k in 0..blen {
            let c = nl
                .add_lut(format!("br{b}_{k}"), TruthTable::not(), &[bnet])
                .unwrap();
            bnet = nl.cell_output(c).unwrap();
        }
        nl.add_output(format!("y{b}"), bnet).unwrap();
    }
    nl
}

proptest! {
    #[test]
    fn cone_union_intersect_are_lattice_ops(
        a in prop::collection::vec(0usize..320, 0usize..40),
        b in prop::collection::vec(0usize..320, 0usize..40),
        c in prop::collection::vec(0usize..320, 0usize..40),
    ) {
        let (a, b, c) = (cone_of(&a), cone_of(&b), cone_of(&c));
        // Commutative, associative, idempotent.
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.intersect(&b).intersect(&c), a.intersect(&b.intersect(&c)));
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert_eq!(a.intersect(&a), a.clone());
        // Intersection distributes over union.
        prop_assert_eq!(
            a.intersect(&b.union(&c)),
            a.intersect(&b).union(&a.intersect(&c))
        );
        // Inclusion–exclusion holds for the popcounts.
        prop_assert_eq!(
            a.union(&b).len() + a.intersect(&b).len(),
            a.len() + b.len()
        );
        // `intersects` agrees with the materialized intersection.
        prop_assert_eq!(a.intersects(&b), !a.intersect(&b).is_empty());
    }

    #[test]
    fn cone_in_place_ops_agree_with_functional(
        a in prop::collection::vec(0usize..320, 0usize..40),
        b in prop::collection::vec(0usize..320, 0usize..40),
    ) {
        let (a, b) = (cone_of(&a), cone_of(&b));
        let mut s = a.clone();
        s.subtract_with(&b);
        prop_assert_eq!(&s, &a.subtract(&b));
        let mut u = a.clone();
        u.union_with(&b);
        prop_assert_eq!(&u, &a.union(&b));
        let mut i = a.clone();
        i.intersect_with(&b);
        prop_assert_eq!(&i, &a.intersect(&b));
        // Normalization survives in-place editing: growing through a
        // larger universe and shrinking back keeps `==` meaning set
        // equality.
        let mut via = a.clone();
        via.union_with(&b);
        via.subtract_with(&b);
        prop_assert_eq!(via, a.subtract(&b));
    }

    #[test]
    fn cone_subtract_complements_intersect(
        a in prop::collection::vec(0usize..320, 0usize..40),
        b in prop::collection::vec(0usize..320, 0usize..40),
    ) {
        let (a, b) = (cone_of(&a), cone_of(&b));
        let diff = a.subtract(&b);
        // a splits into (a ∖ b) ⊎ (a ∩ b).
        prop_assert_eq!(diff.union(&a.intersect(&b)), a.clone());
        prop_assert!(diff.intersect(&b).is_empty());
        prop_assert!(a.subtract(&a).is_empty());
        // Per-cell membership matches the set definition (and the
        // normalization invariant keeps == meaning set equality).
        for cell in a.iter() {
            prop_assert_eq!(diff.contains(cell), !b.contains(cell));
        }
    }

    #[test]
    fn cone_partition_is_a_disjoint_cover(
        a in prop::collection::vec(0usize..128, 0usize..24),
        b in prop::collection::vec(0usize..128, 0usize..24),
        c in prop::collection::vec(0usize..128, 0usize..24),
    ) {
        let cones = [cone_of(&a), cone_of(&b), cone_of(&c)];
        let p = ConePartition::split(&cones);
        // Regions are pairwise disjoint…
        for (i, x) in p.exclusive.iter().enumerate() {
            prop_assert!(x.intersect(&p.shared).is_empty());
            for y in p.exclusive.iter().skip(i + 1) {
                prop_assert!(x.intersect(y).is_empty());
            }
        }
        // …cover exactly the input union…
        let mut union = SuspectCone::new();
        for cone in &cones {
            union.union_with(cone);
        }
        prop_assert_eq!(p.coverage(), union.clone());
        // …and classify each cell by how many cones implicate it.
        for cell in union.iter() {
            let owners = cones.iter().filter(|k| k.contains(cell)).count();
            prop_assert_eq!(p.shared.contains(cell), owners >= 2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn fanin_cones_are_monotone_and_closed(
        bb in 1usize..8,
        branches in 1usize..4,
        blen in 1usize..5,
        s1_raw: usize,
        s2_raw: usize,
    ) {
        let nl = backbone_netlist(bb, branches, blen);
        let luts: Vec<netlist::CellId> = nl
            .cells()
            .filter(|(_, c)| c.lut_function().is_some())
            .map(|(id, _)| id)
            .collect();
        let s1 = luts[s1_raw % luts.len()];
        let s2 = luts[s2_raw % luts.len()];
        let c1 = SuspectCone::fanin(&nl, &[s1]);
        let c2 = SuspectCone::fanin(&nl, &[s2]);
        let c12 = SuspectCone::fanin(&nl, &[s1, s2]);
        // Monotone in the seed set: cone(S) ⊆ cone(S ∪ T)…
        prop_assert_eq!(c1.union(&c12), c12.clone());
        // …and in fact distributes over seed union.
        prop_assert_eq!(c1.union(&c2), c12);
        // Closed under fanin: every member's own cone stays inside.
        for cell in c1.iter().filter(|&c| nl.cell(c).unwrap().lut_function().is_some()) {
            let inner = SuspectCone::fanin(&nl, &[cell]);
            prop_assert_eq!(inner.union(&c1), c1.clone());
        }
    }
}

// ---------------------------------------------------------------------
// Windowed per-cluster pruning soundness (multi-error diagnosis)
// ---------------------------------------------------------------------

/// Sequential variant of [`backbone_netlist`]: every backbone and
/// branch LUT is followed by a flip-flop, and all branches share the
/// same layout. Identical branch structure means a divergence at any
/// cell reaches *every* output in its fanout after the same number of
/// cycles — the regime in which the windowed alibi (like the serial
/// passing-split it mirrors) is exact rather than heuristic.
fn seq_backbone_netlist(bb: usize, branches: usize, blen: usize) -> Netlist {
    let mut nl = Netlist::new("seqbb");
    let a = nl.add_input("a").unwrap();
    let mut net = nl.cell_output(a).unwrap();
    for k in 0..bb {
        let c = nl
            .add_lut(format!("bb{k}"), TruthTable::not(), &[net])
            .unwrap();
        net = nl.cell_output(c).unwrap();
        let ff = nl.add_ff(format!("bbff{k}"), false, net).unwrap();
        net = nl.cell_output(ff).unwrap();
    }
    for b in 0..branches {
        let mut bnet = net;
        for k in 0..blen {
            let c = nl
                .add_lut(format!("br{b}_{k}"), TruthTable::not(), &[bnet])
                .unwrap();
            bnet = nl.cell_output(c).unwrap();
            let ff = nl.add_ff(format!("brff{b}_{k}"), false, bnet).unwrap();
            bnet = nl.cell_output(ff).unwrap();
        }
        nl.add_output(format!("y{b}"), bnet).unwrap();
    }
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn windowed_cluster_pruning_keeps_a_guilty_cell(
        bb in 3usize..6,
        branches in 1usize..4,
        blen in 1usize..4,
        k in 1usize..4,
        seed: u64,
    ) {
        use fpga_debug_tiling::tiling::{cluster_failures, collect_responses};

        let golden = seq_backbone_netlist(bb, branches, blen);
        let mut dut = golden.clone();
        // bb >= 3 guarantees at least k eligible LUTs.
        let seeds: Vec<u64> = (0..k as u64).map(|i| seed.wrapping_add(i)).collect();
        let errors =
            fpga_debug_tiling::sim::inject::random_distinct_errors(&mut dut, &seeds).unwrap();
        let matrix =
            collect_responses(&golden, &dut, PatternGen::random(1, 48, seed)).unwrap();
        let evidence = EvidenceBase::from_sweep(&golden, &matrix);
        for cl in cluster_failures(&golden, &matrix) {
            // The window is the earliest failure of the union signature.
            prop_assert_eq!(Some(cl.window), cl.signature.first_failing());
            let pruned = evidence.prune_cone(&cl.cone, &evidence.causal_window(&cl));
            // Pruning only ever shrinks the cluster's cone…
            prop_assert_eq!(&pruned.union(&cl.cone), &cl.cone);
            // …and never exonerates every culprit: whatever mix of
            // errors is live, the cell whose divergence caused this
            // cluster's first failure survives the windowed alibi.
            prop_assert!(
                errors.iter().any(|e| pruned.contains(e.cell)),
                "cluster pruned away every injected error"
            );
        }
    }
}

// ---------------------------------------------------------------------
// EvidenceBase invariants
// ---------------------------------------------------------------------

/// One randomly-generated update against an `EvidenceBase` cell.
#[derive(Debug, Clone)]
enum EvidenceOp {
    /// An exact physical measurement (`None` = clean everywhere).
    Record(Option<usize>),
    /// A whole-sweep assumption.
    Assume(bool),
    /// A derived screening exoneration.
    Exonerate(usize),
}

fn evidence_op(raw: u32) -> EvidenceOp {
    // Small onsets on purpose: collisions between bounds are the
    // interesting regime.
    let v = (raw % 16) as usize;
    match raw % 4 {
        0 => EvidenceOp::Record(Some(v)),
        1 => EvidenceOp::Record((v > 3).then_some(v)),
        2 => EvidenceOp::Assume(raw % 8 < 4),
        _ => EvidenceOp::Exonerate(v),
    }
}

proptest! {
    #[test]
    fn evidence_bounds_never_contradict(
        ops in prop::collection::vec(0u32..4096, 1usize..24),
    ) {
        // Any interleaving of measurements, assumptions and derived
        // exonerations keeps the onset bounds consistent: a cell is
        // never simultaneously "diverged by p" and "clean through
        // >= p" (diverged-by below clean-through is rejected), so no
        // window can ever read both verdicts.
        let cell = netlist::CellId::new(7);
        let mut ev = EvidenceBase::new();
        // Measurements merge by earliest onset (divergence cannot be
        // un-observed); this mirror tracks what the bounds must pin.
        let mut measured: Option<Option<usize>> = None;
        for &raw in &ops {
            match evidence_op(raw) {
                EvidenceOp::Record(onset) => {
                    ev.record(cell, onset);
                    measured = Some(match measured {
                        None => onset,
                        Some(Some(a)) => Some(onset.map_or(a, |b| a.min(b))),
                        Some(None) => onset,
                    });
                }
                EvidenceOp::Assume(d) => ev.assume(cell, d),
                EvidenceOp::Exonerate(w) => ev.exonerate_through(cell, w),
            }
            prop_assert!(ev.bounds_consistent(cell), "contradictory bounds");
            if let (Some(p), Some(c)) = (ev.diverged_by(cell), ev.clean_through(cell)) {
                prop_assert!(c < p, "clean-through {c} reaches diverged-by {p}");
            }
            // Measurements win over every derived bound, in any
            // interleaving: once measured, the bounds are pinned.
            match measured {
                Some(Some(p)) => {
                    prop_assert_eq!(ev.diverged_by(cell), Some(p));
                    prop_assert_eq!(ev.clean_through(cell), p.checked_sub(1));
                }
                Some(None) => {
                    prop_assert_eq!(
                        ev.verdict(cell, EvidenceBase::WHOLE_SWEEP),
                        Some(false),
                        "a measured-clean net must stay clean"
                    );
                }
                None => {}
            }
            // The two verdict readings can never disagree on one
            // window.
            for w in 0..20 {
                let v = ev.verdict(cell, w);
                if v == Some(true) {
                    prop_assert!(ev.diverged_by(cell).is_some_and(|p| p <= w));
                }
                if v == Some(false) {
                    prop_assert!(ev.clean_through(cell).is_some_and(|c| c >= w));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Packed simulator vs the scalar oracle
// ---------------------------------------------------------------------
//
// The scalar `Simulator` is the semantic reference; every packed
// sweep must be bit-exact against it — outputs, internal nets, FF
// state, fault lanes and divergence onsets alike. Pattern counts are
// drawn past 64 so the chunked path crosses word boundaries, and the
// stimulus is biased (`prop::bool::weighted`) so divergence words are
// sparse and onsets land away from lane 0.

use fpga_debug_tiling::sim::{inject, GoldenTrace, PackedSimulator, LANES};

/// Number of primary inputs every random combinational DAG uses.
const RAND_PIS: usize = 5;

/// A random combinational DAG: `RAND_PIS` inputs feeding one LUT per
/// truth-table word, each LUT's fanins drawn from all earlier nets,
/// with the last and a middle net observed as outputs.
fn random_comb_netlist(tts: &[u64]) -> Netlist {
    let mut nl = Netlist::new("randcomb");
    let mut nets: Vec<NetId> = (0..RAND_PIS)
        .map(|i| {
            let c = nl.add_input(format!("i{i}")).unwrap();
            nl.cell_output(c).unwrap()
        })
        .collect();
    for (k, &bits) in tts.iter().enumerate() {
        let arity = 1 + bits as usize % 3;
        let ins: Vec<NetId> = (0..arity)
            .map(|j| nets[(bits >> (7 * j + 3)) as usize % nets.len()])
            .collect();
        let tt = TruthTable::from_bits(arity, bits).unwrap();
        let c = nl.add_lut(format!("u{k}"), tt, &ins).unwrap();
        nets.push(nl.cell_output(c).unwrap());
    }
    nl.add_output("ylast", *nets.last().unwrap()).unwrap();
    nl.add_output("ymid", nets[nets.len() / 2]).unwrap();
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn packed_comb_eval_matches_scalar_on_every_net(
        tts in prop::collection::vec(prop::bits::u64::masked(u64::MAX), 1usize..8),
        pats in prop::collection::vec(
            prop::collection::vec(prop::bool::weighted(0.3), RAND_PIS..=RAND_PIS),
            1usize..150,
        ),
    ) {
        let nl = random_comb_netlist(&tts);
        let mut scalar = Simulator::new(&nl).unwrap();
        let mut packed = PackedSimulator::new(&nl).unwrap();
        for (c, chunk) in pats.chunks(LANES).enumerate() {
            packed.load_patterns(chunk);
            packed.comb_eval();
            for (lane, pat) in chunk.iter().enumerate() {
                scalar.set_inputs(pat);
                scalar.comb_eval();
                for (net_id, _) in nl.nets() {
                    prop_assert_eq!(
                        packed.net_word(net_id) >> lane & 1 == 1,
                        scalar.net_value(net_id),
                        "net {:?}, pattern {}", net_id, c * LANES + lane
                    );
                }
            }
        }
    }

    #[test]
    fn packed_stream_matches_scalar_outputs_and_ff_state(
        bb in 1usize..5,
        branches in 1usize..3,
        blen in 1usize..4,
        pats in prop::collection::vec(
            prop::collection::vec(prop::bool::weighted(0.5), 1usize..=1),
            1usize..40,
        ),
    ) {
        let nl = seq_backbone_netlist(bb, branches, blen);
        let mut scalar = Simulator::new(&nl).unwrap();
        let mut packed = PackedSimulator::new(&nl).unwrap();
        for pat in &pats {
            scalar.set_inputs(pat);
            scalar.comb_eval();
            packed.broadcast_inputs(pat);
            packed.comb_eval();
            let want = scalar.outputs();
            for (j, &w) in want.iter().enumerate() {
                prop_assert_eq!(packed.output_word(j) & 1 == 1, w);
            }
            for (id, _) in nl.cells() {
                prop_assert_eq!(
                    packed.ff_word(id).map(|w| w & 1 == 1),
                    scalar.ff_state(id),
                    "FF {:?}", id
                );
            }
            scalar.step();
            packed.step();
        }
        prop_assert_eq!(packed.cycles(), scalar.cycles());
    }

    #[test]
    fn packed_fault_lanes_match_a_complemented_netlist(
        tts in prop::collection::vec(prop::bits::u64::masked(u64::MAX), 1usize..6),
        mask_raw in prop::bits::u64::masked(u64::MAX),
        pats in prop::collection::vec(
            prop::collection::vec(prop::bool::weighted(0.5), RAND_PIS..=RAND_PIS),
            1usize..=LANES,
        ),
        cell_raw: usize,
    ) {
        let nl = random_comb_netlist(&tts);
        let luts: Vec<CellId> = nl
            .cells()
            .filter(|(_, c)| c.lut_function().is_some())
            .map(|(id, _)| id)
            .collect();
        let cell = luts[cell_raw % luts.len()];
        let mut faulty_nl = nl.clone();
        inject::inject(&mut faulty_nl, cell, inject::DesignErrorKind::Complement).unwrap();

        let mut packed = PackedSimulator::new(&nl).unwrap();
        let lanes = packed.load_patterns(&pats);
        let mask = mask_raw & lanes;
        packed.set_fault_lanes(cell, mask).unwrap();
        packed.comb_eval();

        let mut clean = Simulator::new(&nl).unwrap();
        let mut faulted = Simulator::new(&faulty_nl).unwrap();
        for (lane, pat) in pats.iter().enumerate() {
            let oracle = if mask >> lane & 1 == 1 { &mut faulted } else { &mut clean };
            oracle.set_inputs(pat);
            oracle.comb_eval();
            let want = oracle.outputs();
            for (j, &w) in want.iter().enumerate() {
                prop_assert_eq!(
                    packed.output_word(j) >> lane & 1 == 1,
                    w,
                    "output {}, lane {}", j, lane
                );
            }
        }
    }

    #[test]
    fn packed_divergence_onsets_match_scalar_oracle(
        tts in prop::collection::vec(prop::bits::u64::masked(u64::MAX), 2usize..8),
        k in 1usize..=2,
        seed: u64,
        pats in prop::collection::vec(
            prop::collection::vec(prop::bool::weighted(0.4), RAND_PIS..=RAND_PIS),
            1usize..150,
        ),
    ) {
        let golden = random_comb_netlist(&tts);
        let mut dut = golden.clone();
        let seeds: Vec<u64> = (0..k as u64).map(|i| seed.wrapping_add(i)).collect();
        inject::random_distinct_errors(&mut dut, &seeds).unwrap();
        let nets: Vec<NetId> = golden
            .cells()
            .filter(|(_, c)| c.lut_function().is_some())
            .map(|(id, _)| golden.cell_output(id).unwrap())
            .collect();

        let trace = GoldenTrace::record(&golden, pats.clone()).unwrap();
        let got = fpga_debug_tiling::sim::emulate::net_first_divergences(&trace, &dut, &nets)
            .unwrap();

        let mut g = Simulator::new(&golden).unwrap();
        let mut d = Simulator::new(&dut).unwrap();
        let mut want: Vec<Option<usize>> = vec![None; nets.len()];
        for (p, pat) in pats.iter().enumerate() {
            g.set_inputs(pat);
            g.comb_eval();
            d.set_inputs(pat);
            d.comb_eval();
            for (i, &net) in nets.iter().enumerate() {
                if want[i].is_none() && g.net_value(net) != d.net_value(net) {
                    want[i] = Some(p);
                }
            }
        }
        prop_assert_eq!(got, want);
    }
}

// The sequential (stream-mode) counterpart of the onset check, on the
// same backbone shape the windowed-pruning property uses.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn packed_stream_onsets_match_scalar_oracle(
        bb in 1usize..5,
        branches in 1usize..3,
        blen in 1usize..4,
        seed: u64,
        pats in prop::collection::vec(
            prop::collection::vec(prop::bool::weighted(0.5), 1usize..=1),
            1usize..48,
        ),
    ) {
        let golden = seq_backbone_netlist(bb, branches, blen);
        let mut dut = golden.clone();
        inject::random_distinct_errors(&mut dut, &[seed]).unwrap();
        let nets: Vec<NetId> = golden
            .cells()
            .filter(|(_, c)| c.lut_function().is_some())
            .map(|(id, _)| golden.cell_output(id).unwrap())
            .collect();

        let trace = GoldenTrace::record(&golden, pats.clone()).unwrap();
        let got = fpga_debug_tiling::sim::emulate::net_first_divergences(&trace, &dut, &nets)
            .unwrap();

        let mut g = Simulator::new(&golden).unwrap();
        let mut d = Simulator::new(&dut).unwrap();
        let mut want: Vec<Option<usize>> = vec![None; nets.len()];
        for (p, pat) in pats.iter().enumerate() {
            g.set_inputs(pat);
            g.comb_eval();
            d.set_inputs(pat);
            d.comb_eval();
            for (i, &net) in nets.iter().enumerate() {
                if want[i].is_none() && g.net_value(net) != d.net_value(net) {
                    want[i] = Some(p);
                }
            }
            g.step();
            d.step();
        }
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------
// Golden traces vs the scalar oracle
// ---------------------------------------------------------------------
//
// A debug session records its golden model once and sweeps every DUT
// generation against that one trace. These properties replay that
// shape: one trace, several DUTs, instrumented DUTs (an observation
// tap adds an output, a control point adds two inputs), and every
// result pinned to the scalar oracle re-simulating both sides.

use fpga_debug_tiling::sim::emulate::{
    forced_outputs_equivalent, net_first_divergences, po_divergence_words,
};
use fpga_debug_tiling::sim::testlogic::{insert_control_point, insert_observation_tap};
use fpga_debug_tiling::tiling::diagnosis::attribution::po_pairs;

/// What the scalar oracle sees sweeping `dut` against `golden` over
/// `pats` (clocked once per pattern, so sequential designs stream):
/// each watched net's first diverging pattern, and each
/// `(golden PO, DUT PO)` pair's failing patterns as packed words. DUT
/// inputs past the golden model's are driven inactive or, with
/// `force = Some(net)`, as a control point's `[force_val, force_en]`
/// pair carrying golden `net`'s value.
fn oracle_sweep(
    golden: &Netlist,
    dut: &Netlist,
    pats: &[Vec<bool>],
    nets: &[NetId],
    pairs: &[(usize, usize)],
    force: Option<NetId>,
) -> (Vec<Option<usize>>, Vec<Vec<u64>>) {
    let mut g = Simulator::new(golden).unwrap();
    let mut d = Simulator::new(dut).unwrap();
    let width = dut.primary_inputs().len();
    let mut onsets: Vec<Option<usize>> = vec![None; nets.len()];
    let mut words = vec![vec![0u64; pats.len().div_ceil(LANES)]; pairs.len()];
    for (p, pat) in pats.iter().enumerate() {
        g.set_inputs(pat);
        g.comb_eval();
        let mut dpat = pat.clone();
        dpat.resize(width, false);
        if let Some(net) = force {
            dpat[pat.len()] = g.net_value(net);
            dpat[pat.len() + 1] = true;
        }
        d.set_inputs(&dpat);
        d.comb_eval();
        for (onset, &net) in onsets.iter_mut().zip(nets) {
            if onset.is_none() && g.net_value(net) != d.net_value(net) {
                *onset = Some(p);
            }
        }
        let (gout, dout) = (g.outputs(), d.outputs());
        for (w, &(gk, dk)) in words.iter_mut().zip(pairs) {
            if gout[gk] != dout[dk] {
                w[p / LANES] |= 1 << (p % LANES);
            }
        }
        g.step();
        d.step();
    }
    (onsets, words)
}

/// `words` padded to the oracle's full length (packed sweeps only grow
/// a pair's vector as far as its last failing word).
fn padded(mut words: Vec<Vec<u64>>, patterns: usize) -> Vec<Vec<u64>> {
    for w in &mut words {
        w.resize(patterns.div_ceil(LANES), 0);
    }
    words
}

/// Sweeps three DUTs — the golden model itself, then one and two
/// planted errors — against a single trace, and checks every net's
/// onset and every output's failing patterns against the oracle.
fn one_trace_many_duts(
    golden: &Netlist,
    pats: &[Vec<bool>],
    seed: u64,
) -> Result<(), TestCaseError> {
    let trace = GoldenTrace::record(golden, pats.to_vec()).unwrap();
    let nets: Vec<NetId> = golden.nets().map(|(id, _)| id).collect();
    let pairs: Vec<(usize, usize)> = (0..golden.primary_outputs().len())
        .map(|k| (k, k))
        .collect();
    for errors in 0..3u64 {
        let mut dut = golden.clone();
        let seeds: Vec<u64> = (0..errors).map(|i| seed.wrapping_add(i)).collect();
        inject::random_distinct_errors(&mut dut, &seeds).unwrap();
        let (want_onsets, want_words) = oracle_sweep(golden, &dut, pats, &nets, &pairs, None);
        let onsets = net_first_divergences(&trace, &dut, &nets).unwrap();
        prop_assert_eq!(&onsets, &want_onsets, "onsets with {} errors", errors);
        let (words, count) = po_divergence_words(&trace, &dut, &pairs).unwrap();
        prop_assert_eq!(count, pats.len());
        prop_assert_eq!(
            padded(words, pats.len()),
            want_words,
            "signatures with {} errors",
            errors
        );
    }
    Ok(())
}

/// Plants one error, taps one LUT's net and puts a control point on
/// another — or on the planted cell itself, where forcing golden
/// values must repair every output — then checks the tapped DUT's
/// divergence words (force pair inactive) and a forced sweep over a
/// prefix of the patterns against the oracle.
fn instrumented_dut_matches_oracle(
    golden: &Netlist,
    pats: &[Vec<bool>],
    seed: u64,
    pick: usize,
) -> Result<(), TestCaseError> {
    let trace = GoldenTrace::record(golden, pats.to_vec()).unwrap();
    let mut dut = golden.clone();
    let planted = inject::random_distinct_errors(&mut dut, &[seed]).unwrap()[0].cell;
    let lut_nets: Vec<NetId> = golden
        .cells()
        .filter(|(_, c)| c.lut_function().is_some())
        .map(|(id, _)| golden.cell_output(id).unwrap())
        .collect();
    let tapped = lut_nets[pick % lut_nets.len()];
    let forced = if pick.is_multiple_of(2) {
        golden.cell_output(planted).unwrap()
    } else {
        lut_nets[(pick / 2) % lut_nets.len()]
    };
    insert_observation_tap(&mut dut, tapped, "dbg_tap", false).unwrap();
    insert_control_point(&mut dut, forced, "cp").unwrap();
    let pairs = po_pairs(golden, &dut).unwrap();
    prop_assert_eq!(pairs.len(), golden.primary_outputs().len());

    let (_, want) = oracle_sweep(golden, &dut, pats, &[], &pairs, None);
    let (words, count) = po_divergence_words(&trace, &dut, &pairs).unwrap();
    prop_assert_eq!(count, pats.len());
    prop_assert_eq!(padded(words, pats.len()), want);

    let prefix = 1 + pick % pats.len();
    let (_, forced_words) = oracle_sweep(golden, &dut, &pats[..prefix], &[], &pairs, Some(forced));
    let want_forced = forced_words.iter().flatten().all(|&w| w == 0);
    let got_forced = forced_outputs_equivalent(&trace, &dut, forced, &pairs, prefix).unwrap();
    prop_assert_eq!(
        got_forced,
        want_forced,
        "forced sweep over {} patterns",
        prefix
    );
    if forced == golden.cell_output(planted).unwrap() {
        prop_assert!(got_forced, "forcing the planted cell to golden must repair");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn one_golden_trace_serves_many_comb_duts(
        tts in prop::collection::vec(prop::bits::u64::masked(u64::MAX), 2usize..8),
        seed: u64,
        pats in prop::collection::vec(
            prop::collection::vec(prop::bool::weighted(0.4), RAND_PIS..=RAND_PIS),
            65usize..200,
        ),
    ) {
        one_trace_many_duts(&random_comb_netlist(&tts), &pats, seed)?;
    }

    #[test]
    fn one_golden_trace_serves_many_stream_duts(
        bb in 1usize..5,
        branches in 1usize..3,
        blen in 1usize..4,
        seed: u64,
        pats in prop::collection::vec(
            prop::collection::vec(prop::bool::weighted(0.5), 1usize..=1),
            1usize..150,
        ),
    ) {
        one_trace_many_duts(&seq_backbone_netlist(bb, branches, blen), &pats, seed)?;
    }

    #[test]
    fn traced_sweeps_of_an_instrumented_comb_dut_match_the_oracle(
        tts in prop::collection::vec(prop::bits::u64::masked(u64::MAX), 2usize..8),
        seed: u64,
        pick: usize,
        pats in prop::collection::vec(
            prop::collection::vec(prop::bool::weighted(0.4), RAND_PIS..=RAND_PIS),
            1usize..150,
        ),
    ) {
        instrumented_dut_matches_oracle(&random_comb_netlist(&tts), &pats, seed, pick)?;
    }

    #[test]
    fn traced_sweeps_of_an_instrumented_stream_dut_match_the_oracle(
        bb in 1usize..5,
        branches in 1usize..3,
        blen in 1usize..4,
        seed: u64,
        pick: usize,
        pats in prop::collection::vec(
            prop::collection::vec(prop::bool::weighted(0.5), 1usize..=1),
            1usize..100,
        ),
    ) {
        instrumented_dut_matches_oracle(&seq_backbone_netlist(bb, branches, blen), &pats, seed, pick)?;
    }
}

// ---------------------------------------------------------------------
// Localization soundness on the packed combinational path
// ---------------------------------------------------------------------
//
// `windowed_cluster_pruning_keeps_a_guilty_cell` above exercises the
// stream-mode (sequential) sweep; this combinational twin drives the
// 64-lane chunked path across a word boundary (100 patterns). Guilt
// retention is asserted only for a single live error: with several,
// errors can cancel along one branch (e.g. two complements in
// series), leaving a clean output that falsely alibis the shared
// culprit — the documented heuristic limit of the alibi. Multi-error
// draws still check that pruning shrinks and that every cluster
// keeps a non-empty, investigatable cone.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn comb_cluster_pruning_keeps_a_guilty_cell(
        bb in 3usize..6,
        branches in 1usize..4,
        blen in 1usize..4,
        k in 1usize..4,
        seed: u64,
    ) {
        use fpga_debug_tiling::tiling::{cluster_failures, collect_responses};

        let golden = backbone_netlist(bb, branches, blen);
        let mut dut = golden.clone();
        let seeds: Vec<u64> = (0..k as u64).map(|i| seed.wrapping_add(i)).collect();
        let errors = inject::random_distinct_errors(&mut dut, &seeds).unwrap();
        let matrix =
            collect_responses(&golden, &dut, PatternGen::random(1, 100, seed)).unwrap();
        let evidence = EvidenceBase::from_sweep(&golden, &matrix);
        for cl in cluster_failures(&golden, &matrix) {
            prop_assert_eq!(Some(cl.window), cl.signature.first_failing());
            let pruned = evidence.prune_cone(&cl.cone, &evidence.causal_window(&cl));
            // Pruning only ever shrinks the cluster's cone and never
            // empties it — the failing output's own driver has depth
            // 0 and onset == window, so it always survives.
            prop_assert_eq!(&pruned.union(&cl.cone), &cl.cone);
            prop_assert!(!pruned.is_empty(), "cluster pruned to nothing");
            if k == 1 {
                // One live error: no cross-error cancellation, the
                // alibi is exact, and the culprit survives in every
                // cluster it caused.
                prop_assert!(
                    errors.iter().any(|e| pruned.contains(e.cell)),
                    "cluster pruned away the injected error"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Simulation vs direct interpretation
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn simulator_matches_truth_table_semantics(bits: u64, row_raw: u64) {
        let tt = TruthTable::from_bits(4, bits).unwrap();
        let mut nl = Netlist::new("p");
        let ins: Vec<NetId> = (0..4)
            .map(|i| {
                let c = nl.add_input(format!("i{i}")).unwrap();
                nl.cell_output(c).unwrap()
            })
            .collect();
        let u = nl.add_lut("u", tt, &ins).unwrap();
        nl.add_output("y", nl.cell_output(u).unwrap()).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let row = row_raw % 16;
        let inputs: Vec<bool> = (0..4).map(|k| row >> k & 1 == 1).collect();
        sim.set_inputs(&inputs);
        sim.comb_eval();
        prop_assert_eq!(sim.outputs()[0], tt.eval_row(row));
    }
}
