//! Property tests on the ECO machinery and affected-tile algebra.

use fpga_debug_tiling::prelude::*;
use proptest::prelude::*;

fn fixture() -> Netlist {
    let mut nl = Netlist::new("p");
    let a = nl.add_input("a").unwrap();
    let b = nl.add_input("b").unwrap();
    let na = nl.cell_output(a).unwrap();
    let nb = nl.cell_output(b).unwrap();
    let u = nl.add_lut("u", TruthTable::and(2), &[na, nb]).unwrap();
    let v = nl
        .add_lut("v", TruthTable::xor(2), &[nl.cell_output(u).unwrap(), nb])
        .unwrap();
    nl.add_output("y", nl.cell_output(v).unwrap()).unwrap();
    nl
}

proptest! {
    /// Injecting any design error and applying its repair op restores
    /// the original netlist function exactly.
    #[test]
    fn inject_then_repair_is_identity(seed: u64) {
        let golden = fixture();
        let mut dut = golden.clone();
        let err = sim::inject::random_error(&mut dut, seed).unwrap();
        // The bug actually changed the function table.
        prop_assert_ne!(err.original, err.buggy);
        netlist::eco::apply(&mut dut, &sim::inject::repair_op(&err)).unwrap();
        let cell = dut.cell(err.cell).unwrap();
        prop_assert_eq!(cell.lut_function(), Some(&err.original));
        // Behaviourally identical again.
        let m = sim::emulate::first_mismatch(&golden, &dut, PatternGen::exhaustive(2)).unwrap();
        prop_assert_eq!(m, None);
    }

    /// Whole-function errors are always detectable exhaustively; a
    /// single flipped minterm may legitimately escape when the flipped
    /// input row is unreachable (here: v's row u=1,b=0 cannot occur
    /// because u = a AND b). Detection must agree with reachability.
    #[test]
    fn injected_errors_detectability_matches_reachability(seed: u64) {
        let golden = fixture();
        let mut dut = golden.clone();
        let err = sim::inject::random_error(&mut dut, seed).unwrap();
        let m = sim::emulate::first_mismatch(&golden, &dut, PatternGen::exhaustive(2)).unwrap();
        match err.kind {
            sim::inject::DesignErrorKind::Complement => {
                prop_assert!(m.is_some(), "complement must always be visible");
            }
            _ => {
                // If undetected, the mutation must be on the internal
                // cell v with its unreachable row as the only change.
                if m.is_none() {
                    let v = golden.find_cell("v").unwrap();
                    prop_assert_eq!(err.cell, v, "masked error not on v: {:?}", err.kind);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Affected-tile sets grow monotonically with the logic demand and
    /// never shrink below the seed tiles.
    #[test]
    fn affected_set_is_monotone(extra_a in 0usize..20, extra_b in 0usize..20) {
        use tiling::affected::AffectedSet;
        let nl = PaperDesign::NineSym.generate().unwrap();
        let td = tiling::implement(nl, TilingOptions::fast(77))
            .unwrap();
        let seed_cell = td
            .netlist
            .cells()
            .find(|(_, c)| c.lut_function().is_some())
            .map(|(id, _)| id)
            .unwrap();
        let (lo, hi) = if extra_a <= extra_b { (extra_a, extra_b) } else { (extra_b, extra_a) };
        let small = AffectedSet::compute(&td.plan, &td.placement, &[seed_cell], lo).unwrap();
        let large = AffectedSet::compute(&td.plan, &td.placement, &[seed_cell], hi).unwrap();
        prop_assert!(large.tiles.len() >= small.tiles.len());
        prop_assert!(!small.tiles.is_empty());
        // The seed tile is always first.
        prop_assert_eq!(small.tiles[0], large.tiles[0]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// BLIF round-trips preserve simulated behaviour on random
    /// single-LUT circuits.
    #[test]
    fn blif_roundtrip_preserves_behaviour(bits: u64, row_raw: u64) {
        let tt = TruthTable::from_bits(4, bits).unwrap();
        let mut nl = Netlist::new("rt");
        let ins: Vec<NetId> = (0..4)
            .map(|i| {
                let c = nl.add_input(format!("i{i}")).unwrap();
                nl.cell_output(c).unwrap()
            })
            .collect();
        let u = nl.add_lut("u", tt, &ins).unwrap();
        nl.add_output("y", nl.cell_output(u).unwrap()).unwrap();
        let text = netlist::blif::write(&nl);
        let back = netlist::blif::parse(&text).unwrap();
        let mut s1 = Simulator::new(&nl).unwrap();
        let mut s2 = Simulator::new(&back).unwrap();
        let row = row_raw % 16;
        let inputs: Vec<bool> = (0..4).map(|k| row >> k & 1 == 1).collect();
        s1.set_inputs(&inputs);
        s2.set_inputs(&inputs);
        s1.comb_eval();
        s2.comb_eval();
        prop_assert_eq!(s1.outputs(), s2.outputs());
    }
}
