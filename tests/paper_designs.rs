//! The nine evaluation designs: size calibration against Table 1,
//! structural sanity, and BLIF round-tripping.
//!
//! NOTE: the structural tests all run in seconds and stay enabled.
//! The *paper-scale implementation* tests at the bottom (placing and
//! routing the ~900-CLB MIPS R2000 and ~1050-CLB DES cores) exceed
//! the ~60 s budget in debug builds and are `#[ignore]`d; run them
//! with `cargo test --release -- --ignored`.

use fpga_debug_tiling::implement_paper_design;
use fpga_debug_tiling::prelude::*;

#[test]
fn all_nine_designs_generate_and_validate() {
    for design in PaperDesign::ALL {
        let nl = design.generate().unwrap();
        nl.validate().unwrap();
        assert_eq!(nl.is_sequential(), design.is_sequential(), "{design}");
        // Mapped to 4-LUTs only.
        assert!(
            nl.cells()
                .all(|(_, c)| c.lut_function().is_none_or(|t| t.arity() <= 4)),
            "{design} has wide LUTs after mapping"
        );
    }
}

#[test]
fn clb_counts_match_table1_within_tolerance() {
    for design in PaperDesign::ALL {
        let nl = design.generate().unwrap();
        let got = nl.stats().clb_estimate();
        let target = design.paper_clbs();
        let lo = target * 90 / 100;
        let hi = target * 112 / 100;
        assert!(
            (lo..=hi).contains(&got),
            "{design}: {got} CLBs vs paper {target} (allowed {lo}..={hi})"
        );
    }
}

#[test]
fn blif_roundtrip_preserves_structure() {
    for design in PaperDesign::SMALL {
        let nl = design.generate().unwrap();
        let text = netlist::blif::write(&nl);
        let back = netlist::blif::parse(&text).unwrap();
        back.validate().unwrap();
        assert_eq!(back.num_luts(), nl.num_luts(), "{design}");
        assert_eq!(back.num_ffs(), nl.num_ffs(), "{design}");
        assert_eq!(
            back.primary_outputs().len(),
            nl.primary_outputs().len(),
            "{design}"
        );
    }
}

#[test]
fn des_is_functionally_des() {
    // The generated DES netlist (2 rounds for speed) must agree with
    // the software reference on random blocks, via real simulation.
    let key = 0x0F15_71C9_47D9_E859;
    let raw = synth::des::generate(key, 2).unwrap();
    let mapped = synth::mapper::map_to_lut4(&raw).unwrap();
    let mut sim = sim::Simulator::new(&mapped).unwrap();
    for pt in [0u64, 0x0123_4567_89AB_CDEF, 0xFFFF_0000_FF00_00FF] {
        // pt[i] carries spec bit i+1 (MSB first).
        let inputs: Vec<bool> = (0..64).map(|i| pt >> (63 - i) & 1 == 1).collect();
        sim.set_inputs(&inputs);
        sim.comb_eval();
        let outs = sim.outputs();
        let mut ct = 0u64;
        for (i, &b) in outs.iter().enumerate() {
            ct |= u64::from(b) << (63 - i);
        }
        assert_eq!(ct, synth::des::reference_encrypt(pt, key, 2), "pt={pt:#x}");
    }
}

#[test]
fn mips_alu_add_through_simulation() {
    let nl = PaperDesign::MipsR2000.generate().unwrap();
    let mut sim = sim::Simulator::new(&nl).unwrap();
    // addi r1, r0, 42 : op=0b1000 (imm), rs=0, rd=1, imm=42.
    let instr: u64 = 0b1000 | (1 << 10) | (42 << 16);
    for i in 0..32 {
        sim.set_input(i, instr >> i & 1 == 1);
    }
    sim.step(); // latch IR
    sim.step(); // execute/writeback
    sim.comb_eval();
    let outs = sim.outputs();
    let result: u64 = (0..32).map(|i| u64::from(outs[i]) << i).sum();
    assert_eq!(result, 42);
}

#[test]
fn nine_sym_output_is_the_symmetric_function() {
    let nl = PaperDesign::NineSym.generate().unwrap();
    let mut sim = sim::Simulator::new(&nl).unwrap();
    let y_pos = {
        let pos = nl.primary_outputs();
        pos.iter()
            .position(|&c| nl.cell(c).unwrap().name == "y")
            .unwrap()
    };
    for pattern in sim::PatternGen::random(9, 200, 3) {
        sim.set_inputs(&pattern);
        sim.comb_eval();
        let ones = pattern.iter().filter(|&&b| b).count();
        let expect = (3..=6).contains(&ones);
        assert_eq!(sim.outputs()[y_pos], expect, "pattern {pattern:?}");
    }
}

// ---------------------------------------------------------------------
// Paper-scale implementations (ignored: > ~60 s in debug builds).
// Escape hatch: `cargo test --release -- --ignored`.
// ---------------------------------------------------------------------

/// Options sized for the two big cores: wide channel for the
/// register-file / S-box fanout, and the bench harness's annealing
/// and router budgets — `fast`'s short schedule leaves more
/// congestion than PathFinder can negotiate away at this scale.
fn paper_scale_options(seed: u64) -> TilingOptions {
    TilingOptions {
        tracks: 20,
        placer: place::PlacerConfig {
            max_temps: 120,
            ..Default::default()
        },
        router: route::RouteOptions {
            max_iterations: 45,
            ..Default::default()
        },
        ..TilingOptions::fast(seed)
    }
}

/// Both paper-scale implements, paid once per test process: the two
/// P&R runs go through one two-wide `parallel::map` so whichever
/// `--ignored` test runs first fans them over two cores, and the other
/// test just reads the shared result. Index 0 is MIPS R2000, 1 is DES.
fn paper_scale_implementations() -> &'static [Result<TiledDesign, tiling::TilingError>] {
    static BOTH: std::sync::OnceLock<Vec<Result<TiledDesign, tiling::TilingError>>> =
        std::sync::OnceLock::new();
    BOTH.get_or_init(|| {
        let designs = vec![(PaperDesign::MipsR2000, 11), (PaperDesign::Des, 12)];
        parallel::map(2, designs, |(design, seed)| {
            implement_paper_design(design, paper_scale_options(seed))
        })
    })
}

#[test]
#[ignore = "paper-scale P&R (~900 CLBs); run with `cargo test --release -- --ignored`"]
fn mips_r2000_implements_with_tiling() {
    let td = paper_scale_implementations()[0].as_ref().unwrap();
    assert!(td.routing.is_feasible());
    assert!(td.plan.len() >= 4, "paper-scale design must be tiled");
}

#[test]
#[ignore = "paper-scale P&R (~1050 CLBs); run with `cargo test --release -- --ignored`"]
fn des_implements_with_tiling() {
    let td = paper_scale_implementations()[1].as_ref().unwrap();
    assert!(td.routing.is_feasible());
    assert!(td.plan.len() >= 4, "paper-scale design must be tiled");
}
