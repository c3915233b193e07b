//! Debugging the paper's largest design: the 1050-CLB key-specific
//! DES datapath. Demonstrates that tiled debugging stays cheap even
//! when the design is ~20x larger than the MCNC circuits — and that
//! on a cone this deep, binary-search localization needs only
//! O(log n) observation-tap ECOs where linear batching pays O(n/8).
//!
//! Run with: `cargo run --release --example debug_des`
//! (release strongly recommended — this places ~2000 LUTs).

// CLI/example output goes to stdout by design.
#![allow(clippy::print_stdout)]

use fpga_debug_tiling::prelude::*;
use fpga_debug_tiling::tiling::effort::speedup_label;
use fpga_debug_tiling::{sim, tiling};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== key-specific DES debugging ==\n");

    // The paper's 8-round key-specific DES, mapped to 4-LUTs (paper
    // size: ~1050 CLBs).
    let netlist = PaperDesign::Des.generate()?;
    println!(
        "DES mapped: {} ({} CLBs)",
        netlist.stats(),
        netlist.stats().clb_estimate()
    );

    let options = TilingOptions {
        // The 32x32-CLB DES needs a wide channel; 18 tracks leaves
        // routing slack for the multi-cluster tap batches (several
        // probe taps + shared-core screening pads land in one ECO now
        // that every failure cluster localizes concurrently).
        tracks: 18,
        placer: place::PlacerConfig {
            max_temps: 60,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut td = tiling::implement(netlist, options)?;
    println!("device    : {}", td.device);
    println!("tiles     : {}", td.plan.len());
    println!("area ovhd : {:.3}", td.area_overhead());
    println!("initial implementation: {}\n", td.initial_effort);

    // Corrupt one S-box output LUT in round 3 — a realistic
    // "mis-transcribed table" design error. The generator emits the
    // rounds in order, 256 mapped LUTs each (32 S-box outputs as 4-LUT
    // trees plus 32 Feistel XORs), so round 3 starts at LUT 768.
    let victim = td
        .netlist
        .cells()
        .filter(|(_, c)| c.lut_function().is_some())
        .nth(3 * 256)
        .map(|(id, _)| id)
        .expect("DES has 8 rounds");
    let golden = td.netlist.clone();
    let error = sim::inject::inject(
        &mut td.netlist,
        victim,
        sim::inject::DesignErrorKind::FlipRow { row: 5 },
    )?;
    println!(
        "planted: flipped one minterm of {}",
        golden.cell(victim)?.name
    );

    // Hunt it with a session: binary-search localization (the suspect
    // cone of a DES round is hundreds of cells deep) through the
    // tiled physical flow, LFSR stimulus on the 64-bit plaintext port.
    let outcome = DebugSession::new(&mut td, &golden)
        .strategy(BinarySearch::new())
        .flow(TiledFlow)
        .seed(0xD0E5)
        .run(&error)?;
    match &outcome.mismatch {
        Some(m) => println!(
            "detected at pattern #{} on `{}`; {} taps ({} localization ECOs)",
            m.pattern_index,
            m.output_name,
            outcome.taps_inserted,
            outcome.ledger.phase(Phase::Localize).ecos,
        ),
        None => println!("undetected by 512 LFSR patterns (rare single-minterm escape)"),
    }
    println!("repaired  : {}", outcome.repaired);
    println!(
        "\nper-phase ledger ({} / {}):",
        outcome.strategy, outcome.flow
    );
    println!("{}", outcome.ledger);

    let full = tiling::flow_effort(&td, &mut FullReplaceFlow, &[])?;
    println!("\nfull re-P&R : {}", full);
    println!(
        "speedup     : {}",
        speedup_label(full.speedup_over(&outcome.effort))
    );
    assert!(outcome.repaired);
    Ok(())
}
