//! Emulating the MIPS R2000 datapath and instrumenting it in place.
//!
//! Shows the emulation substrate itself: clocking the processor
//! netlist with instruction stimuli, then inserting a MISR signature
//! register over the ALU result bus as a *tiled ECO* — the kind of
//! observation logic a real debug session drops into a suspect area.
//!
//! Run with: `cargo run --release --example mips_emulation`

// CLI/example output goes to stdout by design.
#![allow(clippy::print_stdout)]

use fpga_debug_tiling::prelude::*;
use fpga_debug_tiling::tiling::effort::speedup_label;
use fpga_debug_tiling::{sim, tiling};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== MIPS R2000 emulation ==\n");
    let core = PaperDesign::MipsR2000.generate()?;
    println!(
        "core: {} ({} CLBs vs paper's 900)",
        core.stats(),
        core.stats().clb_estimate()
    );

    // --- Pure emulation first: run the netlist as a processor. -----
    let mut sim0 = Simulator::new(&core)?;
    let set_bus = |sim: &mut Simulator, base: usize, width: usize, value: u64| {
        for i in 0..width {
            sim.set_input(base + i, value >> i & 1 == 1);
        }
    };
    // Encoding (see synth::mips): op[0..4] rs[4..7] rt[7..10] rd[10..13]
    // shamt[13..18] imm[16..32]; op=0b1000 selects the immediate.
    // r1 <- r0 + 5  (opb = imm because op[3] is set; sum select 000)
    let instr: u64 = 0b1000 | (1 << 10) | (5 << 16);
    set_bus(&mut sim0, 0, 32, instr); // instr bus is PIs 0..32
    set_bus(&mut sim0, 32, 32, 0); // din bus
    sim0.step(); // latch IR
    sim0.step(); // execute + write back
    sim0.comb_eval();
    // result[0..32] are the first 32 POs.
    let outs = sim0.outputs();
    let result: u64 = (0..32).map(|i| u64::from(outs[i]) << i).sum();
    println!("executed `addi r1, r0, 5` -> result bus = {result}");
    assert_eq!(result, 5, "ALU immediate add must work");

    // --- Implement with tiling. -------------------------------------
    // Register-file fanout needs a wide channel: at 18 tracks the
    // initial route converges but leaves no slack for the MISR ECO
    // (its seeds span half the tiles, so the re-placed region is
    // large and its confined routing congests unrecoverably). 20
    // tracks plus a full annealing schedule routes both comfortably.
    let options = TilingOptions {
        tracks: 20,
        placer: place::PlacerConfig {
            max_temps: 120,
            ..Default::default()
        },
        router: route::RouteOptions {
            max_iterations: 90,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut td = tiling::implement(core, options)?;
    println!(
        "\ndevice: {} | tiles: {} | area ovhd {:.3}",
        td.device,
        td.plan.len(),
        td.area_overhead()
    );
    println!("initial implementation: {}", td.initial_effort);

    // --- Insert a MISR over the ALU result bus as a tiled ECO. ------
    let taps: Vec<NetId> = (0..8)
        .map(|i| {
            let po = td
                .netlist
                .find_cell(&format!("result[{i}]"))
                .expect("result PO");
            td.netlist.cell(po).unwrap().inputs[0]
        })
        .collect();
    let seeds: Vec<CellId> = taps
        .iter()
        .filter_map(|&n| td.netlist.net(n).ok().and_then(|net| net.driver))
        .collect();
    let report = sim::testlogic::insert_misr(&mut td.netlist, &taps, "alu")?;
    let clbs = sim::testlogic::clb_cost(&td.netlist, &report);
    println!(
        "\ninserting {}-tap MISR ({clbs} CLBs of test logic)...",
        taps.len()
    );
    // The insertion is one ECO through the unified flow surface — the
    // same `ReimplFlow` trait a debug session drives.
    let outcome = TiledFlow.reimplement(&mut td, &seeds, &report.added)?;
    println!(
        "affected tiles: {}/{} ({:.0}%)",
        outcome.affected.tiles.len(),
        td.plan.len(),
        100.0 * outcome.affected.fraction_of(&td.plan)
    );
    println!("ECO effort    : {}", outcome.effort);
    println!(
        "vs initial    : {}",
        speedup_label(td.initial_effort.speedup_over(&outcome.effort))
    );
    assert!(td.routing.is_feasible());

    // The signature register is now live: clock a few instructions and
    // read the signature outputs.
    let mut sim1 = Simulator::new(&td.netlist)?;
    set_bus(&mut sim1, 0, 32, instr);
    for _ in 0..4 {
        sim1.step();
    }
    sim1.comb_eval();
    let pos = td.netlist.primary_outputs();
    let sig: String = pos
        .iter()
        .filter(|&&po| td.netlist.cell(po).unwrap().name.starts_with("alu_sig"))
        .map(|&po| {
            let n = td.netlist.cell(po).unwrap().inputs[0];
            if sim1.net_value(n) {
                '1'
            } else {
                '0'
            }
        })
        .collect();
    println!("MISR signature after 4 cycles: {sig}");
    Ok(())
}
