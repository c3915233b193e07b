//! Multi-error triage: plant several design errors at once and watch
//! one concurrent debugging campaign untangle them — failure
//! clustering, suspect-cone partitioning (exclusive regions vs the
//! shared core), frontier screening into the shared `EvidenceBase`,
//! shared observation-tap batches read back per causal window,
//! per-error confirmation, and a single corrective ECO — then compare
//! against the paper's protocol of one sequential campaign per error
//! (which now rides the same evidence layer, so the comparison is
//! strictly about sharing).
//!
//! Run with: `cargo run --release --example multi_error`

// CLI/example output goes to stdout by design.
#![allow(clippy::print_stdout)]

use fpga_debug_tiling::prelude::*;
use fpga_debug_tiling::{sim, tiling};
use netlist::TruthTable;

/// A 30-LUT backbone fanning into three 6-LUT branches, each driving
/// its own output: every branch's suspect cone contains the whole
/// backbone, so three branch errors have heavily overlapping cones —
/// the shape the concurrent scheduler is built for.
fn build_design() -> (netlist::Netlist, Vec<netlist::CellId>) {
    let mut nl = netlist::Netlist::new("triage");
    let pi = nl.add_input("a").unwrap();
    let mut net = nl.cell_output(pi).unwrap();
    for k in 0..30 {
        let c = nl
            .add_lut(format!("bb{k}"), TruthTable::not(), &[net])
            .unwrap();
        net = nl.cell_output(c).unwrap();
    }
    let mut victims = Vec::new();
    for b in 0..3 {
        let mut bnet = net;
        for k in 0..6 {
            let c = nl
                .add_lut(format!("br{b}_{k}"), TruthTable::not(), &[bnet])
                .unwrap();
            bnet = nl.cell_output(c).unwrap();
            if k == 3 {
                victims.push(c);
            }
        }
        nl.add_output(format!("y{b}"), bnet).unwrap();
    }
    (nl, victims)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== multi-error triage ==\n");

    let (nl, victims) = build_design();
    let td0 = tiling::implement(nl, TilingOptions::fast(77))?;
    let golden = td0.netlist.clone();
    println!(
        "design: {} LUTs, 3 outputs; planting 3 errors with overlapping cones\n",
        golden.num_luts()
    );

    // Concurrent campaign: all three errors live at once.
    let mut td = td0.clone();
    let errors: Vec<_> = victims
        .iter()
        .map(|&v| sim::inject::inject(&mut td.netlist, v, sim::inject::DesignErrorKind::Complement))
        .collect::<Result<_, _>>()?;
    let mut inserted = 0usize;
    let conc = DebugSession::new(&mut td, &golden)
        .seed(5)
        .on_event(|event| match event {
            DebugEvent::Detected { output_name, .. } => {
                println!("[detect]    `{output_name}` diverges");
            }
            DebugEvent::ConeSplit {
                clusters,
                exclusive,
                shared,
            } => println!(
                "[partition] {clusters} clusters; exclusive regions {exclusive:?}, shared core {shared} cells"
            ),
            DebugEvent::TapEco { cells, .. } => {
                inserted += cells.len();
                println!("[localize]  tap ECO on {} cells", cells.len());
            }
            DebugEvent::Localized { cell: Some(c) } => println!("[localize]  error site: cell {}", c.index()),
            DebugEvent::Confirmed { confirmed, .. } => {
                println!("[confirm]   control point agrees: {confirmed}");
            }
            DebugEvent::Corrected { repaired } => {
                println!("[correct]   one corrective ECO, repaired: {repaired}");
            }
            _ => {}
        })
        .run_concurrent(&errors)?;
    assert!(conc.iterations.iter().all(|row| row.repaired));

    // The paper's protocol: one fresh campaign per error.
    let (mut staps, mut secos) = (0usize, 0usize);
    for error in &errors {
        let mut td = td0.clone();
        let replant = sim::inject::inject(&mut td.netlist, error.cell, error.kind)?;
        let out = DebugSession::new(&mut td, &golden).seed(5).run(&replant)?;
        assert!(out.repaired);
        staps += out.taps_inserted;
        secos += out.ecos;
    }

    // Row i reports planted error i.
    println!("\nper-error rows:");
    for (row, victim) in conc.iterations.iter().zip(&victims) {
        println!(
            "  error at cell {}: detected {} -> localized {:?}, confirmed {}, repaired {}",
            victim.index(),
            row.mismatch.is_some(),
            row.localized.map(|c| c.index()),
            row.confirmed_by_control,
            row.repaired,
        );
    }
    let requested: usize = conc.iterations.iter().map(|row| row.taps_inserted).sum();
    println!(
        "\nconcurrent : {inserted} taps, {} ECOs (requested {requested} taps; sharing + caching saved {})",
        conc.ledger.total_ecos(),
        requested - inserted,
    );
    println!("sequential : {staps} taps, {secos} ECOs (3 independent campaigns)");
    Ok(())
}
