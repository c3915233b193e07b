//! Quickstart: implement a benchmark with tiling, plant a design
//! error, and run one complete debugging session — detection,
//! localization via observation-tap ECOs, and correction — watching
//! the typed event stream and comparing the tiled CAD effort against
//! the full re-place-and-route baseline.
//!
//! Run with: `cargo run --release --example quickstart`

// CLI/example output goes to stdout by design.
#![allow(clippy::print_stdout)]

use fpga_debug_tiling::prelude::*;
use fpga_debug_tiling::tiling::effort::speedup_label;
use fpga_debug_tiling::{implement_paper_design, sim, tiling};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== fpga-debug-tiling quickstart ==\n");

    // 1. Generate the paper's 9sym benchmark and implement it:
    //    place with 20% slack, route, partition into ~10 tiles,
    //    lock every interface.
    let mut td = implement_paper_design(PaperDesign::NineSym, TilingOptions::default())?;
    let stats = td.netlist.stats();
    println!("design     : {} ({stats})", td.netlist.name());
    println!("device     : {}", td.device);
    println!(
        "tiles      : {} (mean {:.1} used CLBs/tile)",
        td.plan.len(),
        td.mean_used_clbs_per_tile()
    );
    println!("area ovhd  : {:.3}", td.area_overhead());
    println!(
        "cut nets   : {}",
        td.plan.cut_nets(&td.netlist, &td.placement)
    );
    println!("initial implementation effort: {}\n", td.initial_effort);

    // 2. Plant a design error (a wrong minterm in some LUT) — this is
    //    the bug the emulation session will hunt.
    let golden = td.netlist.clone();
    let error = sim::inject::random_error(&mut td.netlist, 0xBEEF)?;
    println!(
        "planted error: cell {} ({:?})\n",
        td.netlist.cell(error.cell)?.name,
        error.kind
    );

    // 3. One full debugging session iteration, narrated by its event
    //    stream. Strategy and physical flow are pluggable; these are
    //    the paper-shaped defaults (linear 8-tap batches through the
    //    tiled flow).
    let outcome = DebugSession::new(&mut td, &golden)
        .strategy(LinearBatches::default())
        .flow(TiledFlow)
        .seed(42)
        .on_event(|event| match event {
            DebugEvent::Detected {
                pattern_index,
                output_name,
            } => println!("[detect]   divergence at pattern #{pattern_index} on `{output_name}`"),
            DebugEvent::SuspectsComputed {
                structural,
                candidates,
            } => println!("[localize] {structural} structural suspects, {candidates} candidates"),
            DebugEvent::TapEco { cells, effort } => {
                println!(
                    "[localize] tapped {} cell(s), ECO cost {effort}",
                    cells.len()
                );
            }
            DebugEvent::Observed { diverging } => {
                println!("[localize] {} tapped net(s) diverged", diverging.len());
            }
            DebugEvent::Localized { cell } => println!("[localize] converged on {cell:?}"),
            DebugEvent::Confirmed { confirmed, .. } => {
                println!("[confirm]  control point agrees: {confirmed}");
            }
            DebugEvent::Corrected { repaired } => println!("[correct]  repaired: {repaired}"),
            _ => {}
        })
        .run(&error)?;

    let mismatch = outcome.mismatch.as_ref().expect("error must be detectable");
    println!("\n-- session summary --");
    println!(
        "first divergence at pattern #{} on `{}`",
        mismatch.pattern_index, mismatch.output_name
    );
    match outcome.localized {
        Some(c) => println!("localized to cell   : {}", golden.cell(c)?.name),
        None => println!("localized to cell   : (tap batch containment)"),
    }
    println!("\nper-phase ledger:");
    println!("{}", outcome.ledger);

    // 4. Effort comparison: a flow without change tracking pays one
    //    full re-place-and-route per ECO (every tap batch and the fix
    //    each need a new bitstream).
    let full = tiling::flow_effort(&td, &mut FullReplaceFlow, &[])?;
    let non_tiled_total = CadEffort {
        place_moves: full.place_moves * outcome.ecos as u64,
        route_expansions: full.route_expansions * outcome.ecos as u64,
    };
    println!(
        "\n-- CAD effort ({} physical ECOs this iteration) --",
        outcome.ecos
    );
    println!("tiled debug iteration : {}", outcome.effort);
    println!("one full re-P&R       : {}", full);
    println!("non-tiled iteration   : {}", non_tiled_total);
    println!(
        "iteration speedup     : {}",
        speedup_label(non_tiled_total.speedup_over(&outcome.effort))
    );
    assert!(outcome.repaired);
    Ok(())
}
