//! Exploring the tiling trade-off space on one design (c880).
//!
//! Sweeps the tile count and prints, for each granularity: interface
//! pressure (cut nets), per-tile slack, the Figure-3-style affected
//! fraction for a 5-CLB insertion, and the ECO effort and speedup of
//! one observation tap (one output pad placed, the tapped net routed to
//! it) — the tension §3.2 describes between small tiles (fast ECOs,
//! many interfaces) and large tiles (few interfaces, slow ECOs).
//!
//! Run with: `cargo run --release --example tile_explorer`

// CLI/example output goes to stdout by design.
#![allow(clippy::print_stdout)]

use fpga_debug_tiling::prelude::*;
use fpga_debug_tiling::tiling::effort::speedup_label;
use fpga_debug_tiling::{implement_paper_design, sim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== tile-size exploration on c880 ==\n");
    println!(
        "{:>6} {:>9} {:>10} {:>12} {:>14} {:>10}",
        "tiles", "cut nets", "slack/tile", "affected(5)", "ECO effort", "speedup"
    );

    for target in [4usize, 9, 16, 25] {
        let mut options = TilingOptions::fast(7);
        options.target_tiles = target;
        let mut td = implement_paper_design(PaperDesign::C880, options)?;

        let cut = td.plan.cut_nets(&td.netlist, &td.placement);
        let slack: f64 = td.total_free_clbs() as f64 / td.plan.len() as f64;
        let affected5 = tiling::testpoints::affected_fraction(&td, 5)?;

        // One observation tap on some LUT's output, priced by the full
        // flow on a clone and committed by the tiled flow.
        let victim = td
            .netlist
            .cells()
            .find(|(_, c)| c.lut_function().is_some())
            .map(|(id, _)| id)
            .expect("luts exist");
        let net = td.netlist.cell_output(victim)?;
        let added =
            sim::testlogic::insert_observation_tap(&mut td.netlist, net, "tap", false)?.added;
        let full = FullReplaceFlow
            .reimplement(&mut td.clone(), &[victim], &added)?
            .effort;
        let eco = TiledFlow.reimplement(&mut td, &[victim], &added)?;

        println!(
            "{:>6} {:>9} {:>10.1} {:>11.0}% {:>14} {:>10}",
            td.plan.len(),
            cut,
            slack,
            100.0 * affected5,
            eco.effort.total(),
            speedup_label(full.speedup_over(&eco.effort))
        );
        assert!(td.routing.is_feasible());
    }
    println!("\nsmaller tiles -> cheaper ECOs but more locked interfaces;");
    println!("larger tiles  -> fewer interfaces but ECO cost approaches full re-P&R.");
    Ok(())
}
