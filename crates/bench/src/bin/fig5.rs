//! Regenerates **Figure 5**: place-and-route speedup of the tiled
//! flow over full re-place-and-route, for tile sizes of 2.5%, 5%,
//! 15%, and 25% of the design, with the incremental and Quick_ECO
//! baselines for reference.
//!
//! All four flows run through the one [`tiling::ReimplFlow`] trait on
//! the same change — the paper's canonical small debugging edit: one
//! LUT's function modified, affecting one tile. Effort is
//! deterministic (placer moves + router expansions); speedups are
//! ratios. A cell whose ECO took no effort at all prints `0 effort`
//! and is left out of the summary's averages.
//!
//! Run: `cargo run --release -p bench-harness --bin fig5`
//! (set `FAST_BENCH=1` to skip MIPS/DES, pass `--quick` for 9sym only).

// CLI/example output goes to stdout by design.
#![allow(clippy::print_stdout)]

use bench_harness::{apply_canonical_change, cli_designs, implement_design};
use tiling::effort::speedup_label;
use tiling::{CadEffort, FullReplaceFlow, IncrementalFlow, QuickEcoFlow, ReimplFlow, TiledFlow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let designs = cli_designs();
    // Tile size as % of design -> number of tiles.
    let sweeps: [(f64, usize); 4] = [(2.5, 40), (5.0, 20), (15.0, 7), (25.0, 4)];

    println!("Figure 5. Place-and-route speedup vs tile size (% of design)");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8} | {:>9} {:>9}",
        "design", "2.5%", "5%", "15%", "25%", "incr", "quickECO"
    );

    let mut per_size: Vec<Vec<f64>> = vec![Vec::new(); sweeps.len()];
    let mut zero_effort = vec![0usize; sweeps.len()];
    for design in designs {
        let mut row = Vec::new();
        let mut incr_speedup = None;
        let mut quick_speedup = None;
        for (k, &(_, tiles)) in sweeps.iter().enumerate() {
            let mut td = implement_design(design, tiles, 55)?;
            let victim = apply_canonical_change(&mut td)?;
            let full = tiling::flow_effort(&td, &mut FullReplaceFlow, &[victim])?;
            if k == 0 {
                // Baselines measured once (tile size does not change
                // what the baselines do; incremental uses the window
                // around the change). Same trait, different flows.
                let mut incr_flow = IncrementalFlow;
                let mut quick_flow = QuickEcoFlow;
                let baselines: [(&mut dyn ReimplFlow, &mut Option<f64>); 2] = [
                    (&mut incr_flow, &mut incr_speedup),
                    (&mut quick_flow, &mut quick_speedup),
                ];
                for (flow, speedup) in baselines {
                    let effort: CadEffort = tiling::flow_effort(&td, flow, &[victim])?;
                    *speedup = full.speedup_over(&effort);
                }
            }
            let mut tiled = TiledFlow;
            let eco = tiled.reimplement(&mut td, &[victim], &[])?;
            let speedup = full.speedup_over(&eco.effort);
            match speedup {
                Some(s) => per_size[k].push(s),
                None => zero_effort[k] += 1,
            }
            row.push(speedup_label(speedup));
        }
        println!(
            "{:<12} {:>8} {:>8} {:>8} {:>8} | {:>9} {:>9}",
            design.name(),
            row[0],
            row[1],
            row[2],
            row[3],
            speedup_label(incr_speedup),
            speedup_label(quick_speedup)
        );
    }

    println!(
        "\nsummary (paper: 5% avg 7.6 / med 2.6; 15% avg 2.1 / med 1.7; 25% avg 1.5 / med 1.3):"
    );
    for (k, (pct, _)) in sweeps.iter().enumerate() {
        let mut v = per_size[k].clone();
        if v.is_empty() {
            println!("  tile size {pct:>4}%: every ECO took 0 effort");
            continue;
        }
        let left_out = match zero_effort[k] {
            0 => String::new(),
            n => format!(" ({n} at 0 effort left out)"),
        };
        v.sort_by(f64::total_cmp);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let median = v[v.len() / 2];
        println!("  tile size {pct:>4}%: average {mean:>5.1}x, median {median:>5.1}x{left_out}");
    }
    Ok(())
}
