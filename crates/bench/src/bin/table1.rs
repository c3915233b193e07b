//! Regenerates **Table 1**: tiled physical layout statistics.
//!
//! For every design: `# CLBs`, the realized area overhead of the
//! slack-sized tiled layout, and the timing overhead of the tiled
//! layout versus a minimally-sized non-tiled implementation.
//!
//! Run: `cargo run --release -p bench-harness --bin table1`
//! (set `FAST_BENCH=1` to skip MIPS/DES; pass `--quick` for the
//! smallest design only — the mode CI runs end-to-end).

// CLI/example output goes to stdout by design.
#![allow(clippy::print_stdout)]

use bench_harness::{cli_designs, fmt_overhead};
use debugd::artifacts::implement_options;
use tiling::implement;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Table 1. Tiled Physical Layout Statistics");
    println!(
        "{:<12} {:>7} {:>14} {:>16} | paper: {:>6} {:>8} {:>8}",
        "design", "# CLBs", "area overhead", "timing overhead", "CLBs", "area", "timing"
    );
    for design in cli_designs() {
        let nl = design.generate()?;
        let clbs = nl.stats().clb_estimate();

        // Non-tiled reference: the *same* slack-sized device, placed
        // and routed without any tiling pressure (one tile, so no
        // partitioning and no per-tile balancing), so the timing column
        // isolates tiling's effect rather than device-size differences.
        let base = implement(nl.clone(), implement_options(design, 1, 11))?;
        let base_t = base.timing()?.critical_ns;

        // Tiled layout: 20% slack, ten tiles, per-tile balance.
        let tiled = implement(nl, implement_options(design, 10, 11))?;
        let tiled_t = tiled.timing()?.critical_ns;

        let area_ovhd = tiled.area_overhead();
        let timing_ovhd = (tiled_t - base_t) / base_t;
        println!(
            "{:<12} {:>7} {:>14} {:>16} | paper: {:>6} {:>8.3} {:>8}",
            design.name(),
            clbs,
            fmt_overhead(area_ovhd),
            fmt_overhead(timing_ovhd),
            design.paper_clbs(),
            design.paper_area_overhead(),
            fmt_overhead(design.paper_timing_overhead()),
        );
    }
    Ok(())
}
