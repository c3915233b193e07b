//! Writes all nine generated benchmarks as BLIF files, so they can be
//! inspected or fed to external tools (ABC, VTR, ...).
//!
//! Usage: `cargo run --release -p bench-harness --bin dump_designs [dir]`
//! (default output directory: `./designs`)

// CLI/example output goes to stdout by design.
#![allow(clippy::print_stdout)]

use std::fs;
use std::path::PathBuf;

use synth::PaperDesign;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "designs".into())
        .into();
    fs::create_dir_all(&dir)?;
    for design in PaperDesign::ALL {
        let nl = design.generate()?;
        let text = netlist::blif::write(&nl);
        let name = design.name().replace(' ', "_").to_lowercase();
        let path = dir.join(format!("{name}.blif"));
        fs::write(&path, &text)?;
        let s = nl.stats();
        println!(
            "{:<12} -> {} ({} LUTs, {} FFs, {} CLBs, depth {})",
            design.name(),
            path.display(),
            s.luts,
            s.ffs,
            s.clb_estimate(),
            s.depth
        );
    }
    Ok(())
}
