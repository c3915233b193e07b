//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each table/figure has a binary (`table1`, `fig3`, `fig4`, `fig5`)
//! that prints the same rows/series the paper reports; `flowbench`,
//! `simbench` and `multi` measure the underlying flows into the
//! committed `BENCH_*.json` snapshots. Absolute numbers differ from
//! the 1996 testbed by construction — the *shape* (who wins, by what
//! factor, where curves cross) is the claim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use synth::PaperDesign;
use tiling::{implement, TiledDesign, TilingError};

/// Implements one paper design with the service's implement options
/// ([`debugd::artifacts::implement_options`]), so bench sweeps and
/// service campaigns run on identical layouts.
///
/// # Errors
///
/// Propagates generation/implementation failures.
pub fn implement_design(
    design: PaperDesign,
    target_tiles: usize,
    seed: u64,
) -> Result<TiledDesign, TilingError> {
    implement(
        design.generate()?,
        debugd::artifacts::implement_options(design, target_tiles, seed),
    )
}

/// Picks the canonical "small debugging change" victim: the median
/// LUT by cell index (deterministic, mid-design).
pub fn canonical_victim(td: &TiledDesign) -> netlist::CellId {
    let luts: Vec<netlist::CellId> = td
        .netlist
        .cells()
        .filter(|(_, c)| c.lut_function().is_some())
        .map(|(id, _)| id)
        .collect();
    luts[luts.len() / 2]
}

/// Applies the canonical change (complement the victim's function).
///
/// # Errors
///
/// Propagates netlist edit failures.
pub fn apply_canonical_change(td: &mut TiledDesign) -> Result<netlist::CellId, TilingError> {
    let victim = canonical_victim(td);
    let tt = td
        .netlist
        .cell(victim)?
        .lut_function()
        .expect("victim is a lut")
        .complement();
    td.netlist.set_lut_function(victim, tt)?;
    Ok(victim)
}

/// The design subset to sweep, honoring a `FAST_BENCH` env toggle
/// (small designs only) for constrained environments.
pub fn sweep_designs() -> Vec<PaperDesign> {
    if std::env::var_os("FAST_BENCH").is_some() {
        PaperDesign::SMALL.to_vec()
    } else {
        PaperDesign::ALL.to_vec()
    }
}

/// Design subset for a bench binary, also honoring a `--quick` CLI
/// flag: with `--quick` only the smallest design runs, which is what
/// CI executes end-to-end to keep the harness exercised.
pub fn cli_designs() -> Vec<PaperDesign> {
    if std::env::args().any(|a| a == "--quick") {
        vec![PaperDesign::NineSym]
    } else {
        sweep_designs()
    }
}

/// Formats a ratio as the paper prints overheads (three decimals,
/// sign included).
pub fn fmt_overhead(x: f64) -> String {
    format!("{x:+.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_is_deterministic_lut() {
        let td = implement_design(PaperDesign::NineSym, 10, 1).unwrap();
        let a = canonical_victim(&td);
        let b = canonical_victim(&td);
        assert_eq!(a, b);
        assert!(td.netlist.cell(a).unwrap().lut_function().is_some());
    }

    #[test]
    fn flow_effort_prices_without_mutating() {
        let mut td = implement_design(PaperDesign::NineSym, 10, 2).unwrap();
        let victim = apply_canonical_change(&mut td).unwrap();
        let before: Vec<_> = td.placement.iter().collect();
        for mut flow in tiling::standard_flows() {
            let effort = tiling::flow_effort(&td, flow.as_mut(), &[victim]).unwrap();
            // The canonical change is function-only: the tiled flow
            // prices it at zero work, every rival flow at some.
            match flow.name() {
                "tiled" => assert_eq!(effort.total(), 0, "tiled priced work"),
                "full" | "incremental" | "quick_eco" => {
                    assert!(effort.total() > 0, "{} priced no work", flow.name());
                }
                other => panic!("unexpected flow {other}"),
            }
        }
        let after: Vec<_> = td.placement.iter().collect();
        assert_eq!(before, after, "measurement mutated the design");
    }
}
