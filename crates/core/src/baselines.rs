//! The comparison flows of Figure 5, as an effort probe.
//!
//! The flows themselves live in [`crate::flows`] behind the
//! [`ReimplFlow`] trait; [`flow_effort`] prices any of them on a
//! *clone* of the tiled design so the caller's state is untouched — it
//! returns the CAD effort the flow spends on the same change the tiled
//! flow handled.

use netlist::CellId;

use crate::effort::CadEffort;
use crate::error::TilingError;
use crate::flow::TiledDesign;
use crate::flows::ReimplFlow;

/// Prices `flow` on a clone of the design: the clone is
/// re-implemented, the caller's design is untouched, and only the
/// effort is returned.
///
/// # Errors
///
/// Propagates placement/routing failures.
pub fn flow_effort(
    td: &TiledDesign,
    flow: &mut dyn ReimplFlow,
    seeds: &[CellId],
) -> Result<CadEffort, TilingError> {
    let mut trial = td.clone();
    Ok(flow.reimplement(&mut trial, seeds, &[])?.effort)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{implement, TilingOptions};
    use crate::flows::{standard_flows, TiledFlow};
    use synth::PaperDesign;

    #[test]
    fn tiling_beats_the_baselines_on_a_small_change() {
        let b = PaperDesign::NineSym.generate().unwrap();
        let mut td = implement(b.netlist, b.hierarchy, TilingOptions::fast(21)).unwrap();
        let victim = td
            .netlist
            .cells()
            .find(|(_, c)| c.lut_function().is_some())
            .map(|(id, _)| id)
            .unwrap();
        let tt = td
            .netlist
            .cell(victim)
            .unwrap()
            .lut_function()
            .unwrap()
            .complement();
        td.netlist.set_lut_function(victim, tt).unwrap();

        // All four flows priced through the one trait, on the same
        // change (the Figure 5 harness shape).
        let mut efforts = std::collections::HashMap::new();
        for mut flow in standard_flows() {
            let name = flow.name();
            let effort = flow_effort(&td, flow.as_mut(), &[victim]).unwrap();
            efforts.insert(name, effort);
        }
        let full = efforts["full"];
        let quick = efforts["quick_eco"];
        let incr = efforts["incremental"];

        // The tiled flow commits for real (the state the next debug
        // step iterates on).
        let tiled = TiledFlow
            .reimplement(&mut td, &[victim], &[])
            .unwrap()
            .effort;
        assert_eq!(
            efforts["tiled"].total(),
            tiled.total(),
            "probe and committed tiled run disagree"
        );

        assert!(
            full.total() > tiled.total(),
            "full {} vs tiled {}",
            full,
            tiled
        );
        assert!(
            quick.total() > tiled.total(),
            "quick {} vs tiled {}",
            quick,
            tiled
        );
        assert!(
            incr.total() >= tiled.total(),
            "incr {} vs tiled {}",
            incr,
            tiled
        );
        // And the orderings the paper reports: full >= quick(whole) >= incremental.
        assert!(full.total() >= incr.total());
    }
}
