//! Human-readable reports over a tiled design.
//!
//! These are what the examples and the benchmark binaries print; they
//! also serve as a one-stop structured summary for downstream tools.

use std::fmt;

use crate::effort::EffortLedger;
use crate::error::TilingError;
use crate::flow::TiledDesign;
use crate::interface::tile_interface;
use crate::session::DebugOutcome;

/// Per-tile summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct TileRow {
    /// Tile id.
    pub id: crate::tile::TileId,
    /// Footprint (for the header line).
    pub rect: fpga::Rect,
    /// CLB capacity.
    pub capacity: usize,
    /// Used CLBs (packing bound).
    pub used: usize,
    /// Free CLBs for test-logic insertion.
    pub free: usize,
    /// Route paths crossing this tile's boundary.
    pub crossings: usize,
    /// Distinct locked interface wire nodes.
    pub interface_nodes: usize,
}

/// Whole-design tiling report.
#[derive(Debug, Clone, PartialEq)]
pub struct TilingReport {
    /// Design name.
    pub design: String,
    /// Device description string.
    pub device: String,
    /// Rows, in tile order.
    pub tiles: Vec<TileRow>,
    /// Area overhead (Table 1 definition).
    pub area_overhead: f64,
    /// Nets whose placed terminals span tiles.
    pub cut_nets: usize,
    /// Routed critical path in ns.
    pub critical_ns: f64,
}

impl TilingReport {
    /// Builds the report from a tiled design.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures (combinational loops etc.).
    pub fn build(td: &TiledDesign) -> Result<Self, TilingError> {
        let mut tiles = Vec::with_capacity(td.plan.len());
        for (id, tile) in td.plan.iter() {
            let usage = td.plan.usage(id, &td.placement)?;
            let iface = tile_interface(&td.device, &td.plan, &td.rrg, &td.routing, id)?;
            tiles.push(TileRow {
                id,
                rect: tile.rect,
                capacity: usage.capacity,
                used: usage.used_clbs(),
                free: usage.free_clbs(),
                crossings: iface.crossings,
                interface_nodes: iface.interface_nodes,
            });
        }
        Ok(Self {
            design: td.netlist.name().to_string(),
            device: td.device.to_string(),
            tiles,
            area_overhead: td.area_overhead(),
            cut_nets: td.plan.cut_nets(&td.netlist, &td.placement),
            critical_ns: td.timing()?.critical_ns,
        })
    }

    /// Mean free CLBs per tile (the §6.1 worked-example quantity).
    pub fn mean_free_clbs(&self) -> f64 {
        if self.tiles.is_empty() {
            return 0.0;
        }
        self.tiles.iter().map(|t| t.free).sum::<usize>() as f64 / self.tiles.len() as f64
    }

    /// Mean used CLBs per tile.
    pub fn mean_used_clbs(&self) -> f64 {
        if self.tiles.is_empty() {
            return 0.0;
        }
        self.tiles.iter().map(|t| t.used).sum::<usize>() as f64 / self.tiles.len() as f64
    }
}

impl fmt::Display for TilingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} on {}", self.design, self.device)?;
        writeln!(
            f,
            "area overhead {:.3} | cut nets {} | critical path {:.2} ns",
            self.area_overhead, self.cut_nets, self.critical_ns
        )?;
        writeln!(
            f,
            "{:<5} {:<14} {:>4} {:>5} {:>5} {:>10} {:>10}",
            "tile", "rect", "cap", "used", "free", "crossings", "iface-wires"
        )?;
        for t in &self.tiles {
            writeln!(
                f,
                "{:<5} {:<14} {:>4} {:>5} {:>5} {:>10} {:>10}",
                t.id.to_string(),
                t.rect.to_string(),
                t.capacity,
                t.used,
                t.free,
                t.crossings,
                t.interface_nodes
            )?;
        }
        write!(
            f,
            "mean used/tile {:.1} CLBs, mean free/tile {:.1} CLBs",
            self.mean_used_clbs(),
            self.mean_free_clbs()
        )
    }
}

/// Aggregated summary of one or more debug iterations: the per-phase
/// [`EffortLedger`] plus the headline counters the examples and bench
/// binaries print.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DebugReport {
    /// Iterations summarized.
    pub iterations: usize,
    /// Iterations whose DUT matched golden at the end.
    pub repaired: usize,
    /// Iterations where localization pinned a cell down.
    pub localized: usize,
    /// Observation taps inserted in total.
    pub taps_inserted: usize,
    /// Merged per-phase ledger.
    pub ledger: EffortLedger,
    /// Strategy name (from the first outcome; campaigns share one).
    pub strategy: String,
    /// Flow name (from the first outcome; campaigns share one).
    pub flow: String,
}

impl DebugReport {
    /// Builds the report from session outcomes.
    pub fn from_outcomes(outcomes: &[DebugOutcome]) -> Self {
        let mut report = DebugReport {
            iterations: outcomes.len(),
            ..Default::default()
        };
        if let Some(first) = outcomes.first() {
            report.strategy = first.strategy.to_string();
            report.flow = first.flow.to_string();
        }
        for o in outcomes {
            report.repaired += usize::from(o.repaired);
            report.localized += usize::from(o.localized.is_some());
            report.taps_inserted += o.taps_inserted;
            report.ledger.merge(&o.ledger);
        }
        report
    }
}

impl fmt::Display for DebugReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} iteration(s) via {} / {}: {} repaired, {} localized, {} taps",
            self.iterations,
            self.strategy,
            self.flow,
            self.repaired,
            self.localized,
            self.taps_inserted
        )?;
        writeln!(f, "{}", self.ledger)?;
        write!(
            f,
            "total: {} ECOs, {}",
            self.ledger.total_ecos(),
            self.ledger.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effort::Phase;
    use crate::flow::{implement, TilingOptions};
    use synth::PaperDesign;

    #[test]
    fn report_is_consistent_with_design() {
        let nl = PaperDesign::NineSym.generate().unwrap();
        let td = implement(nl, TilingOptions::fast(41)).unwrap();
        let r = TilingReport::build(&td).unwrap();
        assert_eq!(r.tiles.len(), td.plan.len());
        let cap: usize = r.tiles.iter().map(|t| t.capacity).sum();
        assert_eq!(cap, td.device.num_clbs());
        assert!(r.critical_ns > 0.0);
        let text = r.to_string();
        assert!(text.contains("area overhead"));
        assert!(text.contains("mean used/tile"));
        // Used + free <= capacity per tile.
        for t in &r.tiles {
            assert!(t.used + t.free <= t.capacity);
        }
    }

    #[test]
    fn debug_report_aggregates_session_outcomes() {
        let golden = PaperDesign::NineSym.generate().unwrap();
        let mut td = implement(golden.clone(), TilingOptions::fast(43)).unwrap();
        let err = sim::inject::random_error(&mut td.netlist, 99).unwrap();
        let out = crate::session::DebugSession::new(&mut td, &golden)
            .seed(17)
            .run(&err)
            .unwrap();
        let report = DebugReport::from_outcomes(std::slice::from_ref(&out));
        assert_eq!(report.iterations, 1);
        assert_eq!(report.repaired, 1);
        assert_eq!(report.taps_inserted, out.taps_inserted);
        assert_eq!(report.ledger.total(), out.effort);
        let text = report.to_string();
        for phase in Phase::ALL {
            assert!(text.contains(phase.name()), "missing {phase}: {text}");
        }
        assert!(text.contains("tiled"));
    }

    #[test]
    #[ignore = "s9234-scale P&R; run with `cargo test --release -p tiling -- --ignored`"]
    fn s9234_worked_example_matches_paper_scale() {
        // Paper §6.1: ten tiles averaging 23.5 CLBs leave ~4.7 CLBs
        // each at 20% overhead.
        let nl = PaperDesign::S9234.generate().unwrap();
        let mut opts = TilingOptions::fast(42);
        opts.tracks = 18;
        opts.placer = place::PlacerConfig {
            seed: 42,
            max_temps: 120,
            ..Default::default()
        };
        let td = implement(nl, opts).unwrap();
        let r = TilingReport::build(&td).unwrap();
        let used = r.mean_used_clbs();
        let free = r.mean_free_clbs();
        assert!(
            (15.0..=30.0).contains(&used),
            "mean used {used} vs paper's 23.5"
        );
        assert!(
            (2.0..=9.0).contains(&free),
            "mean free {free} vs paper's 4.7"
        );
    }
}
