//! Aggregate netlist statistics.

use std::fmt;

use crate::cell::CellKind;
use crate::graph::Netlist;

/// Size and shape summary of a netlist.
///
/// ```
/// use netlist::{Netlist, TruthTable};
/// # fn main() -> Result<(), netlist::NetlistError> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a")?;
/// let u = nl.add_lut("u", TruthTable::not(), &[nl.cell_output(a)?])?;
/// nl.add_output("y", nl.cell_output(u)?)?;
/// let s = nl.stats();
/// assert_eq!((s.inputs, s.outputs, s.luts, s.ffs), (1, 1, 1, 0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// LUT cells.
    pub luts: usize,
    /// Flip-flop cells.
    pub ffs: usize,
    /// Live nets.
    pub nets: usize,
    /// Total input pins across all cells (routing demand proxy).
    pub pins: usize,
    /// Combinational depth in LUT levels (0 if cyclic — see `Netlist::logic_depth`).
    pub depth: usize,
}

impl NetlistStats {
    /// Computes statistics for a netlist.
    pub fn of(nl: &Netlist) -> Self {
        let mut s = Self::default();
        for (_, cell) in nl.cells() {
            match &cell.kind {
                CellKind::Input => s.inputs += 1,
                CellKind::Output => s.outputs += 1,
                CellKind::Lut(_) => s.luts += 1,
                CellKind::Ff { .. } => s.ffs += 1,
            }
            s.pins += cell.arity();
        }
        s.nets = nl.num_nets();
        s.depth = nl.logic_depth().unwrap_or(0);
        s
    }

    /// CLBs needed on an XC4000-style device (2 LUTs + 2 FFs per CLB;
    /// LUT/FF pairs on the same CLB are packed by the placer, so the
    /// bound is `max(luts, ffs)` halved, rounded up).
    pub fn clb_estimate(&self) -> usize {
        self.luts.max(self.ffs).div_ceil(2)
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} PI, {} PO, {} LUT, {} FF, {} nets, depth {}",
            self.inputs, self.outputs, self.luts, self.ffs, self.nets, self.depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::TruthTable;

    #[test]
    fn clb_estimate_packs_pairs() {
        let s = NetlistStats {
            luts: 10,
            ffs: 4,
            ..Default::default()
        };
        assert_eq!(s.clb_estimate(), 5);
        let s = NetlistStats {
            luts: 3,
            ffs: 8,
            ..Default::default()
        };
        assert_eq!(s.clb_estimate(), 4);
        assert_eq!(NetlistStats::default().clb_estimate(), 0);
    }

    #[test]
    fn stats_counts_pins_and_depth() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let na = nl.cell_output(a).unwrap();
        let nb = nl.cell_output(b).unwrap();
        let u = nl.add_lut("u", TruthTable::and(2), &[na, nb]).unwrap();
        let v = nl
            .add_lut("v", TruthTable::not(), &[nl.cell_output(u).unwrap()])
            .unwrap();
        nl.add_output("y", nl.cell_output(v).unwrap()).unwrap();
        let s = nl.stats();
        assert_eq!(s.pins, 2 + 1 + 1); // and(2) + not(1) + output(1)
        assert_eq!(s.depth, 2);
        assert!(s.to_string().contains("2 LUT"));
    }
}
