//! The netlist graph: cells connected by nets.

use std::collections::HashMap;

use crate::cell::{Cell, CellKind};
use crate::error::NetlistError;
use crate::id::{CellId, NetId};
use crate::logic::TruthTable;
use crate::net::{Net, Sink};
use crate::stats::NetlistStats;

/// A mapped gate-level netlist.
///
/// Cells and nets live in slotted arenas so that identifiers stay
/// stable across ECO edits; removed entries become tombstones. All
/// iteration is in ascending index order, which keeps every downstream
/// algorithm (mapping, placement, simulation) deterministic.
///
/// ```
/// use netlist::{Netlist, TruthTable};
/// # fn main() -> Result<(), netlist::NetlistError> {
/// let mut nl = Netlist::new("inv");
/// let a = nl.add_input("a")?;
/// let inv = nl.add_lut("u_inv", TruthTable::not(), &[nl.cell_output(a)?])?;
/// nl.add_output("y", nl.cell_output(inv)?)?;
/// assert_eq!(nl.stats().luts, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    cells: Vec<Option<Cell>>,
    nets: Vec<Option<Net>>,
    cell_names: HashMap<String, CellId>,
    net_names: HashMap<String, NetId>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            cells: Vec::new(),
            nets: Vec::new(),
            cell_names: HashMap::new(),
            net_names: HashMap::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a named net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_net(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let name = name.into();
        if self.net_names.contains_key(&name) {
            return Err(NetlistError::DuplicateName(name));
        }
        let id = NetId::new(self.nets.len());
        self.net_names.insert(name.clone(), id);
        self.nets.push(Some(Net::new(name)));
        Ok(id)
    }

    fn add_cell_raw(&mut self, cell: Cell) -> Result<CellId, NetlistError> {
        if self.cell_names.contains_key(&cell.name) {
            return Err(NetlistError::DuplicateName(cell.name));
        }
        let id = CellId::new(self.cells.len());
        self.cell_names.insert(cell.name.clone(), id);
        // Wire up connectivity.
        for (pin, &net) in cell.inputs.iter().enumerate() {
            let n = self.net_mut_raw(net)?;
            n.sinks.push(Sink { cell: id, pin });
        }
        if let Some(out) = cell.output {
            let n = self.net_mut_raw(out)?;
            if n.driver.is_some() {
                return Err(NetlistError::MultipleDrivers(out));
            }
            n.driver = Some(id);
        }
        self.cells.push(Some(cell));
        Ok(id)
    }

    /// Adds a primary input; a net with the same name carries its value.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<CellId, NetlistError> {
        let name = name.into();
        let net = self.add_net(name.clone())?;
        self.add_cell_raw(Cell {
            name,
            kind: CellKind::Input,
            inputs: Vec::new(),
            output: Some(net),
        })
    }

    /// Adds a primary output consuming `net`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken, or
    /// [`NetlistError::UnknownNet`] if `net` does not exist.
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        net: NetId,
    ) -> Result<CellId, NetlistError> {
        self.net(net)?;
        self.add_cell_raw(Cell {
            name: name.into(),
            kind: CellKind::Output,
            inputs: vec![net],
            output: None,
        })
    }

    /// Adds a LUT driven by `inputs`; its output net shares its name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the truth-table arity does
    /// not match `inputs.len()`, [`NetlistError::DuplicateName`] if the
    /// name is taken, or [`NetlistError::UnknownNet`] for bad inputs.
    pub fn add_lut(
        &mut self,
        name: impl Into<String>,
        function: TruthTable,
        inputs: &[NetId],
    ) -> Result<CellId, NetlistError> {
        if function.arity() != inputs.len() {
            return Err(NetlistError::BadArity {
                arity: inputs.len(),
                max: function.arity(),
            });
        }
        for &n in inputs {
            self.net(n)?;
        }
        let name = name.into();
        let net = self.add_net(name.clone())?;
        self.add_cell_raw(Cell {
            name,
            kind: CellKind::Lut(function),
            inputs: inputs.to_vec(),
            output: Some(net),
        })
    }

    /// Adds a D flip-flop consuming `d`; its output net shares its name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken or
    /// [`NetlistError::UnknownNet`] if `d` does not exist.
    pub fn add_ff(
        &mut self,
        name: impl Into<String>,
        init: bool,
        d: NetId,
    ) -> Result<CellId, NetlistError> {
        self.net(d)?;
        let name = name.into();
        let net = self.add_net(name.clone())?;
        self.add_cell_raw(Cell {
            name,
            kind: CellKind::Ff { init },
            inputs: vec![d],
            output: Some(net),
        })
    }

    /// Adds a primary input driving an existing (driverless) net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`],
    /// [`NetlistError::UnknownNet`], or
    /// [`NetlistError::MultipleDrivers`].
    pub fn add_input_driving(
        &mut self,
        name: impl Into<String>,
        net: NetId,
    ) -> Result<CellId, NetlistError> {
        self.net(net)?;
        self.add_cell_raw(Cell {
            name: name.into(),
            kind: CellKind::Input,
            inputs: Vec::new(),
            output: Some(net),
        })
    }

    /// Adds a LUT driving an existing (driverless) net.
    ///
    /// Unlike [`Netlist::add_lut`], the output net is supplied by the
    /// caller — used by file readers where net names are explicit.
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::add_lut`], plus
    /// [`NetlistError::MultipleDrivers`] if `output` is already driven.
    pub fn add_lut_driving(
        &mut self,
        name: impl Into<String>,
        function: TruthTable,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<CellId, NetlistError> {
        if function.arity() != inputs.len() {
            return Err(NetlistError::BadArity {
                arity: inputs.len(),
                max: function.arity(),
            });
        }
        for &n in inputs {
            self.net(n)?;
        }
        self.net(output)?;
        self.add_cell_raw(Cell {
            name: name.into(),
            kind: CellKind::Lut(function),
            inputs: inputs.to_vec(),
            output: Some(output),
        })
    }

    /// Adds a flip-flop driving an existing (driverless) net.
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::add_ff`], plus
    /// [`NetlistError::MultipleDrivers`] if `output` is already driven.
    pub fn add_ff_driving(
        &mut self,
        name: impl Into<String>,
        init: bool,
        d: NetId,
        output: NetId,
    ) -> Result<CellId, NetlistError> {
        self.net(d)?;
        self.net(output)?;
        self.add_cell_raw(Cell {
            name: name.into(),
            kind: CellKind::Ff { init },
            inputs: vec![d],
            output: Some(output),
        })
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Looks up a live cell.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] for tombstoned or
    /// out-of-range identifiers.
    pub fn cell(&self, id: CellId) -> Result<&Cell, NetlistError> {
        self.cells
            .get(id.index())
            .and_then(Option::as_ref)
            .ok_or(NetlistError::UnknownCell(id))
    }

    fn cell_mut_raw(&mut self, id: CellId) -> Result<&mut Cell, NetlistError> {
        self.cells
            .get_mut(id.index())
            .and_then(Option::as_mut)
            .ok_or(NetlistError::UnknownCell(id))
    }

    /// Looks up a live net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] for tombstoned or
    /// out-of-range identifiers.
    pub fn net(&self, id: NetId) -> Result<&Net, NetlistError> {
        self.nets
            .get(id.index())
            .and_then(Option::as_ref)
            .ok_or(NetlistError::UnknownNet(id))
    }

    fn net_mut_raw(&mut self, id: NetId) -> Result<&mut Net, NetlistError> {
        self.nets
            .get_mut(id.index())
            .and_then(Option::as_mut)
            .ok_or(NetlistError::UnknownNet(id))
    }

    /// The net driven by `id`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] if `id` is dead, or
    /// [`NetlistError::KindMismatch`] if the cell drives nothing
    /// (primary outputs).
    pub fn cell_output(&self, id: CellId) -> Result<NetId, NetlistError> {
        self.cell(id)?.output.ok_or(NetlistError::KindMismatch {
            cell: id,
            expected: "driving cell",
        })
    }

    /// Finds a cell by name.
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        self.cell_names.get(name).copied()
    }

    /// Finds a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// Iterates over live cells in index order.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (CellId::new(i), c)))
    }

    /// Iterates over live nets in index order.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (NetId::new(i), n)))
    }

    /// Primary inputs in creation order.
    pub fn primary_inputs(&self) -> Vec<CellId> {
        self.cells()
            .filter(|(_, c)| matches!(c.kind, CellKind::Input))
            .map(|(id, _)| id)
            .collect()
    }

    /// Primary outputs in creation order.
    pub fn primary_outputs(&self) -> Vec<CellId> {
        self.cells()
            .filter(|(_, c)| matches!(c.kind, CellKind::Output))
            .map(|(id, _)| id)
            .collect()
    }

    /// Number of live cells.
    pub fn num_cells(&self) -> usize {
        self.cells().count()
    }

    /// Number of live nets.
    pub fn num_nets(&self) -> usize {
        self.nets().count()
    }

    /// Number of LUT cells.
    pub fn num_luts(&self) -> usize {
        self.cells()
            .filter(|(_, c)| matches!(c.kind, CellKind::Lut(_)))
            .count()
    }

    /// Number of flip-flop cells.
    pub fn num_ffs(&self) -> usize {
        self.cells().filter(|(_, c)| c.is_sequential()).count()
    }

    /// True if the design contains at least one flip-flop.
    pub fn is_sequential(&self) -> bool {
        self.cells().any(|(_, c)| c.is_sequential())
    }

    /// Upper bound (exclusive) of cell indices ever allocated.
    pub fn cell_capacity(&self) -> usize {
        self.cells.len()
    }

    /// Upper bound (exclusive) of net indices ever allocated.
    pub fn net_capacity(&self) -> usize {
        self.nets.len()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::of(self)
    }

    // ------------------------------------------------------------------
    // Editing
    // ------------------------------------------------------------------

    /// Reconnects input pin `pin` of `cell` to `new_net`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PinOutOfRange`] for a bad pin index and
    /// the usual unknown-id errors.
    pub fn set_pin(
        &mut self,
        cell: CellId,
        pin: usize,
        new_net: NetId,
    ) -> Result<(), NetlistError> {
        self.net(new_net)?;
        let old_net = {
            let c = self.cell(cell)?;
            *c.inputs.get(pin).ok_or(NetlistError::PinOutOfRange {
                cell,
                pin,
                arity: c.arity(),
            })?
        };
        if old_net == new_net {
            return Ok(());
        }
        let old = self.net_mut_raw(old_net)?;
        old.sinks.retain(|s| !(s.cell == cell && s.pin == pin));
        self.net_mut_raw(new_net)?.sinks.push(Sink { cell, pin });
        self.cell_mut_raw(cell)?.inputs[pin] = new_net;
        Ok(())
    }

    /// Replaces the truth table of a LUT cell.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::KindMismatch`] if the cell is not a LUT
    /// or [`NetlistError::BadArity`] if the arity changes.
    pub fn set_lut_function(
        &mut self,
        cell: CellId,
        function: TruthTable,
    ) -> Result<(), NetlistError> {
        let c = self.cell(cell)?;
        match &c.kind {
            CellKind::Lut(old) => {
                if old.arity() != function.arity() {
                    return Err(NetlistError::BadArity {
                        arity: function.arity(),
                        max: old.arity(),
                    });
                }
            }
            _ => {
                return Err(NetlistError::KindMismatch {
                    cell,
                    expected: "lut",
                })
            }
        }
        self.cell_mut_raw(cell)?.kind = CellKind::Lut(function);
        Ok(())
    }

    /// Removes a cell, detaching it from all nets.
    ///
    /// The cell's output net survives (driverless, keeping its name) so
    /// that sinks can be rewired afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] if the cell is already dead.
    pub fn remove_cell(&mut self, id: CellId) -> Result<Cell, NetlistError> {
        self.cell(id)?;
        let cell = self.cells[id.index()].take().expect("checked live above");
        self.cell_names.remove(&cell.name);
        for &net in &cell.inputs {
            if let Ok(n) = self.net_mut_raw(net) {
                n.sinks.retain(|s| s.cell != id);
            }
        }
        if let Some(out) = cell.output {
            if let Ok(n) = self.net_mut_raw(out) {
                n.driver = None;
            }
        }
        Ok(cell)
    }

    /// Points `net`'s driver record at `cell` and `cell`'s output
    /// record at `net`, *without* detaching whatever drove the net
    /// before.
    ///
    /// This is a deliberate escape hatch around the builder API's
    /// single-driver guarantee, for import shims and design-rule-check
    /// fixtures that must represent an already-inconsistent netlist
    /// (the `drc` crate's multi-driven-net rule exists to catch
    /// exactly the state this creates). No synthesis or ECO path uses
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] /
    /// [`NetlistError::UnknownNet`] if either side is dead, or
    /// [`NetlistError::KindMismatch`] if the cell is an output pad
    /// (pads drive nothing).
    pub fn force_driver(&mut self, cell: CellId, net: NetId) -> Result<(), NetlistError> {
        self.net(net)?;
        if matches!(self.cell(cell)?.kind, CellKind::Output) {
            return Err(NetlistError::KindMismatch {
                cell,
                expected: "driving cell",
            });
        }
        self.cell_mut_raw(cell)?.output = Some(net);
        self.net_mut_raw(net)?.driver = Some(cell);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Analysis
    // ------------------------------------------------------------------

    /// Topological order of all live cells over *combinational* edges.
    ///
    /// Inputs and flip-flops act as sources; an edge runs from a net's
    /// driver to each sink unless the sink is a flip-flop D pin (the
    /// register boundary cuts the cycle).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] naming a cell on the
    /// cycle if the combinational subgraph is cyclic.
    pub fn topo_order(&self) -> Result<Vec<CellId>, NetlistError> {
        let n = self.cells.len();
        let mut indegree = vec![0usize; n];
        let mut live = vec![false; n];
        for (id, cell) in self.cells() {
            live[id.index()] = true;
            if cell.is_sequential() || matches!(cell.kind, CellKind::Input) {
                continue;
            }
            // Combinational cells wait for all their fanins.
            indegree[id.index()] = cell.arity();
        }
        let mut ready: Vec<CellId> = self
            .cells()
            .filter(|(id, _)| indegree[id.index()] == 0 && live[id.index()])
            .map(|(id, _)| id)
            .collect();
        let mut order = Vec::with_capacity(self.num_cells());
        let mut cursor = 0;
        while cursor < ready.len() {
            let id = ready[cursor];
            cursor += 1;
            order.push(id);
            let cell = self.cell(id)?;
            if let Some(out) = cell.output {
                for sink in &self.net(out)?.sinks {
                    let sc = self.cell(sink.cell)?;
                    if sc.is_sequential() || matches!(sc.kind, CellKind::Input) {
                        continue;
                    }
                    let d = &mut indegree[sink.cell.index()];
                    *d -= 1;
                    if *d == 0 {
                        ready.push(sink.cell);
                    }
                }
            }
        }
        if order.len() != self.num_cells() {
            let stuck = self
                .cells()
                .find(|(id, _)| indegree[id.index()] > 0)
                .map(|(id, _)| id)
                .unwrap_or(CellId::new(0));
            return Err(NetlistError::CombinationalLoop(stuck));
        }
        Ok(order)
    }

    /// Combinational logic level of every cell (inputs/FFs at level 0).
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalLoop`].
    pub fn levels(&self) -> Result<Vec<usize>, NetlistError> {
        let order = self.topo_order()?;
        let mut level = vec![0usize; self.cells.len()];
        for id in order {
            let cell = self.cell(id)?;
            if cell.is_sequential() || matches!(cell.kind, CellKind::Input) {
                continue;
            }
            // Primary outputs are zero-delay taps, not logic levels.
            let add = usize::from(!matches!(cell.kind, CellKind::Output));
            let mut max = 0;
            for &net in &cell.inputs {
                if let Some(drv) = self.net(net)?.driver {
                    max = max.max(level[drv.index()] + add);
                }
            }
            level[id.index()] = max;
        }
        Ok(level)
    }

    /// Maximum combinational depth (in LUT levels).
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalLoop`].
    pub fn logic_depth(&self) -> Result<usize, NetlistError> {
        Ok(self.levels()?.into_iter().max().unwrap_or(0))
    }

    /// Transitive fanin cone of `seeds`, including the seeds.
    ///
    /// Traversal stops at primary inputs but *crosses* flip-flops, so
    /// the cone is the full structural support over any number of
    /// cycles — what error diagnosis needs.
    pub fn fanin_cone(&self, seeds: &[CellId]) -> Vec<CellId> {
        let mut seen = vec![false; self.cells.len()];
        let mut stack: Vec<CellId> = seeds.to_vec();
        let mut cone = Vec::new();
        while let Some(id) = stack.pop() {
            if id.index() >= seen.len() || seen[id.index()] {
                continue;
            }
            let Ok(cell) = self.cell(id) else { continue };
            seen[id.index()] = true;
            cone.push(id);
            for &net in &cell.inputs {
                if let Ok(n) = self.net(net) {
                    if let Some(drv) = n.driver {
                        stack.push(drv);
                    }
                }
            }
        }
        cone.sort_unstable();
        cone
    }

    /// Transitive fanout cone of `seeds`, including the seeds.
    pub fn fanout_cone(&self, seeds: &[CellId]) -> Vec<CellId> {
        let mut seen = vec![false; self.cells.len()];
        let mut stack: Vec<CellId> = seeds.to_vec();
        let mut cone = Vec::new();
        while let Some(id) = stack.pop() {
            if id.index() >= seen.len() || seen[id.index()] {
                continue;
            }
            let Ok(cell) = self.cell(id) else { continue };
            seen[id.index()] = true;
            cone.push(id);
            if let Some(out) = cell.output {
                if let Ok(n) = self.net(out) {
                    for s in &n.sinks {
                        stack.push(s.cell);
                    }
                }
            }
        }
        cone.sort_unstable();
        cone
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: undriven-but-consumed nets,
    /// LUT arity mismatches, dangling pin references, or combinational
    /// loops.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, net) in self.nets() {
            if net.driver.is_none() && !net.sinks.is_empty() {
                return Err(NetlistError::Undriven(id));
            }
            if let Some(drv) = net.driver {
                let c = self.cell(drv)?;
                if c.output != Some(id) {
                    return Err(NetlistError::MultipleDrivers(id));
                }
            }
            for s in &net.sinks {
                let c = self.cell(s.cell)?;
                if s.pin >= c.arity() {
                    return Err(NetlistError::PinOutOfRange {
                        cell: s.cell,
                        pin: s.pin,
                        arity: c.arity(),
                    });
                }
                if c.inputs[s.pin] != id {
                    return Err(NetlistError::UnknownNet(id));
                }
            }
        }
        for (id, cell) in self.cells() {
            if let CellKind::Lut(tt) = &cell.kind {
                if tt.arity() != cell.arity() {
                    return Err(NetlistError::BadArity {
                        arity: cell.arity(),
                        max: tt.arity(),
                    });
                }
            }
            for (pin, &net) in cell.inputs.iter().enumerate() {
                let n = self.net(net)?;
                if !n.sinks.iter().any(|s| s.cell == id && s.pin == pin) {
                    return Err(NetlistError::UnknownNet(net));
                }
            }
        }
        self.topo_order()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_chain(len: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let mut prev = nl.cell_output(a).unwrap();
        let bnet = nl.cell_output(b).unwrap();
        for i in 0..len {
            let lut = nl
                .add_lut(format!("x{i}"), TruthTable::xor(2), &[prev, bnet])
                .unwrap();
            prev = nl.cell_output(lut).unwrap();
        }
        nl.add_output("y", prev).unwrap();
        nl
    }

    #[test]
    fn build_and_count() {
        let nl = xor_chain(4);
        assert_eq!(nl.num_luts(), 4);
        assert_eq!(nl.num_cells(), 7);
        assert_eq!(nl.primary_inputs().len(), 2);
        assert_eq!(nl.primary_outputs().len(), 1);
        assert!(!nl.is_sequential());
        nl.validate().unwrap();
    }

    #[test]
    fn logic_depth_of_chain() {
        let nl = xor_chain(5);
        assert_eq!(nl.logic_depth().unwrap(), 5);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_input("a").unwrap();
        assert!(matches!(
            nl.add_input("a"),
            Err(NetlistError::DuplicateName(_))
        ));
    }

    #[test]
    fn lut_arity_must_match_inputs() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let n = nl.cell_output(a).unwrap();
        assert!(nl.add_lut("u", TruthTable::and(2), &[n]).is_err());
    }

    #[test]
    fn set_pin_rewires_connectivity() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let na = nl.cell_output(a).unwrap();
        let nb = nl.cell_output(b).unwrap();
        let u = nl.add_lut("u", TruthTable::buf(), &[na]).unwrap();
        nl.set_pin(u, 0, nb).unwrap();
        assert_eq!(nl.cell(u).unwrap().inputs[0], nb);
        assert_eq!(nl.net(na).unwrap().fanout(), 0);
        assert_eq!(nl.net(nb).unwrap().fanout(), 1);
        nl.validate().unwrap();
    }

    #[test]
    fn set_pin_same_net_is_noop() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let na = nl.cell_output(a).unwrap();
        let u = nl.add_lut("u", TruthTable::buf(), &[na]).unwrap();
        nl.set_pin(u, 0, na).unwrap();
        assert_eq!(nl.net(na).unwrap().fanout(), 1);
    }

    #[test]
    fn remove_cell_detaches() {
        let mut nl = xor_chain(2);
        let x1 = nl.find_cell("x1").unwrap();
        let out_net = nl.cell_output(x1).unwrap();
        nl.remove_cell(x1).unwrap();
        assert!(nl.cell(x1).is_err());
        assert!(nl.net(out_net).unwrap().driver.is_none());
        // Validation now fails: y's net is undriven.
        assert!(nl.validate().is_err());
    }

    #[test]
    fn sequential_loop_is_legal() {
        let mut nl = Netlist::new("counter");
        let ff = {
            // Bootstrap: create the feedback net first via a dummy input.
            let seed = nl.add_net("d").unwrap();
            let ff = nl.add_ff("q", false, seed).unwrap();
            let q = nl.cell_output(ff).unwrap();
            let inv = nl.add_lut("inv", TruthTable::not(), &[q]).unwrap();
            let inv_out = nl.cell_output(inv).unwrap();
            nl.set_pin(ff, 0, inv_out).unwrap();
            ff
        };
        nl.add_output("out", nl.cell_output(ff).unwrap()).unwrap();
        // The only dangler is the bootstrap net `d`, which now has no sinks.
        nl.topo_order().unwrap();
        assert!(nl.is_sequential());
    }

    #[test]
    fn combinational_loop_detected() {
        let mut nl = Netlist::new("loop");
        let seed = nl.add_net("seed").unwrap();
        let u = nl.add_lut("u", TruthTable::buf(), &[seed]).unwrap();
        let v = nl
            .add_lut("v", TruthTable::buf(), &[nl.cell_output(u).unwrap()])
            .unwrap();
        nl.set_pin(u, 0, nl.cell_output(v).unwrap()).unwrap();
        assert!(matches!(
            nl.topo_order(),
            Err(NetlistError::CombinationalLoop(_))
        ));
    }

    #[test]
    fn cones() {
        let nl = xor_chain(3);
        let y = nl.find_cell("y").unwrap();
        let cone = nl.fanin_cone(&[y]);
        assert_eq!(cone.len(), nl.num_cells()); // everything feeds y
        let a = nl.find_cell("a").unwrap();
        let fan = nl.fanout_cone(&[a]);
        assert!(fan.contains(&y));
    }

    #[test]
    fn set_lut_function_checks_kind_and_arity() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let na = nl.cell_output(a).unwrap();
        let u = nl.add_lut("u", TruthTable::buf(), &[na]).unwrap();
        assert!(nl.set_lut_function(u, TruthTable::and(2)).is_err());
        nl.set_lut_function(u, TruthTable::not()).unwrap();
        assert_eq!(nl.cell(u).unwrap().lut_function(), Some(&TruthTable::not()));
        assert!(nl.set_lut_function(a, TruthTable::not()).is_err());
    }
}
