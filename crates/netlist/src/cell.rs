//! Cells: the nodes of the netlist graph.

use std::fmt;

use crate::id::NetId;
use crate::logic::TruthTable;

/// The functional kind of a [`Cell`].
///
/// Deliberately exhaustive: downstream crates (mapper, placer,
/// simulator) match on every variant, and a new cell kind *should* be
/// a breaking change for them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Primary input port. No input pins, one output net.
    Input,
    /// Primary output port. One input pin, no output net.
    Output,
    /// Combinational lookup table with the given function.
    Lut(TruthTable),
    /// D flip-flop clocked by the implicit global clock.
    Ff {
        /// Power-on / reset value of the register.
        init: bool,
    },
}

impl CellKind {
    /// Short lowercase tag used in reports and BLIF comments.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Input => "input",
            Self::Output => "output",
            Self::Lut(_) => "lut",
            Self::Ff { .. } => "ff",
        }
    }

    /// True for LUTs and flip-flops, which occupy CLB resources.
    pub fn is_logic(&self) -> bool {
        matches!(self, Self::Lut(_) | Self::Ff { .. })
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lut(tt) => write!(f, "lut{}", tt.arity()),
            other => f.write_str(other.tag()),
        }
    }
}

/// A single netlist node: an I/O port, a LUT, or a flip-flop.
///
/// Cells have at most one output net (`output`) and an ordered list of
/// input nets (`inputs`). LUT input pin `k` corresponds to truth-table
/// variable `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Instance name; unique within the netlist.
    pub name: String,
    /// Functional kind.
    pub kind: CellKind,
    /// Input nets in pin order.
    pub inputs: Vec<NetId>,
    /// Driven net, if the cell produces a value.
    pub output: Option<NetId>,
}

impl Cell {
    /// Number of input pins.
    pub fn arity(&self) -> usize {
        self.inputs.len()
    }

    /// True if the cell occupies CLB logic resources.
    pub fn is_logic(&self) -> bool {
        self.kind.is_logic()
    }

    /// The LUT truth table, if this cell is a LUT.
    pub fn lut_function(&self) -> Option<&TruthTable> {
        match &self.kind {
            CellKind::Lut(tt) => Some(tt),
            _ => None,
        }
    }

    /// True if the cell is sequential (breaks combinational paths).
    pub fn is_sequential(&self) -> bool {
        matches!(self.kind, CellKind::Ff { .. })
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lut_cell() -> Cell {
        Cell {
            name: "u1".into(),
            kind: CellKind::Lut(TruthTable::and(2)),
            inputs: vec![NetId::new(0), NetId::new(1)],
            output: Some(NetId::new(2)),
        }
    }

    #[test]
    fn kind_classification() {
        assert!(!CellKind::Input.is_logic());
        assert!(CellKind::Ff { init: false }.is_logic());
        assert!(CellKind::Lut(TruthTable::not()).is_logic());
    }

    #[test]
    fn lut_function_accessor() {
        let c = lut_cell();
        assert_eq!(c.lut_function(), Some(&TruthTable::and(2)));
        assert_eq!(c.arity(), 2);
        assert!(!c.is_sequential());
    }

    #[test]
    fn display_includes_kind() {
        assert_eq!(lut_cell().to_string(), "u1 (lut2)");
        let ff = Cell {
            name: "r0".into(),
            kind: CellKind::Ff { init: true },
            inputs: vec![NetId::new(0)],
            output: Some(NetId::new(1)),
        };
        assert_eq!(ff.to_string(), "r0 (ff)");
        assert!(ff.is_sequential());
    }
}
