//! Error type shared by all netlist operations.

use std::error::Error;
use std::fmt;

use crate::id::{CellId, NetId};

/// Errors produced by netlist construction, editing, and I/O.
///
/// ```
/// use netlist::{Netlist, NetlistError};
/// let nl = Netlist::new("t");
/// let err = nl.cell(netlist::CellId::new(9)).unwrap_err();
/// assert!(matches!(err, NetlistError::UnknownCell(_)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A cell identifier does not refer to a live cell.
    UnknownCell(CellId),
    /// A net identifier does not refer to a live net.
    UnknownNet(NetId),
    /// A pin index is out of range for the cell it addresses.
    PinOutOfRange {
        /// Cell whose pin was addressed.
        cell: CellId,
        /// Offending pin index.
        pin: usize,
        /// Number of input pins the cell actually has.
        arity: usize,
    },
    /// Two drivers were connected to the same net.
    MultipleDrivers(NetId),
    /// A net has no driver but is consumed by a sink.
    Undriven(NetId),
    /// The cell kind does not support the requested operation
    /// (e.g. changing the truth table of a flip-flop).
    KindMismatch {
        /// Cell that was addressed.
        cell: CellId,
        /// Human-readable description of the expected kind.
        expected: &'static str,
    },
    /// A truth-table arity is outside the supported range or does not
    /// match the number of connected inputs.
    BadArity {
        /// Requested arity.
        arity: usize,
        /// Maximum supported arity.
        max: usize,
    },
    /// A name was reused where uniqueness is required.
    DuplicateName(String),
    /// Combinational logic forms a cycle (not broken by a flip-flop).
    CombinationalLoop(CellId),
    /// Parse error in a BLIF source file.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownCell(c) => write!(f, "unknown cell {c}"),
            Self::UnknownNet(n) => write!(f, "unknown net {n}"),
            Self::PinOutOfRange { cell, pin, arity } => {
                write!(
                    f,
                    "pin {pin} out of range for cell {cell} with {arity} inputs"
                )
            }
            Self::MultipleDrivers(n) => write!(f, "net {n} has multiple drivers"),
            Self::Undriven(n) => write!(f, "net {n} is consumed but never driven"),
            Self::KindMismatch { cell, expected } => {
                write!(f, "cell {cell} is not a {expected}")
            }
            Self::BadArity { arity, max } => {
                write!(f, "arity {arity} exceeds supported maximum {max}")
            }
            Self::DuplicateName(name) => write!(f, "duplicate name `{name}`"),
            Self::CombinationalLoop(c) => {
                write!(f, "combinational loop through cell {c}")
            }
            Self::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let msg = NetlistError::UnknownCell(CellId::new(3)).to_string();
        assert_eq!(msg, "unknown cell c3");
        let msg = NetlistError::BadArity { arity: 9, max: 6 }.to_string();
        assert!(msg.contains("arity 9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}
