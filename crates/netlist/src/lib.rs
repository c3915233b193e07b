//! Gate-level netlist representation for the FPGA debug-tiling flow.
//!
//! This crate provides the logical view of a design as it exists after
//! synthesis and technology mapping: a graph of *cells* (LUTs,
//! flip-flops, and I/O ports) connected by *nets*. On top of the raw
//! graph it layers the bookkeeping the DAC 2000 tiling paper depends
//! on: [`eco`] engineering-change operations that mutate the netlist
//! in place and report exactly which cells were perturbed, so the
//! physical flow can confine re-place-and-route to the affected tiles.
//!
//! # Example
//!
//! ```
//! use netlist::{Netlist, TruthTable};
//!
//! # fn main() -> Result<(), netlist::NetlistError> {
//! let mut nl = Netlist::new("majority");
//! let a = nl.add_input("a")?;
//! let b = nl.add_input("b")?;
//! let c = nl.add_input("c")?;
//! let maj = nl.add_lut(
//!     "maj",
//!     TruthTable::from_fn(3, |bits| bits.count_ones() >= 2),
//!     &[nl.cell_output(a)?, nl.cell_output(b)?, nl.cell_output(c)?],
//! )?;
//! nl.add_output("y", nl.cell_output(maj)?)?;
//! assert_eq!(nl.num_luts(), 1);
//! nl.validate()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blif;
pub mod cell;
pub mod eco;
pub mod error;
pub mod graph;
pub mod id;
pub mod logic;
pub mod net;
pub mod stats;

pub use cell::{Cell, CellKind};
pub use eco::{EcoOp, EcoReport};
pub use error::NetlistError;
pub use graph::Netlist;
pub use id::{CellId, NetId};
pub use logic::TruthTable;
pub use net::Net;
pub use stats::NetlistStats;
