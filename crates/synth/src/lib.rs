//! Front end: benchmark generation and technology mapping.
//!
//! The paper evaluates nine designs: seven MCNC benchmarks (9sym, styr,
//! sand, c499, planet1, c880, s9234), a BYU MIPS R2000 FPGA core, and a
//! key-specific DES datapath. None of those artifacts are
//! redistributable here, so [`designs`] regenerates each one as a
//! structural netlist of the same *kind* (symmetric function, FSM,
//! error-correcting XOR network, ALU, processor datapath, cipher
//! rounds) calibrated to the paper's mapped CLB count (Table 1).
//!
//! [`mapper`] lowers any netlist containing up-to-6-input logic
//! functions onto the XC4000's 4-input LUTs by Shannon decomposition,
//! and [`builder::NetBuilder`] is the structural construction kit the
//! generators are written with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod des;
pub mod designs;
pub mod filler;
pub mod fsm;
pub mod mapper;
pub mod mcnc;
pub mod mips;

pub use builder::NetBuilder;
pub use designs::PaperDesign;
pub use mapper::map_to_lut4;
