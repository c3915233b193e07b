//! Emulation substrate: simulation, patterns, errors, and test logic.
//!
//! The paper's debugging loop needs four capabilities that its authors
//! got from real FPGA hardware; this crate supplies software stand-ins
//! with the same observable behaviour:
//!
//! * [`simulator::Simulator`] — cycle-accurate evaluation of a mapped
//!   netlist (the "emulator" clock), kept as the scalar differential
//!   oracle for the bit-packed [`packed::PackedSimulator`], which
//!   evaluates 64 lanes per topo pass and powers every sweep;
//! * [`patterns`] — test-pattern generation (exhaustive, LFSR,
//!   uniform random), paper step 10;
//! * [`inject`](mod@inject) — *design errors*: functional bugs planted in a
//!   netlist, plus the corrective ECO that repairs each one;
//! * [`testlogic`] — control and observation logic generators
//!   (observation taps, match counters, MISR signature registers,
//!   pattern drivers) — the logic whose insertion Figures 3 and 4
//!   cost out;
//! * [`emulate`] — golden-vs-DUT comparison with *primary-output-only*
//!   observability, which is exactly why observation logic must be
//!   inserted at all. The golden side is simulated once into a
//!   [`GoldenTrace`]; every sweep after that runs only the DUT.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emulate;
pub mod inject;
pub mod packed;
pub mod patterns;
pub mod simulator;
pub mod testlogic;

pub use emulate::{first_mismatch, Chunk, GoldenTrace, Mismatch};
pub use inject::{
    inject, random_distinct_errors, random_error, repair_op, DesignErrorKind, InjectedError,
};
pub use packed::{PackedSimulator, SimWork, LANES};
pub use patterns::PatternGen;
pub use simulator::Simulator;
