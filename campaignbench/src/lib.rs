//! The repository's benchmark: debug campaigns driven through
//! `debugd`'s public campaign API in a closed loop, with every
//! campaign's output checked, and a separate traced run that times the
//! layers a campaign passes through from outside the program.
//!
//! See `BENCHMARK.md` beside this crate for the workloads, the metrics
//! and how to read the traced run's spans.

pub mod layers;
pub mod outputs;
pub mod reference;
pub mod run;
pub mod stats;
pub mod workload;
