//! # obs — unified observability for the tiled-debugging stack
//!
//! Hand-rolled (no registry dependencies, same policy as `compat/`)
//! tracing + metrics plane shared by the debug session, the packed
//! simulator, the bench bins, and the `debugd` fleet:
//!
//! * [`Tracer`] — scoped spans with **dual timestamps** (deterministic
//!   effort units + measured wall-clock), exported as Chrome
//!   trace-event JSON (Perfetto-loadable) and JSONL, including one
//!   track per map worker reconstructed from
//!   [`parallel::PoolStats`] busy segments.
//! * [`MetricsRegistry`] — counters/gauges/histograms with label
//!   sets, `BTreeMap`-ordered so renders are byte-stable, with a
//!   Prometheus-style text exposition split into a *deterministic*
//!   section (byte-identical serial vs. pooled — the PR 7 invariant
//!   extended to metrics) and a *measured* section (wall-clock).
//!
//! The rule of the house: **wall-clock never feeds a deterministic
//! series**. Effort units, ECO counts, cache hits, and event counts
//! are deterministic; durations and utilization live behind
//! [`MEASURED_MARKER`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod metrics;
pub mod trace;

pub use artifacts::{artifact_base, ARTIFACT_DIR};
pub use metrics::{
    HistogramData, MetricValue, MetricsRegistry, MetricsSnapshot, Section, MEASURED_MARKER,
};
pub use trace::{SpanRecord, Tracer, TrackId};
