//! Fleet-wide telemetry — a *view* over the metrics registry.
//!
//! The per-campaign documents are deterministic by contract
//! ([`crate::campaign`]); wall-clock lives in the registry's measured
//! section. Since the observability refactor this type no longer
//! keeps its own books: the orchestrator records everything into an
//! [`obs::MetricsRegistry`] and [`FleetTelemetry::from_snapshot`]
//! projects the familiar `telemetry.json` document out of a snapshot
//! (a whole `serve` lifetime, or one batch via
//! [`obs::MetricsSnapshot::diff`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use obs::{HistogramData, MetricsSnapshot};
use tiling::effort::{CadEffort, Phase, PhaseEffort};
use tiling::EffortLedger;

/// Aggregated fleet counters.
#[derive(Debug, Clone, Default)]
pub struct FleetTelemetry {
    /// Campaigns processed.
    pub campaigns: usize,
    /// ... that completed.
    pub completed: usize,
    /// ... that failed with a pipeline error.
    pub failed: usize,
    /// ... that panicked (caught; the rest of the batch still ran).
    pub panicked: usize,
    /// Campaigns rejected before reaching a worker (bad requests).
    pub rejected: usize,
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Wall-clock spent executing batches.
    pub wall: Duration,
    /// Mean fraction of wall time workers spent inside campaigns.
    pub worker_utilization: f64,
    /// Artifacts built (implement runs paid).
    pub artifact_builds: usize,
    /// Artifact cache hits (implement runs saved).
    pub artifact_hits: usize,
    /// Merged per-phase ledger across every completed campaign.
    pub ledger: EffortLedger,
    /// taps-per-campaign → campaign count.
    pub taps_histogram: BTreeMap<usize, usize>,
    /// ECOs-per-campaign → campaign count.
    pub ecos_histogram: BTreeMap<usize, usize>,
}

impl FleetTelemetry {
    /// Projects the telemetry document out of a metrics snapshot: the
    /// deterministic counters rebuild the campaign/status/phase-ledger
    /// numbers, the measured series supply wall-clock and
    /// utilization.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Self {
        let workers = snap.value_u64("fleet_workers", &[]) as usize;
        let wall_us = snap.value_u64("fleet_wall_microseconds_total", &[]);
        let busy_us = snap.value_u64("fleet_worker_busy_microseconds_total", &[]);
        let worker_utilization = if wall_us > 0 && workers > 0 {
            busy_us as f64 / (wall_us as f64 * workers as f64)
        } else {
            0.0
        };
        let mut ledger = EffortLedger::default();
        for ph in Phase::ALL {
            let labels = [("phase", ph.name())];
            ledger.set_phase(
                ph,
                PhaseEffort {
                    effort: CadEffort {
                        place_moves: snap.value_u64("session_phase_place_moves_total", &labels),
                        route_expansions: snap
                            .value_u64("session_phase_route_expansions_total", &labels),
                    },
                    ecos: snap.value_u64("session_phase_ecos_total", &labels) as usize,
                    tiles_cleared: snap.value_u64("session_phase_tiles_cleared_total", &labels)
                        as usize,
                },
            );
        }
        Self {
            campaigns: snap.sum_counters("debugd_campaigns_total") as usize,
            completed: snap.value_u64("debugd_campaigns_total", &[("status", "completed")])
                as usize,
            failed: snap.value_u64("debugd_campaigns_total", &[("status", "failed")]) as usize,
            panicked: snap.value_u64("debugd_campaigns_total", &[("status", "panicked")]) as usize,
            rejected: snap.value_u64("debugd_requests_rejected_total", &[]) as usize,
            workers,
            wall: Duration::from_micros(wall_us),
            worker_utilization,
            artifact_builds: snap.value_u64("artifact_builds_total", &[]) as usize,
            artifact_hits: snap.value_u64("artifact_hits_total", &[]) as usize,
            ledger,
            taps_histogram: histogram_map(snap.histogram("campaign_taps", &[])),
            ecos_histogram: histogram_map(snap.histogram("campaign_ecos", &[])),
        }
    }

    /// Campaigns per wall-clock second (0 when no time elapsed).
    pub fn campaigns_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.campaigns as f64 / s
        } else {
            0.0
        }
    }

    /// Renders the telemetry document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"campaigns\": {},", self.campaigns);
        let _ = writeln!(out, "  \"completed\": {},", self.completed);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        let _ = writeln!(out, "  \"panicked\": {},", self.panicked);
        let _ = writeln!(out, "  \"rejected\": {},", self.rejected);
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"wall_seconds\": {:.6},", self.wall.as_secs_f64());
        let _ = writeln!(
            out,
            "  \"campaigns_per_sec\": {:.3},",
            self.campaigns_per_sec()
        );
        let _ = writeln!(
            out,
            "  \"worker_utilization\": {:.4},",
            self.worker_utilization
        );
        let _ = writeln!(out, "  \"artifact_builds\": {},", self.artifact_builds);
        let _ = writeln!(out, "  \"artifact_hits\": {},", self.artifact_hits);
        out.push_str("  \"phase_effort_units\": {");
        for (i, ph) in Phase::ALL.iter().enumerate() {
            let pe = self.ledger.phase(*ph);
            let _ = write!(
                out,
                "{}\"{}\": {}",
                if i == 0 { "" } else { ", " },
                ph.name(),
                pe.effort.total()
            );
        }
        out.push_str("},\n");
        let _ = writeln!(out, "  \"total_ecos\": {},", self.ledger.total_ecos());
        out.push_str(&histogram_json("taps_histogram", &self.taps_histogram));
        out.push_str(",\n");
        out.push_str(&histogram_json("ecos_histogram", &self.ecos_histogram));
        out.push_str("\n}\n");
        out
    }
}

/// A histogram series' raw value → count map (empty when absent).
fn histogram_map(h: Option<&HistogramData>) -> BTreeMap<usize, usize> {
    h.map(|h| {
        h.counts()
            .iter()
            .map(|(&v, &n)| (v as usize, n as usize))
            .collect()
    })
    .unwrap_or_default()
}

fn histogram_json(name: &str, h: &BTreeMap<usize, usize>) -> String {
    let body = h
        .iter()
        .map(|(k, v)| format!("{{\"value\": {k}, \"campaigns\": {v}}}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("  \"{name}\": [{body}]")
}
