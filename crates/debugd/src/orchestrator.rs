//! The orchestrator: batch execution and the file-queue service.
//!
//! ## Batch path ([`run_batch`])
//!
//! Takes a slice of parsed requests, resolves each request's design
//! artifact through the shared [`ArtifactStore`] (building every
//! distinct artifact exactly once), then maps the campaigns over
//! `workers` threads with [`parallel::map_with_stats`]. Results come
//! back **in request order** regardless of worker count, and each
//! campaign's report document is deterministic, so
//! `run_batch(.., workers = 64)` and `run_batch(.., workers = 1)`
//! produce byte-identical reports — the fleet determinism tests pin
//! this down.
//!
//! A panicking campaign (pipeline bug, or the `inject_panic` test
//! hook) is caught *inside* its map item: the map never sees the
//! panic, every other campaign still runs, and the campaign reports
//! status `"panicked"` with the payload.
//!
//! ## File-queue path ([`serve`])
//!
//! The `debugd` bin wraps [`run_batch`] in a directory protocol:
//!
//! ```text
//! <root>/requests/*.json     one request per file (client writes)
//! <root>/reports/<id>.json   persisted report per campaign
//! <root>/events/<id>.jsonl   streamed DebugEvents, one per line
//! <root>/archive/            processed request files move here
//! <root>/telemetry.json      cumulative fleet telemetry
//! <root>/metrics.prom        Prometheus-style metrics exposition
//! <root>/stop                touch to shut the server down
//! ```
//!
//! Requests are picked up in filename order (so clients can encode
//! priority), parsed, and batch-executed; a file that is not UTF-8,
//! does not parse or fails validation gets a `"rejected"` report
//! named after the file stem.

use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use obs::{MetricsRegistry, Tracer, TrackId};

use crate::artifacts::ArtifactStore;
use crate::campaign::{failure_result, run_campaign_observed, CampaignResult, CampaignStatus};
use crate::json::escape;
use crate::request::{CampaignRequest, RequestError};
use crate::telemetry::FleetTelemetry;

/// One batch's outcome: per-campaign results in request order, plus
/// the telemetry the batch generated.
#[derive(Debug)]
pub struct FleetOutcome {
    /// One result per request, in request order.
    pub results: Vec<CampaignResult>,
    /// Telemetry for this batch alone.
    pub telemetry: FleetTelemetry,
}

/// Turns a caught panic payload into a printable message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes a batch of campaigns over `workers` threads, sharing
/// design artifacts through `store`.
///
/// Artifact resolution happens up front (once per distinct key, not
/// once per campaign); campaigns whose artifact fails to build report
/// status `"failed"` without occupying a worker.
pub fn run_batch(
    store: &ArtifactStore,
    requests: &[CampaignRequest],
    workers: usize,
) -> FleetOutcome {
    let registry = MetricsRegistry::new();
    run_batch_observed(store, requests, workers, &registry, None)
}

/// [`run_batch`] recording into a caller-owned metrics registry and
/// (optionally) a tracer.
///
/// Deterministic counters (`debugd_campaigns_total`,
/// `session_phase_*`, `evidence_*`, `sim_*`, `place_*`, `route_*`,
/// `artifact_*`, the `campaign_taps`/`campaign_ecos` histograms) land
/// in the registry's deterministic section and are byte-identical
/// whatever the worker count; wall-clock, worker busy time and the
/// worker count go to the measured section. Each campaign's session
/// records its own work, so the section also stays exact while other
/// batches run in the same process. With a tracer, every campaign
/// gets its own track (request order) carrying its per-phase spans,
/// and one track per worker is reconstructed from the map's busy
/// segments.
pub fn run_batch_observed(
    store: &ArtifactStore,
    requests: &[CampaignRequest],
    workers: usize,
    registry: &MetricsRegistry,
    tracer: Option<&Tracer>,
) -> FleetOutcome {
    let before = registry.snapshot();
    // Semantic validation before anything is paid for: an
    // out-of-range request never builds an artifact and never
    // occupies a worker — it reports `"rejected"` straight away.
    let validity: Vec<Result<(), String>> = requests
        .iter()
        .map(|req| req.validate().map_err(|e| e.to_string()))
        .collect();
    // Resolve artifacts first: the store dedups, so this pays one
    // implement() per distinct (design, tiles, seed) and every
    // campaign holds an Arc to the shared result.
    let resolved: Vec<Option<Result<Arc<crate::artifacts::DesignArtifact>, String>>> = requests
        .iter()
        .zip(&validity)
        .map(|(req, valid)| {
            valid
                .is_ok()
                .then(|| store.get_or_build(req).map_err(|e| e.to_string()))
        })
        .collect();
    // Per-campaign tracks are allocated up front, in request order,
    // so track ids are deterministic however the workers schedule.
    let tracks: Option<Vec<TrackId>> = tracer.map(|t| {
        requests
            .iter()
            .map(|req| t.track(&format!("campaign {}", req.id)))
            .collect()
    });
    let t0_us = tracer.map(Tracer::now_us).unwrap_or(0);
    let jobs: Vec<(usize, &CampaignRequest)> = requests.iter().enumerate().collect();
    let resolved = &resolved;
    let tracks = &tracks;
    let validity = &validity;
    let (results, stats) = parallel::map_with_stats(workers, jobs, |(i, req)| {
        let trace = match (tracer, tracks) {
            (Some(t), Some(ids)) => Some((t, ids[i])),
            _ => None,
        };
        match (&validity[i], &resolved[i]) {
            (Err(e), _) => failure_result(req, CampaignStatus::Rejected(e.clone()), Vec::new()),
            (Ok(()), None) => unreachable!("valid requests always resolve an artifact slot"),
            (Ok(()), Some(Err(e))) => failure_result(
                req,
                CampaignStatus::Failed(format!("artifact build failed: {e}")),
                Vec::new(),
            ),
            (Ok(()), Some(Ok(artifact))) => {
                // Catch panics here, inside the item: the other
                // campaigns run on and the failure becomes a reported
                // result.
                match catch_unwind(AssertUnwindSafe(|| {
                    run_campaign_observed(artifact, req, Some(registry), trace)
                })) {
                    Ok(result) => result,
                    Err(payload) => failure_result(
                        req,
                        CampaignStatus::Panicked(panic_message(payload.as_ref())),
                        Vec::new(),
                    ),
                }
            }
        }
    });
    // Batch-level deterministic counters: statuses and per-campaign
    // distributions (sums and BTreeMap-ordered series are
    // order-independent, so serial and pooled runs render the same).
    for r in &results {
        registry.counter_add("debugd_campaigns_total", &[("status", r.status.name())], 1);
        if matches!(r.status, CampaignStatus::Rejected(_)) {
            registry.counter_add("debugd_requests_rejected_total", &[], 1);
        }
        if let Some(report) = &r.report {
            registry.observe("campaign_taps", &[], report.taps_inserted as u64);
            registry.observe("campaign_ecos", &[], report.ledger.total_ecos() as u64);
        }
    }
    let (builds, hits) = store.stats();
    registry.counter_set("artifact_builds_total", &[], builds as u64);
    registry.counter_set("artifact_hits_total", &[], hits as u64);
    registry.measured_add(
        "fleet_wall_microseconds_total",
        &[],
        u64::try_from(stats.wall.as_micros()).unwrap_or(u64::MAX),
    );
    registry.measured_add(
        "fleet_worker_busy_microseconds_total",
        &[],
        u64::try_from(stats.busy_total().as_micros()).unwrap_or(u64::MAX),
    );
    registry.measured_max("fleet_workers", &[], stats.busy_segments.len() as u64);
    if let Some(t) = tracer {
        t.pool_tracks("worker", &stats, t0_us);
    }
    let telemetry = FleetTelemetry::from_snapshot(&registry.snapshot().diff(&before));
    FleetOutcome { results, telemetry }
}

/// `serve` configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads per batch.
    pub workers: usize,
    /// Process the requests present now, then exit (no polling).
    pub once: bool,
    /// Poll interval between queue scans.
    pub poll: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: parallel::default_workers(),
            once: false,
            poll: Duration::from_millis(200),
        }
    }
}

/// What a `serve` run processed before exiting.
#[derive(Debug, Clone, Default)]
pub struct ServeSummary {
    /// Campaigns executed (any status).
    pub campaigns: usize,
    /// Request files rejected before running: not UTF-8, unparseable,
    /// or failing validation.
    pub rejected: usize,
    /// Queue-scan iterations performed.
    pub scans: usize,
}

/// Runs the file-queue service until `once` semantics or the stop
/// file ends it. See the module docs for the directory protocol.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable root, undeletable
/// request files). Individual bad *requests* never abort the server.
pub fn serve(root: &Path, opts: &ServeOptions) -> io::Result<ServeSummary> {
    let requests_dir = root.join("requests");
    let reports_dir = root.join("reports");
    let events_dir = root.join("events");
    let archive_dir = root.join("archive");
    for d in [&requests_dir, &reports_dir, &events_dir, &archive_dir] {
        fs::create_dir_all(d)?;
    }
    let stop_file = root.join("stop");
    let store = ArtifactStore::new();
    // One cumulative registry for the server's lifetime; every loop
    // iteration re-renders `telemetry.json` (the projected view) and
    // `metrics.prom` (the raw exposition) from it.
    let registry = MetricsRegistry::new();
    let mut summary = ServeSummary::default();
    loop {
        summary.scans += 1;
        registry.counter_add("debugd_poll_scans_total", &[], 1);
        let mut files: Vec<PathBuf> = fs::read_dir(&requests_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        let mut batch: Vec<CampaignRequest> = Vec::new();
        for path in &files {
            // Text first (UTF-8), then shape (parse), then ranges
            // (validate): any failure yields a structured `"rejected"`
            // report instead of a batch slot.
            match String::from_utf8(fs::read(path)?)
                .map_err(|e| RequestError(e.to_string()))
                .and_then(|text| CampaignRequest::from_json(&text))
                .and_then(|req| {
                    req.validate()?;
                    Ok(req)
                }) {
                Ok(req) => batch.push(req),
                Err(e) => {
                    summary.rejected += 1;
                    registry.counter_add("debugd_requests_rejected_total", &[], 1);
                    let stem = path
                        .file_stem()
                        .map_or_else(|| "unnamed".into(), |s| s.to_string_lossy().into_owned());
                    fs::write(
                        reports_dir.join(format!("{stem}.json")),
                        format!(
                            "{{\"id\": \"{}\", \"status\": \"rejected\", \"detail\": \"{}\"}}\n",
                            escape(&stem),
                            escape(&e.to_string()),
                        ),
                    )?;
                }
            }
        }
        if !batch.is_empty() {
            let outcome = run_batch_observed(&store, &batch, opts.workers, &registry, None);
            summary.campaigns += outcome.results.len();
            for r in &outcome.results {
                fs::write(reports_dir.join(format!("{}.json", r.id)), &r.report_json)?;
                let mut stream = r.events.join("\n");
                if !stream.is_empty() {
                    stream.push('\n');
                }
                fs::write(events_dir.join(format!("{}.jsonl", r.id)), stream)?;
            }
        }
        for path in &files {
            let name = path.file_name().map_or_else(
                || std::ffi::OsString::from("unnamed.json"),
                std::ffi::OsStr::to_os_string,
            );
            fs::rename(path, archive_dir.join(name))?;
        }
        let snap = registry.snapshot();
        fs::write(
            root.join("telemetry.json"),
            FleetTelemetry::from_snapshot(&snap).to_json(),
        )?;
        fs::write(root.join("metrics.prom"), snap.render_prometheus())?;
        if stop_file.exists() {
            let _ = fs::remove_file(&stop_file);
            break;
        }
        if opts.once {
            break;
        }
        std::thread::sleep(opts.poll);
    }
    Ok(summary)
}
