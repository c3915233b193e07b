//! Fleet throughput benchmark — the standing heavy-traffic headline
//! metric (`BENCH_fleet.json`) next to `BENCH_multi.json`.
//!
//! Builds a mixed campaign batch (designs × strategies × flows ×
//! error budgets), runs it twice through the orchestrator — once on
//! one worker (the serial reference) and once on every host core —
//! asserts the report documents are **byte-identical** across the
//! two runs, and emits:
//!
//! * a **deterministic** section: per-design campaign rows (taps,
//!   ECOs, effort units) and a scaling curve — makespan of the
//!   batch's measured per-campaign effort units under greedy
//!   (longest-processing-time) list scheduling at 1/2/4/8 workers.
//!   Effort units are the workspace's reproducible work metric (see
//!   `tiling::effort`): wall-clock on any particular host is not
//!   reproducible, these schedules are, so this is the section CI's
//!   freshness gate compares byte-for-byte across regenerations.
//! * a **measured** section: wall-clock, campaigns/sec and worker
//!   utilization on the host that ran the bench,
//!   plus projected campaigns/sec per worker count (the modeled
//!   makespans anchored by the measured effort-units/sec rate).
//!
//! Run: `cargo run --release -p debugd --bin fleet`
//! (pass `--quick` for the one-design batch CI runs end-to-end;
//! quick results go to `BENCH_fleet.quick.json`, which is
//! gitignored). Pass `--trace <base>` to also emit `<base>.trace.json`
//! (Chrome trace-event JSON, loadable in Perfetto: per-campaign phase
//! spans plus one track per worker), `<base>.trace.jsonl`,
//! `<base>.metrics.prom` (the pooled run's metrics exposition) and
//! `<base>.metrics.serial.prom` (the serial reference's) — whose
//! deterministic sections this bin asserts byte-identical on every
//! run, traced or not. A bare stem collects under the gitignored
//! `artifacts/` directory.

// CLI/example output goes to stdout by design.
#![allow(clippy::print_stdout)]

use std::fmt::Write as _;

use debugd::{
    run_batch_observed, ArtifactStore, CampaignRequest, CampaignStatus, FlowKind, StrategyKind,
};
use obs::{MetricsRegistry, Tracer};
use synth::PaperDesign;

/// The modeled worker counts of the scaling curve.
const CURVE: [usize; 4] = [1, 2, 4, 8];

/// One design's aggregated row.
struct Row {
    design: &'static str,
    campaigns: usize,
    taps: usize,
    ecos: usize,
    effort_units: u64,
    /// Per-campaign effort units (the scheduling jobs).
    jobs: Vec<u64>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let args: Vec<String> = std::env::args().collect();
    let trace_base = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1).cloned());
    let designs: &[PaperDesign] = if quick {
        &[PaperDesign::NineSym]
    } else {
        &[PaperDesign::NineSym, PaperDesign::Styr, PaperDesign::Sand]
    };
    // Full mode runs the whole batch twice (serial reference + pool),
    // and the sequential designs' campaigns are stream-mode-expensive;
    // 6 per design keeps the release-job sweep in minutes while still
    // covering both strategies, both flow kinds and k = 2 per design.
    let per_design = if quick { 8 } else { 6 };

    // The campaign mix: strategies and flows alternate, error budgets
    // cycle 1/1/2, seeds stay distinct — all deterministic.
    let mut requests: Vec<CampaignRequest> = Vec::new();
    for &design in designs {
        for i in 0..per_design {
            let k = [1usize, 1, 2][i % 3];
            requests.push(CampaignRequest {
                id: format!("{}-{i:02}", design.name().replace(' ', "_")),
                design,
                strategy: if i % 2 == 0 {
                    StrategyKind::LinearBatches
                } else {
                    StrategyKind::BinarySearch
                },
                flow: if i % 4 == 3 {
                    FlowKind::QuickEco
                } else {
                    FlowKind::Tiled
                },
                seed: 7,
                error_seeds: (0..k as u64).map(|e| 31 + 7 * i as u64 + e).collect(),
                ..Default::default()
            });
        }
    }
    let campaigns = requests.len();
    println!(
        "fleet: {campaigns} campaigns over {} design(s)",
        designs.len()
    );

    // Serial reference: one worker, bit-exact baseline.
    let store = ArtifactStore::new();
    let serial_registry = MetricsRegistry::new();
    let t0 = std::time::Instant::now();
    let serial = run_batch_observed(&store, &requests, 1, &serial_registry, None);
    let wall_serial = t0.elapsed().as_secs_f64();

    // Host pool: same batch, every available worker, fresh store so
    // artifact builds are paid (and telemetered) the same way.
    let host_workers = parallel::default_workers();
    let pool_store = ArtifactStore::new();
    let pool_registry = MetricsRegistry::new();
    let tracer = trace_base.as_deref().map(|_| Tracer::new());
    let t1 = std::time::Instant::now();
    let pooled = run_batch_observed(
        &pool_store,
        &requests,
        host_workers,
        &pool_registry,
        tracer.as_ref(),
    );
    let wall_pool = t1.elapsed().as_secs_f64();

    // The determinism contract, enforced right here in the bench.
    for (s, p) in serial.results.iter().zip(&pooled.results) {
        assert_eq!(
            s.status,
            CampaignStatus::Completed,
            "campaign {} did not complete",
            s.id
        );
        assert!(
            s.report_json == p.report_json && s.events == p.events,
            "campaign {} differs between 1 and {host_workers} worker(s)",
            s.id
        );
    }
    // Same contract, extended to the metrics layer: every counter in
    // the deterministic exposition section must be byte-identical
    // between the 1-worker and pooled runs.
    assert_eq!(
        serial_registry.render_deterministic(),
        pool_registry.render_deterministic(),
        "deterministic metrics differ between 1 and {host_workers} worker(s)"
    );
    println!(
        "fleet: {campaigns} reports + deterministic metrics byte-identical at 1 vs \
         {host_workers} worker(s); serial {wall_serial:.2}s, pool {wall_pool:.2}s"
    );

    if let (Some(base), Some(tracer)) = (trace_base.as_deref(), tracer.as_ref()) {
        let base = obs::artifact_base(base)?;
        let base = base.display();
        std::fs::write(format!("{base}.trace.json"), tracer.to_chrome_trace())?;
        std::fs::write(format!("{base}.trace.jsonl"), tracer.to_jsonl())?;
        std::fs::write(
            format!("{base}.metrics.prom"),
            pool_registry.render_prometheus(),
        )?;
        std::fs::write(
            format!("{base}.metrics.serial.prom"),
            serial_registry.render_prometheus(),
        )?;
        println!("trace + metrics artifacts written to {base}.*");
    }

    // Aggregate per-design rows from the serial run's reports.
    let mut rows: Vec<Row> = Vec::new();
    for &design in designs {
        let mut row = Row {
            design: design.name(),
            campaigns: 0,
            taps: 0,
            ecos: 0,
            effort_units: 0,
            jobs: Vec::new(),
        };
        for (req, res) in requests.iter().zip(&serial.results) {
            if req.design != design {
                continue;
            }
            let report = res
                .report
                .as_ref()
                .expect("completed campaign has a report");
            row.campaigns += 1;
            row.taps += report.taps_inserted;
            row.ecos += report.ledger.total_ecos();
            let units = report.ledger.total().total();
            row.effort_units += units;
            row.jobs.push(units);
        }
        rows.push(row);
    }

    // Measured anchor: how fast this host chews effort units.
    let total_units: u64 = rows.iter().map(|r| r.effort_units).sum();
    let units_per_sec = if wall_serial > 0.0 {
        total_units as f64 / wall_serial
    } else {
        0.0
    };

    let all_jobs: Vec<u64> = rows.iter().flat_map(|r| r.jobs.iter().copied()).collect();
    for r in &rows {
        let m1 = makespan(&r.jobs, 1);
        let m4 = makespan(&r.jobs, 4);
        println!(
            "  {:<12} {} campaigns, {} effort units, modeled speedup at 4 workers: {:.2}x",
            r.design,
            r.campaigns,
            r.effort_units,
            m1 as f64 / m4 as f64
        );
    }

    let path = if quick {
        "BENCH_fleet.quick.json"
    } else {
        "BENCH_fleet.json"
    };
    std::fs::write(
        path,
        render_json(
            quick,
            &rows,
            &all_jobs,
            &pooled.telemetry,
            host_workers,
            wall_serial,
            wall_pool,
            units_per_sec,
        ),
    )?;
    println!("machine-readable results written to {path}");
    Ok(())
}

/// Greedy LPT list-scheduling makespan of `jobs` on `workers`
/// machines, in effort units. Deterministic: ties broken by lowest
/// worker index, equal-length jobs kept in row order by the stable
/// sort.
fn makespan(jobs: &[u64], workers: usize) -> u64 {
    let mut sorted: Vec<u64> = jobs.to_vec();
    sorted.sort_by(|a, b| b.cmp(a));
    let mut load = vec![0u64; workers.max(1)];
    for j in sorted {
        let w = (0..load.len())
            .min_by_key(|&w| (load[w], w))
            .expect("nonempty");
        load[w] += j;
    }
    load.into_iter().max().unwrap_or(0)
}

fn scaling_json(jobs: &[u64]) -> String {
    let m1 = makespan(jobs, 1);
    CURVE
        .iter()
        .map(|&w| {
            let m = makespan(jobs, w);
            format!(
                "{{\"workers\": {w}, \"makespan_units\": {m}, \"speedup\": {:.3}}}",
                if m > 0 { m1 as f64 / m as f64 } else { 1.0 }
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    quick: bool,
    rows: &[Row],
    all_jobs: &[u64],
    pool_telemetry: &debugd::FleetTelemetry,
    host_workers: usize,
    wall_serial: f64,
    wall_pool: f64,
    units_per_sec: f64,
) -> String {
    let campaigns: usize = rows.iter().map(|r| r.campaigns).sum();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"fleet\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"deterministic\": {\n");
    let _ = writeln!(out, "    \"campaigns\": {campaigns},");
    out.push_str("    \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"design\": \"{}\", \"campaigns\": {}, \"taps\": {}, \"ecos\": {}, \
             \"effort_units\": {}, \"scaling\": [{}]}}",
            r.design,
            r.campaigns,
            r.taps,
            r.ecos,
            r.effort_units,
            scaling_json(&r.jobs),
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("    ],\n");
    let _ = writeln!(out, "    \"fleet_scaling\": [{}]", scaling_json(all_jobs));
    out.push_str("  },\n");
    out.push_str("  \"measured\": {\n");
    let _ = writeln!(out, "    \"host_workers\": {host_workers},");
    let _ = writeln!(out, "    \"wall_seconds_serial\": {wall_serial:.3},");
    let _ = writeln!(out, "    \"wall_seconds_pool\": {wall_pool:.3},");
    let _ = writeln!(
        out,
        "    \"campaigns_per_sec_serial\": {:.3},",
        if wall_serial > 0.0 {
            campaigns as f64 / wall_serial
        } else {
            0.0
        }
    );
    let _ = writeln!(
        out,
        "    \"campaigns_per_sec_pool\": {:.3},",
        if wall_pool > 0.0 {
            campaigns as f64 / wall_pool
        } else {
            0.0
        }
    );
    let _ = writeln!(out, "    \"effort_units_per_sec\": {units_per_sec:.1},");
    let _ = writeln!(
        out,
        "    \"worker_utilization\": {:.4},",
        pool_telemetry.worker_utilization
    );
    let projected = CURVE
        .iter()
        .map(|&w| {
            let m = makespan(all_jobs, w);
            let secs = if units_per_sec > 0.0 {
                m as f64 / units_per_sec
            } else {
                0.0
            };
            format!(
                "{{\"workers\": {w}, \"campaigns_per_sec\": {:.3}}}",
                if secs > 0.0 {
                    campaigns as f64 / secs
                } else {
                    0.0
                }
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "    \"projected_campaigns_per_sec\": [{projected}]");
    out.push_str("  }\n}\n");
    out
}
