//! Simultaneous multi-error diagnosis sweep (new capability — the
//! paper's protocol is strictly one error at a time).
//!
//! For k = 1..4 simultaneous design errors on three designs, the same
//! planted errors are debugged two ways through the tiled flow:
//!
//! * **concurrent** — one `DebugSession::run_concurrent` campaign:
//!   failing outputs are clustered into per-error footprints (FSM
//!   fan-out clusters merged behind their dominating state
//!   registers), each cluster is pruned within its own `[0,
//!   first_fail]` observation window, and the `tiling::diagnosis`
//!   scheduler merges every cluster's tap requests into shared
//!   batches through the windowed verdict cache;
//! * **sequential** — k independent single-error campaigns on fresh
//!   copies of the design (the paper's loop, k times over).
//!
//! The report shows observation taps and physical ECOs *per error*
//! dropping as k grows: shared test logic amortizes, the sequential
//! baseline cannot. (`cfnd` counts localized clusters / clusters;
//! `sfnd` counts serial campaigns that localized / planted errors.
//! A single-output design folds several errors into one cluster.
//! Both paths localize through the shared `diagnosis::evidence`
//! layer — causal windows, alibi pruning, free PO-onset seeding — so
//! the serial rows on the FSM designs, which the old whole-sweep
//! passing-split failed to localize at all, now pinpoint cells too.)
//!
//! Besides the human-readable table, the sweep emits
//! **`BENCH_multi.json`** — taps/ECOs per (design, k), concurrent vs
//! serial, plus cluster/localization counts — so the performance
//! trajectory is tracked across PRs instead of living only in stdout.
//!
//! The design×k grid fans out over `parallel::map` (one item per
//! grid cell, implements shared per design); campaigns are
//! deterministic, so the pooled sweep's JSON is
//! byte-identical to a serial one — pass `--check-serial` to re-run
//! the grid on one worker and assert exactly that (CI does, in quick
//! mode).
//!
//! Run: `cargo run --release -p bench-harness --bin multi`
//! (pass `--quick` for the smallest design and k ≤ 2 — the mode CI
//! runs end-to-end).
//!
//! Pass `--trace <base>` to record the sweep through the `obs` layer:
//! `<base>.trace.json` (Chrome trace-event JSON, one track per grid
//! cell plus one per worker — loadable at ui.perfetto.dev),
//! `<base>.trace.jsonl` (raw span rows), and `<base>.metrics.prom`
//! (Prometheus text exposition of the counters every session records:
//! per-phase effort, evidence, simulation, placement and routing
//! work). A bare stem collects under the gitignored `artifacts/`
//! directory.

// CLI/example output goes to stdout by design.
#![allow(clippy::print_stdout)]

use std::fmt::Write as _;

use bench_harness::implement_design;
use obs::{MetricsRegistry, Tracer, TrackId};
use sim::inject::inject;
use synth::PaperDesign;
use tiling::flows::TiledFlow;
use tiling::session::{DebugEvent, DebugSession};
use tiling::TiledDesign;

/// One (design, k) comparison row.
#[derive(PartialEq)]
struct Row {
    design: &'static str,
    k: usize,
    clusters: usize,
    localized: usize,
    conc_taps: usize,
    conc_ecos: usize,
    seq_localized: usize,
    seq_taps: usize,
    seq_ecos: usize,
}

/// Runs one (design, k) grid cell: the concurrent campaign and its
/// k-sequential baseline on fresh clones of the shared implement.
fn run_cell(
    design: PaperDesign,
    td0: &TiledDesign,
    golden: &netlist::Netlist,
    k: usize,
    observe: Option<(&Tracer, TrackId, &MetricsRegistry)>,
) -> Result<Row, tiling::TilingError> {
    // Plant k distinct random errors, all live at once. The cluster
    // columns come from the campaign's events: the rows are per
    // planted error, and their taps are requested, not inserted.
    let mut td = td0.clone();
    let seeds: Vec<u64> = (0..k as u64).map(|i| 31 + i).collect();
    let errors = sim::inject::random_distinct_errors(&mut td.netlist, &seeds)?;
    let (mut clusters, mut localized, mut conc_taps) = (0usize, 0usize, 0usize);
    let conc_ecos = {
        let mut session = DebugSession::new(&mut td, golden)
            .flow(TiledFlow)
            .seed(7)
            .on_event(|e| match e {
                DebugEvent::ConeSplit { clusters: n, .. } => clusters = *n,
                DebugEvent::Localized { cell: Some(_) } => localized += 1,
                DebugEvent::TapEco { cells, .. } => conc_taps += cells.len(),
                _ => {}
            });
        if let Some((tracer, track, registry)) = observe {
            session = session.trace(tracer, track).metrics(registry);
        }
        session.run_concurrent(&errors)?.ledger.total_ecos()
    };

    // Sequential baseline: the same errors, one fresh
    // single-error campaign each. Serial localization now
    // runs through the same diagnosis::evidence layer, so
    // its localized count is tracked per row too (the old
    // whole-sweep passing-split failed to localize at all on
    // the FSM designs).
    let (mut slocalized, mut staps, mut secos) = (0usize, 0usize, 0usize);
    for error in &errors {
        let mut td = td0.clone();
        let replant = inject(&mut td.netlist, error.cell, error.kind)?;
        let mut session = DebugSession::new(&mut td, golden).flow(TiledFlow).seed(7);
        if let Some((tracer, track, registry)) = observe {
            session = session.trace(tracer, track).metrics(registry);
        }
        let out = session.run(&replant)?;
        slocalized += usize::from(out.localized.is_some());
        staps += out.taps_inserted;
        secos += out.ecos;
    }

    Ok(Row {
        design: design.name(),
        k,
        clusters,
        localized,
        conc_taps,
        conc_ecos,
        seq_localized: slocalized,
        seq_taps: staps,
        seq_ecos: secos,
    })
}

/// Sweeps the whole design×k grid on `workers` threads: one
/// implement per design (itself fanned out), then one map item per
/// grid cell. Row order is design-major, k-minor — identical to the
/// old serial loop, because `parallel::map` preserves input order.
fn sweep(
    designs: &[PaperDesign],
    max_k: usize,
    workers: usize,
    observe: Option<(&Tracer, &MetricsRegistry)>,
) -> Result<Vec<Row>, tiling::TilingError> {
    let implemented = parallel::map(workers, designs.to_vec(), |design| {
        implement_design(design, 10, 41).map(|td| (td.netlist.clone(), td))
    });
    let mut artifacts = Vec::with_capacity(designs.len());
    for r in implemented {
        let (golden, td) = r?;
        artifacts.push((golden, td));
    }
    let jobs: Vec<(usize, usize)> = (0..designs.len())
        .flat_map(|d| (1..=max_k).map(move |k| (d, k)))
        .collect();
    // One trace track per grid cell, allocated up front in job order
    // so track ids stay deterministic however the workers schedule.
    let tracks: Option<Vec<TrackId>> = observe.map(|(tracer, _)| {
        jobs.iter()
            .map(|&(d, k)| tracer.track(&format!("{} k={k}", designs[d].name())))
            .collect()
    });
    let t0_us = observe.map(|(tracer, _)| tracer.now_us()).unwrap_or(0);
    let artifacts = &artifacts;
    let tracks = &tracks;
    let jobs: Vec<(usize, (usize, usize))> = jobs.into_iter().enumerate().collect();
    let (rows, stats) = parallel::map_with_stats(workers, jobs, |(i, (d, k))| {
        let (golden, td0) = &artifacts[d];
        let cell_obs = match (observe, tracks) {
            (Some((tracer, registry)), Some(ids)) => Some((tracer, ids[i], registry)),
            _ => None,
        };
        run_cell(designs[d], td0, golden, k, cell_obs)
    });
    if let Some((tracer, _)) = observe {
        tracer.pool_tracks("worker", &stats, t0_us);
    }
    rows.into_iter().collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_serial = args.iter().any(|a| a == "--check-serial");
    let trace_base = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1).cloned());
    let designs: &[PaperDesign] = if quick {
        &[PaperDesign::NineSym]
    } else {
        &[PaperDesign::NineSym, PaperDesign::Styr, PaperDesign::Sand]
    };
    let max_k = if quick { 2 } else { 4 };

    let workers = parallel::default_workers();
    let tracer = trace_base.as_deref().map(|_| Tracer::new());
    let registry = trace_base.as_deref().map(|_| MetricsRegistry::new());
    let observe = match (&tracer, &registry) {
        (Some(t), Some(r)) => Some((t, r)),
        _ => None,
    };
    let rows = sweep(designs, max_k, workers, observe)?;
    if check_serial {
        // The pooled sweep must be a pure reordering of the serial
        // one: same rows, same bytes out. (The serial reference runs
        // unobserved so the trace only carries the pooled sweep.)
        let serial = sweep(designs, max_k, 1, None)?;
        assert!(
            rows == serial && render_json(quick, &rows) == render_json(quick, &serial),
            "pooled sweep diverged from the serial reference"
        );
        println!("(pooled sweep verified byte-identical to the serial path)");
    }
    if let (Some(base), Some(tracer), Some(reg)) = (&trace_base, &tracer, &registry) {
        let base = obs::artifact_base(base)?;
        let base = base.display();
        std::fs::write(format!("{base}.trace.json"), tracer.to_chrome_trace())?;
        std::fs::write(format!("{base}.trace.jsonl"), tracer.to_jsonl())?;
        std::fs::write(format!("{base}.metrics.prom"), reg.render_prometheus())?;
        println!("trace + metrics artifacts written to {base}.*");
    }

    println!("Multi-error diagnosis: concurrent vs k sequential campaigns (tiled flow)");
    println!(
        "{:<12} {:>2} {:>5} {:>5} | {:>10} {:>10} | {:>10} {:>10} | {:>9} {:>9}",
        "design",
        "k",
        "cfnd",
        "sfnd",
        "conc taps",
        "conc ECOs",
        "seq taps",
        "seq ECOs",
        "taps/err",
        "ECOs/err"
    );
    for r in &rows {
        println!(
            "{:<12} {:>2} {:>2}/{:<2} {:>2}/{:<2} | {:>10} {:>10} | {:>10} {:>10} | {:>4}v{:<4} {:>4}v{:<4}",
            r.design,
            r.k,
            r.localized,
            r.clusters,
            r.seq_localized,
            r.k,
            r.conc_taps,
            r.conc_ecos,
            r.seq_taps,
            r.seq_ecos,
            ratio(r.conc_taps, r.k),
            ratio(r.seq_taps, r.k),
            ratio(r.conc_ecos, r.k),
            ratio(r.seq_ecos, r.k),
        );
    }
    println!("\n(taps/err and ECOs/err: concurrent vs sequential, per planted error)");

    // The full sweep writes the committed snapshot; --quick runs
    // (CI, local smoke) write a sibling file so they never clobber
    // the tracked cross-PR trajectory.
    let path = if quick {
        "BENCH_multi.quick.json"
    } else {
        "BENCH_multi.json"
    };
    std::fs::write(path, render_json(quick, &rows))?;
    println!("machine-readable results written to {path}");
    Ok(())
}

/// Per-error average, one decimal.
fn ratio(total: usize, k: usize) -> String {
    format!("{:.1}", total as f64 / k as f64)
}

/// Renders the sweep as JSON (hand-rolled: every value is a number,
/// a bool, or a design name — no escaping needed, and the offline
/// workspace carries no serde stand-in).
fn render_json(quick: bool, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"multi\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"design\": \"{}\", \"k\": {}, \"clusters\": {}, \"localized\": {}, \
             \"concurrent\": {{\"taps\": {}, \"ecos\": {}}}, \
             \"serial\": {{\"taps\": {}, \"ecos\": {}, \"localized\": {}}}}}",
            r.design,
            r.k,
            r.clusters,
            r.localized,
            r.conc_taps,
            r.conc_ecos,
            r.seq_taps,
            r.seq_ecos,
            r.seq_localized
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
