//! Observability-layer integration: the spans and counters the `obs`
//! crate records while a session runs must reconcile **exactly** with
//! the session's own `EffortLedger` — per phase, not just in total —
//! on both the serial and the concurrent diagnosis paths. The fleet
//! path's deterministic counter section must be byte-identical
//! whatever the worker count (the metrics extension of the fleet's
//! report/event invariant), even while another batch runs in the same
//! process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use fpga_debug_tiling::prelude::*;
use fpga_debug_tiling::{implement_paper_design, sim, tiling};
use obs::{MetricsRegistry, Tracer};
use tiling::effort::Phase;

/// Middle LUT of the implemented design — the deterministic victim
/// the session tests use.
fn victim(td: &TiledDesign) -> netlist::CellId {
    let luts: Vec<netlist::CellId> = td
        .netlist
        .cells()
        .filter(|(_, c)| c.lut_function().is_some())
        .map(|(id, _)| id)
        .collect();
    luts[luts.len() / 2]
}

/// Asserts that for every phase, the tracer's span effort totals and
/// the registry's `session_phase_effort_units_total` counter both
/// equal that phase's ledger entry exactly; that the placer moves the
/// session recorded equal the ledger's; and that its simulation work
/// was recorded.
fn assert_reconciled(tracer: &Tracer, registry: &MetricsRegistry, ledger: &tiling::EffortLedger) {
    let spans = tracer.spans();
    let snap = registry.snapshot();
    for phase in Phase::ALL {
        let ledger_units = ledger.phase(phase).effort.total();
        let span_units: u64 = spans
            .iter()
            .filter(|s| s.cat == "phase" && s.name == phase.name())
            .map(|s| s.effort_units)
            .sum();
        assert_eq!(
            span_units,
            ledger_units,
            "{} spans disagree with the ledger",
            phase.name()
        );
        let counter = snap.value_u64(
            "session_phase_effort_units_total",
            &[("phase", phase.name())],
        );
        assert_eq!(
            counter,
            ledger_units,
            "{} counter disagrees with the ledger",
            phase.name()
        );
    }
    // Detect is never charged, but its region must still be traced
    // (a zero-effort span proves the phase ran, not that it's free).
    assert!(
        spans.iter().any(|s| s.name == Phase::Detect.name()),
        "no detect span recorded"
    );
    assert_eq!(
        snap.sum_counters("place_moves_evaluated_total"),
        ledger.total().place_moves,
        "recorded placer moves disagree with the ledger"
    );
    assert!(
        snap.value_u64("sim_sweeps_total", &[]) > 0,
        "no simulation work recorded"
    );
}

#[test]
fn serial_session_spans_and_counters_reconcile_with_the_ledger() {
    let td0 = implement_paper_design(PaperDesign::NineSym, TilingOptions::fast(201)).unwrap();
    let golden = td0.netlist.clone();
    let mut td = td0.clone();
    let target = victim(&td);
    let error = sim::inject::inject(
        &mut td.netlist,
        target,
        sim::inject::DesignErrorKind::Complement,
    )
    .unwrap();

    let tracer = Tracer::new();
    let registry = MetricsRegistry::new();
    let track = tracer.track("serial session");
    let out = DebugSession::new(&mut td, &golden)
        .seed(9)
        .flow(TiledFlow)
        .trace(&tracer, track)
        .metrics(&registry)
        .run(&error)
        .unwrap();
    assert!(out.repaired);
    assert_reconciled(&tracer, &registry, &out.ledger);

    // The exports carry what was recorded: the Chrome trace has
    // thread-name metadata plus complete events, and the prometheus
    // text exposes the phase counter family.
    let chrome = tracer.to_chrome_trace();
    assert!(chrome.contains("\"ph\": \"M\"") && chrome.contains("\"ph\": \"X\""));
    assert!(registry
        .render_prometheus()
        .contains("session_phase_effort_units_total"));
}

#[test]
fn concurrent_session_spans_and_counters_reconcile_with_the_ledger() {
    let td0 = implement_paper_design(PaperDesign::NineSym, TilingOptions::fast(201)).unwrap();
    let golden = td0.netlist.clone();
    let mut td = td0.clone();
    let errors = sim::inject::random_distinct_errors(&mut td.netlist, &[31, 32]).unwrap();

    let tracer = Tracer::new();
    let registry = MetricsRegistry::new();
    let track = tracer.track("concurrent session");
    let out = DebugSession::new(&mut td, &golden)
        .seed(7)
        .flow(TiledFlow)
        .trace(&tracer, track)
        .metrics(&registry)
        .run_concurrent(&errors)
        .unwrap();
    assert!(out.iterations.iter().any(|row| row.mismatch.is_some()));
    assert_reconciled(&tracer, &registry, &out.ledger);
}

#[test]
fn fleet_deterministic_metrics_are_byte_identical_across_worker_counts() {
    let requests: Vec<debugd::CampaignRequest> = (0..4)
        .map(|i| debugd::CampaignRequest {
            id: format!("m{i:02}"),
            error_seeds: vec![31 + 5 * i as u64],
            ..Default::default()
        })
        .collect();
    // Separate stores: artifact build/hit counters are part of the
    // deterministic section, so both sides must pay the same builds.
    let serial_store = debugd::ArtifactStore::new();
    let serial_registry = MetricsRegistry::new();
    debugd::run_batch_observed(&serial_store, &requests, 1, &serial_registry, None);
    // The pooled batch shares the process with a different batch on a
    // second thread: both start together, and the other batch repeats
    // until the pooled one is done. None of its work may show up in
    // the pooled batch's counters.
    let other = vec![debugd::CampaignRequest {
        id: "other".into(),
        error_seeds: vec![97],
        ..Default::default()
    }];
    let pooled_store = debugd::ArtifactStore::new();
    let pooled_registry = MetricsRegistry::new();
    let start = Barrier::new(2);
    let pooled_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let store = debugd::ArtifactStore::new();
            let registry = MetricsRegistry::new();
            start.wait();
            loop {
                debugd::run_batch_observed(&store, &other, 1, &registry, None);
                if pooled_done.load(Ordering::Relaxed) {
                    break;
                }
            }
        });
        start.wait();
        debugd::run_batch_observed(&pooled_store, &requests, 4, &pooled_registry, None);
        pooled_done.store(true, Ordering::Relaxed);
    });
    assert_eq!(
        serial_registry.render_deterministic(),
        pooled_registry.render_deterministic(),
        "deterministic metrics section must not depend on worker count"
    );
}
