//! Session-level integration: the four physical flows driven through
//! one `ReimplFlow` trait, binary-search localization beating linear
//! batching on a real implemented design, and the `DebugEvent`
//! stream's ordering invariants (detect ≺ localize ≺ confirm ≺
//! correct, per error) with a ledger that reconciles exactly.

use fpga_debug_tiling::prelude::*;
use fpga_debug_tiling::{implement_paper_design, sim, tiling};
use netlist::TruthTable;

/// A `len`-LUT inverter chain with one PI and one PO — the cleanest
/// possible deep suspect cone.
fn chain_design(len: usize) -> netlist::Netlist {
    let mut nl = netlist::Netlist::new("chain");
    let pi = nl.add_input("a").unwrap();
    let mut net = nl.cell_output(pi).unwrap();
    for k in 0..len {
        let c = nl
            .add_lut(format!("inv{k}"), TruthTable::not(), &[net])
            .unwrap();
        net = nl.cell_output(c).unwrap();
    }
    nl.add_output("y", net).unwrap();
    nl
}

/// The session-level sibling of `tiling_beats_the_baselines_on_a_small_change`:
/// the *same* planted error is debugged end-to-end (detect → localize
/// → confirm → correct) through all four flows behind
/// `&mut dyn ReimplFlow`, and the tiled flow spends the least effort.
#[test]
fn session_tiled_flow_beats_rival_flows_on_a_debug_iteration() {
    let td0 = implement_paper_design(PaperDesign::NineSym, TilingOptions::fast(201)).unwrap();
    let golden = td0.netlist.clone();

    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for flow in tiling::standard_flows() {
        let mut td = td0.clone();
        // Deterministic: the same error in every trial.
        let victim = bench_harness_victim(&td);
        let error = sim::inject::inject(
            &mut td.netlist,
            victim,
            sim::inject::DesignErrorKind::Complement,
        )
        .unwrap();
        let out = DebugSession::new(&mut td, &golden)
            .seed(9)
            .flow(flow)
            .run(&error)
            .unwrap();
        assert!(out.mismatch.is_some(), "{}: undetected", out.flow);
        assert!(out.repaired, "{}: not repaired", out.flow);
        assert!(td.routing.is_feasible(), "{}: infeasible", out.flow);
        totals.push((out.flow, out.effort.total()));
    }

    let total_of = |name: &str| {
        totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, t)| t)
            .unwrap()
    };
    let tiled = total_of("tiled");
    assert!(
        tiled < total_of("full"),
        "tiled {tiled} vs full {}",
        total_of("full")
    );
    assert!(
        tiled < total_of("quick_eco"),
        "tiled {tiled} vs quick_eco {}",
        total_of("quick_eco")
    );
    assert!(
        tiled <= total_of("incremental"),
        "tiled {tiled} vs incremental {}",
        total_of("incremental")
    );
}

fn bench_harness_victim(td: &TiledDesign) -> netlist::CellId {
    let luts: Vec<netlist::CellId> = td
        .netlist
        .cells()
        .filter(|(_, c)| c.lut_function().is_some())
        .map(|(id, _)| id)
        .collect();
    luts[luts.len() / 2]
}

/// An error the stimulus never exposes leaves no latent bug behind:
/// `run` reports it undetected and repaired, and the DUT's LUT is
/// back to the golden function. One LFSR vector drives each LUT
/// through one row of its truth table, so flipping any other row is
/// invisible to it.
#[test]
fn undetected_error_is_reverted_by_run() {
    const SEED: u64 = 3;
    let patterns = PatternSpec::Lfsr { count: 1 };
    let mut td = implement_paper_design(PaperDesign::NineSym, TilingOptions::fast(202)).unwrap();
    let golden = td.netlist.clone();
    let victim = bench_harness_victim(&td);
    let arity = golden.cell(victim).unwrap().lut_function().unwrap().arity();
    let row = (0..1u64 << arity)
        .find(|&row| {
            let mut dut = golden.clone();
            sim::inject::inject(
                &mut dut,
                victim,
                sim::inject::DesignErrorKind::FlipRow { row },
            )
            .unwrap();
            sim::emulate::first_mismatch(&golden, &dut, patterns.generate(&golden, SEED))
                .unwrap()
                .is_none()
        })
        .expect("one vector exercises one row of a LUT");
    let error = sim::inject::inject(
        &mut td.netlist,
        victim,
        sim::inject::DesignErrorKind::FlipRow { row },
    )
    .unwrap();
    let out = DebugSession::new(&mut td, &golden)
        .patterns(patterns)
        .seed(SEED)
        .run(&error)
        .unwrap();
    assert!(out.mismatch.is_none(), "the vector must miss row {row}");
    assert!(out.repaired);
    assert_eq!(
        td.netlist.cell(victim).unwrap().lut_function(),
        golden.cell(victim).unwrap().lut_function(),
        "the undetected error is still in the DUT"
    );
}

/// The acceptance experiment for the `BinarySearch` strategy: on a
/// design whose suspect cone spans many tap batches, bisection
/// localizes the *identical* cell while inserting strictly fewer taps
/// and performing strictly fewer ECOs than linear batching.
#[test]
fn binary_search_beats_linear_batches_on_a_deep_cone() {
    let td0 = tiling::implement(chain_design(96), TilingOptions::fast(202)).unwrap();
    let golden = td0.netlist.clone();
    // Error deep in the chain: linear batching must walk ~11 batches.
    let victim = golden.find_cell("inv85").unwrap();

    let run = |strategy: Box<dyn LocalizationStrategy>| {
        let mut td = td0.clone();
        let error = sim::inject::inject(
            &mut td.netlist,
            victim,
            sim::inject::DesignErrorKind::Complement,
        )
        .unwrap();
        let out = DebugSession::new(&mut td, &golden)
            .seed(3)
            .strategy(strategy)
            .run(&error)
            .unwrap();
        assert!(out.repaired, "{}: not repaired", out.strategy);
        assert!(td.routing.is_feasible());
        out
    };

    let linear = run(Box::<LinearBatches>::default());
    let binary = run(Box::new(BinarySearch::new()));

    assert_eq!(linear.localized, Some(victim), "linear missed the bug");
    assert_eq!(
        binary.localized, linear.localized,
        "strategies disagree on the error site"
    );
    assert!(
        linear.taps_inserted > LinearBatches::DEFAULT_BATCH,
        "test needs a cone spanning >= 2 tap batches, got {} taps",
        linear.taps_inserted
    );
    assert!(
        binary.taps_inserted < linear.taps_inserted,
        "binary {} taps !< linear {} taps",
        binary.taps_inserted,
        linear.taps_inserted
    );
    assert!(
        binary.ecos < linear.ecos,
        "binary {} ECOs !< linear {} ECOs",
        binary.ecos,
        linear.ecos
    );
}

/// Indices of the events matching `pred`, in emission order.
fn indices_of(events: &[DebugEvent], pred: impl Fn(&DebugEvent) -> bool) -> Vec<usize> {
    events
        .iter()
        .enumerate()
        .filter(|(_, e)| pred(e))
        .map(|(i, _)| i)
        .collect()
}

/// The single-error protocol must narrate its phases in order —
/// detect ≺ suspects ≺ tap/observe pairs ≺ localized ≺ confirmed ≺
/// corrected — and the per-phase `EffortLedger` must reconcile
/// exactly with the outcome's flat counters.
#[test]
fn event_stream_respects_phase_order_and_ledger_reconciles() {
    let mut td = tiling::implement(chain_design(24), TilingOptions::fast(204)).unwrap();
    let golden = td.netlist.clone();
    let victim = golden.find_cell("inv15").unwrap();
    let error = sim::inject::inject(
        &mut td.netlist,
        victim,
        sim::inject::DesignErrorKind::Complement,
    )
    .unwrap();
    let mut events: Vec<DebugEvent> = Vec::new();
    let out = DebugSession::new(&mut td, &golden)
        .seed(6)
        .on_event(|e| events.push(e.clone()))
        .run(&error)
        .unwrap();
    assert!(out.repaired);

    let detected = indices_of(&events, |e| matches!(e, DebugEvent::Detected { .. }));
    let suspects = indices_of(&events, |e| {
        matches!(e, DebugEvent::SuspectsComputed { .. })
    });
    let taps = indices_of(&events, |e| matches!(e, DebugEvent::TapEco { .. }));
    let observed = indices_of(&events, |e| matches!(e, DebugEvent::Observed { .. }));
    let localized = indices_of(&events, |e| matches!(e, DebugEvent::Localized { .. }));
    let confirmed = indices_of(&events, |e| matches!(e, DebugEvent::Confirmed { .. }));
    let corrected = indices_of(&events, |e| matches!(e, DebugEvent::Corrected { .. }));
    assert_eq!(detected.len(), 1);
    assert_eq!(suspects.len(), 1);
    assert_eq!(localized.len(), 1);
    assert_eq!(confirmed.len(), 1);
    assert_eq!(corrected.len(), 1);
    assert!(!taps.is_empty(), "localization must tap at least once");
    assert!(detected[0] < suspects[0], "detection precedes the cone");
    assert!(suspects[0] < taps[0], "the cone precedes localization");
    assert_eq!(taps.len(), observed.len(), "every tap ECO gets observed");
    for (t, o) in taps.iter().zip(&observed) {
        assert!(t < o, "tap ECO {t} must precede its observation {o}");
    }
    assert!(*observed.last().unwrap() < localized[0]);
    assert!(localized[0] < confirmed[0], "localize precedes confirm");
    assert!(confirmed[0] < corrected[0], "confirm precedes correct");
    assert_eq!(corrected[0], events.len() - 1, "correction concludes");

    // Ledger reconciliation: phases sum to the flat totals, and
    // detection (pure emulation) charges no physical effort.
    let phase_effort: u64 = Phase::ALL
        .iter()
        .map(|&p| out.ledger.phase(p).effort.total())
        .sum();
    assert_eq!(phase_effort, out.effort.total());
    let phase_ecos: usize = Phase::ALL.iter().map(|&p| out.ledger.phase(p).ecos).sum();
    assert_eq!(phase_ecos, out.ecos);
    assert_eq!(out.ledger.phase(Phase::Detect).effort, CadEffort::default());
    assert_eq!(taps.len(), out.ledger.phase(Phase::Localize).ecos);
}

/// The concurrent protocol keeps the same order per error: all
/// detections (one per cluster), then the cone split, then the shared
/// tap rounds, then one localization + confirmation per cluster, and
/// a single correction last; the per-cluster ledgers apportion every
/// phase of the global ledger exactly.
#[test]
fn concurrent_event_stream_orders_clusters_and_apportions_ledger() {
    // An 8-LUT backbone fanning into two 4-LUT branches.
    let mut nl = netlist::Netlist::new("bb");
    let pi = nl.add_input("a").unwrap();
    let mut net = nl.cell_output(pi).unwrap();
    for k in 0..8 {
        let c = nl
            .add_lut(format!("bb{k}"), TruthTable::not(), &[net])
            .unwrap();
        net = nl.cell_output(c).unwrap();
    }
    let mut victims = Vec::new();
    for b in 0..2 {
        let mut bnet = net;
        for k in 0..4 {
            let c = nl
                .add_lut(format!("br{b}_{k}"), TruthTable::not(), &[bnet])
                .unwrap();
            bnet = nl.cell_output(c).unwrap();
            if k == 1 {
                victims.push(c);
            }
        }
        nl.add_output(format!("y{b}"), bnet).unwrap();
    }
    let mut td = tiling::implement(nl, TilingOptions::fast(205)).unwrap();
    let golden = td.netlist.clone();
    let errors: Vec<_> = victims
        .iter()
        .map(|&v| {
            sim::inject::inject(&mut td.netlist, v, sim::inject::DesignErrorKind::Complement)
                .unwrap()
        })
        .collect();
    let mut events: Vec<DebugEvent> = Vec::new();
    let out = DebugSession::new(&mut td, &golden)
        .seed(8)
        .on_event(|e| events.push(e.clone()))
        .run_concurrent(&errors)
        .unwrap();
    assert_eq!(out.iterations.len(), 2);
    assert!(out.iterations.iter().all(|row| row.repaired));
    assert!(matches!(
        events.last(),
        Some(DebugEvent::Corrected { repaired: true })
    ));

    let detected = indices_of(&events, |e| matches!(e, DebugEvent::Detected { .. }));
    let split = indices_of(&events, |e| matches!(e, DebugEvent::ConeSplit { .. }));
    let taps = indices_of(&events, |e| matches!(e, DebugEvent::TapEco { .. }));
    let localized = indices_of(&events, |e| matches!(e, DebugEvent::Localized { .. }));
    let confirmed = indices_of(&events, |e| matches!(e, DebugEvent::Confirmed { .. }));
    let corrected = indices_of(&events, |e| matches!(e, DebugEvent::Corrected { .. }));
    assert_eq!(detected.len(), 2, "one detection per cluster");
    assert_eq!(split.len(), 1, "one cone split for the campaign");
    assert!(matches!(
        events[split[0]],
        DebugEvent::ConeSplit { clusters: 2, .. }
    ));
    assert_eq!(localized.len(), 2, "one localization per cluster");
    assert_eq!(confirmed.len(), 2, "one confirmation per cluster");
    assert_eq!(corrected.len(), 1, "one shared corrective ECO");
    assert!(detected.iter().all(|&d| d < split[0]));
    assert!(taps.iter().all(|&t| split[0] < t && t < localized[0]));
    assert!(localized.iter().all(|&l| l < confirmed[0]));
    assert!(confirmed.iter().all(|&c| c < corrected[0]));
    assert_eq!(corrected[0], events.len() - 1);

    // Per-phase apportioning: for every phase, the rows' ledgers sum
    // exactly to the campaign ledger (no effort lost or minted).
    for p in Phase::ALL {
        let split_effort: u64 = out
            .iterations
            .iter()
            .map(|row| row.ledger.phase(p).effort.total())
            .sum();
        assert_eq!(split_effort, out.ledger.phase(p).effort.total(), "{p}");
    }
    // The campaign ledger counts each physical ECO once: every tap
    // batch, every confirmation and the one correction.
    assert_eq!(
        out.ledger.total_ecos(),
        taps.len() + confirmed.len() + corrected.len()
    );
}
