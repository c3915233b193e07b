//! Acceptance test for simultaneous multi-error diagnosis
//! (`tiling::diagnosis`): three errors with overlapping suspect cones
//! on a 64-LUT design, localized concurrently through the tiled flow
//! for fewer total taps and ECOs than three sequential single-error
//! campaigns — under both localization strategies.

use fpga_debug_tiling::prelude::*;
use fpga_debug_tiling::{sim, tiling};
use netlist::TruthTable;

const BACKBONE: usize = 40;
const BRANCHES: usize = 3;
const BRANCH_LEN: usize = 8;
const ERR_DEPTH: usize = 5;

/// A 40-LUT backbone chain fanning out into three 8-LUT branch
/// chains (64 LUTs total), each branch ending in its own primary
/// output. Every branch's suspect cone contains the whole backbone,
/// so the three cones overlap in a 40-cell shared core.
fn overlapping_cone_design() -> (netlist::Netlist, Vec<netlist::CellId>) {
    let mut nl = netlist::Netlist::new("triplet");
    let pi = nl.add_input("a").unwrap();
    let mut net = nl.cell_output(pi).unwrap();
    for k in 0..BACKBONE {
        let c = nl
            .add_lut(format!("bb{k}"), TruthTable::not(), &[net])
            .unwrap();
        net = nl.cell_output(c).unwrap();
    }
    let mut victims = Vec::new();
    for b in 0..BRANCHES {
        let mut bnet = net;
        for k in 0..BRANCH_LEN {
            let c = nl
                .add_lut(format!("br{b}_{k}"), TruthTable::not(), &[bnet])
                .unwrap();
            bnet = nl.cell_output(c).unwrap();
            if k == ERR_DEPTH {
                victims.push(c);
            }
        }
        nl.add_output(format!("y{b}"), bnet).unwrap();
    }
    (nl, victims)
}

fn plant(td: &mut TiledDesign, cell: netlist::CellId) -> sim::inject::InjectedError {
    sim::inject::inject(
        &mut td.netlist,
        cell,
        sim::inject::DesignErrorKind::Complement,
    )
    .unwrap()
}

/// What a concurrent campaign's event stream says about its failure
/// clusters (the rows report per planted error).
#[derive(Default)]
struct Clusters {
    /// `ConeSplit`: how many clusters the failing outputs formed.
    count: usize,
    /// `ConeSplit`: suspects implicated by two or more clusters.
    shared: usize,
    /// `Detected`: each cluster's observation window, in cluster order.
    windows: Vec<usize>,
    /// `TapEco`: observation taps physically inserted.
    taps: usize,
    /// `Corrected`: the whole DUT matches golden after correction.
    repaired: bool,
}

impl Clusters {
    fn of(events: &[DebugEvent]) -> Self {
        let mut c = Clusters::default();
        for e in events {
            match e {
                DebugEvent::ConeSplit {
                    clusters, shared, ..
                } => (c.count, c.shared) = (*clusters, *shared),
                DebugEvent::Detected { pattern_index, .. } => c.windows.push(*pattern_index),
                DebugEvent::TapEco { cells, .. } => c.taps += cells.len(),
                DebugEvent::Corrected { repaired } => c.repaired = *repaired,
                _ => {}
            }
        }
        c
    }
}

/// Asserts that row `i` of a concurrent campaign was matched to a
/// cluster that localized exactly `victims[i]` and repaired it.
fn assert_rows_localize(rows: &[DebugOutcome], victims: &[netlist::CellId], what: &str) {
    assert_eq!(rows.len(), victims.len(), "{what}: one row per error");
    for (i, (row, &victim)) in rows.iter().zip(victims).enumerate() {
        assert!(row.mismatch.is_some(), "{what}: error {i} unmatched");
        assert_eq!(
            row.localized,
            Some(victim),
            "{what}: error {i} must localize to its exact cell"
        );
        assert!(row.repaired, "{what}: error {i} outputs still diverge");
    }
}

/// Runs the experiment for one strategy: concurrent diagnosis of all
/// three errors versus three sequential single-error campaigns, both
/// through `TiledFlow`. Asserts correctness of every localization and
/// returns ((concurrent taps, ECOs), (sequential taps, ECOs)).
fn compare(
    td0: &TiledDesign,
    golden: &netlist::Netlist,
    victims: &[netlist::CellId],
    fresh: &dyn Fn() -> Box<dyn LocalizationStrategy>,
) -> ((usize, usize), (usize, usize)) {
    // Concurrent: all three errors live at once.
    let mut td = td0.clone();
    let errors: Vec<_> = victims.iter().map(|&v| plant(&mut td, v)).collect();
    let mut events = Vec::new();
    let conc = DebugSession::new(&mut td, golden)
        .strategy(fresh())
        .flow(TiledFlow)
        .seed(11)
        .on_event(|e| events.push(e.clone()))
        .run_concurrent(&errors)
        .unwrap();
    let clusters = Clusters::of(&events);
    assert!(clusters.repaired, "concurrent campaign left the DUT buggy");
    assert!(td.routing.is_feasible());
    assert_eq!(clusters.count, BRANCHES, "one cluster per output");
    assert_eq!(
        clusters.shared, BACKBONE,
        "backbone must be the shared core"
    );
    assert_rows_localize(&conc.iterations, victims, "concurrent");

    // Sequential baseline: three independent single-error campaigns.
    let (mut staps, mut secos) = (0usize, 0usize);
    for &victim in victims {
        let mut td = td0.clone();
        let error = plant(&mut td, victim);
        let out = DebugSession::new(&mut td, golden)
            .strategy(fresh())
            .flow(TiledFlow)
            .seed(11)
            .run(&error)
            .unwrap();
        assert!(out.repaired);
        assert_eq!(out.localized, Some(victim), "sequential missed the bug");
        staps += out.taps_inserted;
        secos += out.ecos;
    }
    ((clusters.taps, conc.ledger.total_ecos()), (staps, secos))
}

// ---------------------------------------------------------------------
// Deep sequential design: the rows where whole-sweep pruning used to
// lose to serial (see ROADMAP's windowed-pruning item, now closed).
// ---------------------------------------------------------------------

const TRUNK: usize = 16;
const SEQ_BRANCHES: usize = 4;
const TRUNK_ERR: usize = 8;

/// A deep sequential pipeline: a 16-stage trunk (NOT-LUT + FF per
/// stage) fanning out into four branches of four LUTs with two
/// interior FFs each, every branch ending in its own primary output.
///
/// Three errors with *staggered failure onsets*:
/// * `e0` in branch 0 between its FFs' fanin (first fails at pattern 2),
/// * `e1` in branch 1 past its FFs (first fails at pattern 0),
/// * `eT` mid-trunk (reaches all four outputs simultaneously at
///   pattern 10 — equal FF counts per branch keep the serial
///   passing-split sound for the trunk campaign).
///
/// Outputs y2/y3 fail only through `eT`, on the same pattern, with
/// the trunk state registers dominating both — the FSM fan-out shape
/// the cluster merge folds back together. Every output eventually
/// fails, so whole-sweep clean-cone subtraction prunes *nothing*
/// here; only the per-cluster windows recover the serial path's
/// sharpness.
///
/// Returns (netlist, victims = [e0, e1, eT]).
fn deep_sequential_design() -> (netlist::Netlist, Vec<netlist::CellId>) {
    let mut nl = netlist::Netlist::new("pipeline");
    let pi = nl.add_input("a").unwrap();
    let mut net = nl.cell_output(pi).unwrap();
    let mut victims = vec![netlist::CellId::new(0); 3];
    for k in 0..TRUNK {
        let c = nl
            .add_lut(format!("tr{k}"), TruthTable::not(), &[net])
            .unwrap();
        net = nl.cell_output(c).unwrap();
        if k == TRUNK_ERR {
            victims[2] = c;
        }
        let ff = nl.add_ff(format!("trff{k}"), false, net).unwrap();
        net = nl.cell_output(ff).unwrap();
    }
    for b in 0..SEQ_BRANCHES {
        let mut bnet = net;
        for k in 0..2 {
            let c = nl
                .add_lut(format!("sb{b}_{k}"), TruthTable::not(), &[bnet])
                .unwrap();
            bnet = nl.cell_output(c).unwrap();
            if b == 0 && k == 1 {
                victims[0] = c;
            }
        }
        for k in 0..2 {
            let ff = nl.add_ff(format!("sbff{b}_{k}"), false, bnet).unwrap();
            bnet = nl.cell_output(ff).unwrap();
        }
        for k in 2..4 {
            let c = nl
                .add_lut(format!("sb{b}_{k}"), TruthTable::not(), &[bnet])
                .unwrap();
            bnet = nl.cell_output(c).unwrap();
            if b == 1 && k == 2 {
                victims[1] = c;
            }
        }
        nl.add_output(format!("y{b}"), bnet).unwrap();
    }
    (nl, victims)
}

/// The deep-sequential analog of [`compare`]: concurrent diagnosis of
/// the three staggered errors versus three sequential campaigns.
fn compare_sequential(
    td0: &TiledDesign,
    golden: &netlist::Netlist,
    victims: &[netlist::CellId],
    fresh: &dyn Fn() -> Box<dyn LocalizationStrategy>,
) -> ((usize, usize), (usize, usize)) {
    let patterns = PatternSpec::Random { count: 48 };
    let mut td = td0.clone();
    let errors: Vec<_> = victims.iter().map(|&v| plant(&mut td, v)).collect();
    let mut events = Vec::new();
    let conc = DebugSession::new(&mut td, golden)
        .strategy(fresh())
        .flow(TiledFlow)
        .patterns(patterns)
        .seed(23)
        .on_event(|e| events.push(e.clone()))
        .run_concurrent(&errors)
        .unwrap();
    let clusters = Clusters::of(&events);
    assert!(clusters.repaired, "concurrent campaign left the DUT buggy");
    assert!(td.routing.is_feasible());
    // y2/y3 fail only through the trunk error, on the same pattern,
    // behind the same state registers: merged into one cluster.
    assert_eq!(
        clusters.count,
        SEQ_BRANCHES - 1,
        "FSM fan-out clusters must merge"
    );
    assert_rows_localize(&conc.iterations, victims, "concurrent");
    // The merged trunk cluster's window is the trunk error's arrival
    // (8 trunk FFs + 2 branch FFs); the branch clusters fail earlier.
    let windows = &clusters.windows;
    assert!(windows.contains(&10), "trunk cluster window: {windows:?}");

    let (mut staps, mut secos) = (0usize, 0usize);
    for &victim in victims {
        let mut td = td0.clone();
        let error = plant(&mut td, victim);
        let out = DebugSession::new(&mut td, golden)
            .strategy(fresh())
            .flow(TiledFlow)
            .patterns(patterns)
            .seed(23)
            .run(&error)
            .unwrap();
        assert!(out.repaired);
        assert_eq!(out.localized, Some(victim), "sequential missed the bug");
        staps += out.taps_inserted;
        secos += out.ecos;
    }
    ((clusters.taps, conc.ledger.total_ecos()), (staps, secos))
}

#[test]
fn deep_sequential_errors_cost_less_concurrently_than_sequentially() {
    let (nl, victims) = deep_sequential_design();
    assert!(nl.is_sequential(), "design must be sequential");
    let td0 = tiling::implement(nl, TilingOptions::fast(404)).unwrap();
    let golden = td0.netlist.clone();

    type StrategyFactory = Box<dyn Fn() -> Box<dyn LocalizationStrategy>>;
    let strategies: [(&str, StrategyFactory); 2] = [
        ("linear", Box::new(|| Box::new(LinearBatches::default()))),
        ("binary_search", Box::new(|| Box::new(BinarySearch::new()))),
    ];
    for (name, fresh) in &strategies {
        let ((ctaps, cecos), (staps, secos)) = compare_sequential(&td0, &golden, &victims, fresh);
        // Serial localization runs through the same evidence layer
        // (free PO-onset seeding, causal alibi pruning), so per-error
        // tap costs equalize on disjoint error sites — and with the
        // shared-core screening batch piggybacked onto the first
        // strategy round's ECO, the concurrent path no longer pays an
        // extra tap round for it: concurrent taps are no worse than
        // sequential outright, and still win on physical ECOs (shared
        // batches amortize, the sequential baseline re-implements per
        // campaign).
        assert!(
            ctaps <= staps,
            "{name}: concurrent {ctaps} taps !<= sequential {staps}"
        );
        assert!(
            cecos < secos,
            "{name}: concurrent {cecos} ECOs !< sequential {secos}"
        );
    }
}

/// Nested-cone pipeline: an 18-stage trunk (NOT-LUT + FF per stage)
/// with outputs tapped after stages 5, 11 and 17, each through two
/// branch LUTs and a compensating FF chain (13/7/1 FFs) so that the
/// latency from any trunk stage to *every* output downstream of it is
/// identical (19 − stage). Three trunk errors at stages 2, 8 and 14
/// then surface at patterns 17, 11 and 5 respectively.
///
/// This is the shape that demands *causal* windows: within the
/// stage-8 cluster's `[0, 11]` window, the stage-2 error's wavefront
/// has already crossed trunk stages 6..=9 — suspects of the stage-8
/// cluster — so a flat window would blame the first wavefront cell it
/// meets instead of the real site, which a divergence-onset check
/// against each suspect's FF distance rejects.
fn nested_pipeline_design() -> (netlist::Netlist, Vec<netlist::CellId>) {
    let mut nl = netlist::Netlist::new("nested");
    let pi = nl.add_input("a").unwrap();
    let mut net = nl.cell_output(pi).unwrap();
    let mut victims = Vec::new();
    let mut taps = Vec::new();
    for k in 0..18 {
        let c = nl
            .add_lut(format!("tr{k}"), TruthTable::not(), &[net])
            .unwrap();
        net = nl.cell_output(c).unwrap();
        if [2, 8, 14].contains(&k) {
            victims.push(c);
        }
        let ff = nl.add_ff(format!("trff{k}"), false, net).unwrap();
        net = nl.cell_output(ff).unwrap();
        if [5, 11, 17].contains(&k) {
            taps.push(net);
        }
    }
    for (i, &tnet) in taps.iter().enumerate() {
        let mut bnet = tnet;
        for k in 0..2 {
            let c = nl
                .add_lut(format!("nb{i}_{k}"), TruthTable::not(), &[bnet])
                .unwrap();
            bnet = nl.cell_output(c).unwrap();
        }
        for k in 0..(13 - 6 * i) {
            let ff = nl.add_ff(format!("nbff{i}_{k}"), false, bnet).unwrap();
            bnet = nl.cell_output(ff).unwrap();
        }
        nl.add_output(format!("y{i}"), bnet).unwrap();
    }
    (nl, victims)
}

#[test]
fn staggered_trunk_errors_localize_exactly_under_causal_windows() {
    let (nl, victims) = nested_pipeline_design();
    let td0 = tiling::implement(nl, TilingOptions::fast(505)).unwrap();
    let golden = td0.netlist.clone();
    type StrategyFactory = Box<dyn Fn() -> Box<dyn LocalizationStrategy>>;
    let strategies: [(&str, StrategyFactory); 2] = [
        ("linear", Box::new(|| Box::new(LinearBatches::default()))),
        ("binary_search", Box::new(|| Box::new(BinarySearch::new()))),
    ];
    for (name, fresh) in &strategies {
        let mut td = td0.clone();
        let errors: Vec<_> = victims.iter().map(|&v| plant(&mut td, v)).collect();
        let mut events = Vec::new();
        let conc = DebugSession::new(&mut td, &golden)
            .strategy(fresh())
            .flow(TiledFlow)
            .patterns(PatternSpec::Random { count: 48 })
            .seed(31)
            .on_event(|e| events.push(e.clone()))
            .run_concurrent(&errors)
            .unwrap();
        let clusters = Clusters::of(&events);
        assert!(clusters.repaired, "{name}: campaign left the DUT buggy");
        assert_eq!(clusters.count, 3, "{name}: one cluster per output");
        // Staggered onsets: the deepest tap sees the downstream error
        // first, the shallowest only the upstream one, much later.
        let mut windows = clusters.windows;
        windows.sort_unstable();
        assert_eq!(windows, vec![5, 11, 17], "{name}: staggered windows");
        assert_rows_localize(&conc.iterations, &victims, name);
    }
}

/// A shared sequential trunk (LUT → FF) fanning into two 2-LUT
/// branches, each with its own output. Two *independent* errors in
/// the branches fail both outputs on the same pattern — at clustering
/// time indistinguishable from one FSM error behind the trunk
/// register. Returns (netlist, trunk LUT, branch victims).
fn shared_trunk_design() -> (netlist::Netlist, netlist::CellId, Vec<netlist::CellId>) {
    let mut nl = netlist::Netlist::new("trunk");
    let pi = nl.add_input("a").unwrap();
    let t0 = nl
        .add_lut("t0", TruthTable::not(), &[nl.cell_output(pi).unwrap()])
        .unwrap();
    let ff = nl
        .add_ff("state", false, nl.cell_output(t0).unwrap())
        .unwrap();
    let q = nl.cell_output(ff).unwrap();
    let mut victims = Vec::new();
    for b in 0..2 {
        let b0 = nl
            .add_lut(format!("b{b}_0"), TruthTable::not(), &[q])
            .unwrap();
        victims.push(b0);
        let b1 = nl
            .add_lut(
                format!("b{b}_1"),
                TruthTable::not(),
                &[nl.cell_output(b0).unwrap()],
            )
            .unwrap();
        nl.add_output(format!("y{b}"), nl.cell_output(b1).unwrap())
            .unwrap();
    }
    (nl, t0, victims)
}

/// The deferred FSM-cluster merge (PR 4's documented limitation,
/// closed): two independent same-onset errors behind a shared
/// sequential trunk used to merge into one cluster whose cone
/// intersection shed both sites — localization came back `None` and
/// only the corrective ECO repaired. The merge decision now waits for
/// screening evidence: the tap on the dominating state register comes
/// back clean (the trunk never carried any corruption), the clusters
/// stay apart, and *both* sites localize exactly.
#[test]
fn independent_same_onset_errors_behind_a_shared_trunk_stay_apart() {
    let (nl, _, victims) = shared_trunk_design();
    let td0 = tiling::implement(nl, TilingOptions::fast(606)).unwrap();
    let golden = td0.netlist.clone();
    let mut td = td0.clone();
    let errors: Vec<_> = victims.iter().map(|&v| plant(&mut td, v)).collect();
    let mut events = Vec::new();
    let conc = DebugSession::new(&mut td, &golden)
        .patterns(PatternSpec::Random { count: 32 })
        .seed(17)
        .on_event(|e| events.push(e.clone()))
        .run_concurrent(&errors)
        .unwrap();
    let clusters = Clusters::of(&events);
    assert!(clusters.repaired);
    // Same onset, shared dominating register — but the register is
    // clean, so the deferred merge keeps one cluster per output.
    assert_eq!(clusters.count, 2, "clean trunk forbids the merge");
    let windows = &clusters.windows;
    assert_eq!(windows[0], windows[1], "the trap: identical onsets");
    assert_rows_localize(&conc.iterations, &victims, "both independent sites");
    for row in &conc.iterations {
        assert!(row.confirmed_by_control);
    }
}

/// The converse guard: one genuine FSM error *upstream* of the same
/// trunk register still merges — the screening tap sees the register
/// diverge, proving the corruption flowed through the trunk — and the
/// single merged cluster localizes the trunk cell once.
#[test]
fn genuine_fsm_error_behind_the_trunk_still_merges() {
    let (nl, t0, _) = shared_trunk_design();
    let td0 = tiling::implement(nl, TilingOptions::fast(607)).unwrap();
    let golden = td0.netlist.clone();
    let mut td = td0.clone();
    let error = plant(&mut td, t0);
    let mut events = Vec::new();
    let conc = DebugSession::new(&mut td, &golden)
        .patterns(PatternSpec::Random { count: 32 })
        .seed(17)
        .on_event(|e| events.push(e.clone()))
        .run_concurrent(&[error])
        .unwrap();
    let clusters = Clusters::of(&events);
    assert!(clusters.repaired);
    assert_eq!(
        clusters.count, 1,
        "a diverging register folds the fan-out clusters"
    );
    assert_rows_localize(&conc.iterations, &[t0], "the trunk error");
}

#[test]
fn three_overlapping_errors_cost_less_concurrently_than_sequentially() {
    let (nl, victims) = overlapping_cone_design();
    assert!(nl.num_luts() >= 64, "design must be at least 64 LUTs");
    let td0 = tiling::implement(nl, TilingOptions::fast(303)).unwrap();
    let golden = td0.netlist.clone();

    type StrategyFactory = Box<dyn Fn() -> Box<dyn LocalizationStrategy>>;
    let strategies: [(&str, StrategyFactory); 2] = [
        ("linear", Box::new(|| Box::new(LinearBatches::default()))),
        ("binary_search", Box::new(|| Box::new(BinarySearch::new()))),
    ];
    for (name, fresh) in &strategies {
        let ((ctaps, cecos), (staps, secos)) = compare(&td0, &golden, &victims, fresh);
        // See the deep-sequential test for the tap-accounting note:
        // the shared evidence layer equalizes per-error taps on
        // disjoint sites, so the concurrent claim is "at most the
        // one screening tap more, strictly fewer physical ECOs".
        assert!(
            ctaps <= staps + 1,
            "{name}: concurrent {ctaps} taps !<= sequential {staps} + screening"
        );
        assert!(
            cecos < secos,
            "{name}: concurrent {cecos} ECOs !< sequential {secos}"
        );
    }
}
