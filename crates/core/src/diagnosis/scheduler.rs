//! Batched tap planning across several concurrent localizations.
//!
//! The paper's loop localizes one error at a time: every observation
//! ECO serves exactly one suspect cone. With `k` live errors, that
//! wastes the tiled flow's cheap ECOs — one batch of inserted test
//! logic can serve *all* of them. [`MultiErrorScheduler`] runs one
//! [`LocalizationStrategy`] instance per error and, each round,
//! merges every strategy's tap requests into deduplicated physical
//! batches: overlapping cones request the same upstream cells, which
//! are tapped (and paid for) once, and a single re-implementation ECO
//! advances every live error's search.
//!
//! The scheduler is deliberately thin: all knowledge lives in the
//! shared [`EvidenceBase`] — the (net, window)-keyed verdict cache
//! that the serial path reads through too. The scheduler's own job is
//! pure orchestration:
//!
//! * **cache-first planning** — a round's merged request drops every
//!   cell whose verdict the evidence base already determines *at the
//!   requesting track's window*; rounds answered entirely from
//!   evidence execute with zero physical ECOs;
//! * **shared-core screening** — before any strategy walks the
//!   [`ConePartition`]'s shared core, the scheduler taps only the
//!   core's *frontier* (the cells whose fanout escapes the core: on
//!   the DAG, every path from a core error to any output runs through
//!   them) and records the windowed, latency-aware exonerations into
//!   the evidence base
//!   ([`EvidenceBase::exonerate_fanin`]).
//!
//! It also hosts [`merge_fsm_clusters`], which folds the several
//! failure clusters one FSM error fans out into back into a single
//! track — a decision that is *deferred* until the discriminating
//! screening evidence (did the dominating state register actually
//! diverge?) is recorded in the evidence base.

use std::collections::{HashMap, HashSet};

use netlist::{CellId, Netlist};

use crate::strategy::LocalizationStrategy;

use super::cone::SuspectCone;
use super::evidence::{causal_depths, EvidenceBase, ObservationWindow};
use super::partition::ConePartition;
use super::responses::FailureCluster;

/// One localization in flight.
struct Track {
    strategy: Box<dyn LocalizationStrategy>,
    cone: SuspectCone,
    /// The track's observation window
    /// ([`ObservationWindow::whole_sweep`] when the track has no
    /// failure-onset information).
    window: ObservationWindow,
    /// Cells requested this round, in the strategy's order. Cleared
    /// when the round's verdicts are fed back.
    requested: Vec<CellId>,
    taps_requested: usize,
    done: bool,
}

/// Shared-core screening progress.
enum Screening {
    /// Not yet planned (first `plan_round` will emit it, if any).
    Planned,
    /// The screening batch is out; the next `record_round` resolves it.
    Pending,
    /// Resolved (or there was nothing to screen).
    Done,
}

/// One round's physical tap plan.
#[derive(Debug, Clone, Default)]
pub struct RoundPlan {
    /// The deduplicated union of all live tracks' requests — minus
    /// every cell whose verdict is already in evidence — split into
    /// batches of at most `max_taps_per_eco` cells. Each batch is one
    /// observation-tap ECO.
    pub batches: Vec<Vec<CellId>>,
    /// Whether this round carries the shared-core screening batch:
    /// the frontier cells the scheduler taps (to rule the whole core
    /// in or out at frontier cost) ride the same ECO as the tracks'
    /// first non-core requests, so screening does not cost an extra
    /// tap round.
    pub screening: bool,
}

impl RoundPlan {
    /// Total taps the round will insert.
    pub fn taps(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }
}

/// Plans shared observation-tap batches for `k` concurrent error
/// localizations over one [`EvidenceBase`].
///
/// Protocol: [`add_error`](Self::add_error) once per suspected error,
/// then alternate [`plan_round`](Self::plan_round) (`None` = all
/// tracks finished) with the physical tap ECOs and
/// [`record_round`](Self::record_round);
/// [`localized`](Self::localized) yields the per-error answers. All
/// verdict seeding (detection onsets, assumptions) goes directly into
/// the evidence base.
pub struct MultiErrorScheduler {
    tracks: Vec<Track>,
    partition: ConePartition,
    max_taps_per_eco: usize,
    /// Shared-core frontier: each frontier cell paired with its
    /// in-core fanin cone (the cells it testifies for) and the min
    /// FF distance from each of those cells to the frontier (the
    /// latency a divergence needs to escape through it).
    screen: Vec<(CellId, SuspectCone, HashMap<CellId, usize>)>,
    screening: Screening,
}

impl MultiErrorScheduler {
    /// A scheduler that caps each physical ECO at `max_taps_per_eco`
    /// inserted taps (observation pads are scarce).
    ///
    /// # Panics
    ///
    /// Panics on a zero cap.
    pub fn new(max_taps_per_eco: usize) -> Self {
        assert!(max_taps_per_eco > 0, "tap cap must be positive");
        Self {
            tracks: Vec::new(),
            partition: ConePartition::default(),
            max_taps_per_eco,
            screen: Vec::new(),
            screening: Screening::Planned,
        }
    }

    /// Registers one suspected error: its sorted suspect list, its
    /// [`ObservationWindow`] and a fresh strategy to drive. Returns
    /// the track index. All errors must be registered before the
    /// first [`plan_round`](Self::plan_round).
    pub fn add_error(
        &mut self,
        golden: &Netlist,
        suspects: &[CellId],
        window: ObservationWindow,
        mut strategy: Box<dyn LocalizationStrategy>,
    ) -> usize {
        strategy.begin(golden, suspects);
        self.tracks.push(Track {
            strategy,
            cone: suspects.iter().copied().collect(),
            window,
            requested: Vec::new(),
            taps_requested: 0,
            done: false,
        });
        let partition = ConePartition::split(
            &self
                .tracks
                .iter()
                .map(|t| t.cone.clone())
                .collect::<Vec<_>>(),
        );
        // The frontier's fanin traversals are the expensive part of a
        // registration; redo them only when this cone actually changed
        // the shared core (never for the first cone, or disjoint ones).
        let shared_changed = partition.shared != self.partition.shared;
        self.partition = partition;
        if shared_changed {
            self.recompute_screen(golden);
        }
        self.tracks.len() - 1
    }

    /// Number of registered tracks.
    pub fn tracks(&self) -> usize {
        self.tracks.len()
    }

    /// The ownership partition of the registered suspect cones.
    pub fn partition(&self) -> &ConePartition {
        &self.partition
    }

    /// Cells track `k` asked to tap in the current round.
    pub fn requested(&self, k: usize) -> &[CellId] {
        &self.tracks[k].requested
    }

    /// Total taps track `k` has requested so far (before cross-track
    /// deduplication and evidence hits — the difference against the
    /// physical tap count is the sharing win).
    pub fn taps_requested(&self, k: usize) -> usize {
        self.tracks[k].taps_requested
    }

    /// Collects every live track's next tap request and merges them
    /// into deduplicated, capped batches of cells whose verdict the
    /// evidence base cannot answer *at the requesting track's
    /// window*. The very first round (when cones overlap) also
    /// carries the shared core's frontier screening, piggybacked onto
    /// the same ECO as the tracks' non-core requests — core requests
    /// are held back until the screening verdict lands, since a clean
    /// frontier answers them for free. Rounds whose requests the
    /// evidence already answers are fed back internally and cost
    /// nothing; `None` means every track has finished.
    pub fn plan_round(&mut self, evidence: &mut EvidenceBase) -> Option<RoundPlan> {
        if matches!(self.screening, Screening::Planned) {
            let cells: Vec<CellId> = self
                .screen
                .iter()
                .map(|&(c, _, _)| c)
                .filter(|&c| !evidence.exact(c))
                .collect();
            if cells.is_empty() {
                // Nothing to tap — resolve from whatever is known.
                self.screening = Screening::Done;
                evidence.exonerate_fanin(&self.screen);
            } else {
                // Piggyback the strategies' first requests onto the
                // screening ECO — minus every shared-core cell, whose
                // verdict a clean frontier answers for free (tapping
                // those now would waste the exoneration). Held-back
                // cells the screening cannot answer re-merge into the
                // next round; a track is only fed once its whole
                // request is answerable.
                let mut merged = cells;
                let mut seen: HashSet<CellId> = merged.iter().copied().collect();
                for t in &mut self.tracks {
                    if t.done {
                        continue;
                    }
                    if t.requested.is_empty() {
                        let req = t.strategy.next_taps();
                        if req.is_empty() {
                            t.done = true;
                            continue;
                        }
                        t.taps_requested += req.len();
                        t.requested = req;
                    }
                    for &c in &t.requested {
                        let answered = evidence.verdict(c, t.window.for_cell(c)).is_some();
                        if !answered && !self.partition.shared.contains(c) && seen.insert(c) {
                            merged.push(c);
                        }
                    }
                }
                self.screening = Screening::Pending;
                return Some(RoundPlan {
                    batches: self.chunk(merged),
                    screening: true,
                });
            }
        }
        loop {
            let mut merged: Vec<CellId> = Vec::new();
            let mut seen: HashSet<CellId> = HashSet::new();
            let mut any_request = false;
            for t in &mut self.tracks {
                if t.done {
                    continue;
                }
                if t.requested.is_empty() {
                    let req = t.strategy.next_taps();
                    if req.is_empty() {
                        t.done = true;
                        continue;
                    }
                    t.taps_requested += req.len();
                    t.requested = req;
                }
                any_request = true;
                for &c in &t.requested {
                    // A cell known for one window can still need a
                    // physical tap for another: only a verdict at
                    // *this* track's window counts as answered.
                    let answered = evidence.verdict(c, t.window.for_cell(c)).is_some();
                    if !answered && seen.insert(c) {
                        merged.push(c);
                    }
                }
            }
            if !any_request {
                return None;
            }
            if merged.is_empty() {
                // Every requested cell is already in evidence: answer
                // the whole round for free and ask the strategies
                // again.
                self.feed_requested(evidence);
                continue;
            }
            return Some(RoundPlan {
                batches: self.chunk(merged),
                screening: false,
            });
        }
    }

    /// Merges the round's fresh measurements — each tapped cell's
    /// exact divergence onset over the sweep (`None` = clean
    /// throughout) — into the evidence base, resolves a pending
    /// shared-core screening (recording the windowed exonerations),
    /// and feeds every requesting track its verdicts (each strategy
    /// reads its own requests from evidence *under its own window*).
    ///
    /// Divergence is credited per window: a track sees a tap as
    /// diverging only when the onset falls inside its observation
    /// window, so a late divergence caused by a slow error no longer
    /// misleads the cluster that failed early.
    pub fn record_round(
        &mut self,
        evidence: &mut EvidenceBase,
        fresh: &HashMap<CellId, Option<usize>>,
    ) {
        for (&c, &onset) in fresh {
            evidence.record(c, onset);
        }
        if matches!(self.screening, Screening::Pending) {
            self.screening = Screening::Done;
            evidence.exonerate_fanin(&self.screen);
        }
        // After screening this also feeds the piggybacked first-round
        // requests the screening ECO measured (or its exonerations
        // now answer).
        self.feed_requested(evidence);
    }

    /// Per-track localization results, in registration order.
    pub fn localized(&self) -> Vec<Option<CellId>> {
        self.tracks.iter().map(|t| t.strategy.localized()).collect()
    }

    fn chunk(&self, cells: Vec<CellId>) -> Vec<Vec<CellId>> {
        cells
            .chunks(self.max_taps_per_eco)
            .map(<[CellId]>::to_vec)
            .collect()
    }

    /// The shared core's frontier: core cells whose output net feeds
    /// anything outside the core (another cell region or a primary
    /// output). Every observable core error must diverge at some
    /// frontier cell, because exclusive regions never feed *into* the
    /// core (a cell upstream of a shared cell is itself shared).
    fn recompute_screen(&mut self, golden: &Netlist) {
        self.screen.clear();
        let shared = &self.partition.shared;
        for c in shared.iter() {
            let Ok(net) = golden.cell_output(c) else {
                continue;
            };
            let Ok(n) = golden.net(net) else {
                continue;
            };
            if n.sinks.iter().any(|s| !shared.contains(s.cell)) {
                self.screen.push((
                    c,
                    SuspectCone::fanin(golden, &[c]).intersect(shared),
                    causal_depths(golden, &[c]),
                ));
            }
        }
    }

    /// Feeds each requesting track its verdicts: every strategy reads
    /// its requested cells from the evidence base under its own
    /// window.
    fn feed_requested(&mut self, evidence: &EvidenceBase) {
        for t in &mut self.tracks {
            // A piggybacked round can leave a request half-answered
            // (held-back core cells whose exoneration fell through
            // when the frontier diverged): keep it pending — the next
            // `plan_round` re-merges the unanswered remainder — so a
            // strategy never observes a partial batch as "clean".
            if t.requested.is_empty()
                || !t
                    .requested
                    .iter()
                    .all(|&c| evidence.verdict(c, t.window.for_cell(c)).is_some())
            {
                continue;
            }
            t.requested.clear();
            t.strategy.observe(evidence, &t.window);
        }
    }
}

/// The dominating state registers that would witness folding
/// same-onset failure clusters into one FSM track — the cells whose
/// divergence onsets discriminate one fanned-out FSM error from
/// several independent same-onset errors behind a shared trunk.
///
/// Runs the *same* fold as [`merge_fsm_clusters`], but optimistically
/// (every dominating register is presumed diverging), and collects
/// each fold step's preferred witness — the most *downstream*
/// dominating register, the one any trunk-borne corruption must pass
/// through last. Mirroring the fold matters: a third fan-out cluster
/// is judged against the *accumulated union* of the first two, whose
/// dominating register can differ from any pairwise one. The caller
/// taps the witnesses the [`EvidenceBase`] cannot already judge,
/// records the measured onsets, and only then calls
/// [`merge_fsm_clusters`]: the merge decision is *deferred* until
/// that evidence exists. (If a real merge is later rejected — the
/// witness came back clean — deeper fold steps may consult registers
/// this pass did not name; those merges are conservatively skipped,
/// which is sound: a clean trunk carried no corruption.)
pub fn fsm_merge_witnesses(golden: &Netlist, clusters: &[FailureCluster]) -> Vec<CellId> {
    let mut fanouts: HashMap<CellId, SuspectCone> = HashMap::new();
    let mut witnesses: Vec<CellId> = Vec::new();
    let mut merged: Vec<FailureCluster> = Vec::new();
    for cl in clusters.iter().cloned() {
        let mut host = None;
        for (i, m) in merged.iter().enumerate() {
            if m.window != cl.window {
                continue;
            }
            if let Some(ff) = dominating_register(golden, m, &cl, &mut fanouts) {
                if !witnesses.contains(&ff) {
                    witnesses.push(ff);
                }
                host = Some(i);
                break;
            }
        }
        match host {
            Some(i) => {
                let m = &mut merged[i];
                m.outputs.extend_from_slice(&cl.outputs);
                m.signature.union_with(&cl.signature);
                m.cone.intersect_with(&cl.cone);
            }
            None => merged.push(cl),
        }
    }
    witnesses.sort_unstable();
    witnesses
}

/// Folds the several failure clusters one FSM error fans out into
/// back into a single cluster, so the error is localized once instead
/// of `k` times — *deferred* until the discriminating screening
/// evidence is in the [`EvidenceBase`].
///
/// A single error in next-state logic corrupts the state registers,
/// and the corruption surfaces simultaneously on every output the
/// registers reach — as several clusters with *different* fanin cones
/// but the same failure onset. Two clusters merge when
///
/// 1. they first fail on the same pattern (the corruption reached
///    them on the same cycle),
/// 2. their cones share a **dominating sequential core**: a state
///    register implicated by both whose fanout cone covers every
///    member output of both clusters (the register can explain the
///    entire joint footprint), and
/// 3. the evidence base shows that register **actually diverged**
///    within the clusters' window — the corruption really flowed
///    through the shared trunk.
///
/// Criterion 3 is what the old pre-registration merge lacked: two
/// *independent* errors in different exclusive regions behind a
/// shared sequential trunk can fail on the same pattern, and with
/// primary-output observability alone that case is indistinguishable
/// from one FSM error — the old merge then intersected both sites
/// away and localized nothing. One screening tap on the witness
/// register settles it: a register still clean through the window
/// cannot have carried the corruption, so the clusters stay apart
/// (and both sites localize); a register diverged within the window
/// proves the trunk carried it, so the clusters fold. Registers the
/// evidence cannot judge (no verdict at the window) conservatively
/// stay apart — correctness is unaffected, only tap cost.
///
/// The merged cluster carries the union footprint (outputs and
/// response signature) over the *intersection* of the member cones —
/// under the one-shared-error hypothesis the site lies in every
/// member's fanin, so the intersection keeps it while shedding the
/// per-output exclusive logic that a genuine FSM error cannot
/// explain. Combinational designs have no state registers and are
/// never merged; clusters with different onsets (independent errors
/// that happen to overlap structurally) are left apart.
pub fn merge_fsm_clusters(
    golden: &Netlist,
    clusters: Vec<FailureCluster>,
    evidence: &EvidenceBase,
) -> Vec<FailureCluster> {
    let mut merged: Vec<FailureCluster> = Vec::new();
    let mut fanouts: HashMap<CellId, SuspectCone> = HashMap::new();
    for cl in clusters {
        let host = merged.iter().position(|m| {
            m.window == cl.window
                && dominating_register(golden, m, &cl, &mut fanouts)
                    .is_some_and(|ff| evidence.verdict(ff, cl.window) == Some(true))
        });
        match host {
            Some(i) => {
                let m = &mut merged[i];
                m.outputs.extend_from_slice(&cl.outputs);
                m.signature.union_with(&cl.signature);
                m.cone.intersect_with(&cl.cone);
            }
            None => merged.push(cl),
        }
    }
    merged
}

/// A state register in both clusters' cones whose fanout covers every
/// member output of both — the witness that one sequential error can
/// explain the joint footprint. Among qualifying registers the most
/// downstream one (smallest fanout cone; ties to the lowest cell
/// index) is preferred: any corruption the trunk carries to the
/// outputs must pass through it last, so its divergence onset is the
/// sharpest discriminator.
fn dominating_register(
    golden: &Netlist,
    a: &FailureCluster,
    b: &FailureCluster,
    fanouts: &mut HashMap<CellId, SuspectCone>,
) -> Option<CellId> {
    let shared = a.cone.intersect(&b.cone);
    let mut witness: Option<(usize, CellId)> = None;
    for ff in shared
        .iter()
        .filter(|&c| golden.cell(c).is_ok_and(netlist::Cell::is_sequential))
    {
        let fanout = fanouts
            .entry(ff)
            .or_insert_with(|| SuspectCone::from_cells(golden.fanout_cone(&[ff])));
        let dominates = a
            .outputs
            .iter()
            .chain(&b.outputs)
            .all(|&o| fanout.contains(o));
        if dominates {
            let key = (fanout.len(), ff);
            if witness.is_none_or(|w| key < w) {
                witness = Some(key);
            }
        }
    }
    witness.map(|(_, ff)| ff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{BinarySearch, LinearBatches};
    use netlist::TruthTable;

    /// A backbone chain of `bb` inverters fanning out into `branches`
    /// chains of `blen` inverters, each ending in its own output.
    /// Returns (netlist, backbone cells, per-branch cells).
    fn backbone_design(
        bb: usize,
        branches: usize,
        blen: usize,
    ) -> (Netlist, Vec<CellId>, Vec<Vec<CellId>>) {
        let mut nl = Netlist::new("backbone");
        let pi = nl.add_input("a").unwrap();
        let mut net = nl.cell_output(pi).unwrap();
        let mut backbone = Vec::new();
        for k in 0..bb {
            let c = nl
                .add_lut(format!("bb{k}"), TruthTable::not(), &[net])
                .unwrap();
            net = nl.cell_output(c).unwrap();
            backbone.push(c);
        }
        let mut branch_cells = Vec::new();
        for b in 0..branches {
            let mut bnet = net;
            let mut cells = Vec::new();
            for k in 0..blen {
                let c = nl
                    .add_lut(format!("br{b}_{k}"), TruthTable::not(), &[bnet])
                    .unwrap();
                bnet = nl.cell_output(c).unwrap();
                cells.push(c);
            }
            nl.add_output(format!("y{b}"), bnet).unwrap();
            branch_cells.push(cells);
        }
        (nl, backbone, branch_cells)
    }

    /// Runs the scheduler against a perfect oracle (tap diverges from
    /// pattern 0 iff an error lies in its fanin cone). Returns
    /// (localized, taps, ecos).
    fn run_oracle(
        sched: &mut MultiErrorScheduler,
        evidence: &mut EvidenceBase,
        nl: &Netlist,
        errors: &[CellId],
    ) -> (Vec<Option<CellId>>, usize, usize) {
        let fanouts: Vec<SuspectCone> = errors
            .iter()
            .map(|&e| SuspectCone::from_cells(nl.fanout_cone(&[e])))
            .collect();
        let (mut taps, mut ecos) = (0usize, 0usize);
        let mut guard = 0;
        while let Some(plan) = sched.plan_round(evidence) {
            let mut verdicts = HashMap::new();
            for batch in &plan.batches {
                taps += batch.len();
                ecos += 1;
                for &c in batch {
                    let onset = fanouts.iter().any(|f| f.contains(c)).then_some(0);
                    verdicts.insert(c, onset);
                }
            }
            sched.record_round(evidence, &verdicts);
            guard += 1;
            assert!(guard <= 256, "scheduler failed to converge");
        }
        (sched.localized(), taps, ecos)
    }

    /// Runs one strategy alone on one cone against the same oracle.
    fn run_single(
        nl: &Netlist,
        suspects: &[CellId],
        strategy: Box<dyn LocalizationStrategy>,
        error: CellId,
    ) -> (Option<CellId>, usize, usize) {
        let mut sched = MultiErrorScheduler::new(LinearBatches::DEFAULT_BATCH);
        let mut evidence = EvidenceBase::new();
        sched.add_error(nl, suspects, ObservationWindow::whole_sweep(), strategy);
        let (found, taps, ecos) = run_oracle(&mut sched, &mut evidence, nl, &[error]);
        (found[0], taps, ecos)
    }

    fn cone_suspects(po_branch: &[CellId], backbone: &[CellId]) -> Vec<CellId> {
        // Topological order: backbone first, then the branch.
        let mut v = backbone.to_vec();
        v.extend_from_slice(po_branch);
        v
    }

    #[test]
    fn shared_batches_beat_sequential_localization() {
        let (nl, backbone, branches) = backbone_design(40, 3, 8);
        let errors: Vec<CellId> = branches.iter().map(|b| b[5]).collect();
        for fresh in [
            (|| Box::new(LinearBatches::default()) as Box<dyn LocalizationStrategy>)
                as fn() -> Box<dyn LocalizationStrategy>,
            || Box::new(BinarySearch::new()),
        ] {
            let mut sched = MultiErrorScheduler::new(LinearBatches::DEFAULT_BATCH);
            let mut evidence = EvidenceBase::new();
            for b in &branches {
                sched.add_error(
                    &nl,
                    &cone_suspects(b, &backbone),
                    ObservationWindow::whole_sweep(),
                    fresh(),
                );
            }
            // Overlap analysis: the backbone is the shared core, each
            // branch an exclusive region.
            assert_eq!(sched.partition().shared.len(), backbone.len());
            assert_eq!(sched.partition().exclusive_sizes(), vec![8, 8, 8]);

            let (found, taps, ecos) = run_oracle(&mut sched, &mut evidence, &nl, &errors);
            assert_eq!(found, errors.iter().map(|&e| Some(e)).collect::<Vec<_>>());

            let (mut staps, mut secos) = (0, 0);
            for (k, b) in branches.iter().enumerate() {
                let (f, t, e) = run_single(&nl, &cone_suspects(b, &backbone), fresh(), errors[k]);
                assert_eq!(f, Some(errors[k]));
                staps += t;
                secos += e;
            }
            assert!(taps < staps, "shared {taps} !< sequential {staps} taps");
            assert!(ecos < secos, "shared {ecos} !< sequential {secos} ECOs");
        }
    }

    #[test]
    fn clean_frontier_exonerates_the_whole_core_for_one_tap() {
        let (nl, backbone, branches) = backbone_design(40, 3, 8);
        // Errors only in the branches: the screening tap on bb39 comes
        // back clean, so all 40 core cells resolve from evidence and
        // linear batching pays taps only inside the exclusive regions.
        let errors: Vec<CellId> = branches.iter().map(|b| b[5]).collect();
        let mut sched = MultiErrorScheduler::new(LinearBatches::DEFAULT_BATCH);
        let mut evidence = EvidenceBase::new();
        for b in &branches {
            sched.add_error(
                &nl,
                &cone_suspects(b, &backbone),
                ObservationWindow::whole_sweep(),
                Box::new(LinearBatches::default()),
            );
        }
        let plan = sched.plan_round(&mut evidence).unwrap();
        assert!(plan.screening);
        assert_eq!(plan.batches, vec![vec![backbone[39]]]);
        sched.record_round(&mut evidence, &HashMap::from([(backbone[39], None)]));
        let (found, taps, _) = run_oracle(&mut sched, &mut evidence, &nl, &errors);
        assert_eq!(found, errors.iter().map(|&e| Some(e)).collect::<Vec<_>>());
        // 1 screening tap + 3 × 8 branch taps; the 120 backbone
        // requests all resolve from evidence.
        assert_eq!(taps, 24);
        assert_eq!(
            sched.taps_requested(0) + sched.taps_requested(1) + sched.taps_requested(2),
            144
        );
    }

    #[test]
    fn diverging_frontier_keeps_its_fanin_alive() {
        let (nl, backbone, branches) = backbone_design(8, 2, 2);
        let mut sched = MultiErrorScheduler::new(8);
        let mut evidence = EvidenceBase::new();
        for b in &branches {
            sched.add_error(
                &nl,
                &cone_suspects(b, &backbone),
                ObservationWindow::whole_sweep(),
                Box::new(LinearBatches::default()),
            );
        }
        // Screening round: the core frontier, physically tapped once
        // for both tracks.
        let plan = sched.plan_round(&mut evidence).unwrap();
        assert!(plan.screening);
        assert_eq!(plan.batches, vec![vec![backbone[7]]]);
        // An error *in* the shared core: the frontier diverges, so no
        // core cell is exonerated.
        sched.record_round(&mut evidence, &HashMap::from([(backbone[7], Some(0))]));
        // The next round is the strategies' first: the 8-cell batch
        // covers the backbone, minus the already-tapped frontier.
        let plan = sched.plan_round(&mut evidence).unwrap();
        assert!(!plan.screening);
        assert_eq!(plan.batches, vec![backbone[..7].to_vec()]);
        assert_eq!(sched.taps_requested(0) + sched.taps_requested(1), 16);
    }

    #[test]
    fn one_tap_serves_two_windows_with_different_verdicts() {
        // Two clusters suspect the same cell under different windows:
        // one physical tap measures the onset once, and each track
        // reads it under its own window — the (net, window) cache.
        let (nl, _, branches) = backbone_design(1, 1, 1);
        let cell = branches[0][0];
        let mut sched = MultiErrorScheduler::new(8);
        let mut evidence = EvidenceBase::new();
        sched.add_error(
            &nl,
            &[cell],
            ObservationWindow::flat(2),
            Box::new(LinearBatches::default()),
        );
        sched.add_error(
            &nl,
            &[cell],
            ObservationWindow::flat(10),
            Box::new(LinearBatches::default()),
        );
        let plan = sched.plan_round(&mut evidence).unwrap();
        assert_eq!(
            plan.batches,
            vec![vec![cell]],
            "both windows miss: one physical tap"
        );
        // The net first diverges on pattern 5: inside the second
        // track's window, outside the first's.
        sched.record_round(&mut evidence, &HashMap::from([(cell, Some(5))]));
        assert!(
            sched.plan_round(&mut evidence).is_none(),
            "everything is answerable from evidence"
        );
        assert_eq!(sched.localized(), vec![None, Some(cell)]);
    }

    #[test]
    fn screening_exonerates_per_window_when_the_frontier_diverges_late() {
        let (nl, backbone, branches) = backbone_design(4, 2, 2);
        let mut sched = MultiErrorScheduler::new(8);
        let mut evidence = EvidenceBase::new();
        for (b, w) in branches.iter().zip([2usize, 20]) {
            sched.add_error(
                &nl,
                &cone_suspects(b, &backbone),
                ObservationWindow::flat(w),
                Box::new(LinearBatches::default()),
            );
        }
        // The screening ECO carries the frontier plus both tracks'
        // piggybacked non-core (branch) requests; the core requests
        // are held back pending the frontier verdict.
        let plan = sched.plan_round(&mut evidence).unwrap();
        assert!(plan.screening);
        let mut expected = vec![backbone[3]];
        expected.extend_from_slice(&branches[0]);
        expected.extend_from_slice(&branches[1]);
        assert_eq!(plan.batches, vec![expected]);
        // The frontier first diverges on pattern 10: the whole core
        // is exonerated for the window-2 track (clean through 9) but
        // stays live for the window-20 track, which alone sees the
        // divergence.
        let mut verdicts: HashMap<CellId, Option<usize>> = HashMap::from([(backbone[3], Some(10))]);
        for b in &branches {
            for &c in b {
                verdicts.insert(c, None);
            }
        }
        sched.record_round(&mut evidence, &verdicts);
        // Track 0's whole request is answered (exonerated core +
        // measured branch); only track 1's still-live core cells need
        // a second round.
        let plan = sched.plan_round(&mut evidence).unwrap();
        assert!(!plan.screening);
        assert_eq!(plan.batches, vec![backbone[..3].to_vec()]);
    }

    /// One state register fanning out into two outputs through
    /// different combinational cones — the FSM fan-out shape.
    fn fsm_fanout_design() -> (Netlist, CellId, Vec<CellId>) {
        let mut nl = Netlist::new("fsm");
        let a = nl.add_input("a").unwrap();
        let pre = nl
            .add_lut("pre", TruthTable::not(), &[nl.cell_output(a).unwrap()])
            .unwrap();
        let ff = nl
            .add_ff("state", false, nl.cell_output(pre).unwrap())
            .unwrap();
        let q = nl.cell_output(ff).unwrap();
        let a0 = nl.add_lut("a0", TruthTable::not(), &[q]).unwrap();
        nl.add_output("yA", nl.cell_output(a0).unwrap()).unwrap();
        let b0 = nl.add_lut("b0", TruthTable::not(), &[q]).unwrap();
        let b1 = nl
            .add_lut("b1", TruthTable::not(), &[nl.cell_output(b0).unwrap()])
            .unwrap();
        nl.add_output("yB", nl.cell_output(b1).unwrap()).unwrap();
        let pos = nl.primary_outputs();
        (nl, ff, pos)
    }

    fn cluster_for(nl: &Netlist, po: CellId, window: usize) -> FailureCluster {
        let mut signature = crate::diagnosis::ResponseSignature::default();
        signature.record(window);
        FailureCluster {
            outputs: vec![po],
            signature,
            cone: SuspectCone::fanin(nl, &[po]),
            window,
        }
    }

    #[test]
    fn fsm_fanout_clusters_merge_once_the_register_is_seen_diverging() {
        let (nl, ff, pos) = fsm_fanout_design();
        let clusters = vec![cluster_for(&nl, pos[0], 3), cluster_for(&nl, pos[1], 3)];
        // The deferred-merge protocol names the register as the
        // discriminating witness to tap.
        assert_eq!(fsm_merge_witnesses(&nl, &clusters), vec![ff]);
        // Screening evidence: the register diverged at pattern 1 —
        // inside the shared window. Same onset behind the same
        // register: one merged cluster over the cone intersection
        // (the state cone, shedding the per-output combinational
        // logic).
        let mut evidence = EvidenceBase::new();
        evidence.record(ff, Some(1));
        let merged = merge_fsm_clusters(&nl, clusters.clone(), &evidence);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].outputs, pos);
        assert_eq!(merged[0].window, 3);
        assert!(merged[0].cone.contains(ff));
        assert!(!merged[0].cone.contains(nl.find_cell("a0").unwrap()));
        assert!(!merged[0].cone.contains(nl.find_cell("b1").unwrap()));
        assert_eq!(merged[0].signature.count(), 1, "signatures union");

        // Different onsets = independent errors: left apart.
        let apart = merge_fsm_clusters(
            &nl,
            vec![cluster_for(&nl, pos[0], 3), cluster_for(&nl, pos[1], 7)],
            &evidence,
        );
        assert_eq!(apart.len(), 2);
    }

    #[test]
    fn clean_register_keeps_same_onset_clusters_apart() {
        // The documented PR 4 limitation, closed: two independent
        // same-onset errors behind a shared sequential trunk present
        // exactly like one FSM error at clustering time, but the
        // screening tap on the dominating register comes back clean —
        // the trunk never carried any corruption — so the deferred
        // merge keeps the clusters apart and both sites stay in play.
        let (nl, ff, pos) = fsm_fanout_design();
        let clusters = vec![cluster_for(&nl, pos[0], 3), cluster_for(&nl, pos[1], 3)];
        let mut evidence = EvidenceBase::new();
        evidence.record(ff, None); // clean across the sweep
        let apart = merge_fsm_clusters(&nl, clusters.clone(), &evidence);
        assert_eq!(apart.len(), 2, "clean trunk forbids the merge");
        // A register diverging only *after* the window is just as
        // exculpatory for these clusters.
        let mut late = EvidenceBase::new();
        late.record(ff, Some(9));
        assert_eq!(merge_fsm_clusters(&nl, clusters.clone(), &late).len(), 2);
        // And with no evidence at all the merge is conservatively
        // skipped rather than guessed.
        assert_eq!(
            merge_fsm_clusters(&nl, clusters, &EvidenceBase::new()).len(),
            2
        );
    }

    #[test]
    fn combinational_clusters_never_merge() {
        // Shared combinational backbone, no state register: the
        // dominating-core witness requires a flip-flop, so clusters
        // stay apart even with identical windows and rich evidence.
        let (nl, backbone, _) = backbone_design(4, 2, 2);
        let pos = nl.primary_outputs();
        let clusters = vec![cluster_for(&nl, pos[0], 0), cluster_for(&nl, pos[1], 0)];
        assert!(fsm_merge_witnesses(&nl, &clusters).is_empty());
        let mut evidence = EvidenceBase::new();
        for &c in &backbone {
            evidence.record(c, Some(0));
        }
        let merged = merge_fsm_clusters(&nl, clusters, &evidence);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn assumed_verdicts_are_never_tapped() {
        let (nl, backbone, branches) = backbone_design(4, 2, 2);
        let errors = [branches[0][1], branches[1][1]];
        let mut sched = MultiErrorScheduler::new(8);
        let mut evidence = EvidenceBase::new();
        for b in &branches {
            sched.add_error(
                &nl,
                &cone_suspects(b, &backbone),
                ObservationWindow::whole_sweep(),
                Box::new(LinearBatches::default()),
            );
        }
        // Detection already knows the branch tips diverge (they drive
        // the failing outputs).
        evidence.assume(branches[0][1], true);
        evidence.assume(branches[1][1], true);
        let (found, taps, _) = run_oracle(&mut sched, &mut evidence, &nl, &errors);
        assert_eq!(found, vec![Some(errors[0]), Some(errors[1])]);
        // 1 screening tap + br0_0 + br1_0; the assumed tips and the
        // exonerated 4-cell core never hit the device.
        assert_eq!(taps, 3);
    }

    #[test]
    fn finished_tracks_stop_requesting() {
        let (nl, backbone, branches) = backbone_design(4, 2, 2);
        let mut sched = MultiErrorScheduler::new(8);
        let mut evidence = EvidenceBase::new();
        for b in &branches {
            sched.add_error(
                &nl,
                &cone_suspects(b, &backbone),
                ObservationWindow::whole_sweep(),
                Box::new(LinearBatches::default()),
            );
        }
        // Error only in branch 0; branch 1's track exhausts its cone.
        let errors = [branches[0][0]];
        let (found, _, _) = run_oracle(&mut sched, &mut evidence, &nl, &errors);
        assert_eq!(found[0], Some(branches[0][0]));
        assert_eq!(found[1], None, "clean cone must not localize anything");
        assert!(
            sched.plan_round(&mut evidence).is_none(),
            "all tracks are done"
        );
    }
}
