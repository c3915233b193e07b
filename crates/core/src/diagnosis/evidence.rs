//! The shared causal-evidence layer behind every localization.
//!
//! Serial and concurrent diagnosis are the same evidence-accumulation
//! process: a detection sweep measures *when* each primary output
//! first diverges, every observation tap measures *when* its net
//! first diverges, and screening/alibi reasoning turns those onsets
//! into verdicts about candidate error sites. [`EvidenceBase`] owns
//! all of it:
//!
//! * the **(net, window)-keyed verdict cache** — everything known
//!   about each net's divergence onset, stored as a pair of bounds
//!   ([`diverged_by`](EvidenceBase::diverged_by) /
//!   [`clean_through`](EvidenceBase::clean_through)) that answer
//!   windowed queries ([`verdict`](EvidenceBase::verdict)). A
//!   physical measurement collapses both bounds onto the exact onset;
//!   assumptions and screening exonerations contribute one-sided
//!   bounds that answer exactly the windows they soundly can. The
//!   bounds can never contradict: an exact measurement wins over any
//!   derived bound, and a derived bound is clamped below a known
//!   onset (see [`exonerate_through`](EvidenceBase::exonerate_through));
//! * the **alibi index** — per-primary-output divergence onsets and
//!   min-flip-flop-depth tables, built once per response sweep, which
//!   power causal pruning ([`prune_cone`](EvidenceBase::prune_cone)),
//!   causal windows ([`causal_window`](EvidenceBase::causal_window))
//!   and temporal suspect ordering
//!   ([`order_suspects`](EvidenceBase::order_suspects));
//! * **free seeding** — building the base from a sweep
//!   ([`from_sweep`](EvidenceBase::from_sweep)) records every PO
//!   driver's exact onset, so any consumer's first questions are
//!   answered without a physical tap.
//!
//! Consumers are narrow: [`crate::strategy::LocalizationStrategy`]
//! reads verdicts for the cells it requested,
//! [`crate::diagnosis::MultiErrorScheduler`] plans taps for the
//! queries the base cannot answer, and
//! [`crate::session::DebugSession`] records physical measurements.
//! No pruning or window logic lives anywhere else.

use std::cell::Cell;
use std::collections::HashMap;

use netlist::{CellId, Netlist};

use super::cone::SuspectCone;
use super::responses::{FailureCluster, ResponseMatrix};

/// What is known about one net's divergence onset: a pair of bounds
/// that together answer windowed verdict queries.
///
/// Invariants: when both bounds are present, `clean_through <
/// diverged_by` — the bounds never contradict — and exact
/// measurements win over derived bounds: once a physical measurement
/// is folded in, the bounds are pinned to it and assumptions or
/// exonerations can no longer move them in either direction.
#[derive(Debug, Clone, Copy, Default)]
struct CellKnowledge {
    /// `Some(p)`: the net is known to diverge on pattern `p`, hence
    /// within every window `>= p`.
    diverged_by: Option<usize>,
    /// `Some(w)`: the net is known clean on every pattern `<= w`.
    clean_through: Option<usize>,
    /// The exact measured onset, once a physical measurement was
    /// folded in (`Some(None)` = measured clean across the sweep).
    measured: Option<Option<usize>>,
}

impl CellKnowledge {
    /// The verdict for the observation window `[0, window]`, if the
    /// bounds determine it.
    fn verdict(&self, window: usize) -> Option<bool> {
        if self.diverged_by.is_some_and(|p| p <= window) {
            return Some(true);
        }
        if self.clean_through.is_some_and(|c| c >= window) {
            return Some(false);
        }
        None
    }

    /// Folds in an exact measurement: the first diverging pattern
    /// over the whole sweep (`None` = clean throughout). The
    /// measurement is ground truth — it *replaces* whatever derived
    /// bounds were accumulated (a masking-blind exoneration, a
    /// whole-sweep assumption), and pins the bounds so later derived
    /// updates cannot move them. Repeated measurements of the same
    /// net merge by earliest onset (an observed divergence cannot be
    /// un-observed).
    fn record_measured(&mut self, onset: Option<usize>) {
        let merged = match self.measured {
            None => onset,
            Some(prev) => match (prev, onset) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) => Some(a),
                (None, other) => other,
            },
        };
        self.measured = Some(merged);
        match merged {
            Some(p) => {
                self.diverged_by = Some(p);
                self.clean_through = p.checked_sub(1);
            }
            None => {
                self.diverged_by = None;
                self.clean_through = Some(EvidenceBase::WHOLE_SWEEP);
            }
        }
    }

    /// Returns `true` when the update was clamped: ignored because a
    /// measurement already pinned the bounds, or forced to pull an
    /// existing clean bound down to keep the invariant.
    fn note_diverged_by(&mut self, p: usize) -> bool {
        if self.measured.is_some() {
            return true; // the measurement already settled everything
        }
        self.diverged_by = Some(self.diverged_by.map_or(p, |q| q.min(p)));
        // Keep the invariant: clean bounds stop strictly below the
        // earliest known divergence.
        let mut clamped = false;
        if let Some(d) = self.diverged_by {
            match d.checked_sub(1) {
                Some(limit) => {
                    if self.clean_through.is_some_and(|c| c > limit) {
                        self.clean_through = Some(limit);
                        clamped = true;
                    }
                }
                None => {
                    clamped = self.clean_through.take().is_some();
                }
            }
        }
        clamped
    }

    /// Returns `true` when the requested bound was clamped below a
    /// known divergence onset (or ignored outright because a
    /// measurement already pinned the bounds).
    fn note_clean_through(&mut self, w: usize) -> bool {
        if self.measured.is_some() {
            return true; // the measurement already settled everything
        }
        // A derived clean bound can never leapfrog a known onset.
        let (w, clamped) = match self.diverged_by {
            Some(0) => return true,
            Some(d) => (w.min(d - 1), w > d - 1),
            None => (w, false),
        };
        self.clean_through = Some(self.clean_through.map_or(w, |q| q.max(w)));
        clamped
    }

    /// Whether the bounds pin the onset down exactly — a physical tap
    /// can teach nothing more.
    fn exact(&self) -> bool {
        self.measured.is_some()
            || self.clean_through == Some(EvidenceBase::WHOLE_SWEEP)
            || self
                .diverged_by
                .is_some_and(|p| p == 0 || self.clean_through.is_some_and(|c| c + 1 >= p))
    }
}

/// One failure cluster's observation window, with optional causal
/// sharpening.
///
/// The window ends at the cluster's earliest failing pattern: by
/// then, the divergence that exposed the cluster had already
/// happened, so later evidence belongs to other errors. The *causal*
/// variant additionally accounts for propagation latency — a
/// suspect's divergence can only explain a failure at pattern `end`
/// if it occurred at least `depth` patterns earlier, where `depth` is
/// the suspect's minimum flip-flop distance to the cluster's
/// outputs. Without it, a slower upstream error's wavefront passing
/// *through* the suspect region inside the window would be blamed
/// for a failure it cannot have caused yet.
#[derive(Debug, Clone, Default)]
pub struct ObservationWindow {
    end: usize,
    /// Minimum FF distance from each fanin cell to the cluster's
    /// outputs (empty for a flat window: every cell judged at `end`).
    depths: HashMap<CellId, usize>,
}

impl ObservationWindow {
    /// A flat window: every suspect judged over `[0, end]`.
    pub fn flat(end: usize) -> Self {
        Self {
            end,
            depths: HashMap::new(),
        }
    }

    /// The unbounded window: every suspect judged over the whole
    /// stimulus sweep (how a track registered without failure-onset
    /// information observes).
    pub fn whole_sweep() -> Self {
        Self::flat(EvidenceBase::WHOLE_SWEEP)
    }

    /// A causal window over a precomputed depth table (e.g. derived
    /// from [`EvidenceBase::cluster_depths`], avoiding a second graph
    /// traversal per cluster).
    pub fn from_depths(end: usize, depths: HashMap<CellId, usize>) -> Self {
        Self { end, depths }
    }

    /// End of the window (the cluster's earliest failing pattern).
    pub fn end(&self) -> usize {
        self.end
    }

    /// Whether the window carries a causal depth table (a flat window
    /// judges every cell at [`end`](Self::end)).
    pub fn is_causal(&self) -> bool {
        !self.depths.is_empty()
    }

    /// Minimum FF distance from `cell` to the cluster's outputs (0
    /// for a flat window or a cell outside the fanin).
    ///
    /// Beyond shrinking the cell's verdict window, this orders
    /// suspects *temporally*: `topo_order` treats flip-flops as
    /// sources, so on sequential cones plain topological rank can
    /// place a downstream-of-FF cell before its temporal ancestors —
    /// sorting by descending depth (ties broken by rank) restores
    /// "the first diverging suspect is the error site" for
    /// [`crate::strategy::LinearBatches`].
    pub fn depth_of(&self, cell: CellId) -> usize {
        self.depths.get(&cell).copied().unwrap_or(0)
    }

    /// Whether `cell` can causally reach the window's outputs at all
    /// within the window (its depth table knows it, and the distance
    /// fits). Flat windows make no causal claims: everything is
    /// feasible.
    pub fn feasible(&self, cell: CellId) -> bool {
        !self.is_causal() || self.depths.get(&cell).is_some_and(|&d| d <= self.end)
    }

    /// The effective window end for one cell.
    pub fn for_cell(&self, cell: CellId) -> usize {
        self.end.saturating_sub(self.depth_of(cell))
    }
}

/// Minimum flip-flop distance from every fanin cell to any of
/// `outputs`: a 0-1 BFS backward over driver edges, where stepping
/// *into* a flip-flop costs one cycle (its input is latched one
/// pattern before its output is seen) and combinational edges are
/// free. Feedback loops are handled naturally — a cycle always
/// crosses a flip-flop, so relaxation terminates.
pub(crate) fn causal_depths(golden: &Netlist, outputs: &[CellId]) -> HashMap<CellId, usize> {
    use std::collections::VecDeque;
    let mut depth: HashMap<CellId, usize> = HashMap::new();
    let mut dq: VecDeque<(CellId, usize)> = VecDeque::new();
    for &o in outputs {
        depth.insert(o, 0);
        dq.push_back((o, 0));
    }
    while let Some((c, d)) = dq.pop_front() {
        if depth.get(&c).is_some_and(|&x| x < d) {
            continue;
        }
        let Ok(cell) = golden.cell(c) else { continue };
        let step = usize::from(cell.is_sequential());
        for &net in &cell.inputs {
            let Some(u) = golden.net(net).ok().and_then(|n| n.driver) else {
                continue;
            };
            let nd = d + step;
            if depth.get(&u).is_none_or(|&x| nd < x) {
                depth.insert(u, nd);
                if step == 0 {
                    dq.push_front((u, nd));
                } else {
                    dq.push_back((u, nd));
                }
            }
        }
    }
    depth
}

/// Observability counters an [`EvidenceBase`] accumulates as a side
/// effect of normal operation — scraped by the session into the
/// metrics registry after localization. All values are deterministic
/// functions of the diagnosis (no wall-clock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvidenceStats {
    /// Windowed verdict queries the (net, window) cache answered.
    pub verdict_hits: u64,
    /// Verdict queries that needed a physical tap for their window.
    pub verdict_misses: u64,
    /// Derived bound updates clamped against a known onset (or
    /// dropped because a measurement already pinned the bounds).
    pub onset_clamps: u64,
    /// Exonerations recorded (screening/frontier testimony entries).
    pub exonerations: u64,
    /// Suspects removed by causal-window pruning, summed over
    /// [`EvidenceBase::prune_cone`] calls.
    pub window_shrinks: u64,
}

/// Interior-mutable counter cells: `verdict` and `prune_cone` take
/// `&self` (the base is shared read-only during planning), so the
/// counters live in `Cell`s. The base is `Send` but never `Sync` —
/// each diagnosis owns its evidence — so plain cells suffice.
#[derive(Debug, Default)]
struct StatCells {
    verdict_hits: Cell<u64>,
    verdict_misses: Cell<u64>,
    onset_clamps: Cell<u64>,
    exonerations: Cell<u64>,
    window_shrinks: Cell<u64>,
}

/// The accumulated causal evidence of one diagnosis: every net's
/// divergence-onset bounds plus the per-output alibi tables of the
/// detection sweep (see the module docs).
#[derive(Debug, Default)]
pub struct EvidenceBase {
    /// Everything ever observed, assumed or derived about each net's
    /// divergence onset; queries are keyed by `(net, window)` through
    /// [`verdict`](Self::verdict).
    knowledge: HashMap<CellId, CellKnowledge>,
    /// Per PO: the PO cell, its divergence onset (`None` = clean
    /// across the sweep), and min FF depth from every fanin cell —
    /// empty when the base was not built from a response sweep.
    index: Vec<(CellId, Option<usize>, HashMap<CellId, usize>)>,
    /// Observability counters (see [`EvidenceStats`]).
    stats: StatCells,
}

impl EvidenceBase {
    /// Window value standing for "the whole stimulus sweep" (the
    /// horizon of whole-sweep assumptions and of tracks observed
    /// without a failure onset).
    pub const WHOLE_SWEEP: usize = usize::MAX;

    /// An empty base: no alibi index, no verdicts. Pruning through it
    /// is a no-op; it still serves as a (net, window) verdict cache
    /// (how the strategy-level oracle tests drive it).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the alibi index from one detection sweep (one backward
    /// 0-1 BFS per primary output) and seeds every PO driver's exact
    /// divergence onset — the sweep already measured every output on
    /// every pattern, so those verdicts are free and answer *any*
    /// window without a physical tap.
    pub fn from_sweep(golden: &Netlist, matrix: &ResponseMatrix) -> Self {
        let index = matrix
            .outputs
            .iter()
            .enumerate()
            .map(|(k, &po)| {
                (
                    po,
                    matrix.signatures[k].first_failing(),
                    causal_depths(golden, &[po]),
                )
            })
            .collect();
        let mut base = Self {
            knowledge: HashMap::new(),
            index,
            stats: StatCells::default(),
        };
        for (k, &po) in matrix.outputs.iter().enumerate() {
            let onset = matrix.signatures[k].first_failing();
            base.record(po, onset);
            let driver = golden
                .cell(po)
                .ok()
                .and_then(|c| c.inputs.first().copied())
                .and_then(|net| golden.net(net).ok())
                .and_then(|n| n.driver);
            if let Some(d) = driver {
                base.record(d, onset);
            }
        }
        base
    }

    // ---- Recording ----------------------------------------------------

    /// Folds in an exact physical measurement: `cell`'s first
    /// diverging pattern over the sweep (`None` = clean throughout).
    pub fn record(&mut self, cell: CellId, onset: Option<usize>) {
        self.knowledge
            .entry(cell)
            .or_default()
            .record_measured(onset);
    }

    /// Seeds a whole-sweep observation that is already known. `true`
    /// records "diverged somewhere in the sweep" (answers only
    /// unbounded windows — prefer [`record`](Self::record) when the
    /// onset is known); `false` records "clean across the sweep",
    /// which answers every window.
    pub fn assume(&mut self, cell: CellId, diverged: bool) {
        let k = self.knowledge.entry(cell).or_default();
        let clamped = if diverged {
            k.note_diverged_by(Self::WHOLE_SWEEP)
        } else {
            k.note_clean_through(Self::WHOLE_SWEEP)
        };
        if clamped {
            self.stats
                .onset_clamps
                .set(self.stats.onset_clamps.get() + 1);
        }
    }

    /// Records a derived exoneration: `cell` is vouched clean on
    /// every pattern `<= w` (how screening testimony enters the
    /// base). Clamped below any known divergence onset so the bounds
    /// never contradict.
    pub fn exonerate_through(&mut self, cell: CellId, w: usize) {
        self.stats
            .exonerations
            .set(self.stats.exonerations.get() + 1);
        let clamped = self
            .knowledge
            .entry(cell)
            .or_default()
            .note_clean_through(w);
        if clamped {
            self.stats
                .onset_clamps
                .set(self.stats.onset_clamps.get() + 1);
        }
    }

    /// Applies windowed, latency-aware frontier testimony: each
    /// `(frontier cell, vouched-for fanin cone, FF-depth-to-frontier
    /// table)` entry exonerates every fanin cell through the
    /// *minimum*, over the frontier cells its divergence could escape
    /// through, of `frontier_clean_through - ffdepth(cell ->
    /// frontier)` — every escape path from a core error runs through
    /// its covering frontier cells, but the wavefront needs `ffdepth`
    /// patterns to get there, so a frontier still clean at `p` only
    /// vouches for the cell up to `p - ffdepth`. A frontier clean
    /// across the whole sweep exonerates its fanin for every window.
    pub fn exonerate_fanin(&mut self, frontier: &[(CellId, SuspectCone, HashMap<CellId, usize>)]) {
        let mut bound: HashMap<CellId, Option<usize>> = HashMap::new();
        for (cell, fanin, depths) in frontier {
            let ct = self.clean_through(*cell);
            for c in fanin.iter() {
                let b = match ct {
                    Some(Self::WHOLE_SWEEP) => Some(Self::WHOLE_SWEEP),
                    Some(p) => p.checked_sub(depths.get(&c).copied().unwrap_or(0)),
                    None => None,
                };
                bound
                    .entry(c)
                    .and_modify(|e| {
                        *e = match (*e, b) {
                            (Some(x), Some(y)) => Some(x.min(y)),
                            _ => None,
                        }
                    })
                    .or_insert(b);
            }
        }
        for (c, b) in bound {
            if let Some(w) = b {
                self.exonerate_through(c, w);
            }
        }
    }

    // ---- Verdict queries ----------------------------------------------

    /// The earliest pattern `cell` is known to have diverged by, if
    /// any.
    pub fn diverged_by(&self, cell: CellId) -> Option<usize> {
        self.knowledge.get(&cell).and_then(|k| k.diverged_by)
    }

    /// The latest pattern `cell` is known clean through, if any.
    pub fn clean_through(&self, cell: CellId) -> Option<usize> {
        self.knowledge.get(&cell).and_then(|k| k.clean_through)
    }

    /// The verdict for `cell` over the window `[0, window]`, if the
    /// recorded bounds determine it (`None` = the cell still needs a
    /// physical tap *for that window*).
    pub fn verdict(&self, cell: CellId, window: usize) -> Option<bool> {
        let v = self.knowledge.get(&cell).and_then(|k| k.verdict(window));
        let counter = if v.is_some() {
            &self.stats.verdict_hits
        } else {
            &self.stats.verdict_misses
        };
        counter.set(counter.get() + 1);
        v
    }

    /// Whether the bounds pin `cell`'s onset down exactly — a
    /// physical tap can teach nothing more.
    pub fn exact(&self, cell: CellId) -> bool {
        self.knowledge.get(&cell).is_some_and(CellKnowledge::exact)
    }

    /// Debug-level invariant check: the bounds never contradict
    /// (`clean_through` strictly below `diverged_by` whenever both
    /// are known). The property tests drive this after random update
    /// interleavings.
    pub fn bounds_consistent(&self, cell: CellId) -> bool {
        match self.knowledge.get(&cell) {
            Some(k) => match (k.diverged_by, k.clean_through) {
                (Some(p), Some(c)) => c < p,
                _ => true,
            },
            None => true,
        }
    }

    // ---- Causal windows & pruning -------------------------------------

    /// Min FF depth from every fanin cell to the cluster's member
    /// outputs (min across members) — the depth table for the
    /// cluster's causal observation window, derived from the
    /// per-output index without another graph traversal.
    pub fn cluster_depths(&self, cluster: &FailureCluster) -> HashMap<CellId, usize> {
        let mut depths: HashMap<CellId, usize> = HashMap::new();
        for (po, _, map) in &self.index {
            if !cluster.outputs.contains(po) {
                continue;
            }
            for (&c, &d) in map {
                depths
                    .entry(c)
                    .and_modify(|e| *e = (*e).min(d))
                    .or_insert(d);
            }
        }
        depths
    }

    /// The cluster's causal [`ObservationWindow`]: each suspect
    /// judged at the cluster's earliest failure minus its FF distance
    /// to the cluster's outputs.
    pub fn causal_window(&self, cluster: &FailureCluster) -> ObservationWindow {
        ObservationWindow::from_depths(cluster.window, self.cluster_depths(cluster))
    }

    /// Causal pruning of a suspect cone under an observation window.
    /// A suspect is dropped when either
    ///
    /// * **causal infeasibility** — its FF distance to every window
    ///   output exceeds the window end: any divergence there needs at
    ///   least that many patterns to reach an output, so it cannot
    ///   have caused the failure. This direction is exact (each FF
    ///   crossing costs one full pattern);
    /// * **causal alibi** — some primary output with the suspect in
    ///   its fanin was still clean at pattern `end + ffdepth(suspect
    ///   -> output)`: had the suspect diverged within the window, its
    ///   wavefront would already have reached that output inside its
    ///   clean prefix. (Heuristic in the same sense as the classic
    ///   passing-cone split: the wavefront could be value-masked, or
    ///   travel only a slower path — the min-depth arrival is the
    ///   earliest possible one.)
    ///
    /// The serial path's whole-cone passing-split and the old flat
    /// windowed clean-cone subtraction are both the `depth = 0`
    /// special case of the alibi; the latency terms are what keep
    /// both directions honest on pipelines where the same error
    /// reaches different outputs after different numbers of cycles.
    /// An [`EvidenceBase`] built without a sweep prunes nothing.
    pub fn prune_cone(&self, cone: &SuspectCone, window: &ObservationWindow) -> SuspectCone {
        if self.index.is_empty() {
            return cone.clone();
        }
        let w = window.end();
        let pruned: SuspectCone = cone
            .iter()
            .filter(|&c| {
                let alibied = self.index.iter().any(|(_, onset, depths)| {
                    depths
                        .get(&c)
                        .is_some_and(|&d| onset.is_none_or(|f| f > w.saturating_add(d)))
                });
                window.feasible(c) && !alibied
            })
            .collect();
        let removed = (cone.len() - pruned.len()) as u64;
        self.stats
            .window_shrinks
            .set(self.stats.window_shrinks.get() + removed);
        pruned
    }

    /// Orders suspects temporally for the window: FF-deepest first
    /// (the cells whose divergence happened earliest), ties broken by
    /// topological rank — the order under which "the first diverging
    /// suspect is the error site" holds on sequential cones, where
    /// plain topological rank (flip-flops as sources) would visit a
    /// cell just past a flip-flop before its temporal ancestors.
    pub fn order_suspects(
        &self,
        window: &ObservationWindow,
        suspects: &mut [CellId],
        rank_of: impl Fn(CellId) -> usize,
    ) {
        suspects.sort_by_key(|&c| (std::cmp::Reverse(window.depth_of(c)), rank_of(c)));
    }

    // ---- Observability --------------------------------------------------

    /// A copy of the accumulated observability counters (cache
    /// hit/miss, clamps, exonerations, pruning) — scraped once per
    /// diagnosis into the metrics registry.
    pub fn stats(&self) -> EvidenceStats {
        EvidenceStats {
            verdict_hits: self.stats.verdict_hits.get(),
            verdict_misses: self.stats.verdict_misses.get(),
            onset_clamps: self.stats.onset_clamps.get(),
            exonerations: self.stats.exonerations.get(),
            window_shrinks: self.stats.window_shrinks.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> CellId {
        CellId::new(i)
    }

    #[test]
    fn measured_onset_answers_windows_on_both_sides() {
        let mut ev = EvidenceBase::new();
        ev.record(id(1), Some(5));
        assert_eq!(ev.verdict(id(1), 4), Some(false));
        assert_eq!(ev.verdict(id(1), 5), Some(true));
        assert_eq!(ev.verdict(id(1), 100), Some(true));
        assert!(ev.exact(id(1)));
        assert!(ev.bounds_consistent(id(1)));
    }

    #[test]
    fn clean_measurement_answers_every_window() {
        let mut ev = EvidenceBase::new();
        ev.record(id(2), None);
        assert_eq!(ev.verdict(id(2), 0), Some(false));
        assert_eq!(ev.verdict(id(2), EvidenceBase::WHOLE_SWEEP), Some(false));
        assert!(ev.exact(id(2)));
    }

    #[test]
    fn one_sided_bounds_answer_only_what_they_soundly_can() {
        let mut ev = EvidenceBase::new();
        ev.assume(id(3), true); // diverged somewhere in the sweep
        assert_eq!(ev.verdict(id(3), 7), None);
        assert_eq!(ev.verdict(id(3), EvidenceBase::WHOLE_SWEEP), Some(true));
        ev.exonerate_through(id(4), 9);
        assert_eq!(ev.verdict(id(4), 9), Some(false));
        assert_eq!(ev.verdict(id(4), 10), None);
        assert!(!ev.exact(id(4)));
    }

    #[test]
    fn contradictory_exoneration_is_clamped_below_the_measured_onset() {
        let mut ev = EvidenceBase::new();
        ev.record(id(5), Some(3));
        // A (wrong, masking-blind) screening bound cannot leapfrog
        // the measurement.
        ev.exonerate_through(id(5), 50);
        assert_eq!(ev.clean_through(id(5)), Some(2));
        assert_eq!(ev.verdict(id(5), 3), Some(true));
        assert!(ev.bounds_consistent(id(5)));
        // And the other order: an optimistic bound first, then the
        // measurement corrects it.
        ev.exonerate_through(id(6), 50);
        ev.record(id(6), Some(3));
        assert_eq!(ev.clean_through(id(6)), Some(2));
        assert_eq!(ev.verdict(id(6), 10), Some(true));
        assert!(ev.bounds_consistent(id(6)));
        // Onset zero leaves no clean prefix at all.
        ev.exonerate_through(id(7), 4);
        ev.record(id(7), Some(0));
        assert_eq!(ev.clean_through(id(7)), None);
        assert!(ev.bounds_consistent(id(7)));
    }

    #[test]
    fn measurements_beat_assumptions_in_both_orders() {
        // A measured-clean net stays clean no matter what a
        // whole-sweep assumption claimed before or claims after.
        let mut ev = EvidenceBase::new();
        ev.assume(id(10), true);
        ev.record(id(10), None);
        assert_eq!(ev.verdict(id(10), EvidenceBase::WHOLE_SWEEP), Some(false));
        let mut ev = EvidenceBase::new();
        ev.record(id(11), None);
        ev.assume(id(11), true);
        assert_eq!(ev.verdict(id(11), EvidenceBase::WHOLE_SWEEP), Some(false));
        // And a measured onset is immovable by later assumptions.
        let mut ev = EvidenceBase::new();
        ev.record(id(12), Some(4));
        ev.assume(id(12), false);
        assert_eq!(ev.verdict(id(12), 4), Some(true));
        assert_eq!(ev.clean_through(id(12)), Some(3));
    }

    #[test]
    fn empty_base_prunes_nothing() {
        let ev = EvidenceBase::new();
        let cone: SuspectCone = [id(1), id(2)].into_iter().collect();
        assert_eq!(ev.prune_cone(&cone, &ObservationWindow::flat(0)), cone);
    }

    #[test]
    fn whole_sweep_window_reads_unbounded_verdicts() {
        let mut ev = EvidenceBase::new();
        ev.assume(id(8), true);
        let w = ObservationWindow::whole_sweep();
        assert_eq!(ev.verdict(id(8), w.for_cell(id(8))), Some(true));
    }

    #[test]
    fn stats_count_cache_traffic_clamps_and_exonerations() {
        let mut ev = EvidenceBase::new();
        assert_eq!(ev.stats(), EvidenceStats::default());
        ev.record(id(1), Some(5));
        assert_eq!(ev.verdict(id(1), 4), Some(false)); // hit
        assert_eq!(ev.verdict(id(1), 5), Some(true)); // hit
        assert_eq!(ev.verdict(id(9), 5), None); // miss
        ev.exonerate_through(id(2), 9); // exoneration, no clamp
        ev.exonerate_through(id(1), 50); // exoneration, clamped by the measurement
        let s = ev.stats();
        assert_eq!(s.verdict_hits, 2);
        assert_eq!(s.verdict_misses, 1);
        assert_eq!(s.exonerations, 2);
        assert_eq!(s.onset_clamps, 1);
        assert_eq!(s.window_shrinks, 0);
    }
}
