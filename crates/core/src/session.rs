//! Session-oriented debugging: one object that drives detect →
//! localize → confirm → correct through a pluggable physical flow and
//! localization strategy (paper §3.1 steps 9–22).
//!
//! [`DebugSession`] is the one way to run a debugging iteration:
//!
//! * the physical re-implementation behind every ECO is a
//!   [`ReimplFlow`], so the same campaign can be priced through the
//!   tiled flow or any Figure 5 baseline;
//! * localization is a [`LocalizationStrategy`], so linear batching
//!   and binary-search bisection are interchangeable;
//! * all causal knowledge — tap onsets, windows, alibi pruning,
//!   screening exonerations — lives in one
//!   [`crate::diagnosis::evidence::EvidenceBase`] shared by the
//!   serial and concurrent paths, fed by a single observation entry
//!   point ([`sim::emulate::net_first_divergences`]);
//! * the golden model is simulated once per session: its response to
//!   the session's stimulus is recorded into a [`GoldenTrace`] on the
//!   first sweep, and detection, every tap observation, every §4.1
//!   forced confirmation and the post-correction verification
//!   re-simulate only the DUT against it;
//! * progress is emitted as a typed [`DebugEvent`] stream;
//! * effort is recorded per phase in an [`EffortLedger`] that
//!   [`crate::report::DebugReport`] and the bench bins consume;
//! * with a metrics registry attached, the session records the work
//!   its own calls returned — place/route counts from every ECO, the
//!   simulation work accumulated in its golden trace — so a campaign's
//!   counters stay its own when campaigns share a process.

use std::collections::HashMap;
use std::sync::Arc;

use netlist::{CellId, NetId, Netlist};
use obs::{MetricsRegistry, Tracer, TrackId};
use sim::emulate::{GoldenTrace, Mismatch};
use sim::inject::InjectedError;
use sim::patterns::PatternGen;
use sim::testlogic::{insert_control_point, insert_observation_tap};

use crate::diagnosis::responses::po_pairs;
use crate::diagnosis::{
    cluster_failures, fsm_merge_witnesses, merge_fsm_clusters, traced_responses, EvidenceBase,
    FailureCluster, MultiErrorScheduler, ResponseMatrix, ResponseSignature, SuspectCone,
};
use crate::eco_flow::EcoPhysicalOutcome;
use crate::effort::{CadEffort, EffortLedger, Phase};
use crate::error::TilingError;
use crate::flow::TiledDesign;
use crate::flows::{ReimplFlow, TiledFlow};
use crate::strategy::{LinearBatches, LocalizationStrategy};

/// How the session generates stimulus vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PatternSpec {
    /// Exhaustive for narrow designs (≤ 10 inputs), 512 LFSR vectors
    /// otherwise — the paper-shaped default.
    #[default]
    Auto,
    /// All `2^width` vectors (panics above 24 inputs).
    Exhaustive,
    /// `count` LFSR vectors.
    Lfsr {
        /// Number of vectors.
        count: usize,
    },
    /// `count` uniform random vectors.
    Random {
        /// Number of vectors.
        count: usize,
    },
}

impl PatternSpec {
    /// Instantiates the generator for a netlist's input width.
    pub fn generate(self, nl: &Netlist, seed: u64) -> PatternGen {
        let width = nl.primary_inputs().len();
        match self {
            PatternSpec::Auto => {
                if width <= 10 {
                    PatternGen::exhaustive(width)
                } else {
                    PatternGen::lfsr(width, 512, seed)
                }
            }
            PatternSpec::Exhaustive => PatternGen::exhaustive(width),
            PatternSpec::Lfsr { count } => PatternGen::lfsr(width, count, seed),
            PatternSpec::Random { count } => PatternGen::random(width, count, seed),
        }
    }
}

/// Progress notifications emitted by [`DebugSession`].
#[derive(Debug, Clone)]
pub enum DebugEvent {
    /// A campaign planted (or was handed) an error to hunt.
    ErrorInjected {
        /// Iteration index within the campaign.
        iteration: usize,
        /// The buggy cell.
        cell: CellId,
    },
    /// Detection emulation found a primary-output divergence.
    Detected {
        /// Stimulus index that exposed the bug.
        pattern_index: usize,
        /// Name of the diverging output.
        output_name: String,
    },
    /// Detection emulation found no divergence (clean design).
    CleanDesign,
    /// The structural suspect cone was computed.
    SuspectsComputed {
        /// Raw structural suspects.
        structural: usize,
        /// Suspects surviving the DUT-liveness/LUT filter.
        candidates: usize,
    },
    /// One observation-tap ECO was performed.
    TapEco {
        /// Cells tapped by this ECO.
        cells: Vec<CellId>,
        /// Physical effort of the ECO.
        effort: CadEffort,
    },
    /// Re-emulation verdicts for the last tap ECO.
    Observed {
        /// Tapped cells whose nets diverged.
        diverging: Vec<CellId>,
    },
    /// Localization converged (or gave up).
    Localized {
        /// The identified error site.
        cell: Option<CellId>,
    },
    /// The §4.1 control-point confirmation ran.
    Confirmed {
        /// The suspect that was force-overridden.
        cell: CellId,
        /// Whether forcing it to golden values fixed the outputs.
        confirmed: bool,
    },
    /// The corrective ECO was applied and checked.
    Corrected {
        /// Whether the DUT now matches the golden model.
        repaired: bool,
    },
    /// Multi-error diagnosis partitioned the overlapping suspect
    /// cones into ownership regions (see [`crate::diagnosis`]).
    ConeSplit {
        /// Number of concurrent error clusters.
        clusters: usize,
        /// Suspects owned exclusively by each cluster.
        exclusive: Vec<usize>,
        /// Suspects implicated by two or more clusters.
        shared: usize,
    },
}

/// Result of one debugging iteration: the session's one row per
/// planted error.
#[derive(Debug, Clone, Default)]
pub struct DebugOutcome {
    /// The detected divergence (None if the DUT already matched, or if
    /// no failure cluster of a concurrent campaign was matched to this
    /// error).
    pub mismatch: Option<Mismatch>,
    /// The cell the localization loop identified.
    pub localized: Option<CellId>,
    /// Observation taps inserted during localization. A concurrent
    /// campaign's rows count the taps their clusters *requested*:
    /// requests deduplicate across clusters before insertion, so the
    /// rows sum to more than the physical tap count whenever cones
    /// overlap.
    pub taps_inserted: usize,
    /// Whether the corrective ECO made the DUT match the golden model
    /// (on a concurrent campaign's row: on its cluster's outputs).
    pub repaired: bool,
    /// Total CAD effort across all ECOs of the iteration.
    pub effort: CadEffort,
    /// Physical ECOs performed (tap batches + confirmation + the
    /// correction). A non-tiled flow pays one full re-place-and-route
    /// per ECO.
    pub ecos: usize,
    /// Whether the localized cell was confirmed via a control point
    /// (forcing its output to golden values makes the DUT match).
    pub confirmed_by_control: bool,
    /// Per-phase effort breakdown (detect/localize/confirm/correct).
    pub ledger: EffortLedger,
    /// Name of the localization strategy that ran.
    pub strategy: &'static str,
    /// Name of the physical flow that ran.
    pub flow: &'static str,
}

/// Result of a campaign: one [`DebugOutcome`] row per planted error.
#[derive(Debug, Clone, Default)]
pub struct CampaignOutcome {
    /// Per-error rows, in planting order.
    pub iterations: Vec<DebugOutcome>,
    /// The campaign's physical per-phase ledger. It is not the rows'
    /// sum: a shared ECO counts once in every row that took part in
    /// it, while the rows' effort apportions this ledger's exactly.
    pub ledger: EffortLedger,
}

/// Boxed progress callback (see [`DebugSession::on_event`]). `Send`
/// so a whole configured session can cross to a fleet worker thread.
type EventCallback<'a> = Box<dyn FnMut(&DebugEvent) + Send + 'a>;

/// A configured debugging session over one tiled design.
///
/// Built with [`DebugSession::new`] plus the builder methods, then run
/// with [`run`](DebugSession::run) (one planted error),
/// [`run_concurrent`](DebugSession::run_concurrent) (several planted
/// errors at once) or [`run_campaign`](DebugSession::run_campaign)
/// (random errors planted from seeds). Every entry point reports one
/// [`DebugOutcome`] row per error.
///
/// ```no_run
/// use sim::inject::random_error;
/// use synth::PaperDesign;
/// use tiling::flows::TiledFlow;
/// use tiling::session::DebugSession;
/// use tiling::strategy::BinarySearch;
/// use tiling::{implement, TilingOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut td = implement(PaperDesign::NineSym.generate()?, TilingOptions::default())?;
/// let golden = td.netlist.clone();
/// let error = random_error(&mut td.netlist, 7)?;
/// let outcome = DebugSession::new(&mut td, &golden)
///     .strategy(BinarySearch::new())
///     .flow(TiledFlow)
///     .seed(42)
///     .on_event(|e| eprintln!("{e:?}"))
///     .run(&error)?;
/// assert!(outcome.repaired);
/// println!("{}", outcome.ledger);
/// # Ok(())
/// # }
/// ```
pub struct DebugSession<'a> {
    td: &'a mut TiledDesign,
    golden: &'a Netlist,
    strategy: Box<dyn LocalizationStrategy + 'a>,
    flow: Box<dyn ReimplFlow + 'a>,
    patterns: PatternSpec,
    seed: u64,
    confirm_with_control: bool,
    on_event: Option<EventCallback<'a>>,
    metrics: Option<&'a MetricsRegistry>,
    trace: Option<(&'a Tracer, TrackId)>,
    preflighted: bool,
    /// The golden model's response to the session's stimulus, recorded
    /// by the first sweep (see [`golden_trace`](Self::golden_trace)).
    golden_trace: Option<Arc<GoldenTrace>>,
}

impl<'a> DebugSession<'a> {
    /// A session with the paper-shaped defaults: [`LinearBatches`]
    /// localization through the [`TiledFlow`], auto patterns, seed 0,
    /// control-point confirmation on.
    pub fn new(td: &'a mut TiledDesign, golden: &'a Netlist) -> Self {
        Self {
            td,
            golden,
            strategy: Box::new(LinearBatches::default()),
            flow: Box::new(TiledFlow),
            patterns: PatternSpec::Auto,
            seed: 0,
            confirm_with_control: true,
            on_event: None,
            metrics: None,
            trace: None,
            preflighted: false,
            golden_trace: None,
        }
    }

    /// Swaps the localization strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: impl LocalizationStrategy + 'a) -> Self {
        self.strategy = Box::new(strategy);
        self
    }

    /// Swaps the physical re-implementation flow.
    #[must_use]
    pub fn flow(mut self, flow: impl ReimplFlow + 'a) -> Self {
        self.flow = Box::new(flow);
        self
    }

    /// [`strategy`](Self::strategy) for callers that picked the
    /// strategy at runtime (the `debugd` request decoder).
    #[must_use]
    pub fn strategy_boxed(mut self, strategy: Box<dyn LocalizationStrategy + 'a>) -> Self {
        self.strategy = strategy;
        self
    }

    /// [`flow`](Self::flow) for callers that picked the flow at
    /// runtime (the `debugd` request decoder).
    #[must_use]
    pub fn flow_boxed(mut self, flow: Box<dyn ReimplFlow + 'a>) -> Self {
        self.flow = flow;
        self
    }

    /// Swaps the stimulus specification.
    #[must_use]
    pub fn patterns(mut self, patterns: PatternSpec) -> Self {
        self.patterns = patterns;
        self.golden_trace = None;
        self
    }

    /// Sets the stimulus seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.golden_trace = None;
        self
    }

    /// Enables/disables the §4.1 control-point confirmation ECO.
    #[must_use]
    pub fn confirm_with_control(mut self, enabled: bool) -> Self {
        self.confirm_with_control = enabled;
        self
    }

    /// Registers a progress-event callback.
    #[must_use]
    pub fn on_event(mut self, callback: impl FnMut(&DebugEvent) + Send + 'a) -> Self {
        self.on_event = Some(Box::new(callback));
        self
    }

    /// Attaches a metrics registry: the session records its
    /// deterministic per-phase effort counters
    /// (`session_phase_*_total{phase=…}`), evidence-layer counters
    /// (`evidence_*_total`), the placer/router work of every ECO
    /// (`place_moves_evaluated_total{engine=…}`,
    /// `place_cg_iterations_total`, `route_nets_ripped_total{mode=…}`)
    /// and its simulation work (`sim_sweeps_total`,
    /// `sim_net_words_total`, `sim_lanes_loaded_total`) into it as it
    /// runs.
    #[must_use]
    pub fn metrics(mut self, registry: &'a MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attaches a tracer track: the session emits one span per phase
    /// region (detect / localize / confirm / correct) onto it, each
    /// carrying wall-clock bounds *and* the region's deterministic
    /// effort-unit delta, so span totals reconcile exactly with the
    /// [`EffortLedger`].
    #[must_use]
    pub fn trace(mut self, tracer: &'a Tracer, track: TrackId) -> Self {
        self.trace = Some((tracer, track));
        self
    }

    fn emit(&mut self, event: DebugEvent) {
        if let Some(cb) = self.on_event.as_mut() {
            cb(&event);
        }
    }

    /// Wall-clock start marker for a phase region (0 when untraced).
    fn span_begin(&self) -> u64 {
        self.trace.map(|(t, _)| t.now_us()).unwrap_or(0)
    }

    /// Closes one phase region: emits a trace span whose effort units
    /// are the region's ledger delta for `phase`, and bumps the
    /// deterministic per-phase counters by the same delta. Every
    /// charge to a phase happens inside exactly one region of that
    /// phase's name, so per-phase span sums equal the ledger exactly.
    /// Every sweep runs inside some region too, so closing one also
    /// records the simulation work done so far ([`record_sim`]).
    ///
    /// [`record_sim`]: Self::record_sim
    fn phase_mark(
        &mut self,
        phase: Phase,
        start_us: u64,
        before: EffortLedger,
        after: &EffortLedger,
    ) {
        let b = before.phase(phase);
        let a = after.phase(phase);
        let units = a.effort.total() - b.effort.total();
        if let Some((tracer, track)) = self.trace {
            tracer.complete(track, phase.name(), "phase", start_us, units);
        }
        if let Some(reg) = self.metrics {
            let labels = [("phase", phase.name())];
            reg.counter_add("session_phase_effort_units_total", &labels, units);
            reg.counter_add(
                "session_phase_place_moves_total",
                &labels,
                a.effort.place_moves - b.effort.place_moves,
            );
            reg.counter_add(
                "session_phase_route_expansions_total",
                &labels,
                a.effort.route_expansions - b.effort.route_expansions,
            );
            reg.counter_add(
                "session_phase_ecos_total",
                &labels,
                (a.ecos - b.ecos) as u64,
            );
            reg.counter_add(
                "session_phase_tiles_cleared_total",
                &labels,
                (a.tiles_cleared - b.tiles_cleared) as u64,
            );
        }
        self.record_sim();
    }

    /// Scrapes one finished [`EvidenceBase`]'s counters into the
    /// registry. Each evidence base is scraped exactly once, so
    /// `counter_add` with the absolute stats is a correct delta.
    fn record_evidence(&mut self, evidence: &EvidenceBase) {
        if let Some(reg) = self.metrics {
            let s = evidence.stats();
            reg.counter_add("evidence_verdict_cache_hits_total", &[], s.verdict_hits);
            reg.counter_add("evidence_verdict_cache_misses_total", &[], s.verdict_misses);
            reg.counter_add("evidence_onset_clamps_total", &[], s.onset_clamps);
            reg.counter_add("evidence_exonerations_total", &[], s.exonerations);
            reg.counter_add("evidence_window_shrinks_total", &[], s.window_shrinks);
        }
    }

    /// Moves the simulation work done against the session's golden
    /// trace since the last call into the `sim_*` counters.
    fn record_sim(&self) {
        if let (Some(reg), Some(trace)) = (self.metrics, &self.golden_trace) {
            let work = trace.take_work();
            reg.counter_add("sim_sweeps_total", &[], work.sweeps);
            reg.counter_add("sim_net_words_total", &[], work.net_words);
            reg.counter_add("sim_lanes_loaded_total", &[], work.lanes_loaded);
        }
    }

    /// One ECO through the session flow. The placer/router work the
    /// flow returns is recorded into the metrics registry here; the
    /// caller charges the ledger.
    fn reimplement(
        &mut self,
        seeds: &[CellId],
        added: &[CellId],
    ) -> Result<EcoPhysicalOutcome, TilingError> {
        let phys = self.flow.reimplement(self.td, seeds, added)?;
        if let Some(reg) = self.metrics {
            let engine = self.td.options.placer.engine.label();
            let mode = if phys.kept_routes {
                "incremental"
            } else {
                "full"
            };
            reg.counter_add(
                "place_moves_evaluated_total",
                &[("engine", engine)],
                phys.effort.place_moves,
            );
            reg.counter_add("place_cg_iterations_total", &[], phys.cg_iterations);
            reg.counter_add(
                "route_nets_ripped_total",
                &[("mode", mode)],
                phys.rerouted_nets as u64,
            );
        }
        Ok(phys)
    }

    /// The golden model's response to the session's stimulus. The
    /// golden netlist and its patterns never change during a session,
    /// so the first sweep records the trace and every later one shares
    /// it; it is dropped with the session.
    fn golden_trace(&mut self) -> Result<Arc<GoldenTrace>, TilingError> {
        if let Some(trace) = &self.golden_trace {
            return Ok(Arc::clone(trace));
        }
        let patterns = self.patterns.generate(self.golden, self.seed);
        let trace = Arc::new(GoldenTrace::record(self.golden, patterns)?);
        self.golden_trace = Some(Arc::clone(&trace));
        Ok(trace)
    }

    /// One full response sweep of the current DUT against the golden
    /// trace: detection before diagnosis, verification after the
    /// corrective ECO.
    fn sweep_responses(&mut self) -> Result<ResponseMatrix, TilingError> {
        let trace = self.golden_trace()?;
        Ok(traced_responses(&trace, self.golden, &self.td.netlist)?)
    }

    /// The DRC pre-flight, run once per session before any entry
    /// point touches the design: a structurally broken DUT (cyclic,
    /// multi-driven, dangling routes, …) gets a typed
    /// [`TilingError::Drc`] instead of a panic or livelock deep in
    /// simulation or the flow. Findings — warnings included — land in
    /// the metrics registry as `drc_findings_total{rule=…}`, and a
    /// traced session gets a `preflight` span.
    fn preflight(&mut self) -> Result<(), TilingError> {
        if self.preflighted {
            return Ok(());
        }
        let t0 = self.span_begin();
        let result = crate::preflight::preflight(self.td);
        let findings: &[drc::Finding] = match &result {
            Ok(findings) | Err(TilingError::Drc { findings }) => findings,
            Err(_) => &[],
        };
        if let Some(reg) = self.metrics {
            drc::record_findings(reg, findings);
        }
        if let Some((tracer, track)) = self.trace {
            tracer.complete(track, "preflight", "drc", t0, findings.len() as u64);
        }
        result.map(|_| self.preflighted = true)
    }

    /// Runs one full detect → localize → confirm → correct iteration
    /// for a planted error already present in the DUT netlist.
    ///
    /// Serial localization runs through the same
    /// [`crate::diagnosis::evidence`] layer as the concurrent path:
    /// detection is one full response sweep whose per-output onsets
    /// seed the [`EvidenceBase`] for free, the suspect cone (the
    /// intersection of the failing outputs' fanin cones) is pruned
    /// causally — alibi by latency-aware clean prefixes instead of
    /// the old whole-cone passing-split, which collapsed to nearly
    /// nothing on FSM designs where every output shares the state
    /// cone — and every tap is measured once as its exact divergence
    /// onset and read back under the cluster's causal
    /// [`crate::diagnosis::ObservationWindow`].
    ///
    /// An error the stimulus never exposes is reverted at the netlist
    /// level and reported with `mismatch: None` and `repaired: true`.
    ///
    /// # Errors
    ///
    /// Propagates netlist/placement/routing failures from the flow.
    pub fn run(&mut self, error: &InjectedError) -> Result<DebugOutcome, TilingError> {
        self.preflight()?;
        let errors = std::slice::from_ref(error);
        let mut outcome = DebugOutcome {
            strategy: self.strategy.name(),
            flow: self.flow.name(),
            ..DebugOutcome::default()
        };
        let Some(matrix) = self.detect(errors)? else {
            outcome.repaired = true;
            return Ok(outcome);
        };
        // (The per-cluster `Detected` events are emitted by the
        // shared diagnosis pipeline below.)
        outcome.mismatch = Some(matrix_mismatch(self.golden, &matrix)?);

        // ---- Localization (steps 16–21) -------------------------------
        // The same cluster → defer-merge → prune pipeline as the
        // concurrent path, over the same evidence layer: every
        // failing-output cluster is pruned within its own causal
        // window, the strategies read tap verdicts from the shared
        // evidence base, and detection's PO onsets answer their first
        // questions for free. Under the single-error hypothesis every
        // cluster is observing the *same* error, so the clusters are
        // *alternative views* of it rather than concurrent work:
        // attempt them one at a time, cheapest pruned cone first, and
        // stop at the first site the §4.1 control point confirms —
        // evidence accumulated by one attempt (every measured onset)
        // carries over to the next for free.
        let t_localize = self.span_begin();
        let localize_before = outcome.ledger;
        let (mut evidence, clusters, witness_taps, _) =
            self.screened_clusters(&matrix, &mut outcome.ledger)?;
        outcome.taps_inserted = witness_taps;
        let rank = topo_rank(self.golden)?;
        let rank_of = |c: CellId| rank.get(&c).copied().unwrap_or(usize::MAX);
        // The sharpest single-error view comes first: the
        // *intersection* of every failing output's cone (the site
        // must lie in all of them), judged at the global earliest
        // failure. On wide combinational designs this is a small,
        // deep set that one strategy pass settles. When causal alibis
        // prune it to nothing (the FSM regime: one early mismatch
        // alibis everything through value masking), the per-cluster
        // views below recover — each cluster's own window keeps its
        // cone honest.
        let mut tracks = Vec::with_capacity(clusters.len() + 1);
        if clusters.len() > 1 {
            let joint = serial_cluster(self.golden, &matrix);
            let (window, suspects) = self.cluster_track(&evidence, &joint, &rank_of)?;
            tracks.push((window, suspects));
        }
        let mut cluster_tracks = Vec::with_capacity(clusters.len());
        for cl in &clusters {
            let (window, suspects) = self.cluster_track(&evidence, cl, &rank_of)?;
            cluster_tracks.push((window, suspects));
        }
        cluster_tracks.sort_by_key(|(_, suspects)| suspects.len());
        tracks.extend(cluster_tracks);

        // Bounded arbitration: a single error that several
        // independent views localize to *different, unconfirmable*
        // cells is masked beyond PO-evidence localization — burning a
        // strategy pass per remaining cluster cannot fix that, so the
        // hunt stops after a few views and reports the best
        // unconfirmed site (correction still repairs, exactly as when
        // a strategy itself comes back empty).
        const MAX_SERIAL_VIEWS: usize = 4;
        let mut tried: Vec<CellId> = Vec::new();
        let mut attempts = 0usize;
        for (window, suspects) in tracks {
            if suspects.is_empty() {
                continue;
            }
            if attempts >= MAX_SERIAL_VIEWS {
                break;
            }
            attempts += 1;
            let mut scheduler = MultiErrorScheduler::new(LinearBatches::DEFAULT_BATCH);
            scheduler.add_error(self.golden, &suspects, window, self.strategy.fresh());
            outcome.taps_inserted +=
                self.run_tap_rounds(&mut scheduler, &mut evidence, &mut outcome.ledger, &mut [])?;
            let Some(site) = scheduler.localized()[0] else {
                continue;
            };
            self.emit(DebugEvent::Localized { cell: Some(site) });
            if outcome.localized.is_none() {
                outcome.localized = Some(site);
            }
            if !self.confirm_with_control {
                outcome.localized = Some(site);
                break;
            }
            if tried.contains(&site) {
                continue;
            }
            tried.push(site);
            // ---- Controllability confirmation (§4.1) ------------------
            // Force the suspect's output to the golden value through
            // an inserted control point: if the DUT then matches on
            // *every* output, the error is contained in that cell —
            // and the hunt is over. An unconfirmed site sends the
            // search on to the next cluster's view of the failure.
            let t_confirm = self.span_begin();
            let confirm_before = outcome.ledger;
            let (confirmed, effort, tiles) = self.control_point_confirm(site, None)?;
            outcome.ledger.charge(Phase::Confirm, effort, tiles);
            self.phase_mark(Phase::Confirm, t_confirm, confirm_before, &outcome.ledger);
            self.emit(DebugEvent::Confirmed {
                cell: site,
                confirmed,
            });
            if confirmed {
                outcome.localized = Some(site);
                outcome.confirmed_by_control = true;
                break;
            }
        }
        if outcome.localized.is_none() {
            self.emit(DebugEvent::Localized { cell: None });
        }
        self.phase_mark(
            Phase::Localize,
            t_localize,
            localize_before,
            &outcome.ledger,
        );
        self.record_evidence(&evidence);

        // ---- Correction (steps 11–15, 17–21) ---------------------------
        let (_, verified) = self.correct(errors, &mut outcome.ledger)?;
        outcome.repaired = verified.failing().is_empty();
        outcome.effort = outcome.ledger.total();
        outcome.ecos = outcome.ledger.total_ecos();
        Ok(outcome)
    }

    /// Runs a campaign: plants one random error per seed, each in a
    /// distinct cell, and debugs them — one [`DebugOutcome`] row per
    /// seed.
    ///
    /// A single error runs the paper's protocol ([`run`](Self::run)).
    /// Several are live *simultaneously* and are diagnosed through the
    /// [`crate::diagnosis`] scheduler
    /// ([`run_concurrent`](Self::run_concurrent)), so one batch of
    /// observation taps — and one corrective ECO — serves every live
    /// error.
    ///
    /// # Errors
    ///
    /// Propagates injection and flow failures.
    pub fn run_campaign(&mut self, seeds: &[u64]) -> Result<CampaignOutcome, TilingError> {
        self.preflight()?;
        let errors = sim::inject::random_distinct_errors(&mut self.td.netlist, seeds)?;
        for (iteration, error) in errors.iter().enumerate() {
            self.emit(DebugEvent::ErrorInjected {
                iteration,
                cell: error.cell,
            });
        }
        match errors.as_slice() {
            [] => Ok(CampaignOutcome::default()),
            [error] => {
                let row = self.run(error)?;
                Ok(CampaignOutcome {
                    ledger: row.ledger,
                    iterations: vec![row],
                })
            }
            _ => self.run_concurrent(&errors),
        }
    }

    /// Diagnoses several already-planted errors *simultaneously*:
    /// detect once (a full response sweep), cluster the failing
    /// outputs into per-error footprints, localize every cluster
    /// concurrently through shared observation-tap batches, confirm
    /// each site against its own outputs, and repair everything with
    /// one corrective ECO.
    ///
    /// This is the multi-error counterpart of [`run`](Self::run) —
    /// the capability the single-error paper protocol lacks — and it
    /// runs the concurrent pipeline even on one error. The machinery
    /// lives in [`crate::diagnosis`]; cluster-level progress is
    /// reported through the usual [`DebugEvent`] stream plus the
    /// multi-error [`DebugEvent::ConeSplit`] variant.
    ///
    /// Row `i` reports `errors[i]`. Clusters are matched to errors by
    /// exact localized cell first, then by cone containment, and a
    /// matched row carries its cluster's detection, localization,
    /// confirmation, verdict and share of the effort: tap ECOs split
    /// in proportion to requested taps, the corrective ECO evenly. An
    /// error no cluster was matched to reports `mismatch: None`, like
    /// an undetected error. An unmatched cluster's share is folded
    /// into the row of an error its outputs' fanin cone contains, so
    /// the rows' effort sums to [`CampaignOutcome::ledger`]'s.
    ///
    /// # Errors
    ///
    /// Propagates netlist/placement/routing failures from the flow.
    pub fn run_concurrent(
        &mut self,
        errors: &[InjectedError],
    ) -> Result<CampaignOutcome, TilingError> {
        self.preflight()?;
        let blank = DebugOutcome {
            strategy: self.strategy.name(),
            flow: self.flow.name(),
            ..DebugOutcome::default()
        };
        let mut ledger = EffortLedger::default();
        let Some(matrix) = self.detect(errors)? else {
            let clean = DebugOutcome {
                repaired: true,
                ..blank
            };
            return Ok(CampaignOutcome {
                iterations: vec![clean; errors.len()],
                ledger,
            });
        };

        // ---- Shared diagnosis pipeline --------------------------------
        // Build the evidence base, tap the deferred-merge witness
        // registers, fold FSM fan-out clusters, prune every cluster's
        // cone within its causal window, register one strategy track
        // per cluster, and drive the physical tap rounds to completion.
        let t_localize = self.span_begin();
        let localize_before = ledger;
        let (mut evidence, clusters, _, merge_screen) =
            self.screened_clusters(&matrix, &mut ledger)?;
        let rank = topo_rank(self.golden)?;
        let rank_of = |c: CellId| rank.get(&c).copied().unwrap_or(usize::MAX);
        let n = clusters.len();
        let mut scheduler = MultiErrorScheduler::new(LinearBatches::DEFAULT_BATCH);
        for cl in &clusters {
            let (window, suspects) = self.cluster_track(&evidence, cl, &rank_of)?;
            scheduler.add_error(self.golden, &suspects, window, self.strategy.fresh());
        }
        self.emit(DebugEvent::ConeSplit {
            clusters: n,
            exclusive: scheduler.partition().exclusive_sizes(),
            shared: scheduler.partition().shared.len(),
        });
        // The merge-screening taps served every (final) cluster
        // equally; apportion them now that the cluster count is known.
        let even = vec![1usize; n];
        let mut cluster_ledgers = vec![EffortLedger::default(); n];
        for &(effort, tiles) in &merge_screen {
            split_charge(&mut cluster_ledgers, Phase::Localize, effort, tiles, &even);
        }
        self.run_tap_rounds(
            &mut scheduler,
            &mut evidence,
            &mut ledger,
            &mut cluster_ledgers,
        )?;
        self.record_evidence(&evidence);
        let localized = scheduler.localized();
        for &cell in &localized {
            self.emit(DebugEvent::Localized { cell });
        }
        self.phase_mark(Phase::Localize, t_localize, localize_before, &ledger);

        // ---- Per-cluster confirmation (§4.1) --------------------------
        let mut confirmed = vec![false; n];
        if self.confirm_with_control {
            for k in 0..n {
                if let Some(suspect) = localized[k] {
                    let t_confirm = self.span_begin();
                    let confirm_before = ledger;
                    let (ok, effort, tiles) =
                        self.control_point_confirm(suspect, Some(&clusters[k].outputs))?;
                    ledger.charge(Phase::Confirm, effort, tiles);
                    cluster_ledgers[k].charge(Phase::Confirm, effort, tiles);
                    self.phase_mark(Phase::Confirm, t_confirm, confirm_before, &ledger);
                    confirmed[k] = ok;
                    self.emit(DebugEvent::Confirmed {
                        cell: suspect,
                        confirmed: ok,
                    });
                }
            }
        }

        // ---- One corrective ECO for every error -----------------------
        // One sweep of the corrected DUT judges the whole design and
        // every cluster's own outputs.
        let (phys, verified) = self.correct(errors, &mut ledger)?;
        split_charge(
            &mut cluster_ledgers,
            Phase::Correct,
            phys.effort,
            phys.affected.tiles.len(),
            &even,
        );

        // ---- Match clusters to planted errors -------------------------
        let mut matched: Vec<Option<usize>> = vec![None; n];
        let mut claimed = vec![false; errors.len()];
        for k in 0..n {
            if let Some(cell) = localized[k] {
                if let Some(i) = (0..errors.len()).find(|&i| !claimed[i] && errors[i].cell == cell)
                {
                    matched[k] = Some(i);
                    claimed[i] = true;
                }
            }
        }
        for k in 0..n {
            if matched[k].is_some() {
                continue;
            }
            if let Some(i) = (0..errors.len())
                .find(|&i| !claimed[i] && clusters[k].cone.contains(errors[i].cell))
            {
                matched[k] = Some(i);
                claimed[i] = true;
            }
        }

        // ---- One row per planted error --------------------------------
        // Unmatched errors were still repaired by the shared corrective
        // ECO.
        let mut iterations = vec![
            DebugOutcome {
                repaired: verified.failing().is_empty(),
                ..blank
            };
            errors.len()
        ];
        for (k, cl) in clusters.iter().enumerate() {
            let i = match matched[k] {
                Some(i) => {
                    let row = &mut iterations[i];
                    row.mismatch = Some(synthesized_mismatch(self.golden, &clusters, cl)?);
                    row.localized = localized[k];
                    row.repaired = verified.clean_on(&cl.outputs);
                    row.confirmed_by_control = confirmed[k];
                    i
                }
                // A footprint no planted error claimed (e.g. one FSM
                // error fanning out into several cones) still spent
                // real effort: fold it into the row of an error its
                // outputs' fanin cone contains.
                None => {
                    let cone = SuspectCone::fanin(self.golden, &cl.outputs);
                    (0..errors.len())
                        .find(|&i| cone.contains(errors[i].cell))
                        .unwrap_or(0)
                }
            };
            if let Some(row) = iterations.get_mut(i) {
                row.ledger.merge(&cluster_ledgers[k]);
                row.taps_inserted += scheduler.taps_requested(k);
            }
        }
        for row in &mut iterations {
            row.effort = row.ledger.total();
            row.ecos = row.ledger.total_ecos();
        }
        Ok(CampaignOutcome { iterations, ledger })
    }

    /// Detection (steps 10, 21): one full response sweep of the DUT.
    /// Returns the sweep when some output fails. On a clean sweep it
    /// emits [`DebugEvent::CleanDesign`], reverts every planted error
    /// at the netlist level — a LUT-function restore moves nothing, so
    /// no physical ECO — and returns `None`: the caller never keeps a
    /// latent bug the stimulus missed in a DUT reported repaired.
    fn detect(&mut self, errors: &[InjectedError]) -> Result<Option<ResponseMatrix>, TilingError> {
        let t_detect = self.span_begin();
        let matrix = self.sweep_responses()?;
        // Detection charges nothing; the region still gets its span.
        let nothing = EffortLedger::default();
        self.phase_mark(Phase::Detect, t_detect, nothing, &nothing);
        if !matrix.failing().is_empty() {
            return Ok(Some(matrix));
        }
        self.emit(DebugEvent::CleanDesign);
        for error in errors {
            netlist::eco::apply(&mut self.td.netlist, &sim::inject::repair_op(error))?;
        }
        Ok(None)
    }

    /// Correction (steps 11–15, 17–21): applies every error's repair,
    /// re-implements the sorted, deduplicated error cells in one ECO
    /// charged to [`Phase::Correct`], and checks the result with one
    /// response sweep of the corrected DUT (which pairs the golden
    /// primary outputs with their same-named DUT cells — debug
    /// instrumentation may have left extra pins behind). Returns the
    /// ECO's outcome and the verification sweep.
    fn correct(
        &mut self,
        errors: &[InjectedError],
        ledger: &mut EffortLedger,
    ) -> Result<(EcoPhysicalOutcome, ResponseMatrix), TilingError> {
        let t_correct = self.span_begin();
        let correct_before = *ledger;
        let mut seeds: Vec<CellId> = Vec::with_capacity(errors.len());
        for error in errors {
            netlist::eco::apply(&mut self.td.netlist, &sim::inject::repair_op(error))?;
            seeds.push(error.cell);
        }
        seeds.sort_unstable();
        seeds.dedup();
        let phys = self.reimplement(&seeds, &[])?;
        ledger.charge(Phase::Correct, phys.effort, phys.affected.tiles.len());
        let verified = self.sweep_responses()?;
        self.emit(DebugEvent::Corrected {
            repaired: verified.failing().is_empty(),
        });
        self.phase_mark(Phase::Correct, t_correct, correct_before, ledger);
        Ok((phys, verified))
    }

    /// Builds the [`EvidenceBase`] from a failing detection sweep,
    /// taps the deferred-merge witness registers, and folds the FSM
    /// fan-out clusters. Returns `(evidence, merged clusters, witness
    /// taps inserted, per-ECO witness charges)`.
    ///
    /// One FSM error fans out into several clusters (same failure
    /// onset, different output cones, a dominating state register
    /// behind all of them) — but so do several independent same-onset
    /// errors behind a shared sequential trunk, a case the old
    /// pre-registration merge conflated (it intersected both sites
    /// away and localized nothing). The merge decision is therefore
    /// *deferred* until screening evidence exists: one tap batch on
    /// the witness registers measures whether the trunk actually
    /// carried the corruption, and only then are clusters folded. The
    /// measurements stay in the evidence base, so later rounds reuse
    /// them free.
    #[allow(clippy::type_complexity)]
    fn screened_clusters(
        &mut self,
        matrix: &ResponseMatrix,
        ledger: &mut EffortLedger,
    ) -> Result<
        (
            EvidenceBase,
            Vec<FailureCluster>,
            usize,
            Vec<(CadEffort, usize)>,
        ),
        TilingError,
    > {
        let raw_clusters = cluster_failures(self.golden, matrix);
        // The detection sweep seeds every PO driver's exact divergence
        // onset into the evidence base for free, and its per-output
        // onset/depth tables are built once and shared by every
        // cluster.
        let mut evidence = EvidenceBase::from_sweep(self.golden, matrix);
        let witnesses: Vec<CellId> = fsm_merge_witnesses(self.golden, &raw_clusters)
            .into_iter()
            .filter(|&c| !evidence.exact(c))
            .collect();
        let mut merge_screen: Vec<(CadEffort, usize)> = Vec::new();
        let mut taps_inserted = 0usize;
        for (eco_no, batch) in witnesses.chunks(LinearBatches::DEFAULT_BATCH).enumerate() {
            let (onsets, effort, tiles) = self.measure_batch(batch, eco_no)?;
            taps_inserted += batch.len();
            ledger.charge(Phase::Localize, effort, tiles);
            merge_screen.push((effort, tiles));
            for (&cell, &onset) in batch.iter().zip(&onsets) {
                evidence.record(cell, onset);
            }
        }
        let clusters = merge_fsm_clusters(self.golden, raw_clusters, &evidence);
        Ok((evidence, clusters, taps_inserted, merge_screen))
    }

    /// One cluster's localization inputs: its causal
    /// [`crate::diagnosis::ObservationWindow`] and its pruned,
    /// live-LUT-filtered, temporally-ordered suspect list. Emits the
    /// cluster's [`DebugEvent::Detected`] /
    /// [`DebugEvent::SuspectsComputed`] pair.
    ///
    /// Pruning is windowed per cluster: everything a cluster's error
    /// can teach us already happened by the cluster's first failing
    /// pattern, so a cell is pruned when it could not have reached
    /// the cluster's outputs in time, or when another output was
    /// still clean at the pattern the cell's wavefront would earliest
    /// have reached it — even if a slower error diverges that output
    /// later in the sweep (see [`EvidenceBase::prune_cone`]). The
    /// causal window judges each suspect at the cluster's window
    /// minus its FF distance to the cluster's outputs, and the same
    /// depths order suspects temporally (FF-deepest first).
    fn cluster_track(
        &mut self,
        evidence: &EvidenceBase,
        cl: &FailureCluster,
        rank_of: &dyn Fn(CellId) -> usize,
    ) -> Result<(crate::diagnosis::ObservationWindow, Vec<CellId>), TilingError> {
        self.emit(DebugEvent::Detected {
            pattern_index: cl.window,
            output_name: self.golden.cell(cl.outputs[0])?.name.clone(),
        });
        let window = evidence.causal_window(cl);
        let live_lut = |c: CellId| {
            self.td
                .netlist
                .cell(c)
                .map(|cell| cell.lut_function().is_some())
                .unwrap_or(false)
        };
        let mut suspects: Vec<CellId> = evidence
            .prune_cone(&cl.cone, &window)
            .iter()
            .filter(|&c| live_lut(c))
            .collect();
        if suspects.is_empty() {
            // The prune's alibi direction is heuristic — value
            // masking can hide a wavefront from the "clean" output
            // that vouched the alibi — while "this cluster's
            // divergence has a cause inside its cone" is ground
            // truth. An empty suspect list therefore proves the
            // alibi misfired (seen on merged FSM clusters whose
            // earliest member onset shrinks the window); retry with
            // only the exact causal-feasibility direction.
            suspects = cl
                .cone
                .iter()
                .filter(|&c| window.feasible(c) && live_lut(c))
                .collect();
        }
        evidence.order_suspects(&window, &mut suspects, rank_of);
        self.emit(DebugEvent::SuspectsComputed {
            structural: cl.cone.len(),
            candidates: suspects.len(),
        });
        Ok((window, suspects))
    }

    /// Inserts observation taps on every cell of `batch` (one real
    /// ECO through the session flow), measures each tapped net's
    /// exact divergence onset over the whole sweep —
    /// [`sim::emulate::net_first_divergences`] of the DUT against the
    /// golden trace, the single observation entry point for serial
    /// and concurrent localization alike — then retires the taps
    /// again (visibility instruments are temporary, and pads are
    /// scarce; the physical cleanup folds into the next ECO's
    /// re-implementation). Emits the
    /// [`DebugEvent::TapEco`] / [`DebugEvent::Observed`] pair and
    /// returns `(onsets, effort, tiles cleared)`.
    fn measure_batch(
        &mut self,
        batch: &[CellId],
        eco_no: usize,
    ) -> Result<(Vec<Option<usize>>, CadEffort, usize), TilingError> {
        let mut added = Vec::new();
        let mut nets: Vec<NetId> = Vec::with_capacity(batch.len());
        for &cell in batch {
            let net = self.td.netlist.cell_output(cell)?;
            let name = format!("dbg{eco_no}_{}", cell.index());
            let rep = insert_observation_tap(&mut self.td.netlist, net, &name, false)?;
            added.extend(rep.added.iter().copied());
            nets.push(net);
        }
        let removals: Vec<netlist::EcoOp> = added
            .iter()
            .map(|&cell| netlist::EcoOp::RemoveCell { cell })
            .collect();
        let phys = match self.reimplement(batch, &added) {
            Ok(phys) => phys,
            Err(e) => {
                // The flow restored placement/routing; retire the
                // just-inserted taps too so the netlist matches and
                // the caller can retry on a consistent design.
                netlist::eco::apply_all(&mut self.td.netlist, &removals)?;
                return Err(e);
            }
        };
        self.emit(DebugEvent::TapEco {
            cells: batch.to_vec(),
            effort: phys.effort,
        });
        let trace = self.golden_trace()?;
        let onsets = sim::emulate::net_first_divergences(&trace, &self.td.netlist, &nets)?;
        self.emit(DebugEvent::Observed {
            diverging: batch
                .iter()
                .zip(&onsets)
                .filter(|(_, onset)| onset.is_some())
                .map(|(&cell, _)| cell)
                .collect(),
        });
        netlist::eco::apply_all(&mut self.td.netlist, &removals)?;
        Ok((onsets, phys.effort, phys.affected.tiles.len()))
    }

    /// The shared physical localization loop: alternates the
    /// scheduler's evidence-aware round planning with real tap ECOs
    /// ([`measure_batch`](Self::measure_batch)) until every track is
    /// done, and returns the observation taps physically inserted
    /// (post-deduplication). Used verbatim by the serial path (one
    /// track) and the concurrent path (one track per cluster,
    /// `per_track` ledgers apportioning each shared ECO).
    fn run_tap_rounds(
        &mut self,
        scheduler: &mut MultiErrorScheduler,
        evidence: &mut EvidenceBase,
        ledger: &mut EffortLedger,
        per_track: &mut [EffortLedger],
    ) -> Result<usize, TilingError> {
        let n = scheduler.tracks();
        let mut taps_inserted = 0;
        let mut eco_no = 1000; // distinct namespace from merge screening
        while let Some(plan) = scheduler.plan_round(evidence) {
            let mut verdicts: HashMap<CellId, Option<usize>> = HashMap::new();
            for batch in &plan.batches {
                // A screening batch serves every track equally (no
                // track requested it; it rules the shared core in or
                // out for all of them at frontier cost).
                let weights: Vec<usize> = if per_track.is_empty() {
                    Vec::new()
                } else if plan.screening {
                    vec![1; n]
                } else {
                    (0..n)
                        .map(|k| {
                            scheduler
                                .requested(k)
                                .iter()
                                .filter(|c| batch.contains(c))
                                .count()
                        })
                        .collect()
                };
                let (onsets, effort, tiles) = self.measure_batch(batch, eco_no)?;
                eco_no += 1;
                taps_inserted += batch.len();
                ledger.charge(Phase::Localize, effort, tiles);
                if !per_track.is_empty() {
                    split_charge(per_track, Phase::Localize, effort, tiles, &weights);
                }
                for (&cell, &onset) in batch.iter().zip(&onsets) {
                    verdicts.insert(cell, onset);
                }
            }
            scheduler.record_round(evidence, &verdicts);
        }
        Ok(taps_inserted)
    }

    /// Inserts a control point on the suspect's output net (an ECO
    /// through the session flow), then re-emulates with the override
    /// enabled and driven to the golden value every cycle. Returns
    /// (confirmed, effort, tiles cleared); *confirmed* means the
    /// compared outputs — all of them, or just the `outputs` subset a
    /// multi-error session passes — then match the golden model.
    ///
    /// Like observation taps, the control point is *retired* at the
    /// netlist level afterwards (the physical cleanup folds into the
    /// correction ECO that follows), so every later step starts from
    /// an uninstrumented DUT.
    fn control_point_confirm(
        &mut self,
        suspect: CellId,
        outputs: Option<&[CellId]>,
    ) -> Result<(bool, CadEffort, usize), TilingError> {
        let net = self.td.netlist.cell_output(suspect)?;
        // Control points add primary-input *nets* whose names outlive
        // retirement (removing a cell frees its name; a dead net keeps
        // its), so every insertion needs a fresh namespace — confirm
        // runs once per error in a concurrent session and once per
        // tried site in a serial one.
        let base = unique_cp_name(&self.td.netlist, suspect);
        let cp = insert_control_point(&mut self.td.netlist, net, &base)?;
        let phys = match self.reimplement(&[suspect], &cp.report.added) {
            Ok(phys) => phys,
            Err(e) => {
                // The flow restored placement/routing; retire the
                // control point too so the netlist matches and the
                // caller can retry on a consistent design.
                self.retire_control_point(&cp, net)?;
                return Err(e);
            }
        };

        // DUT inputs: golden pattern, then [force_val, force_en] (the
        // two new PIs append to the input order); the packed sweep
        // drives force_val with the golden trace's values for `net`.
        let trace = self.golden_trace()?;
        let confirmed = sim::emulate::forced_outputs_equivalent(
            &trace,
            &self.td.netlist,
            net,
            &self.po_pairs_for(outputs)?,
            CONFIRM_PATTERNS,
        )?;

        self.retire_control_point(&cp, net)?;
        Ok((confirmed, phys.effort, phys.affected.tiles.len()))
    }

    /// Golden↔DUT primary-output index pairs, optionally restricted
    /// to a subset of golden PO cells (a cluster's outputs).
    fn po_pairs_for(&self, outputs: Option<&[CellId]>) -> Result<Vec<(usize, usize)>, TilingError> {
        let mut pairs = po_pairs(self.golden, &self.td.netlist)?;
        if let Some(subset) = outputs {
            let gpos = self.golden.primary_outputs();
            pairs.retain(|&(gk, _)| subset.contains(&gpos[gk]));
        }
        Ok(pairs)
    }

    /// Retires a control point: rewires the mux's sinks back to the
    /// original net, then removes the mux and its two force PIs.
    fn retire_control_point(
        &mut self,
        cp: &sim::testlogic::ControlPoint,
        net: NetId,
    ) -> Result<(), TilingError> {
        let mux_net = self.td.netlist.cell_output(cp.mux)?;
        let sinks = self.td.netlist.net(mux_net)?.sinks.clone();
        for s in &sinks {
            self.td.netlist.set_pin(s.cell, s.pin, net)?;
        }
        let removals: Vec<netlist::EcoOp> = [cp.mux, cp.force_value, cp.force_enable]
            .iter()
            .map(|&cell| netlist::EcoOp::RemoveCell { cell })
            .collect();
        netlist::eco::apply_all(&mut self.td.netlist, &removals)?;
        Ok(())
    }
}

// Compile-time `Send` regression gate (static_assertions-style): the
// campaign fleet (`debugd::run_batch` on `parallel::map`) runs whole
// campaigns on worker threads, and their designs, outcomes, reports
// and errors cross back to the caller. A change that makes any of
// these `!Send` — an `Rc` slipping into a cone, a non-`Send` trait
// object behind a session box — must fail *this compile*, not refuse
// to build the fleet three crates downstream.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TiledDesign>();
    assert_send::<crate::flow::TilingOptions>();
    assert_send::<DebugSession<'static>>();
    assert_send::<EvidenceBase>();
    assert_send::<MultiErrorScheduler>();
    assert_send::<Box<dyn LocalizationStrategy>>();
    assert_send::<Box<dyn ReimplFlow>>();
    assert_send::<DebugEvent>();
    assert_send::<DebugOutcome>();
    assert_send::<CampaignOutcome>();
    assert_send::<crate::report::DebugReport>();
    assert_send::<TilingError>();
};

/// How many leading patterns of the session's stimulus the §4.1 forced
/// re-emulation compares.
const CONFIRM_PATTERNS: usize = 256;

/// Reconstructs the classic first-mismatch record from a failing
/// sweep: the earliest failing pattern across all outputs, with
/// `output_ok` read off the signatures at that pattern. Pattern
/// indices are directly comparable with every other consumer of the
/// same sweep.
fn matrix_mismatch(golden: &Netlist, matrix: &ResponseMatrix) -> Result<Mismatch, TilingError> {
    let pattern_index = matrix
        .signatures
        .iter()
        .filter_map(ResponseSignature::first_failing)
        .min()
        .unwrap_or(0);
    let output_ok = matrix
        .signatures
        .iter()
        .map(|s| !s.contains(pattern_index))
        .collect();
    mismatch_at(golden, pattern_index, output_ok)
}

/// The serial path's sharpest one-cluster view of a failing sweep:
/// all failing outputs, the union of their signatures, the
/// *intersection* of their fanin cones (under the single-error
/// hypothesis the site lies in every failing output's fanin),
/// windowed at the earliest observed failure.
fn serial_cluster(golden: &Netlist, matrix: &ResponseMatrix) -> FailureCluster {
    let failing = matrix.failing();
    let mut outputs = Vec::with_capacity(failing.len());
    let mut signature = ResponseSignature::default();
    let mut cone: Option<SuspectCone> = None;
    for &k in &failing {
        let po = matrix.outputs[k];
        outputs.push(po);
        signature.union_with(&matrix.signatures[k]);
        let po_cone = SuspectCone::fanin(golden, &[po]);
        cone = Some(match cone {
            Some(mut c) => {
                c.intersect_with(&po_cone);
                c
            }
            None => po_cone,
        });
    }
    let window = signature.first_failing().unwrap_or(0);
    FailureCluster {
        outputs,
        signature,
        cone: cone.unwrap_or_default(),
        window,
    }
}

/// First `cp{suspect}_{k}` namespace whose control-point pieces are
/// all unclaimed in `nl` (see the comment at the insertion site).
fn unique_cp_name(nl: &Netlist, suspect: CellId) -> String {
    let mut k = 0usize;
    loop {
        let name = format!("cp{}_{k}", suspect.index());
        if nl.find_net(&format!("{name}_force_val")).is_none()
            && nl.find_net(&format!("{name}_force_en")).is_none()
            && nl.find_cell(&format!("{name}_ctl_mux")).is_none()
        {
            return name;
        }
        k += 1;
    }
}

/// Reconstructs a [`Mismatch`] for one cluster of a concurrent
/// diagnosis (the shape a matched row reports): the cluster's earliest
/// failing pattern, with `output_ok` rebuilt from every cluster's
/// signature at that pattern.
fn synthesized_mismatch(
    golden: &Netlist,
    clusters: &[FailureCluster],
    cluster: &FailureCluster,
) -> Result<Mismatch, TilingError> {
    let pattern_index = cluster.signature.first_failing().unwrap_or(0);
    let output_ok = golden
        .primary_outputs()
        .iter()
        .map(|po| {
            !clusters
                .iter()
                .any(|cl| cl.outputs.contains(po) && cl.signature.contains(pattern_index))
        })
        .collect();
    mismatch_at(golden, pattern_index, output_ok)
}

/// The [`Mismatch`] record of a failure at `pattern_index`, naming the
/// first golden primary output `output_ok` marks failing.
fn mismatch_at(
    golden: &Netlist,
    pattern_index: usize,
    output_ok: Vec<bool>,
) -> Result<Mismatch, TilingError> {
    let output_index = output_ok.iter().position(|&ok| !ok).unwrap_or(0);
    Ok(Mismatch {
        pattern_index,
        cycle: if golden.is_sequential() {
            pattern_index as u64
        } else {
            0
        },
        output_index,
        output_name: golden
            .cell(golden.primary_outputs()[output_index])?
            .name
            .clone(),
        output_ok,
    })
}

/// Each golden cell's position in topological order — the tie-break
/// that orders equally deep suspects.
fn topo_rank(golden: &Netlist) -> Result<HashMap<CellId, usize>, TilingError> {
    Ok(golden
        .topo_order()?
        .into_iter()
        .enumerate()
        .map(|(i, c)| (c, i))
        .collect())
}

/// Splits `total` proportionally to `weights`, exactly: shares sum to
/// `total`, with the remainder dealt one unit at a time to the
/// lowest-index participating entries.
fn apportion(total: u64, weights: &[usize]) -> Vec<u64> {
    let w: u64 = weights.iter().map(|&x| x as u64).sum();
    if w == 0 {
        return vec![0; weights.len()];
    }
    let mut shares: Vec<u64> = weights.iter().map(|&x| total * x as u64 / w).collect();
    let mut rem = total - shares.iter().sum::<u64>();
    let mut k = 0usize;
    while rem > 0 {
        let i = k % weights.len();
        if weights[i] > 0 {
            shares[i] += 1;
            rem -= 1;
        }
        k += 1;
    }
    shares
}

/// Charges one shared physical ECO against the per-cluster ledgers:
/// effort and tiles apportioned by `weights` (taps each cluster had
/// in the batch), the ECO itself counted for every participant —
/// which is exactly why the per-cluster ECO counts sum to *more* than
/// the physical count when batches are shared.
fn split_charge(
    ledgers: &mut [EffortLedger],
    phase: Phase,
    effort: CadEffort,
    tiles: usize,
    weights: &[usize],
) {
    let moves = apportion(effort.place_moves, weights);
    let exps = apportion(effort.route_expansions, weights);
    let tls = apportion(tiles as u64, weights);
    for (k, ledger) in ledgers.iter_mut().enumerate() {
        if weights[k] == 0 {
            continue;
        }
        ledger.charge(
            phase,
            CadEffort {
                place_moves: moves[k],
                route_expansions: exps[k],
            },
            tls[k] as usize,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{implement, TilingOptions};
    use crate::strategy::BinarySearch;
    use sim::emulate::first_mismatch;
    use sim::inject::random_error;
    use synth::PaperDesign;

    #[test]
    fn session_with_binary_search_repairs_9sym() {
        let golden = PaperDesign::NineSym.generate().unwrap();
        let mut td = implement(golden.clone(), TilingOptions::fast(9)).unwrap();
        let err = random_error(&mut td.netlist, 4321).unwrap();
        let mut events = Vec::new();
        let out = DebugSession::new(&mut td, &golden)
            .strategy(BinarySearch::new())
            .seed(42)
            .on_event(|e| events.push(format!("{e:?}")))
            .run(&err)
            .unwrap();
        assert!(out.mismatch.is_some());
        assert!(out.repaired);
        assert_eq!(out.strategy, "binary_search");
        assert_eq!(out.flow, "tiled");
        assert!(td.routing.is_feasible());
        // The event stream traces the whole iteration.
        assert!(events.iter().any(|e| e.contains("Detected")));
        assert!(events.iter().any(|e| e.contains("TapEco")));
        assert!(events.iter().any(|e| e.contains("Corrected")));
        // Ledger phases reconcile with the flat counters.
        assert_eq!(out.effort, out.ledger.total());
        assert_eq!(out.ecos, out.ledger.total_ecos());
        assert!(out.ledger.phase(Phase::Localize).ecos >= 1);
        assert_eq!(out.ledger.phase(Phase::Correct).ecos, 1);
    }

    #[test]
    fn clean_design_short_circuits() {
        let golden = PaperDesign::NineSym.generate().unwrap();
        let mut td = implement(golden.clone(), TilingOptions::fast(10)).unwrap();
        // Fabricate an "error" record without actually corrupting the
        // netlist: detection must find nothing and return early.
        let any_lut = td
            .netlist
            .cells()
            .find(|(_, c)| c.lut_function().is_some())
            .map(|(id, _)| id)
            .unwrap();
        let tt = *td.netlist.cell(any_lut).unwrap().lut_function().unwrap();
        let fake = InjectedError {
            cell: any_lut,
            kind: sim::inject::DesignErrorKind::Complement,
            original: tt,
            buggy: tt,
        };
        let out = DebugSession::new(&mut td, &golden)
            .seed(1)
            .run(&fake)
            .unwrap();
        assert!(out.mismatch.is_none());
        assert!(out.repaired);
        assert_eq!(out.effort.total(), 0);
    }

    /// An 8-LUT backbone fanning into two 4-LUT branches, each ending
    /// in its own output — two overlapping suspect cones.
    fn backbone_design() -> (Netlist, Vec<CellId>, Vec<CellId>) {
        let mut nl = Netlist::new("bb");
        let pi = nl.add_input("a").unwrap();
        let mut net = nl.cell_output(pi).unwrap();
        for k in 0..8 {
            let c = nl
                .add_lut(format!("bb{k}"), netlist::TruthTable::not(), &[net])
                .unwrap();
            net = nl.cell_output(c).unwrap();
        }
        let mut branches = Vec::new();
        for b in 0..2 {
            let mut bnet = net;
            let mut cells = Vec::new();
            for k in 0..4 {
                let c = nl
                    .add_lut(format!("br{b}_{k}"), netlist::TruthTable::not(), &[bnet])
                    .unwrap();
                bnet = nl.cell_output(c).unwrap();
                cells.push(c);
            }
            nl.add_output(format!("y{b}"), bnet).unwrap();
            branches.push(cells);
        }
        let (b0, b1) = (branches.remove(0), branches.remove(0));
        (nl, b0, b1)
    }

    #[test]
    fn concurrent_diagnosis_repairs_two_overlapping_errors() {
        let (nl, b0, b1) = backbone_design();
        let mut td = implement(nl, TilingOptions::fast(21)).unwrap();
        let golden = td.netlist.clone();
        let e0 = sim::inject::inject(
            &mut td.netlist,
            b0[2],
            sim::inject::DesignErrorKind::Complement,
        )
        .unwrap();
        let e1 = sim::inject::inject(
            &mut td.netlist,
            b1[2],
            sim::inject::DesignErrorKind::Complement,
        )
        .unwrap();
        let planted = [e0.cell, e1.cell];
        let mut events = Vec::new();
        let out = DebugSession::new(&mut td, &golden)
            .seed(5)
            .on_event(|e| events.push(e.clone()))
            .run_concurrent(&[e0, e1])
            .unwrap();
        assert!(td.routing.is_feasible());
        // One row per planted error, each localized to its exact cell.
        assert_eq!(out.iterations.len(), 2);
        for (i, row) in out.iterations.iter().enumerate() {
            assert!(row.mismatch.is_some(), "error {i} unmatched");
            assert_eq!(row.localized, Some(planted[i]), "error {i}");
            assert!(row.repaired, "error {i} outputs still diverge");
            assert!(row.confirmed_by_control, "error {i} unconfirmed");
        }
        // One cluster per failing output; each branch is its cluster's
        // exclusive region and the 8 backbone LUTs are the shared core.
        let split = events.iter().find_map(|e| match e {
            DebugEvent::ConeSplit {
                clusters,
                exclusive,
                shared,
            } => Some((*clusters, exclusive.clone(), *shared)),
            _ => None,
        });
        assert_eq!(split, Some((2, vec![4, 4], 8)));
        // The rows apportion the campaign effort exactly.
        let rows: u64 = out.iterations.iter().map(|r| r.effort.total()).sum();
        assert_eq!(rows, out.ledger.total().total());
        // Sharing: requested taps exceed physically inserted taps.
        let requested: usize = out.iterations.iter().map(|r| r.taps_inserted).sum();
        let inserted: usize = events
            .iter()
            .map(|e| match e {
                DebugEvent::TapEco { cells, .. } => cells.len(),
                _ => 0,
            })
            .sum();
        assert!(
            requested > inserted,
            "{requested} requested, {inserted} inserted"
        );
        assert!(matches!(
            events.last(),
            Some(DebugEvent::Corrected { repaired: true })
        ));
        // The DUT really is clean.
        let m =
            first_mismatch(&golden, &td.netlist, PatternSpec::Auto.generate(&golden, 5)).unwrap();
        assert!(m.is_none());
    }

    #[test]
    fn campaign_repairs_successive_errors() {
        let golden = PaperDesign::NineSym.generate().unwrap();
        let mut td = implement(golden.clone(), TilingOptions::fast(11)).unwrap();
        let campaign = DebugSession::new(&mut td, &golden)
            .seed(7)
            .run_campaign(&[1001, 2002])
            .unwrap();
        assert_eq!(campaign.iterations.len(), 2);
        assert!(campaign.iterations.iter().all(|r| r.repaired));
        assert!(campaign.ledger.total().total() > 0);
        assert!(td.routing.is_feasible());
        // The DUT really is clean at the end.
        let m =
            first_mismatch(&golden, &td.netlist, PatternSpec::Auto.generate(&golden, 7)).unwrap();
        assert!(m.is_none(), "campaign left a live bug behind");
    }
}
