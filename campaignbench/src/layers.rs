//! Timing a campaign's layers from outside the program.
//!
//! Nothing here reaches into the session. The two plug-in traits a
//! [`DebugSession`] accepts are wrapped — [`TimedFlow`] around every
//! `reimplement` (the `tiling::flows` physical ECO, itself running on
//! `place`/`route`), [`TimedStrategy`] around every strategy call — and
//! the `DebugEvent` stream is stamped as it arrives, which bounds the
//! emulation sweeps between events:
//!
//! * `tap_eco` → `observed` is one `net_first_divergences` sweep;
//! * end of the control-point ECO → `confirmed` is the forced
//!   re-emulation;
//! * end of the corrective ECO → `corrected` is the verifying sweep.
//!
//! Each campaign records into its own [`CampaignTrace`], so concurrent
//! clients never share a recorder.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use debugd::campaign::event_json;
use debugd::{CampaignRequest, CampaignStatus, DesignArtifact};
use netlist::{CellId, Netlist};
use tiling::diagnosis::evidence::{EvidenceBase, ObservationWindow};
use tiling::report::DebugReport;
use tiling::session::{DebugEvent, DebugOutcome, DebugSession};
use tiling::{EcoPhysicalOutcome, LocalizationStrategy, ReimplFlow, TiledDesign, TilingError};

/// A span: a named interval on the run's clock (milliseconds since the
/// run started), with the span that caused it and the campaign it
/// belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, as used by the per-layer metrics.
    pub name: &'static str,
    /// Start, ms since the run origin.
    pub start_ms: f64,
    /// End, ms since the run origin.
    pub end_ms: f64,
    /// Index of the parent span in the same list (`None` for roots).
    pub parent: Option<usize>,
    /// Stream index of the campaign (`None` for set-up and replays).
    pub campaign: Option<usize>,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// Layer names of the spans a traced campaign records under its root.
pub mod names {
    /// The whole `run_campaign`-equivalent call (the root).
    pub const CAMPAIGN: &str = "debugd.campaign";
    /// Cloning the artifact's tiled design.
    pub const CLONE: &str = "debugd.campaign.clone";
    /// One `ReimplFlow::reimplement` call.
    pub const ECO: &str = "tiling.flows.eco";
    /// One strategy call.
    pub const STRATEGY: &str = "tiling.strategy";
    /// `tap_eco` → `observed`: one tap-observation sweep.
    pub const OBSERVE: &str = "sim.emulate.observe";
    /// Control-point ECO end → `confirmed`.
    pub const CONFIRM: &str = "sim.emulate.confirm";
    /// Corrective ECO end → `corrected`.
    pub const VERIFY: &str = "sim.emulate.verify";
}

/// What one `reimplement` call returned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EcoCall {
    /// Place moves evaluated.
    pub place_moves: u64,
    /// Router wavefront expansions.
    pub route_expansions: u64,
    /// Nets re-routed.
    pub rerouted_nets: usize,
    /// Logic cells re-placed.
    pub replaced_cells: usize,
    /// Tiles cleared.
    pub tiles_cleared: usize,
    /// Whether the re-route stayed inside the affected tiles (`false`
    /// for the tiled flow's congestion fallback and every rival flow).
    pub confined: bool,
}

impl EcoCall {
    fn new(out: &EcoPhysicalOutcome) -> Self {
        Self {
            place_moves: out.effort.place_moves,
            route_expansions: out.effort.route_expansions,
            rerouted_nets: out.rerouted_nets,
            replaced_cells: out.replaced_cells,
            tiles_cleared: out.affected.tiles.len(),
            confined: out.confined,
        }
    }
}

/// Everything recorded about one traced campaign.
#[derive(Debug)]
pub struct CampaignTrace {
    origin: Instant,
    /// Child spans, in the order they closed (parent = the campaign).
    pub spans: Vec<Span>,
    /// One row per successful `reimplement` call.
    pub ecos: Vec<EcoCall>,
    /// `reimplement` calls, failed ones included.
    pub eco_calls: usize,
    /// Cells the strategies asked to tap (before deduplication).
    pub taps_requested: usize,
    last_eco_end: Option<Instant>,
    open_observe: Option<Instant>,
}

impl CampaignTrace {
    /// An empty recorder stamping against `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            ecos: Vec::new(),
            eco_calls: 0,
            taps_requested: 0,
            last_eco_end: None,
            open_observe: None,
        }
    }

    fn ms(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e3
    }

    /// Records a span `[start, end]` of layer `name`.
    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ms: self.ms(start),
            end_ms: self.ms(end),
            parent: None,
            campaign: None,
        };
        self.spans.push(span);
    }

    /// Stamps one event that arrived at `at`, closing the emulation
    /// span it ends. What the events count (planted cells, taps,
    /// physical ECOs) is read from the rendered lines by
    /// [`event_counts`](crate::outputs::event_counts).
    pub fn on_event(&mut self, event: &DebugEvent, at: Instant) {
        match event {
            DebugEvent::TapEco { .. } => self.open_observe = Some(at),
            DebugEvent::Observed { .. } => {
                if let Some(start) = self.open_observe.take() {
                    self.span(names::OBSERVE, start, at);
                }
            }
            DebugEvent::Confirmed { .. } => {
                if let Some(start) = self.last_eco_end {
                    self.span(names::CONFIRM, start, at);
                }
            }
            DebugEvent::Corrected { .. } => {
                if let Some(start) = self.last_eco_end {
                    self.span(names::VERIFY, start, at);
                }
            }
            _ => {}
        }
    }

    /// Total ms of the child spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Number of child spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

/// A recorder shared between a campaign's flow, its strategies and
/// its event callback.
pub type SharedTrace = Arc<Mutex<CampaignTrace>>;

fn lock(trace: &SharedTrace) -> MutexGuard<'_, CampaignTrace> {
    trace
        .lock()
        .expect("a campaign trace is only poisoned if its campaign panicked")
}

/// A [`ReimplFlow`] that times every `reimplement` call of the flow it
/// wraps and records the returned physical outcome.
pub struct TimedFlow {
    inner: Box<dyn ReimplFlow>,
    trace: SharedTrace,
}

impl TimedFlow {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: Box<dyn ReimplFlow>, trace: SharedTrace) -> Self {
        Self { inner, trace }
    }
}

impl ReimplFlow for TimedFlow {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reimplement(
        &mut self,
        td: &mut TiledDesign,
        seeds: &[CellId],
        added: &[CellId],
    ) -> Result<EcoPhysicalOutcome, TilingError> {
        let start = Instant::now();
        let out = self.inner.reimplement(td, seeds, added);
        let end = Instant::now();
        let mut t = lock(&self.trace);
        t.span(names::ECO, start, end);
        t.eco_calls += 1;
        t.last_eco_end = Some(end);
        if let Ok(o) = &out {
            t.ecos.push(EcoCall::new(o));
        }
        out
    }
}

/// A [`LocalizationStrategy`] that times every call of the strategy it
/// wraps. [`fresh`](LocalizationStrategy::fresh) returns a wrapped
/// instance too: the session forks one strategy per failure cluster
/// and never drives the original.
pub struct TimedStrategy {
    inner: Box<dyn LocalizationStrategy>,
    trace: SharedTrace,
}

impl TimedStrategy {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: Box<dyn LocalizationStrategy>, trace: SharedTrace) -> Self {
        Self { inner, trace }
    }

    fn timed<R>(&mut self, call: impl FnOnce(&mut dyn LocalizationStrategy) -> R) -> R {
        let start = Instant::now();
        let r = call(self.inner.as_mut());
        lock(&self.trace).span(names::STRATEGY, start, Instant::now());
        r
    }
}

impl LocalizationStrategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fresh(&self) -> Box<dyn LocalizationStrategy> {
        Box::new(Self::new(self.inner.fresh(), Arc::clone(&self.trace)))
    }

    fn begin(&mut self, golden: &Netlist, suspects: &[CellId]) {
        self.timed(|s| s.begin(golden, suspects));
    }

    fn next_taps(&mut self) -> Vec<CellId> {
        let taps = self.timed(|s| s.next_taps());
        lock(&self.trace).taps_requested += taps.len();
        taps
    }

    fn observe(&mut self, evidence: &EvidenceBase, window: &ObservationWindow) {
        self.timed(|s| s.observe(evidence, window));
    }

    fn localized(&self) -> Option<CellId> {
        let start = Instant::now();
        let site = self.inner.localized();
        lock(&self.trace).span(names::STRATEGY, start, Instant::now());
        site
    }
}

/// One campaign run through the timing wrappers.
#[derive(Debug)]
pub struct TracedCampaign {
    /// How it ended (the service's status names).
    pub status: CampaignStatus,
    /// The merged report, when completed.
    pub report: Option<DebugReport>,
    /// Per-iteration outcomes, when completed.
    pub iterations: Vec<DebugOutcome>,
    /// Event lines, rendered exactly as `debugd` renders them.
    pub events: Vec<String>,
    /// The campaign's root span (`debugd.campaign`).
    pub root: Span,
    /// What the wrappers and the event stamps recorded.
    pub trace: CampaignTrace,
}

/// Runs one request the way `debugd::run_campaign` does — clone the
/// artifact's design, build the session from the request, run the
/// campaign, merge the report — but with the flow and the strategy
/// wrapped in [`TimedFlow`] / [`TimedStrategy`] and every event
/// stamped. `origin` is the run clock's zero.
pub fn run_traced(
    artifact: &DesignArtifact,
    req: &CampaignRequest,
    origin: Instant,
) -> TracedCampaign {
    let trace: SharedTrace = Arc::new(Mutex::new(CampaignTrace::new(origin)));
    let start = Instant::now();
    let mut td = artifact.td.clone();
    lock(&trace).span(names::CLONE, start, Instant::now());
    let mut events: Vec<String> = Vec::new();
    let outcome = {
        let stamps = Arc::clone(&trace);
        let events = &mut events;
        DebugSession::new(&mut td, &artifact.golden)
            .strategy_boxed(Box::new(TimedStrategy::new(
                req.strategy.instantiate(),
                Arc::clone(&trace),
            )))
            .flow_boxed(Box::new(TimedFlow::new(
                req.flow.instantiate(),
                Arc::clone(&trace),
            )))
            .patterns(req.patterns.to_spec(req.pattern_count))
            .seed(req.seed)
            .confirm_with_control(req.confirm_with_control)
            .on_event(move |e| {
                lock(&stamps).on_event(e, Instant::now());
                let seq = events.len();
                events.push(event_json(seq, e));
            })
            .run_campaign(&req.error_seeds)
    };
    let (status, report, iterations) = match outcome {
        Ok(campaign) => (
            CampaignStatus::Completed,
            Some(DebugReport::from_outcomes(&campaign.iterations)),
            campaign.iterations,
        ),
        Err(e @ TilingError::Drc { .. }) => {
            (CampaignStatus::Rejected(e.to_string()), None, Vec::new())
        }
        Err(e) => (CampaignStatus::Failed(e.to_string()), None, Vec::new()),
    };
    let end = Instant::now();
    let trace = Arc::try_unwrap(trace)
        .expect("the session and its wrappers are dropped")
        .into_inner()
        .expect("a campaign trace is only poisoned if its campaign panicked");
    let root = Span {
        name: names::CAMPAIGN,
        start_ms: trace.ms(start),
        end_ms: trace.ms(end),
        parent: None,
        campaign: None,
    };
    TracedCampaign {
        status,
        report,
        iterations,
        events,
        root,
        trace,
    }
}
