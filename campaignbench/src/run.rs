//! One benchmark run: set-up, the closed-loop stream of timed
//! campaigns, the output checks, and — in a traced run — the per-layer
//! measurements.
//!
//! A run sends requests 0, 1, 2, … of the workload's stream through the
//! service until `--seconds` have elapsed, and at least the workload's
//! checked prefix ([`Workload::prefix_len`] requests). The output
//! fingerprint and the deterministic metrics are computed over the
//! prefix, so they repeat exactly for a seed; the timing metrics over
//! every campaign the run made.
//!
//! Campaigns and set-ups are timed on the calling thread's CPU clock,
//! which leaves out time the host gave the core to someone else, and
//! rescaled by a fixed [`Reference`] computation timed beside them,
//! which cancels how fast the host's core happened to run.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use debugd::{run_campaign, ArtifactStore, CampaignRequest, CampaignResult, DesignArtifact};
use fpga::Routing;
use netlist::CellId;
use synth::PaperDesign;
use tiling::{cluster_failures, collect_responses, EvidenceBase, TilingError};

use crate::layers::{names, run_traced, EcoCall, Span, TracedCampaign};
use crate::outputs::{
    self, campaign_digest, event_counts, fingerprint, report_rows, EventCounts, Row, Scored,
};
use crate::reference::Reference;
use crate::stats::{mean, median, peak_rss_mb, quantile, ratio, thread_cpu_ms};
use crate::workload::{Shape, Workload, IMPL_SEED, TARGET_TILES};

/// Set-ups before the stream starts; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Repetitions of each per-artifact replay in a traced run.
pub const REPLAY_REPS: usize = 3;
/// Half-width of the window of a thread's reference runs whose median
/// gives the host's speed around one of its timings.
const REF_WINDOW: usize = 3;
/// The [`Reference`]'s CPU time, in ms, on the host the benchmark was
/// built on (a 2-vCPU Intel Xeon virtual machine at 2.1 GHz) when that
/// host ran fast. A rescaled time is what the timing would have read
/// at that speed.
const REF_MS: f64 = 1.1;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed every request derives from.
    pub seed: u64,
    /// How long the run measures, set-up included.
    pub seconds: f64,
    /// Run the traced variant.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Everything a run prints.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Campaigns run.
    pub attempted: usize,
    /// Campaigns that failed a check.
    pub failed: usize,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The calling thread's CPU clock, in ms. [`run`] checks that it reads
/// before anything is timed.
fn cpu_ms() -> f64 {
    thread_cpu_ms().expect("the CPU clock read when the run started")
}

/// One run of `reference`, in CPU ms.
fn reference_ms(reference: &mut Reference) -> f64 {
    let t = cpu_ms();
    std::hint::black_box(reference.run());
    cpu_ms() - t
}

/// A thread's timing (CPU ms) and the time of the reference run it made
/// just before.
#[derive(Debug, Clone, Copy)]
struct Timed {
    ms: f64,
    ref_ms: f64,
}

/// Rescales one thread's timings, in the order it took them, to the
/// reference speed: each is divided by the median reference time within
/// [`REF_WINDOW`] timings of it and multiplied by [`REF_MS`].
fn rescale(timed: &[Timed]) -> Vec<f64> {
    let refs: Vec<f64> = timed.iter().map(|t| t.ref_ms).collect();
    timed
        .iter()
        .enumerate()
        .map(|(k, t)| {
            let window = &refs[k.saturating_sub(REF_WINDOW)..(k + REF_WINDOW + 1).min(refs.len())];
            t.ms * REF_MS / median(window)
        })
        .collect()
}

/// The workload's implemented designs, built before timing starts.
pub struct Artifacts {
    /// The distinct designs, in first-use order.
    pub designs: Vec<PaperDesign>,
    /// One artifact per design, from the latest set-up.
    pub by_design: Vec<Arc<DesignArtifact>>,
    /// Per set-up, each `get_or_build` call's CPU time in ms.
    pub build_ms: Vec<Vec<f64>>,
    /// Per set-up, the reference run made just before it (CPU ms).
    ref_ms: Vec<f64>,
}

impl Artifacts {
    /// Sets the workload up `reps` times, each time into a fresh
    /// [`ArtifactStore`] that replaces the last, timing each
    /// `get_or_build` call after one run of the [`Reference`].
    ///
    /// # Errors
    ///
    /// The first build failure.
    pub fn build(w: Workload, reps: usize) -> Result<Self, String> {
        let mut arts = Self {
            designs: w.designs().to_vec(),
            by_design: Vec::new(),
            build_ms: Vec::new(),
            ref_ms: Vec::new(),
        };
        let mut reference = Reference::new();
        for _ in 0..reps.max(1) {
            arts.ref_ms.push(reference_ms(&mut reference));
            // The previous set is dropped first, so only one is ever held.
            arts.by_design.clear();
            let store = ArtifactStore::new();
            let mut row = Vec::with_capacity(arts.designs.len());
            for &design in &arts.designs {
                let req = CampaignRequest {
                    design,
                    target_tiles: TARGET_TILES,
                    impl_seed: IMPL_SEED,
                    ..CampaignRequest::default()
                };
                let t = cpu_ms();
                let artifact = store
                    .get_or_build(&req)
                    .map_err(|e| format!("building {}: {e}", design.name()))?;
                row.push(cpu_ms() - t);
                arts.by_design.push(artifact);
            }
            arts.build_ms.push(row);
        }
        Ok(arts)
    }

    /// Position of `design` among the workload's designs.
    fn index(&self, design: PaperDesign) -> usize {
        self.designs
            .iter()
            .position(|&d| d == design)
            .expect("every request names one of the workload's designs")
    }

    /// The artifact a request runs against.
    pub fn for_request(&self, req: &CampaignRequest) -> &DesignArtifact {
        &self.by_design[self.index(req.design)]
    }

    /// Each set-up's total CPU time, in ms.
    pub fn setup_ms(&self) -> Vec<f64> {
        self.build_ms.iter().map(|r| r.iter().sum()).collect()
    }

    /// The median set-up, rescaled to the reference speed, in seconds.
    pub fn setup_s(&self) -> f64 {
        let timed: Vec<Timed> = self
            .setup_ms()
            .into_iter()
            .zip(&self.ref_ms)
            .map(|(ms, &ref_ms)| Timed { ms, ref_ms })
            .collect();
        median(&rescale(&timed)) / 1e3
    }

    /// The emulation clock the artifacts run at, in MHz: the inverse
    /// of their mean post-route critical path.
    ///
    /// # Errors
    ///
    /// Timing-analysis failures.
    pub fn clock_mhz(&self) -> Result<f64, TilingError> {
        let mut paths = Vec::with_capacity(self.by_design.len());
        for a in &self.by_design {
            paths.push(a.td.timing()?.critical_ns);
        }
        Ok(1e3 / mean(&paths))
    }
}

/// One finished campaign of the stream.
struct Done<T> {
    index: usize,
    /// Its time, rescaled to the reference speed (ms).
    ms: f64,
    out: T,
}

/// What a stream of campaigns left behind.
struct Stream<T> {
    /// The campaigns, in request order. Every request below the
    /// stream's `min_len` runs, so they come first.
    done: Vec<Done<T>>,
    wall_s: f64,
    /// Campaign CPU time per client (s).
    cpu_s: f64,
    /// The same, rescaled to the reference speed.
    busy_s: f64,
    /// The median reference run (CPU ms).
    ref_ms: f64,
    /// The process's peak RSS when the stream ended (MB).
    peak_rss_mb: Option<f64>,
}

/// Runs requests 0, 1, 2, … in a closed loop — `clients` threads each
/// take the next request as soon as their previous one returns — until
/// `deadline` has passed and at least `min_len` requests have been
/// taken. Before each campaign the client runs the [`Reference`] once.
/// `run(index)` returns the campaign's CPU time in ms and what to keep
/// of it.
fn stream<T: Send>(
    clients: usize,
    min_len: usize,
    deadline: Instant,
    run: &(dyn Fn(usize) -> (f64, T) + Sync),
) -> Stream<T> {
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let per_client: Vec<Vec<(usize, Timed, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut reference = Reference::new();
                    let mut runs = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= min_len && Instant::now() >= deadline {
                            return runs;
                        }
                        let ref_ms = reference_ms(&mut reference);
                        let (ms, out) = run(index);
                        runs.push((index, Timed { ms, ref_ms }, out));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark client panicked"))
            .collect()
    });
    let wall_s = t.elapsed().as_secs_f64();
    let (mut cpu_ms, mut refs, mut done) = (0.0, Vec::new(), Vec::new());
    for runs in per_client {
        let timed: Vec<Timed> = runs.iter().map(|r| r.1).collect();
        cpu_ms += timed.iter().map(|t| t.ms).sum::<f64>();
        refs.extend(timed.iter().map(|t| t.ref_ms));
        for (ms, (index, _, out)) in rescale(&timed).into_iter().zip(runs) {
            done.push(Done { index, ms, out });
        }
    }
    done.sort_by_key(|d| d.index);
    let per_client_s = |ms: f64| ms / 1e3 / clients as f64;
    Stream {
        wall_s,
        cpu_s: per_client_s(cpu_ms),
        busy_s: per_client_s(done.iter().map(|d| d.ms).sum()),
        ref_ms: median(&refs),
        peak_rss_mb: peak_rss_mb(),
        done,
    }
}

/// Runs one `debugd::run_campaign` call, timed in CPU ms.
fn timed_campaign(artifact: &DesignArtifact, req: &CampaignRequest) -> (f64, CampaignResult) {
    let t = cpu_ms();
    let result = run_campaign(artifact, req);
    (cpu_ms() - t, result)
}

/// What an untraced campaign leaves behind: its output digest and
/// whether it completed with its DUT repaired, and for the checked
/// prefix its outputs read back and scored. No whole result outlives
/// its campaign, so `peak_rss_mb` is the program's memory, not the
/// harness's.
struct Untraced {
    digest: u64,
    ok: bool,
    scored: Option<Scored>,
}

impl Untraced {
    fn of(result: &CampaignResult, in_prefix: bool) -> Self {
        if in_prefix {
            let scored = outputs::score(result);
            Self {
                digest: scored.digest,
                ok: scored.failure.is_none(),
                scored: Some(scored),
            }
        } else {
            Self {
                digest: campaign_digest(&result.report_json, &result.events),
                ok: result
                    .report
                    .as_ref()
                    .is_some_and(|r| r.repaired == r.iterations),
                scored: None,
            }
        }
    }
}

/// A run's output checks.
#[derive(Default)]
struct Checks {
    /// The checked prefix's outputs, read back and scored, in request
    /// order.
    scored: Vec<Scored>,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Checks {
    /// Checks one untraced campaign; they arrive in request order. One
    /// of the checked prefix is scored, a later one must complete with
    /// its DUT repaired.
    fn untraced(&mut self, index: usize, u: Untraced) {
        self.attempted += 1;
        let problem = match u.scored {
            Some(scored) => {
                let problem = scored.failure.clone();
                self.scored.push(scored);
                problem
            }
            None if !u.ok => Some("not completed and repaired".to_string()),
            None => None,
        };
        self.fail("campaign", index, problem);
    }

    /// Checks a repeat run of request `index` of the checked prefix: it
    /// must reproduce the first run's output exactly.
    fn repeat(&mut self, index: usize, u: &Untraced) {
        self.attempted += 1;
        let problem = (u.digest != self.scored[index].digest)
            .then(|| "a repeat run's output differs from the first run's".to_string());
        self.fail("campaign", index, problem);
    }

    /// Counts a failed check, if `problem` is one.
    fn fail(&mut self, what: &str, index: usize, problem: Option<String>) {
        if let Some(p) = problem {
            self.failed += 1;
            self.notes.push(format!("{what} {index}: {p}"));
        }
    }

    /// The workload fingerprint: the checked prefix's digests, in
    /// request order.
    fn fingerprint(&self) -> u64 {
        fingerprint(self.scored.iter().map(|s| s.digest))
    }
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Set-up failures (an artifact that does not build or time).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(opts.seconds);
    thread_cpu_ms().ok_or("no per-thread CPU clock: /proc/thread-self/schedstat does not read")?;
    let w = opts.workload;
    let shapes = w.shapes();
    let arts = Artifacts::build(w, SETUP_REPS)?;
    let mut out = Outcome::default();
    out.notes.push(format!(
        "workload {} seed {}: checked prefix of {} campaigns ({} shapes), {} client(s)",
        w.name(),
        opts.seed,
        w.prefix_len(),
        shapes.len(),
        w.clients(),
    ));
    if opts.trace {
        traced_run(opts, &shapes, &arts, origin, deadline, &mut out)?;
    } else {
        untraced_run(opts, &shapes, &arts, deadline, &mut out)?;
    }
    let setups: Vec<String> = arts
        .setup_ms()
        .iter()
        .map(|ms| format!("{:.3}", ms / 1e3))
        .collect();
    out.notes.push(format!(
        "set-up CPU times {} s; reference runs before them {:.3} ms",
        setups.join(" "),
        median(&arts.ref_ms)
    ));
    Ok(out)
}

/// The note on how a stream spent its time.
fn stream_note<T>(s: &Stream<T>) -> String {
    format!(
        "{} campaigns in {:.2} s wall; campaign CPU time per client {:.2} s, {:.2} s rescaled; reference runs {:.3} ms",
        s.done.len(),
        s.wall_s,
        s.cpu_s,
        s.busy_s,
        s.ref_ms
    )
}

fn untraced_run(
    opts: &Options,
    shapes: &[Shape],
    arts: &Artifacts,
    deadline: Instant,
    out: &mut Outcome,
) -> Result<(), String> {
    let w = opts.workload;
    let prefix = w.prefix_len();
    let run = |i: usize| {
        let req = w.request(shapes, opts.seed, i);
        let (ms, result) = timed_campaign(arts.for_request(&req), &req);
        (ms, Untraced::of(&result, i < prefix))
    };
    let s = stream(w.clients(), prefix, deadline, &run);
    out.notes.push(stream_note(&s));
    // Timed over the checked prefix only, so that every run of a seed
    // times the same campaigns however fast the host is.
    let latency: Vec<f64> = s.done[..prefix].iter().map(|d| d.ms).collect();
    let busy_s = latency.iter().sum::<f64>() / 1e3 / w.clients() as f64;
    let mut checks = Checks::default();
    for d in s.done {
        checks.untraced(d.index, d.out);
    }
    // The stream's first cycle runs once more, untimed, and must
    // reproduce its output.
    for i in 0..shapes.len() {
        let req = w.request(shapes, opts.seed, i);
        checks.repeat(
            i,
            &Untraced::of(&run_campaign(arts.for_request(&req), &req), false),
        );
    }
    out.attempted = checks.attempted;
    out.failed = checks.failed;
    out.notes
        .push(format!("fingerprint {:016x}", checks.fingerprint()));
    let planted: usize = checks.scored.iter().map(|s| s.counts.planted.len()).sum();
    let exact: usize = checks.scored.iter().map(|s| s.exact_sites).sum();
    let ecos: Vec<f64> = checks.scored.iter().map(|s| s.counts.ecos as f64).collect();
    let ledger: Vec<f64> = checks.scored.iter().map(|s| s.ledger_ecos as f64).collect();
    out.notes.push(format!(
        "localized exactly {exact}/{planted} planted errors; {:.2} physical vs {:.2} ledger ECOs per campaign",
        mean(&ecos),
        mean(&ledger)
    ));
    out.notes.extend(checks.notes);
    out.push("campaign_ms_p50", "ms", median(&latency));
    out.push("campaign_ms_p90", "ms", quantile(&latency, 0.9));
    out.push(
        "campaigns_per_s",
        "1/s",
        ratio(latency.len() as f64, busy_s),
    );
    out.push("setup_s", "s", arts.setup_s());
    out.push("ecos_per_campaign", "count", mean(&ecos));
    out.push(
        "site_exact_frac",
        "ratio",
        ratio(exact as f64, planted as f64),
    );
    out.push(
        "completed_frac",
        "ratio",
        1.0 - ratio(out.failed as f64, out.attempted as f64),
    );
    out.push(
        "emulation_clock_mhz",
        "MHz",
        arts.clock_mhz().map_err(|e| e.to_string())?,
    );
    out.push("peak_rss_mb", "MB", s.peak_rss_mb.unwrap_or(0.0));
    Ok(())
}

/// Per-campaign numbers of one traced campaign.
#[derive(Debug, Clone, Default)]
struct Layers {
    campaign_ms: f64,
    clone_ms: f64,
    eco_ms: f64,
    eco_call_ms: Vec<f64>,
    ecos: f64,
    place_moves: f64,
    route_expansions: f64,
    rerouted_nets: f64,
    replaced_cells: f64,
    tiles_cleared: f64,
    unconfined: usize,
    observe_ms: f64,
    observe_sweeps: f64,
    confirm_ms: f64,
    verify_ms: f64,
    strategy_ms: f64,
    taps_requested: f64,
    taps: f64,
    ledger_ecos: f64,
}

impl Layers {
    fn of(c: &TracedCampaign, counts: &EventCounts) -> Self {
        let t = &c.trace;
        let sum = |f: fn(&EcoCall) -> u64| t.ecos.iter().map(f).sum::<u64>() as f64;
        Self {
            campaign_ms: c.root.ms(),
            clone_ms: t.total_ms(names::CLONE),
            eco_ms: t.total_ms(names::ECO),
            eco_call_ms: t
                .spans
                .iter()
                .filter(|s| s.name == names::ECO)
                .map(Span::ms)
                .collect(),
            ecos: t.eco_calls as f64,
            place_moves: sum(|e| e.place_moves),
            route_expansions: sum(|e| e.route_expansions),
            rerouted_nets: sum(|e| e.rerouted_nets as u64),
            replaced_cells: sum(|e| e.replaced_cells as u64),
            tiles_cleared: sum(|e| e.tiles_cleared as u64),
            unconfined: t.ecos.iter().filter(|e| !e.confined).count(),
            observe_ms: t.total_ms(names::OBSERVE),
            observe_sweeps: t.count(names::OBSERVE) as f64,
            confirm_ms: t.total_ms(names::CONFIRM),
            verify_ms: t.total_ms(names::VERIFY),
            strategy_ms: t.total_ms(names::STRATEGY),
            taps_requested: t.taps_requested as f64,
            taps: counts.taps as f64,
            ledger_ecos: c
                .report
                .as_ref()
                .map_or(0.0, |r| r.ledger.total_ecos() as f64),
        }
    }

    /// Time the measured children cover.
    fn children_ms(&self) -> f64 {
        self.clone_ms
            + self.eco_ms
            + self.strategy_ms
            + self.observe_ms
            + self.confirm_ms
            + self.verify_ms
    }
}

/// What a paired run of one request leaves behind: the service's own
/// run and the traced run, back to back.
struct Paired {
    /// The traced run's CPU time minus the untraced run's (ms).
    overhead_ms: f64,
    untraced: Untraced,
    /// The traced output digest: the untraced one exactly when the two
    /// runs agree.
    traced_digest: u64,
    layers: Layers,
    /// The traced campaign's root span followed by its children.
    spans: Vec<Span>,
    /// Cells the campaign planted, for the replays.
    planted: Vec<usize>,
    problem: Option<String>,
}

/// Compares a traced campaign with the service's own run of the same
/// request. Returns the traced output digest — the untraced one exactly
/// when the event lines and everything the report document renders
/// agree — and a description of the first difference.
fn compare(untraced: &CampaignResult, traced: &TracedCampaign) -> (u64, Option<String>) {
    let rows: Vec<Row> = traced.iterations.iter().map(Row::of).collect();
    let problem = if untraced.status.name() != traced.status.name() {
        Some(format!(
            "status {} traced vs {} untraced",
            traced.status.name(),
            untraced.status.name()
        ))
    } else if untraced.events != traced.events {
        Some("event lines differ".to_string())
    } else if untraced.report != traced.report {
        Some("merged report differs".to_string())
    } else if untraced.report.is_some() && report_rows(&untraced.report_json) != Ok(rows) {
        Some("per-iteration rows differ".to_string())
    } else {
        None
    };
    let digest = campaign_digest(&untraced.report_json, &traced.events);
    match problem {
        None => (digest, None),
        Some(p) => (!digest, Some(p)),
    }
}

/// Checks one traced campaign on its own: its event-derived ECO count
/// must equal the flow wrapper's call count, and it must end repaired.
fn traced_problem(c: &TracedCampaign, counts: &EventCounts) -> Option<String> {
    if counts.ecos != c.trace.eco_calls {
        Some(format!(
            "{} ECO events but {} reimplement calls",
            counts.ecos, c.trace.eco_calls
        ))
    } else if c.report.as_ref().is_none_or(|r| r.repaired < r.iterations) {
        Some("not completed and repaired".to_string())
    } else {
        None
    }
}

fn traced_run(
    opts: &Options,
    shapes: &[Shape],
    arts: &Artifacts,
    origin: Instant,
    deadline: Instant,
    out: &mut Outcome,
) -> Result<(), String> {
    let w = opts.workload;
    let prefix = w.prefix_len();
    // Each request runs untraced and traced back to back, alternating
    // which goes first, so that the two runs see the same host and
    // neither always finds the caches warm.
    let run = |i: usize| {
        let req = w.request(shapes, opts.seed, i);
        let artifact = arts.for_request(&req);
        let traced = || {
            let t = cpu_ms();
            let c = run_traced(artifact, &req, origin);
            (cpu_ms() - t, c)
        };
        let ((untraced_ms, result), (traced_ms, c)) = if i.is_multiple_of(2) {
            let plain = timed_campaign(artifact, &req);
            (plain, traced())
        } else {
            let t = traced();
            (timed_campaign(artifact, &req), t)
        };
        let (traced_digest, differs) = compare(&result, &c);
        // Events that match the untraced run's read back: the untraced
        // checks parse those.
        let counts = event_counts(&c.events).unwrap_or_default();
        let mut spans = vec![Span {
            campaign: Some(i),
            ..c.root.clone()
        }];
        spans.extend(c.trace.spans.iter().map(|s| Span {
            parent: Some(0),
            campaign: Some(i),
            ..s.clone()
        }));
        let keep = Paired {
            overhead_ms: traced_ms - untraced_ms,
            untraced: Untraced::of(&result, i < prefix),
            traced_digest,
            layers: Layers::of(&c, &counts),
            spans,
            problem: differs.or_else(|| traced_problem(&c, &counts)),
            planted: counts.planted,
        };
        (traced_ms, keep)
    };
    let s = stream(w.clients(), prefix, deadline, &run);
    out.notes.push(stream_note(&s));

    // Outputs: every run checked, the traced prefix compared with the
    // untraced one. Spans: each traced campaign's root and children,
    // parent indices rebased onto the run-wide list.
    let mut checks = Checks::default();
    let (mut traced_digests, mut planted) = (Vec::new(), Vec::new());
    let (mut spans, mut layers) = (Vec::new(), Vec::new());
    let (mut traced_latency, mut overhead) = (Vec::new(), Vec::new());
    for d in s.done {
        let c = d.out;
        checks.untraced(d.index, c.untraced);
        checks.attempted += 1;
        checks.fail("traced campaign", d.index, c.problem);
        overhead.push(c.overhead_ms);
        if d.index < prefix {
            traced_latency.push(d.ms);
            traced_digests.push(c.traced_digest);
            planted.push(c.planted);
        }
        let root = spans.len();
        spans.extend(c.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + root),
            ..s
        }));
        layers.push(c.layers);
    }
    let fp_untraced = checks.fingerprint();
    let fp_traced = fingerprint(traced_digests);
    out.notes.push(format!(
        "fingerprint {fp_untraced:016x} untraced, {fp_traced:016x} traced ({})",
        if fp_untraced == fp_traced {
            "identical"
        } else {
            "DIFFERENT"
        }
    ));

    let replay = replays(
        w,
        opts.seed,
        shapes,
        arts,
        &planted,
        origin,
        &mut spans,
        &mut checks,
    )?;
    out.attempted = checks.attempted;
    out.failed = checks.failed;
    out.notes.extend(checks.notes);

    let per = |f: fn(&Layers) -> f64| mean(&layers.iter().map(f).collect::<Vec<_>>());
    let campaign_total: f64 = layers.iter().map(|l| l.campaign_ms).sum();
    let children_total: f64 = layers.iter().map(Layers::children_ms).sum();
    let eco_calls: Vec<f64> = layers.iter().flat_map(|l| l.eco_call_ms.clone()).collect();
    let unconfined: usize = layers.iter().map(|l| l.unconfined).sum();
    out.notes.push(format!(
        "{} paired untraced + traced campaigns; measured children cover {:.1}% of traced campaign time",
        layers.len(),
        100.0 * ratio(children_total, campaign_total)
    ));
    write_spans(w, opts.seed, &spans, out);

    out.push("debugd.artifacts.build_ms", "ms", arts.setup_s() * 1e3);
    out.push("synth.generate_ms", "ms", replay.generate_ms);
    out.push("place.run_placer_ms", "ms", replay.placer_ms);
    out.push("place.moves", "count", replay.place_moves);
    out.push("route.route_design_ms", "ms", replay.route_ms);
    out.push("route.expansions", "count", replay.route_expansions);
    out.push("drc.preflight_ms", "ms", replay.preflight_ms);
    out.push("drc.findings", "count", replay.findings);
    out.push("debugd.campaign.clone_ms", "ms", per(|l| l.clone_ms));
    out.push("tiling.flows.eco_ms", "ms", per(|l| l.eco_ms));
    out.push("tiling.flows.eco_ms_p50", "ms", median(&eco_calls));
    out.push("tiling.flows.ecos", "count", per(|l| l.ecos));
    out.push("tiling.flows.place_moves", "count", per(|l| l.place_moves));
    out.push(
        "tiling.flows.route_expansions",
        "count",
        per(|l| l.route_expansions),
    );
    out.push(
        "tiling.flows.rerouted_nets",
        "count",
        per(|l| l.rerouted_nets),
    );
    out.push(
        "tiling.flows.replaced_cells",
        "count",
        per(|l| l.replaced_cells),
    );
    out.push(
        "tiling.flows.tiles_cleared",
        "count",
        per(|l| l.tiles_cleared),
    );
    out.push(
        "tiling.flows.unconfined_frac",
        "ratio",
        ratio(unconfined as f64, eco_calls.len() as f64),
    );
    out.push("sim.emulate.observe_ms", "ms", per(|l| l.observe_ms));
    out.push(
        "sim.emulate.observe_sweeps",
        "count",
        per(|l| l.observe_sweeps),
    );
    out.push("sim.emulate.confirm_ms", "ms", per(|l| l.confirm_ms));
    out.push("sim.emulate.verify_ms", "ms", per(|l| l.verify_ms));
    out.push("sim.emulate.detect_ms", "ms", replay.detect_ms);
    out.push("tiling.diagnosis.cluster_ms", "ms", replay.cluster_ms);
    out.push("tiling.diagnosis.clusters", "count", replay.clusters);
    out.push("tiling.strategy.ms", "ms", per(|l| l.strategy_ms));
    out.push(
        "tiling.strategy.taps_requested",
        "count",
        per(|l| l.taps_requested),
    );
    out.push("tiling.session.taps", "count", per(|l| l.taps));
    out.push(
        "tiling.session.ledger_ecos",
        "count",
        per(|l| l.ledger_ecos),
    );
    out.push(
        "tiling.session.self_ms",
        "ms",
        per(|l| l.campaign_ms - l.children_ms()),
    );
    out.push(
        "tiling.session.covered_frac",
        "ratio",
        ratio(children_total, campaign_total),
    );
    out.push("trace.campaign_ms_p50", "ms", median(&traced_latency));
    out.push("trace.overhead_ms", "ms", median(&overhead));
    Ok(())
}

/// The layer entry points replayed outside the timed campaigns.
#[derive(Debug, Default)]
struct Replay {
    generate_ms: f64,
    placer_ms: f64,
    place_moves: f64,
    route_ms: f64,
    route_expansions: f64,
    preflight_ms: f64,
    findings: f64,
    detect_ms: f64,
    cluster_ms: f64,
    clusters: f64,
}

/// Replays the set-up layers on every artifact ([`REPLAY_REPS`] times;
/// sums over the artifacts, medians over repetitions), then detection
/// and clustering on each first-pass campaign's planted errors, whose
/// cells must match the ones the campaign's events reported.
#[allow(clippy::too_many_arguments)]
fn replays(
    w: Workload,
    seed: u64,
    shapes: &[Shape],
    arts: &Artifacts,
    planted: &[Vec<usize>],
    origin: Instant,
    spans: &mut Vec<Span>,
    checks: &mut Checks,
) -> Result<Replay, String> {
    let mut span = |name: &'static str, start: Instant, campaign: Option<usize>| {
        let at = |t: Instant| t.duration_since(origin).as_secs_f64() * 1e3;
        spans.push(Span {
            name,
            start_ms: at(start),
            end_ms: at(Instant::now()),
            parent: None,
            campaign,
        });
    };
    let n = arts.by_design.len();
    let (mut generate, mut placer, mut router) = (Vec::new(), Vec::new(), Vec::new());
    let mut preflight_ms = vec![Vec::new(); n];
    let (mut moves, mut expansions, mut findings) = (0u64, 0u64, vec![0usize; n]);
    for _ in 0..REPLAY_REPS {
        let (mut g, mut p, mut r) = (0.0, 0.0, 0.0);
        (moves, expansions) = (0, 0);
        for (k, a) in arts.by_design.iter().enumerate() {
            let td = &a.td;
            let t = Instant::now();
            a.design.generate().map_err(|e| e.to_string())?;
            g += ms_since(t);
            span("replay.synth.generate", t, None);

            let t = Instant::now();
            let placed = place::run_placer(
                &td.netlist,
                &td.device,
                &place::Constraints::free(),
                None,
                &td.options.placer,
            )
            .map_err(|e| e.to_string())?;
            p += ms_since(t);
            span("replay.place.run_placer", t, None);
            moves += placed.moves_evaluated;

            let t = Instant::now();
            let mut routing = Routing::new(td.rrg.num_nodes());
            let stats = route::route_design(
                &td.netlist,
                &td.placement,
                &td.rrg,
                &mut routing,
                &td.options.router,
            )
            .map_err(|e| e.to_string())?;
            r += ms_since(t);
            span("replay.route.route_design", t, None);
            expansions += stats.expansions;

            let t = Instant::now();
            findings[k] = match tiling::preflight(td) {
                Ok(f) | Err(TilingError::Drc { findings: f }) => f.len(),
                Err(e) => return Err(e.to_string()),
            };
            preflight_ms[k].push(ms_since(t));
            span("replay.drc.preflight", t, None);
        }
        generate.push(g);
        placer.push(p);
        router.push(r);
    }

    // Campaign layers, per first-pass campaign: the pre-flight its
    // artifact costs, then detection and clustering on a clone carrying
    // the campaign's planted errors.
    let mut per_campaign: Vec<[f64; 5]> = Vec::with_capacity(planted.len());
    for (i, cells) in planted.iter().enumerate() {
        let req = w.request(shapes, seed, i);
        let k = arts.index(req.design);
        let a = &arts.by_design[k];
        let mut dut = a.td.netlist.clone();
        let replayed: Vec<CellId> = if req.error_seeds.len() == 1 {
            vec![
                sim::inject::random_error(&mut dut, req.error_seeds[0])
                    .map_err(|e| e.to_string())?
                    .cell,
            ]
        } else {
            sim::inject::random_distinct_errors(&mut dut, &req.error_seeds)
                .map_err(|e| e.to_string())?
                .iter()
                .map(|e| e.cell)
                .collect()
        };
        if !replayed.iter().map(|c| c.index()).eq(cells.iter().copied()) {
            checks.fail(
                "replay of campaign",
                i,
                Some("planted cells differ from its events".to_string()),
            );
        }
        let patterns = req
            .patterns
            .to_spec(req.pattern_count)
            .generate(&a.golden, req.seed);
        let t = Instant::now();
        let matrix = collect_responses(&a.golden, &dut, patterns).map_err(|e| e.to_string())?;
        let detect = ms_since(t);
        span("replay.sim.emulate.detect", t, Some(i));
        let t = Instant::now();
        let clusters = cluster_failures(&a.golden, &matrix);
        std::hint::black_box(EvidenceBase::from_sweep(&a.golden, &matrix));
        let cluster = ms_since(t);
        span("replay.tiling.diagnosis.cluster", t, Some(i));
        per_campaign.push([
            median(&preflight_ms[k]),
            findings[k] as f64,
            detect,
            cluster,
            clusters.len() as f64,
        ]);
    }
    let col = |j: usize| mean(&per_campaign.iter().map(|r| r[j]).collect::<Vec<_>>());
    Ok(Replay {
        generate_ms: median(&generate),
        placer_ms: median(&placer),
        place_moves: moves as f64,
        route_ms: median(&router),
        route_expansions: expansions as f64,
        preflight_ms: col(0),
        findings: col(1),
        detect_ms: col(2),
        cluster_ms: col(3),
        clusters: col(4),
    })
}

/// Writes the run's spans, one JSON object per line, to
/// `.bench_build/spans/<workload>-<seed>.jsonl`.
fn write_spans(w: Workload, seed: u64, spans: &[Span], out: &mut Outcome) {
    let dir = Path::new(".bench_build").join("spans");
    let path = dir.join(format!("{}-{seed}.jsonl", w.name()));
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
    let text: String = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ms\": {:.4}, \"end_ms\": {:.4}, \"parent\": {}, \"campaign\": {}}}\n",
                s.name,
                s.start_ms,
                s.end_ms,
                opt(s.parent),
                opt(s.campaign)
            )
        })
        .collect();
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
}
