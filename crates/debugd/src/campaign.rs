//! Executing one campaign request against a shared artifact.
//!
//! Everything this module produces is **deterministic**: event lines
//! and report JSON carry only seeds, counts, cell indices, and
//! effort-unit ledgers — never wall-clock — so running the same
//! request on one worker or sixty-four yields byte-identical output.
//! (The fleet-level telemetry is where timing lives; see
//! [`crate::telemetry`].) The determinism tests in `tests/fleet.rs`
//! hold the service to this.

use std::fmt::Write as _;

use obs::{MetricsRegistry, Tracer, TrackId};
use tiling::effort::Phase;
use tiling::report::DebugReport;
use tiling::session::{DebugEvent, DebugSession};

use crate::artifacts::DesignArtifact;
use crate::json::escape;
use crate::request::CampaignRequest;

/// How a campaign ended, service-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Ran to completion (individual errors may still have escaped
    /// repair — see the report).
    Completed,
    /// The debug pipeline returned an error.
    Failed(String),
    /// The worker panicked; the orchestrator caught it, drained the
    /// rest of the queue, and reports the payload here.
    Panicked(String),
    /// The request was structurally valid JSON but semantically
    /// unservable — out-of-range fields, or a design the DRC
    /// pre-flight rejected. Nothing ran; no worker slot was spent.
    Rejected(String),
}

impl CampaignStatus {
    /// The protocol name (`"completed"` / `"failed"` / `"panicked"` /
    /// `"rejected"`).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Completed => "completed",
            Self::Failed(_) => "failed",
            Self::Panicked(_) => "panicked",
            Self::Rejected(_) => "rejected",
        }
    }
}

/// One finished campaign: the report, its event stream, and summary
/// numbers the telemetry aggregates.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The request id.
    pub id: String,
    /// How it ended.
    pub status: CampaignStatus,
    /// The merged session report (None unless `Completed`).
    pub report: Option<DebugReport>,
    /// The event stream, one JSON object per line, in emission order.
    pub events: Vec<String>,
    /// The persisted report document (deterministic JSON).
    pub report_json: String,
}

/// Runs one campaign on (a clone of) the shared artifact.
///
/// The caller owns panic handling: this function panics if the
/// request says so (`inject_panic`, the drain-path test hook) or if
/// the pipeline does, and [`crate::orchestrator::run_batch`] converts
/// either into a [`CampaignStatus::Panicked`] result.
pub fn run_campaign(artifact: &DesignArtifact, req: &CampaignRequest) -> CampaignResult {
    run_campaign_observed(artifact, req, None, None)
}

/// [`run_campaign`] with observability attached: the session records
/// its deterministic phase/evidence counters into `metrics`, and the
/// whole campaign plus its per-phase regions become spans on the
/// given tracer track (the enclosing campaign span carries the
/// campaign's total effort units). Both hooks are optional and change
/// nothing about the deterministic report/event output.
pub fn run_campaign_observed(
    artifact: &DesignArtifact,
    req: &CampaignRequest,
    metrics: Option<&MetricsRegistry>,
    trace: Option<(&Tracer, TrackId)>,
) -> CampaignResult {
    assert!(
        !req.inject_panic,
        "injected fault in campaign '{}' (inject_panic test hook)",
        req.id
    );
    let t0 = trace.map(|(t, _)| t.now_us()).unwrap_or(0);
    // Guard the one stimulus choice that panics instead of erroring:
    // exhaustive enumeration is capped at 24 inputs by `PatternGen`.
    // The artifact knows the real width, so the check lives here
    // rather than in `CampaignRequest::validate`.
    let width = artifact.golden.primary_inputs().len();
    if req.patterns == crate::request::PatternKind::Exhaustive && width > 24 {
        return failure_result(
            req,
            CampaignStatus::Rejected(format!(
                "exhaustive stimulus on a {width}-input design (24 max)"
            )),
            Vec::new(),
        );
    }
    // The mutable working copy: netlist/placement/routing are cloned,
    // device/RRG/plan are shared Arcs.
    let mut td = artifact.td.clone();
    let mut events: Vec<String> = Vec::new();
    let outcome = {
        let mut session = DebugSession::new(&mut td, &artifact.golden)
            .strategy_boxed(req.strategy.instantiate())
            .flow_boxed(req.flow.instantiate())
            .patterns(req.patterns.to_spec(req.pattern_count))
            .seed(req.seed)
            .confirm_with_control(req.confirm_with_control)
            .on_event(|e| {
                let seq = events.len();
                events.push(event_json(seq, e));
            });
        if let Some(registry) = metrics {
            session = session.metrics(registry);
        }
        if let Some((tracer, track)) = trace {
            session = session.trace(tracer, track);
        }
        session.run_campaign(&req.error_seeds)
    };
    match outcome {
        Ok(campaign) => {
            let report = DebugReport::from_outcomes(&campaign.iterations);
            if let Some((tracer, track)) = trace {
                tracer.complete(
                    track,
                    &format!("campaign {}", req.id),
                    "campaign",
                    t0,
                    report.ledger.total().total(),
                );
            }
            let report_json = render_report_json(req, &report, &campaign.iterations, &events);
            CampaignResult {
                id: req.id.clone(),
                status: CampaignStatus::Completed,
                report: Some(report),
                events,
                report_json,
            }
        }
        // A DRC pre-flight error means the *design* was unservable —
        // the session refused it before running anything — which is a
        // rejection, not a pipeline failure.
        Err(e @ tiling::TilingError::Drc { .. }) => {
            failure_result(req, CampaignStatus::Rejected(e.to_string()), events)
        }
        Err(e) => failure_result(req, CampaignStatus::Failed(e.to_string()), events),
    }
}

/// The report document for a campaign that did not complete
/// (pipeline error or caught panic).
pub fn failure_result(
    req: &CampaignRequest,
    status: CampaignStatus,
    events: Vec<String>,
) -> CampaignResult {
    let detail = match &status {
        CampaignStatus::Completed => String::new(),
        CampaignStatus::Failed(m) | CampaignStatus::Panicked(m) | CampaignStatus::Rejected(m) => {
            m.clone()
        }
    };
    let report_json = format!(
        "{{\n  \"id\": \"{}\",\n  \"status\": \"{}\",\n  \"detail\": \"{}\",\n  \"request\": {}\n}}\n",
        escape(&req.id),
        status.name(),
        escape(&detail),
        req.to_json(),
    );
    CampaignResult {
        id: req.id.clone(),
        status,
        report: None,
        events,
        report_json,
    }
}

/// One [`DebugEvent`] as a JSON line for the per-client stream. `seq`
/// is the row's position in the campaign's event stream — monotonic
/// from 0, so event logs join deterministically against traces and
/// any reordering of the persisted lines is detectable.
pub fn event_json(seq: usize, e: &DebugEvent) -> String {
    let body = event_body(e);
    format!("{{\"seq\": {seq}, {}", &body[1..])
}

/// The event's fields as a JSON object (without the `seq` prefix).
fn event_body(e: &DebugEvent) -> String {
    match e {
        DebugEvent::ErrorInjected { iteration, cell } => format!(
            "{{\"event\": \"error_injected\", \"iteration\": {iteration}, \"cell\": {}}}",
            cell.index()
        ),
        DebugEvent::Detected {
            pattern_index,
            output_name,
        } => format!(
            "{{\"event\": \"detected\", \"pattern_index\": {pattern_index}, \"output\": \"{}\"}}",
            escape(output_name)
        ),
        DebugEvent::CleanDesign => "{\"event\": \"clean_design\"}".to_string(),
        DebugEvent::SuspectsComputed {
            structural,
            candidates,
        } => format!(
            "{{\"event\": \"suspects_computed\", \"structural\": {structural}, \"candidates\": {candidates}}}"
        ),
        DebugEvent::TapEco { cells, effort } => format!(
            "{{\"event\": \"tap_eco\", \"cells\": [{}], \"effort\": {}}}",
            ids(cells),
            effort.total()
        ),
        DebugEvent::Observed { diverging } => format!(
            "{{\"event\": \"observed\", \"diverging\": [{}]}}",
            ids(diverging)
        ),
        DebugEvent::Localized { cell } => match cell {
            Some(c) => format!("{{\"event\": \"localized\", \"cell\": {}}}", c.index()),
            None => "{\"event\": \"localized\", \"cell\": null}".to_string(),
        },
        DebugEvent::Confirmed { cell, confirmed } => format!(
            "{{\"event\": \"confirmed\", \"cell\": {}, \"confirmed\": {confirmed}}}",
            cell.index()
        ),
        DebugEvent::Corrected { repaired } => {
            format!("{{\"event\": \"corrected\", \"repaired\": {repaired}}}")
        }
        DebugEvent::ConeSplit {
            clusters,
            exclusive,
            shared,
        } => format!(
            "{{\"event\": \"cone_split\", \"clusters\": {clusters}, \"exclusive\": [{}], \"shared\": {shared}}}",
            exclusive
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

fn ids(cells: &[netlist::CellId]) -> String {
    cells
        .iter()
        .map(|c| c.index().to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the persisted report: request echo, merged report, the
/// per-phase ledger, per-iteration rows, and the event count. Every
/// field is deterministic.
fn render_report_json(
    req: &CampaignRequest,
    report: &DebugReport,
    iterations: &[tiling::session::DebugOutcome],
    events: &[String],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"id\": \"{}\",", escape(&req.id));
    let _ = writeln!(out, "  \"status\": \"completed\",");
    let _ = writeln!(out, "  \"request\": {},", req.to_json());
    let _ = writeln!(
        out,
        "  \"report\": {{\"iterations\": {}, \"repaired\": {}, \"localized\": {}, \
         \"taps_inserted\": {}, \"ecos\": {}, \"effort_units\": {}, \
         \"strategy\": \"{}\", \"flow\": \"{}\"}},",
        report.iterations,
        report.repaired,
        report.localized,
        report.taps_inserted,
        report.ledger.total_ecos(),
        report.ledger.total().total(),
        escape(&report.strategy),
        escape(&report.flow),
    );
    out.push_str("  \"phases\": {");
    for (i, ph) in Phase::ALL.iter().enumerate() {
        let pe = report.ledger.phase(*ph);
        let _ = write!(
            out,
            "{}\"{}\": {{\"effort_units\": {}, \"ecos\": {}, \"tiles_cleared\": {}}}",
            if i == 0 { "" } else { ", " },
            ph.name(),
            pe.effort.total(),
            pe.ecos,
            pe.tiles_cleared,
        );
    }
    out.push_str("},\n");
    out.push_str("  \"iterations\": [\n");
    for (i, it) in iterations.iter().enumerate() {
        let localized = it
            .localized
            .map_or("null".to_string(), |c| c.index().to_string());
        let _ = write!(
            out,
            "    {{\"detected\": {}, \"localized\": {}, \"taps\": {}, \"ecos\": {}, \
             \"repaired\": {}, \"confirmed\": {}, \"effort_units\": {}}}",
            it.mismatch.is_some(),
            localized,
            it.taps_inserted,
            it.ecos,
            it.repaired,
            it.confirmed_by_control,
            it.effort.total(),
        );
        out.push_str(if i + 1 < iterations.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"events\": {}", events.len());
    out.push_str("}\n");
    out
}
