//! The timing wrappers and the event stamps must not change what a
//! campaign does: a traced campaign reproduces the service's own run of
//! the same request byte for byte.

use std::time::Instant;

use campaignbench::layers::{names, run_traced};
use campaignbench::outputs::{event_counts, report_rows, Row};
use debugd::artifacts::build_artifact;
use debugd::{run_campaign, CampaignRequest, FlowKind, StrategyKind};
use synth::PaperDesign;

#[test]
fn wrapped_session_reproduces_unwrapped_events_and_ledger() {
    let artifact = build_artifact(PaperDesign::NineSym, 10, 41).unwrap();
    let requests = [
        // Two planted errors: the session forks one strategy per
        // cluster through `fresh`, which must stay wrapped.
        (FlowKind::Tiled, StrategyKind::BinarySearch, vec![31, 32]),
        (FlowKind::FullReplace, StrategyKind::LinearBatches, vec![33]),
    ];
    for (flow, strategy, error_seeds) in requests {
        let req = CampaignRequest {
            id: format!("transparent-{}", flow.name()),
            design: PaperDesign::NineSym,
            flow,
            strategy,
            seed: 5,
            error_seeds,
            ..CampaignRequest::default()
        };
        let plain = run_campaign(&artifact, &req);
        let traced = run_traced(&artifact, &req, Instant::now());

        assert_eq!(traced.status.name(), "completed", "{}", req.id);
        assert_eq!(traced.events, plain.events, "{}: event lines", req.id);
        assert_eq!(traced.report, plain.report, "{}: merged report", req.id);
        let rows: Vec<Row> = traced.iterations.iter().map(Row::of).collect();
        assert_eq!(rows, report_rows(&plain.report_json).unwrap(), "{}", req.id);

        // The wrappers saw every physical ECO and every strategy.
        let t = &traced.trace;
        let counts = event_counts(&traced.events).unwrap();
        assert_eq!(t.eco_calls, counts.ecos, "{}", req.id);
        assert_eq!(t.count(names::ECO), t.eco_calls, "{}", req.id);
        assert!(t.taps_requested >= counts.taps, "{}", req.id);
        assert!(t.count(names::STRATEGY) > 0, "{}", req.id);
        // Every child span lies inside the campaign's root span.
        for s in &t.spans {
            assert!(
                s.start_ms >= traced.root.start_ms && s.end_ms <= traced.root.end_ms,
                "{}: {} escapes its campaign",
                req.id,
                s.name
            );
        }
    }
}
