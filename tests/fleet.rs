//! Fleet-level guarantees of the `debugd` orchestrator.
//!
//! * **Determinism:** N campaigns over shared artifacts produce
//!   bit-identical report documents and event streams whether they
//!   run serially or fanned out over worker threads.
//! * **Fault containment:** a panicking campaign (injected via the
//!   request-level test hook) is caught, every other campaign still
//!   runs, and the failure is *reported* — the orchestrator neither
//!   hangs nor loses sibling campaigns.
//! * **Protocol:** the file-queue server round-trips requests into
//!   reports, event streams, archives, and telemetry.
//!
//! One artifact store is shared across all tests (it dedups), so the
//! expensive implement() is paid once per process.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use debugd::{
    run_batch, ArtifactStore, CampaignRequest, CampaignStatus, FlowKind, ServeOptions, StrategyKind,
};

fn store() -> &'static ArtifactStore {
    static STORE: OnceLock<ArtifactStore> = OnceLock::new();
    STORE.get_or_init(ArtifactStore::new)
}

/// A deterministic mixed batch on the smallest design: both
/// strategies, two flows, error budgets 1 and 2.
fn mixed_requests(n: usize) -> Vec<CampaignRequest> {
    (0..n)
        .map(|i| CampaignRequest {
            id: format!("c{i:02}"),
            strategy: if i % 2 == 0 {
                StrategyKind::LinearBatches
            } else {
                StrategyKind::BinarySearch
            },
            flow: if (i / 2) % 2 == 1 {
                FlowKind::QuickEco
            } else {
                FlowKind::Tiled
            },
            error_seeds: (0..1 + (i as u64 % 2))
                .map(|e| 31 + 5 * i as u64 + e)
                .collect(),
            ..Default::default()
        })
        .collect()
}

#[test]
fn fleet_reports_are_bit_identical_to_serial() {
    let requests = mixed_requests(4);
    let serial = run_batch(store(), &requests, 1);
    let fleet = run_batch(store(), &requests, 4);
    assert_eq!(serial.results.len(), requests.len());
    assert_eq!(fleet.results.len(), requests.len());
    for (s, f) in serial.results.iter().zip(&fleet.results) {
        assert_eq!(s.status, CampaignStatus::Completed, "{}", s.id);
        assert_eq!(f.status, CampaignStatus::Completed, "{}", f.id);
        assert_eq!(s.id, f.id, "results must come back in request order");
        assert!(
            s.report_json == f.report_json,
            "campaign {} report differs between 1 and 4 workers",
            s.id
        );
        assert!(
            s.events == f.events,
            "campaign {} event stream differs between 1 and 4 workers",
            s.id
        );
        // The documents are real reports, not empty shells.
        assert!(s.report_json.contains("\"status\": \"completed\""));
        assert!(!s.events.is_empty());
    }
    // Every campaign hit one shared artifact: exactly one build ever
    // happens for the default key, however many batches ran.
    let (builds, hits) = store().stats();
    assert_eq!(builds, 1, "one implement() for the whole fleet");
    assert!(
        hits >= 7,
        "every other campaign shares the Arc (got {hits} hits)"
    );
}

#[test]
fn injected_panic_is_drained_and_reported() {
    let mut requests = mixed_requests(4);
    // Poison one campaign mid-queue.
    requests[2].inject_panic = true;
    requests[2].id = "poisoned".into();
    let outcome = run_batch(store(), &requests, 3);
    // Every campaign has a result, in order.
    assert_eq!(outcome.results.len(), requests.len());
    for (req, res) in requests.iter().zip(&outcome.results) {
        assert_eq!(req.id, res.id);
        if req.inject_panic {
            match &res.status {
                CampaignStatus::Panicked(msg) => {
                    assert!(msg.contains("injected fault"), "payload surfaced: {msg}");
                }
                other => panic!("poisoned campaign reported {other:?}"),
            }
            assert!(res.report_json.contains("\"status\": \"panicked\""));
        } else {
            assert_eq!(res.status, CampaignStatus::Completed, "{}", res.id);
        }
    }
    assert_eq!(outcome.telemetry.panicked, 1);
    assert_eq!(outcome.telemetry.completed, requests.len() - 1);
    assert_eq!(outcome.telemetry.campaigns, requests.len());
}

#[test]
fn batch_rejections_reach_the_telemetry() {
    // Out of range: rejected by validation, so nothing is built.
    let requests = vec![CampaignRequest {
        id: "too-many-tiles".into(),
        target_tiles: 5000,
        ..Default::default()
    }];
    let outcome = run_batch(store(), &requests, 1);
    assert!(
        matches!(outcome.results[0].status, CampaignStatus::Rejected(_)),
        "{:?}",
        outcome.results[0].status
    );
    let t = &outcome.telemetry;
    assert_eq!((t.campaigns, t.completed, t.rejected), (1, 0, 1));
    assert!(t.to_json().contains("\"rejected\": 1,"), "{}", t.to_json());
}

#[test]
fn file_queue_serves_reports_events_and_telemetry() {
    let root = std::env::temp_dir().join(format!("debugd-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("requests")).unwrap();
    std::fs::write(
        root.join("requests/01-ok.json"),
        r#"{"id": "ok-1", "design": "9sym", "flow": "quick-eco"}"#,
    )
    .unwrap();
    std::fs::write(
        root.join("requests/02-bad.json"),
        r#"{"design": "9sym"}"#, // no id -> rejected
    )
    .unwrap();
    let summary = debugd::serve(
        &root,
        &ServeOptions {
            workers: 2,
            once: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(summary.campaigns, 1);
    assert_eq!(summary.rejected, 1);

    let report = std::fs::read_to_string(root.join("reports/ok-1.json")).unwrap();
    assert!(report.contains("\"status\": \"completed\""));
    assert!(report.contains("\"design\": \"9sym\""));
    let events = std::fs::read_to_string(root.join("events/ok-1.jsonl")).unwrap();
    assert!(events.lines().count() > 0);
    assert!(events.contains("\"event\": \"error_injected\""));
    let rejected = std::fs::read_to_string(root.join("reports/02-bad.json")).unwrap();
    assert!(rejected.contains("\"status\": \"rejected\""));
    let telemetry = std::fs::read_to_string(root.join("telemetry.json")).unwrap();
    assert!(telemetry.contains("\"campaigns\": 1"));
    assert!(telemetry.contains("\"rejected\": 1"));
    // Processed requests moved out of the queue.
    assert!(!root.join("requests/01-ok.json").exists());
    assert!(root.join("archive/01-ok.json").exists());
    assert!(root.join("archive/02-bad.json").exists());
    let _ = std::fs::remove_dir_all(&root);
}

/// Request ids name report and event files, so an id that is not one
/// plain file name is rejected like any other bad request, and so is
/// a request file that is not UTF-8: the server keeps running,
/// reports each under the request's file stem, and writes nothing
/// outside its own directories.
#[test]
fn hostile_request_files_are_rejected_in_place() {
    let root = std::env::temp_dir().join(format!("debugd-id-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("requests")).unwrap();
    for (file, id) in [("01-up", "../escape"), ("02-nested", "a/b")] {
        std::fs::write(
            root.join(format!("requests/{file}.json")),
            format!(r#"{{"id": "{id}", "design": "9sym", "flow": "quick-eco"}}"#),
        )
        .unwrap();
    }
    std::fs::write(root.join("requests/03-binary.json"), b"{\"id\": \"\xff\"}").unwrap();
    let summary = debugd::serve(
        &root,
        &ServeOptions {
            workers: 2,
            once: true,
            ..Default::default()
        },
    )
    .expect("a bad request never stops the server");
    assert_eq!((summary.campaigns, summary.rejected), (0, 3));
    let listing = |dir: &str| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    assert_eq!(
        listing(""),
        [
            "archive",
            "events",
            "metrics.prom",
            "reports",
            "requests",
            "telemetry.json"
        ]
    );
    assert_eq!(
        listing("reports"),
        ["01-up.json", "02-nested.json", "03-binary.json"]
    );
    assert!(listing("events").is_empty());
    assert!(listing("requests").is_empty());
    for file in listing("reports") {
        let report = std::fs::read_to_string(root.join("reports").join(file)).unwrap();
        assert!(report.contains("\"status\": \"rejected\""), "{report}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Waits for `path` to appear, panicking after a generous deadline
/// (the poll server needs one scan plus one campaign to produce it).
fn wait_for(path: &std::path::Path, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !path.exists() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The long-running poll mode (not `--once`): staggered requests are
/// drained incrementally across scans, the stop file shuts the loop
/// down, and the scan counter lands in both the summary and the
/// `metrics.prom` exposition.
#[test]
fn poll_mode_drains_staggered_requests_until_stopped() {
    let root = std::env::temp_dir().join(format!("debugd-poll-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("requests")).unwrap();
    // First request is already queued when the server starts.
    std::fs::write(
        root.join("requests/01-first.json"),
        r#"{"id": "first", "design": "9sym", "flow": "quick-eco"}"#,
    )
    .unwrap();
    let server_root = root.clone();
    let server = std::thread::spawn(move || {
        debugd::serve(
            &server_root,
            &ServeOptions {
                workers: 2,
                once: false,
                poll: Duration::from_millis(25),
            },
        )
        .unwrap()
    });
    // The second request arrives only after the first completed — a
    // later scan must pick it up, proving the loop actually polls.
    wait_for(&root.join("reports/first.json"), "first report");
    std::fs::write(
        root.join("requests/02-second.json"),
        r#"{"id": "second", "design": "9sym", "flow": "quick-eco"}"#,
    )
    .unwrap();
    wait_for(&root.join("reports/second.json"), "second report");
    std::fs::write(root.join("stop"), "").unwrap();
    let summary = server.join().unwrap();

    assert_eq!(summary.campaigns, 2);
    assert_eq!(summary.rejected, 0);
    assert!(
        summary.scans >= 2,
        "staggered requests need at least two scans (got {})",
        summary.scans
    );
    for (i, id) in ["first", "second"].iter().enumerate() {
        let report = std::fs::read_to_string(root.join(format!("reports/{id}.json"))).unwrap();
        assert!(report.contains("\"status\": \"completed\""), "{id}");
        assert!(root.join(format!("archive/0{}-{id}.json", i + 1)).exists());
    }
    // Drain order followed arrival order: the first campaign's report
    // existed before the second request was even written (enforced by
    // the wait above), and both event streams were persisted.
    assert!(root.join("events/first.jsonl").exists());
    assert!(root.join("events/second.jsonl").exists());
    let prom = std::fs::read_to_string(root.join("metrics.prom")).unwrap();
    assert!(
        prom.contains("debugd_poll_scans_total"),
        "poll loop must export its scan counter"
    );
    let scans_line = prom
        .lines()
        .find(|l| l.starts_with("debugd_poll_scans_total"))
        .unwrap();
    let exported: u64 = scans_line
        .split_whitespace()
        .last()
        .unwrap()
        .parse()
        .unwrap();
    // metrics.prom is rendered at the end of every scan, so the file
    // trails the final count by at most the stop-file scan.
    assert!(
        exported >= 2 && exported <= summary.scans as u64,
        "exported {exported} scans vs summary {}",
        summary.scans
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Every `DebugEvent` JSONL row carries a monotonic `seq` field:
/// 0, 1, 2, ... in stream order, so consumers can detect reordering
/// or loss after the rows leave the process.
#[test]
fn event_streams_carry_monotonic_seq_numbers() {
    let requests = mixed_requests(2);
    let outcome = run_batch(store(), &requests, 2);
    for result in &outcome.results {
        assert!(!result.events.is_empty(), "{}", result.id);
        for (i, line) in result.events.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"seq\": {i}, ")),
                "campaign {} event {i} lost its seq prefix: {line}",
                result.id
            );
        }
    }
}
