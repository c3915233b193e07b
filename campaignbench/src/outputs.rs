//! Checking and scoring campaign outputs.
//!
//! Every number here is read from what the service hands back — the
//! event lines and the report document — never from wall-clock, so it
//! repeats exactly for a given request.

use debugd::json::{self, Value};
use debugd::CampaignResult;
use tiling::session::DebugOutcome;

/// FNV-1a, 64-bit: a hash that is the same on every platform and
/// toolchain, so fingerprints can be compared across builds.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds a string followed by a record separator.
    pub fn line(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(b"\n");
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of one campaign's output: its report document, then its event
/// lines in emission order.
pub fn campaign_digest(report_json: &str, events: &[String]) -> u64 {
    let mut h = Fnv::default();
    h.line(report_json);
    for e in events {
        h.line(e);
    }
    h.finish()
}

/// Folds per-campaign digests, in request order, into the workload
/// fingerprint.
pub fn fingerprint(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::default();
    for d in digests {
        h.write(&d.to_le_bytes());
    }
    h.finish()
}

/// One per-iteration row of a report, as the report document renders
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Whether detection saw the error.
    pub detected: bool,
    /// The localized cell index, if any.
    pub localized: Option<usize>,
    /// Taps charged to the iteration.
    pub taps: usize,
    /// ECOs charged to the iteration (the ledger's count).
    pub ecos: usize,
    /// Whether the iteration ended repaired.
    pub repaired: bool,
    /// Whether the control point confirmed the site.
    pub confirmed: bool,
    /// Effort units charged to the iteration.
    pub effort_units: u64,
}

impl Row {
    /// The row a session outcome renders to.
    pub fn of(o: &DebugOutcome) -> Self {
        Self {
            detected: o.mismatch.is_some(),
            localized: o.localized.map(|c| c.index()),
            taps: o.taps_inserted,
            ecos: o.ecos,
            repaired: o.repaired,
            confirmed: o.confirmed_by_control,
            effort_units: o.effort.total(),
        }
    }
}

/// The per-iteration rows of a completed campaign's report document.
///
/// # Errors
///
/// A message when the document does not parse or lacks a field.
pub fn report_rows(report_json: &str) -> Result<Vec<Row>, String> {
    let doc = json::parse(report_json).map_err(|e| e.to_string())?;
    let rows = doc
        .get("iterations")
        .and_then(Value::as_arr)
        .ok_or("report has no \"iterations\" array")?;
    rows.iter()
        .map(|r| {
            let flag = |k: &str| r.get(k).and_then(Value::as_bool);
            let num = |k: &str| r.get(k).and_then(Value::as_u64);
            let localized = match r.get("localized") {
                Some(Value::Null) => None,
                Some(v) => Some(v.as_usize().ok_or("bad \"localized\"")?),
                None => return Err("row has no \"localized\"".to_string()),
            };
            Ok(Row {
                detected: flag("detected").ok_or("bad \"detected\"")?,
                localized,
                taps: num("taps").ok_or("bad \"taps\"")? as usize,
                ecos: num("ecos").ok_or("bad \"ecos\"")? as usize,
                repaired: flag("repaired").ok_or("bad \"repaired\"")?,
                confirmed: flag("confirmed").ok_or("bad \"confirmed\"")?,
                effort_units: num("effort_units").ok_or("bad \"effort_units\"")?,
            })
        })
        .collect()
}

/// What a campaign's event lines say happened.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Cells planted (`error_injected`), in iteration order.
    pub planted: Vec<usize>,
    /// Physical ECOs: `tap_eco` + `confirmed` + `corrected`.
    pub ecos: usize,
    /// Cells listed in `tap_eco` events.
    pub taps: usize,
}

/// Reads the event lines of one campaign.
///
/// # Errors
///
/// A message when a line does not parse or lacks a field.
pub fn event_counts(events: &[String]) -> Result<EventCounts, String> {
    let mut c = EventCounts::default();
    for line in events {
        let ev = json::parse(line).map_err(|e| e.to_string())?;
        match ev.get("event").and_then(Value::as_str) {
            Some("error_injected") => c.planted.push(
                ev.get("cell")
                    .and_then(Value::as_usize)
                    .ok_or("bad error_injected event")?,
            ),
            Some("tap_eco") => {
                c.ecos += 1;
                c.taps += ev
                    .get("cells")
                    .and_then(Value::as_arr)
                    .ok_or("bad tap_eco event")?
                    .len();
            }
            Some("confirmed" | "corrected") => c.ecos += 1,
            Some(_) => {}
            None => return Err("event line without \"event\"".into()),
        }
    }
    Ok(c)
}

/// One completed campaign, read back and checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scored {
    /// The output digest (report document + event lines).
    pub digest: u64,
    /// Event-derived counts.
    pub counts: EventCounts,
    /// The report's per-iteration rows.
    pub rows: Vec<Row>,
    /// The report's own ECO total (the merged per-cluster ledgers).
    pub ledger_ecos: usize,
    /// Planted errors whose localized cell is the planted cell.
    pub exact_sites: usize,
    /// Why the campaign counts as failed, if it does.
    pub failure: Option<String>,
}

/// Reads back one campaign result: counts ECOs and taps from its
/// events, scores localization against the planted cells, and decides
/// whether it failed (not completed, DUT not repaired, or output that
/// does not read back).
pub fn score(result: &CampaignResult) -> Scored {
    let digest = campaign_digest(&result.report_json, &result.events);
    let mut scored = Scored {
        digest,
        counts: EventCounts::default(),
        rows: Vec::new(),
        ledger_ecos: 0,
        exact_sites: 0,
        failure: None,
    };
    let Some(report) = &result.report else {
        scored.failure = Some(format!("campaign ended {}", result.status.name()));
        return scored;
    };
    scored.ledger_ecos = report.ledger.total_ecos();
    let read = event_counts(&result.events).and_then(|counts| {
        let rows = report_rows(&result.report_json)?;
        Ok((counts, rows))
    });
    match read {
        Ok((counts, rows)) => {
            scored.exact_sites = exact_sites(&counts.planted, &rows);
            scored.counts = counts;
            scored.rows = rows;
        }
        Err(e) => scored.failure = Some(format!("unreadable output: {e}")),
    }
    if scored.failure.is_none() && report.repaired < report.iterations {
        scored.failure = Some(format!(
            "{} of {} iterations left the DUT unrepaired",
            report.iterations - report.repaired,
            report.iterations
        ));
    }
    scored
}

/// Planted cells whose iteration row localized exactly that cell. An
/// undetected or unlocalized error is a miss.
pub fn exact_sites(planted: &[usize], rows: &[Row]) -> usize {
    planted
        .iter()
        .zip(rows)
        .filter(|(&cell, row)| row.localized == Some(cell))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_lines_count_physical_ecos_and_taps() {
        let events: Vec<String> = [
            r#"{"seq": 0, "event": "error_injected", "iteration": 0, "cell": 12}"#,
            r#"{"seq": 1, "event": "tap_eco", "cells": [3, 4, 5], "effort": 0}"#,
            r#"{"seq": 2, "event": "observed", "diverging": [5]}"#,
            r#"{"seq": 3, "event": "localized", "cell": 5}"#,
            r#"{"seq": 4, "event": "confirmed", "cell": 5, "confirmed": false}"#,
            r#"{"seq": 5, "event": "corrected", "repaired": true}"#,
        ]
        .map(String::from)
        .to_vec();
        let c = event_counts(&events).unwrap();
        assert_eq!(c.planted, vec![12]);
        assert_eq!(c.ecos, 3);
        assert_eq!(c.taps, 3);
        let row = Row {
            detected: true,
            localized: Some(5),
            taps: 3,
            ecos: 3,
            repaired: true,
            confirmed: false,
            effort_units: 0,
        };
        assert_eq!(exact_sites(&c.planted, &[row]), 0);
        let hit = Row {
            localized: Some(12),
            ..row
        };
        assert_eq!(exact_sites(&c.planted, &[hit]), 1);
    }

    #[test]
    fn digests_see_every_byte() {
        let a = campaign_digest("{}", &["x".to_string()]);
        assert_ne!(a, campaign_digest("{}", &["y".to_string()]));
        assert_ne!(a, campaign_digest("{ }", &["x".to_string()]));
        assert_ne!(fingerprint([1, 2]), fingerprint([2, 1]));
    }
}
