//! Span tracer with dual timestamps, exported as Chrome trace-event
//! JSON (Perfetto-loadable) and JSONL.
//!
//! Every span carries **two clocks**:
//!
//! * measured wall-clock (`ts`/`dur` in microseconds since the tracer
//!   epoch) — what Perfetto lays out on screen;
//! * deterministic **effort units** (the paper's place-moves +
//!   route-expansions metric) in the span's `args` — what the repro's
//!   claims are stated in, byte-identical across worker counts.
//!
//! Spans live on *tracks*. A track is usually one campaign or one
//! bench cell; [`Tracer::pool_tracks`] additionally reconstructs one
//! track per map worker from the busy segments
//! [`parallel::PoolStats`] records, so a fleet trace shows both views:
//! what each campaign did, and what each worker ran.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use parallel::PoolStats;

/// Identifies one horizontal track (Perfetto thread) in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(usize);

impl TrackId {
    /// The Chrome trace `tid` this track renders as.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The track the span lives on.
    pub track: TrackId,
    /// Span name (phase name, campaign id, "task", ...).
    pub name: String,
    /// Category (`"phase"`, `"campaign"`, `"pool"`, `"workload"`).
    pub cat: String,
    /// Wall-clock start, microseconds since the tracer epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Deterministic effort units spent inside the span.
    pub effort_units: u64,
}

#[derive(Debug, Default)]
struct Inner {
    tracks: Vec<String>,
    spans: Vec<SpanRecord>,
}

/// Collects spans from any number of threads; export once at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose epoch (timestamp zero) is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Registers a named track; spans reference it by the returned id.
    pub fn track(&self, name: &str) -> TrackId {
        let mut inner = self.inner.lock().unwrap();
        inner.tracks.push(name.to_string());
        TrackId(inner.tracks.len() - 1)
    }

    /// Microseconds elapsed since the tracer epoch — capture this
    /// before a region, pass it to [`Tracer::complete`] after.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Records a span that started at `start_us` and ends now.
    pub fn complete(
        &self,
        track: TrackId,
        name: &str,
        cat: &str,
        start_us: u64,
        effort_units: u64,
    ) {
        let end = self.now_us();
        self.add_span_at(
            track,
            name,
            cat,
            start_us,
            end.saturating_sub(start_us),
            effort_units,
        );
    }

    /// Records a span with explicit start/duration — used to
    /// reconstruct spans measured elsewhere (map busy segments).
    pub fn add_span_at(
        &self,
        track: TrackId,
        name: &str,
        cat: &str,
        start_us: u64,
        dur_us: u64,
        effort_units: u64,
    ) {
        self.inner.lock().unwrap().spans.push(SpanRecord {
            track,
            name: name.to_string(),
            cat: cat.to_string(),
            start_us,
            dur_us,
            effort_units,
        });
    }

    /// Reconstructs one track per map worker from the busy segments a
    /// [`PoolStats`] recorded. `offset_us` is the tracer timestamp at
    /// which the map started (segments are relative to it).
    pub fn pool_tracks(&self, prefix: &str, stats: &PoolStats, offset_us: u64) {
        for (w, segments) in stats.busy_segments.iter().enumerate() {
            let track = self.track(&format!("{prefix} {w}"));
            for &(seg_start, seg_end) in segments {
                let s = u64::try_from(seg_start.as_micros()).unwrap_or(u64::MAX);
                let e = u64::try_from(seg_end.as_micros()).unwrap_or(u64::MAX);
                self.add_span_at(track, "task", "pool", offset_us + s, e.saturating_sub(s), 0);
            }
        }
    }

    /// A copy of every span recorded so far, sorted by
    /// `(track, start, name)` for stable iteration.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self.inner.lock().unwrap().spans.clone();
        spans.sort_by(|a, b| {
            (a.track.0, a.start_us, &a.name).cmp(&(b.track.0, b.start_us, &b.name))
        });
        spans
    }

    fn track_names(&self) -> Vec<String> {
        self.inner.lock().unwrap().tracks.clone()
    }

    /// Chrome trace-event JSON (`{"traceEvents": [...]}`): open in
    /// Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
    /// One `thread_name` metadata record per track, then one complete
    /// (`"ph": "X"`) event per span with the effort units in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let tracks = self.track_names();
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut first = true;
        for (tid, name) in tracks.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "  {{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                escape(name)
            );
        }
        for s in &spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "  {{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"{}\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"effort_units\": {}}}}}",
                escape(&s.name),
                escape(&s.cat),
                s.start_us,
                s.dur_us,
                s.track.0,
                s.effort_units
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// One JSON object per line per span (join key: `track` +
    /// `start_us`), for grep/jq pipelines that don't want the Chrome
    /// envelope.
    pub fn to_jsonl(&self) -> String {
        let tracks = self.track_names();
        let mut out = String::new();
        for s in self.spans() {
            let track_name = tracks
                .get(s.track.0)
                .map(String::as_str)
                .unwrap_or("unknown");
            let _ = writeln!(
                out,
                "{{\"track\": {}, \"track_name\": \"{}\", \"name\": \"{}\", \"cat\": \"{}\", \
                 \"ts_us\": {}, \"dur_us\": {}, \"effort_units\": {}}}",
                s.track.0,
                escape(track_name),
                escape(&s.name),
                escape(&s.cat),
                s.start_us,
                s.dur_us,
                s.effort_units
            );
        }
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_carry_dual_timestamps() {
        let t = Tracer::new();
        let track = t.track("session");
        let t0 = t.now_us();
        t.complete(track, "localize", "phase", t0, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "localize");
        assert_eq!(spans[0].effort_units, 42);
        assert!(spans[0].start_us >= t0);
    }

    #[test]
    fn chrome_trace_has_metadata_and_complete_events() {
        let t = Tracer::new();
        let track = t.track("campaign c00");
        t.add_span_at(track, "detect", "phase", 10, 5, 0);
        let doc = t.to_chrome_trace();
        assert!(doc.starts_with("{\"traceEvents\": ["));
        assert!(doc.contains("\"ph\": \"M\""));
        assert!(doc.contains("\"name\": \"campaign c00\""));
        assert!(doc.contains("\"ph\": \"X\""));
        assert!(doc.contains("\"ts\": 10, \"dur\": 5"));
        assert!(doc.trim_end().ends_with("]}"));
    }

    #[test]
    fn pool_tracks_reconstruct_worker_lanes() {
        let t = Tracer::new();
        let stats = PoolStats {
            wall: Duration::from_micros(50),
            busy_segments: vec![
                vec![
                    (Duration::from_micros(0), Duration::from_micros(20)),
                    (Duration::from_micros(25), Duration::from_micros(35)),
                ],
                vec![(Duration::from_micros(5), Duration::from_micros(15))],
            ],
        };
        t.pool_tracks("worker", &stats, 100);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].start_us, 100);
        assert_eq!(spans[0].dur_us, 20);
        assert_eq!(spans[2].start_us, 105);
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"track_name\": \"worker 1\""));
    }
}
