//! Pattern-parallel simulation core: packed vs the scalar oracle.
//!
//! Two workloads per design, both straight from the debugging flow:
//!
//! * **detect** — golden-vs-DUT output-divergence sweep (the
//!   evidence-collection pass behind `collect_responses`). The packed
//!   side runs the production path: record a `GoldenTrace`, then one
//!   DUT-only `sim::emulate::po_divergence_words` sweep against it;
//!   the scalar side replays the pre-packing per-pattern loop.
//!   Combinational designs get 64 patterns per topo pass. Sequential
//!   designs run stream-mode: one pattern per pass, evaluating lane 0
//!   alone by truth-table row index (`PackedSimulator::stream_eval`,
//!   see `sim::packed`). Their rows are marked `parallel: false`, so
//!   the CI gate holds them at >= 2x scalar rather than the 64-lane
//!   rows' 8x.
//! * **faultsim** — the packed core's per-lane fault XOR
//!   (`PackedSimulator::set_fault_lanes`) against the scalar oracle,
//!   which re-simulates one complemented clone per candidate: each of
//!   up to 64 LUT candidates is complemented, and both sides record
//!   which outputs ever diverge from the fault-free design plus the
//!   first diverging pattern. Packed runs pattern-parallel per
//!   candidate on combinational designs and machines-as-lanes (64
//!   fault machines per stream pass, fed by
//!   `GoldenTrace::broadcast_pattern`) on sequential ones — both
//!   64-lane, so every faultsim row gates. No session step runs this
//!   mode; the rows keep it checked and measured for the lane-packed
//!   DUT that sequential emulation is planned to use.
//!
//! Both sides fold their divergence results into a fingerprint that
//! must agree bit-for-bit — the bench aborts on any mismatch, so the
//! committed numbers double as a cross-implementation equivalence
//! check on real designs. Each side of a row runs [`PASSES`] times and
//! reports its median time, so one slow pass on a shared host does not
//! move a row's speedup.
//!
//! The full sweep writes **`BENCH_sim.json`** (the committed
//! cross-PR snapshot: patterns/sec scalar vs packed per row);
//! `--quick` writes `BENCH_sim.quick.json` — the mode CI's test job
//! smoke-runs — so quick runs never clobber the tracked trajectory.
//!
//! Run: `cargo run --release -p bench-harness --bin simbench`
//!
//! Pass `--trace <base>` to record the sweep through the `obs` layer:
//! `<base>.trace.json` (Chrome trace-event JSON with one span per
//! (design, workload) row — loadable at ui.perfetto.dev),
//! `<base>.trace.jsonl` (raw span rows), and `<base>.metrics.prom`
//! (the sweep/word/lane work of every packed engine the rows ran,
//! plus per-row pattern totals). A bare stem collects under the
//! gitignored `artifacts/` directory.

// CLI/example output goes to stdout by design.
#![allow(clippy::print_stdout)]

use std::fmt::Write as _;
use std::time::Instant;

use netlist::{CellId, Netlist};
use obs::{MetricsRegistry, Tracer};
use sim::inject::{inject, random_error, DesignErrorKind};
use sim::{Chunk, GoldenTrace, PackedSimulator, PatternGen, SimWork, Simulator, LANES};
use synth::PaperDesign;

/// Passes each side of a row is timed over; the row reports the
/// median.
const PASSES: usize = 5;

/// Runs `pass` [`PASSES`] times and returns the last pass's result
/// with the median pass time in seconds. The sides are deterministic,
/// so every pass computes the same result; only the time varies.
fn median_timed<T>(
    mut pass: impl FnMut() -> Result<T, Box<dyn std::error::Error>>,
) -> Result<(T, f64), Box<dyn std::error::Error>> {
    let mut secs = Vec::with_capacity(PASSES);
    let mut last = None;
    for _ in 0..PASSES {
        let t = Instant::now();
        last = Some(pass()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    Ok((last.expect("PASSES is positive"), secs[PASSES / 2]))
}

/// One (design, workload) comparison row.
struct Row {
    design: &'static str,
    workload: &'static str,
    sequential: bool,
    /// Whether the packed side fills all 64 lanes (CI gates these rows
    /// at >= 8x scalar, the one-lane stream rows at >= 2x).
    parallel: bool,
    patterns: usize,
    candidates: usize,
    /// FNV-1a fold of the divergence results, asserted equal between
    /// the scalar and packed sides before the row is emitted.
    fingerprint: u64,
    scalar_pps: f64,
    packed_pps: f64,
    /// Simulation work of the packed side.
    work: SimWork,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trace_base = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1).cloned());
    let designs: &[PaperDesign] = if quick {
        &[PaperDesign::NineSym, PaperDesign::Styr]
    } else {
        &[
            PaperDesign::NineSym,
            PaperDesign::C499,
            PaperDesign::C880,
            PaperDesign::Styr,
            PaperDesign::Sand,
            PaperDesign::S9234,
        ]
    };

    println!("Pattern-parallel simulation: scalar oracle vs 64-lane packed core");
    println!(
        "{:<10} {:<9} {:>4} {:>9} {:>5} | {:>12} {:>12} {:>8}",
        "design", "workload", "seq", "patterns", "cand", "scalar p/s", "packed p/s", "speedup"
    );

    let observe = trace_base
        .as_deref()
        .map(|_| (Tracer::new(), MetricsRegistry::new()));
    let track = observe.as_ref().map(|(tracer, _)| tracer.track("simbench"));

    let mut rows: Vec<Row> = Vec::new();
    for &design in designs {
        let golden = design.generate()?;
        let seq = golden.is_sequential();
        let n_pi = golden.primary_inputs().len();
        let (detect_pats, fault_pats, max_cand) = match (quick, seq) {
            (true, false) => (512, 512, 32),
            (true, true) => (512, 256, 32),
            (false, false) => (4096, 2048, 64),
            (false, true) => (1024, 512, 64),
        };

        let mut dut = golden.clone();
        random_error(&mut dut, 33)?;
        let pats: Vec<Vec<bool>> = PatternGen::random(n_pi, detect_pats, 97).collect();
        let t_row = observe
            .as_ref()
            .map(|(tracer, _)| tracer.now_us())
            .unwrap_or(0);
        rows.push(detect_row(design, &golden, &dut, &pats)?);
        row_span(
            &observe,
            track,
            t_row,
            rows.last().expect("row just pushed"),
        );

        let pats: Vec<Vec<bool>> = PatternGen::random(n_pi, fault_pats, 97).collect();
        let t_row = observe
            .as_ref()
            .map(|(tracer, _)| tracer.now_us())
            .unwrap_or(0);
        rows.push(faultsim_row(design, &golden, &pats, max_cand)?);
        row_span(
            &observe,
            track,
            t_row,
            rows.last().expect("row just pushed"),
        );
        for r in &rows[rows.len() - 2..] {
            println!(
                "{:<10} {:<9} {:>4} {:>9} {:>5} | {:>12.0} {:>12.0} {:>7.1}x",
                r.design,
                r.workload,
                if r.sequential { "y" } else { "n" },
                r.patterns,
                r.candidates,
                r.scalar_pps,
                r.packed_pps,
                r.packed_pps / r.scalar_pps,
            );
        }
    }

    let path = if quick {
        "BENCH_sim.quick.json"
    } else {
        "BENCH_sim.json"
    };
    std::fs::write(path, render_json(quick, &rows))?;
    println!("machine-readable results written to {path}");

    if let (Some(base), Some((tracer, registry))) = (&trace_base, &observe) {
        let mut work = SimWork::default();
        for r in &rows {
            work += r.work;
        }
        registry.counter_add("sim_sweeps_total", &[], work.sweeps);
        registry.counter_add("sim_net_words_total", &[], work.net_words);
        registry.counter_add("sim_lanes_loaded_total", &[], work.lanes_loaded);
        let base = obs::artifact_base(base)?;
        let base = base.display();
        std::fs::write(format!("{base}.trace.json"), tracer.to_chrome_trace())?;
        std::fs::write(format!("{base}.trace.jsonl"), tracer.to_jsonl())?;
        std::fs::write(format!("{base}.metrics.prom"), registry.render_prometheus())?;
        println!("trace + metrics artifacts written to {base}.*");
    }
    Ok(())
}

/// Emits one trace span and the per-workload pattern counter for the
/// row just computed (no-op when the sweep runs untraced).
fn row_span(
    observe: &Option<(Tracer, MetricsRegistry)>,
    track: Option<obs::TrackId>,
    start_us: u64,
    row: &Row,
) {
    let (Some((tracer, registry)), Some(track)) = (observe, track) else {
        return;
    };
    tracer.complete(
        track,
        &format!("{} {}", row.design, row.workload),
        "workload",
        start_us,
        row.patterns as u64,
    );
    registry.counter_add(
        "simbench_patterns_total",
        &[("workload", row.workload)],
        row.patterns as u64,
    );
}

// ---------------------------------------------------------------------
// detect: golden-vs-DUT divergence sweep
// ---------------------------------------------------------------------

fn detect_row(
    design: PaperDesign,
    golden: &Netlist,
    dut: &Netlist,
    pats: &[Vec<bool>],
) -> Result<Row, Box<dyn std::error::Error>> {
    let seq = golden.is_sequential();
    let pairs: Vec<(usize, usize)> = (0..golden.primary_outputs().len())
        .map(|k| (k, k))
        .collect();

    // Scalar oracle: the pre-packing per-pattern loop.
    let (words, scalar_s) = median_timed(|| {
        let mut gsim = Simulator::new(golden)?;
        let mut dsim = Simulator::new(dut)?;
        let mut words: Vec<Vec<u64>> = vec![vec![0; pats.len().div_ceil(LANES)]; pairs.len()];
        for (p, pat) in pats.iter().enumerate() {
            gsim.set_inputs(pat);
            gsim.comb_eval();
            dsim.set_inputs(pat);
            dsim.comb_eval();
            let (g, d) = (gsim.outputs(), dsim.outputs());
            for (k, w) in words.iter_mut().enumerate() {
                if g[k] != d[k] {
                    w[p / LANES] |= 1u64 << (p % LANES);
                }
            }
            if seq {
                gsim.step();
                dsim.step();
            }
        }
        Ok(words)
    })?;
    let scalar_pps = pats.len() as f64 / scalar_s;
    let scalar_fp = fold_words(&words);

    // Packed: the production evidence-collection path — both sides
    // simulated once each, like the scalar loop.
    let ((mut pwords, count, work), packed_s) = median_timed(|| {
        let trace = GoldenTrace::record(golden, pats.iter().cloned())?;
        let (pwords, count) = sim::emulate::po_divergence_words(&trace, dut, &pairs)?;
        Ok((pwords, count, trace.take_work()))
    })?;
    let packed_pps = count as f64 / packed_s;
    // `po_divergence_words` trims nothing but may leave short vectors
    // for clean tails; pad to the scalar layout before comparing.
    for w in &mut pwords {
        w.resize(pats.len().div_ceil(LANES), 0);
    }
    let packed_fp = fold_words(&pwords);

    assert_eq!(
        scalar_fp,
        packed_fp,
        "{} detect: packed divergences differ from the scalar oracle",
        design.name()
    );
    Ok(Row {
        design: design.name(),
        workload: "detect",
        sequential: seq,
        parallel: !seq,
        patterns: pats.len(),
        candidates: 0,
        fingerprint: scalar_fp,
        scalar_pps,
        packed_pps,
        work,
    })
}

// ---------------------------------------------------------------------
// faultsim: complement-candidate scoring
// ---------------------------------------------------------------------

/// Per candidate: first pattern where any output diverges (`None` =
/// silent fault) and the per-output "ever diverged" bit set.
type Footprint = (Option<usize>, Vec<bool>);

fn faultsim_row(
    design: PaperDesign,
    golden: &Netlist,
    pats: &[Vec<bool>],
    max_cand: usize,
) -> Result<Row, Box<dyn std::error::Error>> {
    let seq = golden.is_sequential();
    let n_po = golden.primary_outputs().len();
    let luts: Vec<CellId> = golden
        .cells()
        .filter(|(_, c)| c.lut_function().is_some())
        .map(|(id, _)| id)
        .collect();
    // Evenly spaced through the design so footprints span shallow and
    // deep logic.
    let stride = (luts.len() / max_cand).max(1);
    let cands: Vec<CellId> = luts
        .iter()
        .copied()
        .step_by(stride)
        .take(max_cand)
        .collect();

    // Scalar oracle: one complemented clone + full re-simulation per
    // candidate.
    let (scalar_fps, scalar_s) = median_timed(|| {
        let mut gsim = Simulator::new(golden)?;
        let mut gtrace: Vec<Vec<bool>> = Vec::with_capacity(pats.len());
        for pat in pats {
            gsim.set_inputs(pat);
            gsim.comb_eval();
            gtrace.push(gsim.outputs());
            if seq {
                gsim.step();
            }
        }
        let mut scalar_fps: Vec<Footprint> = Vec::with_capacity(cands.len());
        for &cand in &cands {
            let mut faulty = golden.clone();
            inject(&mut faulty, cand, DesignErrorKind::Complement)?;
            let mut fsim = Simulator::new(&faulty)?;
            let mut onset = None;
            let mut hit = vec![false; n_po];
            for (p, pat) in pats.iter().enumerate() {
                fsim.set_inputs(pat);
                fsim.comb_eval();
                let out = fsim.outputs();
                for (k, h) in hit.iter_mut().enumerate() {
                    if out[k] != gtrace[p][k] {
                        *h = true;
                        onset.get_or_insert(p);
                    }
                }
                if seq {
                    fsim.step();
                }
            }
            scalar_fps.push((onset, hit));
        }
        Ok(scalar_fps)
    })?;
    let evals = (pats.len() * cands.len()) as f64;
    let scalar_pps = evals / scalar_s;

    // Packed: pattern-parallel per candidate (combinational) or 64
    // candidate fault machines per stream pass (sequential).
    let ((packed_fps, work), packed_s) = median_timed(|| {
        if seq {
            packed_faultsim_seq(golden, &cands, pats, n_po)
        } else {
            packed_faultsim_comb(golden, &cands, pats, n_po)
        }
    })?;
    let packed_pps = evals / packed_s;

    assert_eq!(
        scalar_fps,
        packed_fps,
        "{} faultsim: packed footprints differ from the scalar oracle",
        design.name()
    );
    Ok(Row {
        design: design.name(),
        workload: "faultsim",
        sequential: seq,
        parallel: true,
        patterns: pats.len(),
        candidates: cands.len(),
        fingerprint: fold_footprints(&scalar_fps),
        scalar_pps,
        packed_pps,
        work,
    })
}

/// Combinational candidate scoring: for each candidate, sweep the
/// pattern set 64 lanes at a time with the complement fault active in
/// every lane, diffing against the fault-free golden trace. Returns
/// the footprints and the simulation work, trace recording included.
fn packed_faultsim_comb(
    golden: &Netlist,
    cands: &[CellId],
    pats: &[Vec<bool>],
    n_po: usize,
) -> Result<(Vec<Footprint>, SimWork), Box<dyn std::error::Error>> {
    let trace = GoldenTrace::record(golden, pats.iter().cloned())?;
    let mut sim = PackedSimulator::new(golden)?;
    let mut out = Vec::with_capacity(cands.len());
    for &cand in cands {
        sim.set_fault_lanes(cand, u64::MAX)?;
        let mut onset = None;
        let mut hit = vec![false; n_po];
        for chunk in Chunk::cover(trace.patterns(), LANES) {
            trace.load_chunk(&mut sim, chunk);
            sim.comb_eval();
            for (k, h) in hit.iter_mut().enumerate() {
                let diff = (sim.output_word(k) ^ trace.output_chunk(k, chunk)) & chunk.lanes();
                if diff != 0 {
                    *h = true;
                    let p = chunk.base + diff.trailing_zeros() as usize;
                    if onset.is_none_or(|o| p < o) {
                        onset = Some(p);
                    }
                }
            }
        }
        sim.clear_faults();
        out.push((onset, hit));
    }
    trace.add_work(sim.take_work());
    Ok((out, trace.take_work()))
}

/// Sequential candidate scoring: classic parallel-fault simulation —
/// lane `i` of one stream pass carries candidate `i`'s complement
/// fault, so each pass scores up to 64 machines against the
/// broadcast fault-free trace. Returns the footprints and the
/// simulation work, trace recording included.
fn packed_faultsim_seq(
    golden: &Netlist,
    cands: &[CellId],
    pats: &[Vec<bool>],
    n_po: usize,
) -> Result<(Vec<Footprint>, SimWork), Box<dyn std::error::Error>> {
    // Fault-free stream first, recorded once.
    let trace = GoldenTrace::record(golden, pats.iter().cloned())?;
    let mut sim = PackedSimulator::new(golden)?;
    let mut out = Vec::new();
    for batch in cands.chunks(LANES) {
        sim.reset();
        sim.clear_faults();
        for (i, &cand) in batch.iter().enumerate() {
            sim.set_fault_lanes(cand, 1u64 << i)?;
        }
        let mut onsets: Vec<Option<usize>> = vec![None; batch.len()];
        let mut hits: Vec<u64> = vec![0; n_po];
        let mut seen: u64 = 0;
        for p in 0..pats.len() {
            trace.broadcast_pattern(&mut sim, p);
            sim.comb_eval();
            let chunk = Chunk { base: p, len: 1 };
            let mut any = 0u64;
            for (k, h) in hits.iter_mut().enumerate() {
                // The golden bit, broadcast to every candidate's lane.
                let golden_word = 0u64.wrapping_sub(trace.output_chunk(k, chunk));
                let diff = sim.output_word(k) ^ golden_word;
                *h |= diff;
                any |= diff;
            }
            let mut newly = any & !seen;
            seen |= any;
            while newly != 0 {
                let i = newly.trailing_zeros() as usize;
                newly &= newly - 1;
                if i < onsets.len() {
                    onsets[i] = Some(p);
                }
            }
            sim.latch();
        }
        for (i, onset) in onsets.into_iter().enumerate() {
            out.push((onset, hits.iter().map(|h| h >> i & 1 == 1).collect()));
        }
    }
    trace.add_work(sim.take_work());
    Ok((out, trace.take_work()))
}

// ---------------------------------------------------------------------
// Fingerprints and JSON
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

fn fold_words(words: &[Vec<u64>]) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        for &x in w {
            h = fnv(h, x);
        }
        h = fnv(h, u64::MAX);
    }
    h
}

fn fold_footprints(fps: &[Footprint]) -> u64 {
    let mut h = FNV_OFFSET;
    for (onset, hit) in fps {
        h = fnv(h, onset.map_or(u64::MAX, |p| p as u64));
        for &b in hit {
            h = fnv(h, u64::from(b));
        }
    }
    h
}

/// Renders the sweep as JSON (hand-rolled like the other bench bins:
/// numbers, bools and design names only). Timing fields are last so
/// the deterministic prefix of each row is easy to eyeball in diffs.
fn render_json(quick: bool, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"sim\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"design\": \"{}\", \"workload\": \"{}\", \"sequential\": {}, \
             \"parallel\": {}, \"patterns\": {}, \"candidates\": {}, \
             \"fingerprint\": \"{:016x}\", \
             \"scalar_pps\": {:.0}, \"packed_pps\": {:.0}, \"speedup\": {:.2}}}",
            r.design,
            r.workload,
            r.sequential,
            r.parallel,
            r.patterns,
            r.candidates,
            r.fingerprint,
            r.scalar_pps,
            r.packed_pps,
            r.packed_pps / r.scalar_pps,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
