//! Golden-vs-DUT emulation with primary-output-only observability.
//!
//! During a debug session the golden model and its stimulus never
//! change; only the DUT does, one ECO at a time. So the golden side is
//! simulated **once**: a [`GoldenTrace`] records every golden net's
//! value on every pattern. Every comparison after that — first-mismatch
//! detection, full response sweeps, per-net divergence onsets, §4.1
//! control-point confirmation — simulates only the DUT, through the one
//! packed walker in this module (`sweep_dut`), and reads the golden
//! side out of the trace.
//!
//! # Trace layout and cost
//!
//! Each net owns `⌈patterns / 64⌉` words, and bit `p % 64` of word
//! `p / 64` is the net's value on pattern `p` — the same layout
//! `ResponseSignature` uses for pattern sets. A
//! trace therefore costs `net capacity × ⌈patterns / 64⌉ × 8` bytes —
//! 64 kB for a 1,000-net design under 512 patterns — held for as long
//! as the session lives. The golden primary inputs' nets carry the
//! stimulus itself, so the trace is also what drives the DUT: no
//! pattern vectors are kept beside it.
//!
//! # DUT-only sweeps
//!
//! The walker picks its chunk width from the DUT's own sequentiality.
//! Combinational DUTs evaluate 64 patterns per topo pass
//! ([`PackedSimulator`] lanes = patterns). Sequential DUTs run the
//! stimulus stream in one-pattern chunks, clocked between chunks
//! without reset: lanes can never be time steps, because pattern `i`'s
//! flip-flop state depends on pattern `i-1`. Each such chunk is a lane-0
//! pass ([`PackedSimulator::stream_eval`]), where a LUT reads its truth
//! table at the row its fanin bits index instead of folding the 64-lane
//! mux tree; the golden trace records sequential designs the same way.
//! Either way a chunk never straddles a trace word, so the golden word
//! of a chunk is one shift and one mask away
//! ([`GoldenTrace::output_chunk`]), and every pattern costs the DUT
//! exactly one topo pass: the walker evaluates, compares, then only
//! latches ([`PackedSimulator::latch`]). Every onset and verdict stays
//! bit-exact with the scalar [`Simulator`](crate::Simulator) oracle.
//!
//! # Work accounting
//!
//! A trace also accumulates the [`SimWork`] of everything simulated
//! against it: its own recording pass, and every DUT sweep, added once
//! per sweep. Fault-simulation engines that borrow the trace add
//! theirs with [`GoldenTrace::add_work`]. The trace's owner reads the
//! total with [`GoldenTrace::take_work`], so simulation work is
//! attributed to the session that did it, however many sessions share
//! the process.

use std::sync::{Mutex, MutexGuard};

use netlist::{NetId, Netlist, NetlistError};

use crate::packed::{lane_mask, PackedSimulator, SimWork, LANES};
use crate::patterns::PatternGen;

/// A detected divergence between golden model and device under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Index of the stimulus vector that exposed the bug.
    pub pattern_index: usize,
    /// Clock cycle at which the divergence was observed.
    pub cycle: u64,
    /// Index of the diverging primary output (PO order).
    pub output_index: usize,
    /// Name of the diverging output cell.
    pub output_name: String,
    /// Which outputs matched (true) at the failing cycle — used by
    /// cone-intersection diagnosis.
    pub output_ok: Vec<bool>,
}

/// A run of consecutive patterns evaluated in one packed pass: pattern
/// `base + l` sits in lane `l`, for `l < len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Index of the chunk's first pattern.
    pub base: usize,
    /// Number of patterns in the chunk (`1..=64`).
    pub len: usize,
}

impl Chunk {
    /// The chunks covering patterns `0..patterns`, `width` at a time.
    /// `width` must divide 64 (in practice 1 or [`LANES`]), so no chunk
    /// straddles a trace word.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or does not divide 64.
    pub fn cover(patterns: usize, width: usize) -> impl Iterator<Item = Chunk> {
        assert!(
            LANES.is_multiple_of(width),
            "chunk width {width} must divide {LANES}"
        );
        (0..patterns).step_by(width).map(move |base| Chunk {
            base,
            len: width.min(patterns - base),
        })
    }

    /// The valid-lane mask (`len` low bits set).
    pub fn lanes(self) -> u64 {
        lane_mask(self.len)
    }
}

/// Every golden net's value on every stimulus pattern, recorded once.
///
/// See the [module docs](self) for the layout and its memory cost.
/// Net ids are shared between the golden model and a DUT derived from
/// it by ECOs, so a DUT net is compared with the golden net of the same
/// id; nets the golden model does not have read as 0.
#[derive(Debug)]
pub struct GoldenTrace {
    /// `words[n * stride + w]`: bit `b` is net `n` on pattern `64w + b`.
    words: Vec<u64>,
    /// Words per net: `⌈patterns / 64⌉`.
    stride: usize,
    patterns: usize,
    /// The net each golden primary input drives (PI order).
    inputs: Vec<NetId>,
    /// The net each golden primary output reads (PO order; `None` for
    /// a dangling output, which reads as 0).
    outputs: Vec<Option<NetId>>,
    /// Simulation work done against this trace and not yet taken (see
    /// the [module docs](self#work-accounting)).
    work: Mutex<SimWork>,
}

impl GoldenTrace {
    /// Simulates `golden` over `patterns` and records every net.
    /// Sequential designs are clocked once per pattern without reset
    /// (the patterns form one stimulus stream), one lane-0 pass each;
    /// combinational designs are evaluated 64 patterns per pass.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures (combinational loops).
    ///
    /// # Panics
    ///
    /// Panics if a pattern's width differs from the golden model's
    /// primary-input count.
    pub fn record(
        golden: &Netlist,
        patterns: impl IntoIterator<Item = Vec<bool>>,
    ) -> Result<Self, NetlistError> {
        let mut sim = PackedSimulator::new(golden)?;
        let patterns: Vec<Vec<bool>> = patterns.into_iter().collect();
        let stride = patterns.len().div_ceil(LANES);
        let mut words = vec![0u64; golden.net_capacity() * stride];
        if golden.is_sequential() {
            for (p, pat) in patterns.iter().enumerate() {
                sim.load_patterns(std::slice::from_ref(pat));
                sim.stream_eval();
                let (w, b) = (p / LANES, p % LANES);
                for (n, &v) in sim.net_words().iter().enumerate() {
                    words[n * stride + w] |= v << b;
                }
                sim.latch();
            }
        } else {
            for (w, chunk) in patterns.chunks(LANES).enumerate() {
                let lanes = sim.load_patterns(chunk);
                sim.comb_eval();
                for (n, &v) in sim.net_words().iter().enumerate() {
                    words[n * stride + w] = v & lanes;
                }
            }
        }
        let net_of = |c| golden.cell(c).ok().and_then(|cell| cell.output);
        let inputs = golden
            .primary_inputs()
            .into_iter()
            .map(|pi| net_of(pi).expect("a primary input drives its net"))
            .collect();
        let outputs = golden
            .primary_outputs()
            .into_iter()
            .map(|po| {
                golden
                    .cell(po)
                    .ok()
                    .and_then(|cell| cell.inputs.first().copied())
            })
            .collect();
        Ok(Self {
            words,
            stride,
            patterns: patterns.len(),
            inputs,
            outputs,
            work: Mutex::new(sim.take_work()),
        })
    }

    /// Adds `work` done against this trace to its running total.
    pub fn add_work(&self, work: SimWork) {
        *self.work_total() += work;
    }

    /// The work done against this trace since it was recorded or the
    /// previous call, which the total restarts from. Recording the
    /// trace is part of the first call's total.
    pub fn take_work(&self) -> SimWork {
        std::mem::take(&mut *self.work_total())
    }

    fn work_total(&self) -> MutexGuard<'_, SimWork> {
        self.work
            .lock()
            .expect("the work total is only held for one add or swap")
    }

    /// Number of patterns recorded.
    pub fn patterns(&self) -> usize {
        self.patterns
    }

    /// Number of golden primary inputs (the stimulus width).
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Net `net`'s values, bit `p % 64` of word `p / 64` for pattern
    /// `p`; empty for a net the golden model does not have.
    fn net_words(&self, net: NetId) -> &[u64] {
        let start = net.index() * self.stride;
        self.words.get(start..start + self.stride).unwrap_or(&[])
    }

    /// Net `net`'s values on `chunk`, pattern `chunk.base + l` in lane
    /// `l` and invalid lanes 0.
    fn net_chunk(&self, net: NetId, chunk: Chunk) -> u64 {
        self.net_words(net)
            .get(chunk.base / LANES)
            .map_or(0, |&w| (w >> (chunk.base % LANES)) & chunk.lanes())
    }

    /// Golden primary output `index`'s values on `chunk`, pattern
    /// `chunk.base + l` in lane `l` and invalid lanes 0.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range index.
    pub fn output_chunk(&self, index: usize, chunk: Chunk) -> u64 {
        self.outputs[index].map_or(0, |net| self.net_chunk(net, chunk))
    }

    /// Drives `sim`'s primary inputs with `chunk`'s stimulus, pattern
    /// `chunk.base + l` in lane `l`: input `k` gets golden input `k`'s
    /// values. Inputs beyond the golden model's — a DUT's debug
    /// instrumentation — are driven inactive.
    pub fn load_chunk(&self, sim: &mut PackedSimulator<'_>, chunk: Chunk) {
        sim.count_lanes(chunk.len);
        for k in 0..sim.num_inputs() {
            let word = self.inputs.get(k).map_or(0, |&n| self.net_chunk(n, chunk));
            sim.set_input_word(k, word);
        }
    }

    /// Drives pattern `p` on every lane of `sim` (machines-as-lanes
    /// mode); inputs beyond the golden model's are driven inactive.
    pub fn broadcast_pattern(&self, sim: &mut PackedSimulator<'_>, p: usize) {
        sim.count_lanes(1);
        let chunk = Chunk { base: p, len: 1 };
        for k in 0..sim.num_inputs() {
            let bit = self.inputs.get(k).map_or(0, |&n| self.net_chunk(n, chunk));
            sim.set_input_word(k, 0u64.wrapping_sub(bit));
        }
    }
}

/// The one packed walker behind every sweep: simulates `dut` over the
/// first `patterns` patterns of `trace` (all of them, at most) and
/// hands each evaluated chunk to `visit(chunk, dut_sim)`, which reads
/// the golden side from `trace`. `visit` returns `false` to stop the
/// sweep early; the clock does *not* advance past a stopped chunk, so
/// [`PackedSimulator::cycles`] reads like the scalar oracle's at the
/// moment of detection.
///
/// With `force = Some(net)` the DUT's inputs past the golden model's
/// are a control point's `[force_val, force_en]` pair: `force_val`
/// carries golden `net`'s values and `force_en` is held active. Returns
/// the number of patterns consumed; the sweep's work is added to
/// `trace`.
fn sweep_dut<F>(
    trace: &GoldenTrace,
    dut: &Netlist,
    force: Option<NetId>,
    patterns: usize,
    mut visit: F,
) -> Result<usize, NetlistError>
where
    F: FnMut(Chunk, &PackedSimulator<'_>) -> bool,
{
    let mut dsim = PackedSimulator::new(dut)?;
    let sequential = dut.is_sequential();
    let width = if sequential { 1 } else { LANES };
    let mut swept = 0usize;
    for chunk in Chunk::cover(patterns.min(trace.patterns()), width) {
        trace.load_chunk(&mut dsim, chunk);
        if let Some(net) = force {
            let force_val = trace.num_inputs();
            dsim.set_input_word(force_val, trace.net_chunk(net, chunk));
            dsim.set_input_word(force_val + 1, u64::MAX);
        }
        if sequential {
            dsim.stream_eval();
        } else {
            dsim.comb_eval();
        }
        swept += chunk.len;
        if !visit(chunk, &dsim) {
            break;
        }
        if sequential {
            dsim.latch();
        }
    }
    trace.add_work(dsim.take_work());
    Ok(swept)
}

/// Runs `patterns` through both netlists and returns the first
/// primary-output divergence, if any.
///
/// Sequential designs are clocked once per pattern *without* reset in
/// between (patterns form a stimulus stream); combinational designs
/// are evaluated 64 patterns per packed pass. Only primary outputs
/// are compared — internal nets are invisible, as on a real emulator.
/// The golden side is recorded into a [`GoldenTrace`] first; a caller
/// comparing several DUTs against one golden model should record the
/// trace once and sweep with [`po_divergence_words`] instead.
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
///
/// # Panics
///
/// Panics if the two netlists disagree on PI/PO counts (they must be
/// the same design, one of them buggy).
pub fn first_mismatch(
    golden: &Netlist,
    dut: &Netlist,
    patterns: PatternGen,
) -> Result<Option<Mismatch>, NetlistError> {
    let pos = golden.primary_outputs();
    assert_eq!(
        golden.primary_inputs().len(),
        dut.primary_inputs().len(),
        "PI mismatch between golden and DUT"
    );
    assert_eq!(
        pos.len(),
        dut.primary_outputs().len(),
        "PO mismatch between golden and DUT"
    );
    assert_eq!(
        patterns.width(),
        golden.primary_inputs().len(),
        "pattern width mismatch"
    );
    let trace = GoldenTrace::record(golden, patterns)?;
    let mut diffs = vec![0u64; pos.len()];
    let mut hit: Option<(usize, u64, usize, Vec<bool>)> = None;
    sweep_dut(&trace, dut, None, usize::MAX, |chunk, dsim| {
        let mut any = 0u64;
        for (j, diff) in diffs.iter_mut().enumerate() {
            *diff = (trace.output_chunk(j, chunk) ^ dsim.output_word(j)) & chunk.lanes();
            any |= *diff;
        }
        if any == 0 {
            return true;
        }
        // The earliest diverging lane is the first failing pattern.
        let lane = any.trailing_zeros();
        let output_ok: Vec<bool> = diffs.iter().map(|&d| d >> lane & 1 == 0).collect();
        let first_bad = output_ok.iter().position(|&ok| !ok).expect("some diff");
        hit = Some((
            chunk.base + lane as usize,
            dsim.cycles(),
            first_bad,
            output_ok,
        ));
        false
    })?;
    let Some((pattern_index, cycle, first_bad, output_ok)) = hit else {
        return Ok(None);
    };
    Ok(Some(Mismatch {
        pattern_index,
        cycle,
        output_index: first_bad,
        output_name: golden.cell(pos[first_bad])?.name.clone(),
        output_ok,
    }))
}

/// Windowed response capture: sweeps the DUT over the trace's patterns
/// and records, per watched net, the index of the **first** pattern on
/// which its value diverges from golden (`None` = clean across the
/// whole sweep).
///
/// This is the observation primitive behind windowed multi-error
/// diagnosis: a tap verdict is no longer a single "ever diverged"
/// bit but the exact onset pattern, so one physical tap can be
/// re-read under any cluster's `[0, first_fail]` observation window
/// (diverged within the window iff the onset is `<= window`).
///
/// Onsets fall out of the packed words as
/// `(golden ^ dut).trailing_zeros()` scans, chunked exactly like
/// [`po_divergence_words`] and [`first_mismatch`], so pattern indices
/// are directly comparable across detection and observation. The DUT
/// may carry extra primary inputs (debug instrumentation); they are
/// driven inactive. The sweep stops early once every watched net has
/// diverged.
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
pub fn net_first_divergences(
    trace: &GoldenTrace,
    dut: &Netlist,
    nets: &[NetId],
) -> Result<Vec<Option<usize>>, NetlistError> {
    let mut onsets: Vec<Option<usize>> = vec![None; nets.len()];
    let mut undecided = nets.len();
    sweep_dut(trace, dut, None, usize::MAX, |chunk, dsim| {
        for (onset, &net) in onsets.iter_mut().zip(nets) {
            if onset.is_none() {
                let diff = (trace.net_chunk(net, chunk) ^ dsim.net_word(net)) & chunk.lanes();
                if diff != 0 {
                    *onset = Some(chunk.base + diff.trailing_zeros() as usize);
                    undecided -= 1;
                }
            }
        }
        undecided != 0
    })?;
    Ok(onsets)
}

/// Full-footprint sweep: for each `(golden PO index, DUT PO index)`
/// pair, the packed set of patterns on which the two outputs
/// diverge — `words[i]` holds bit `p % 64` of word `p / 64` set iff
/// pattern `p` failed — plus the number of patterns swept. This is
/// the word-level feed for `ResponseMatrix` signatures (which store
/// exactly this layout); unlike [`first_mismatch`] the sweep never
/// stops early, because multi-error diagnosis needs the whole
/// footprint. The DUT may carry extra primary inputs; they are driven
/// inactive.
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
#[allow(clippy::type_complexity)]
pub fn po_divergence_words(
    trace: &GoldenTrace,
    dut: &Netlist,
    pairs: &[(usize, usize)],
) -> Result<(Vec<Vec<u64>>, usize), NetlistError> {
    let mut words: Vec<Vec<u64>> = vec![Vec::new(); pairs.len()];
    let count = sweep_dut(trace, dut, None, usize::MAX, |chunk, dsim| {
        let (wi, shift) = (chunk.base / LANES, chunk.base % LANES);
        for (w, &(gk, dk)) in words.iter_mut().zip(pairs) {
            let diff = (trace.output_chunk(gk, chunk) ^ dsim.output_word(dk)) & chunk.lanes();
            if diff != 0 {
                if w.len() <= wi {
                    w.resize(wi + 1, 0);
                }
                w[wi] |= diff << shift;
            }
        }
        true
    })?;
    Ok((words, count))
}

/// §4.1 control-point confirmation sweep over the first `patterns`
/// patterns of the trace: the DUT's last two primary inputs are a
/// control point's `[force_val, force_en]` pair; every chunk drives
/// `force_val` with the golden model's values for `forced_net` and
/// holds `force_en` active, then compares the paired primary outputs.
/// Returns whether every pattern matched (early-exits on the first
/// diverging chunk).
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
///
/// # Panics
///
/// Panics unless the DUT has exactly two more primary inputs than the
/// golden model (the control point's force pair).
pub fn forced_outputs_equivalent(
    trace: &GoldenTrace,
    dut: &Netlist,
    forced_net: NetId,
    pairs: &[(usize, usize)],
    patterns: usize,
) -> Result<bool, NetlistError> {
    assert_eq!(
        dut.primary_inputs().len(),
        trace.num_inputs() + 2,
        "control point adds two PIs"
    );
    let mut matched = true;
    sweep_dut(trace, dut, Some(forced_net), patterns, |chunk, dsim| {
        matched = pairs.iter().all(|&(gk, dk)| {
            (trace.output_chunk(gk, chunk) ^ dsim.output_word(dk)) & chunk.lanes() == 0
        });
        matched
    })?;
    Ok(matched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{inject, DesignErrorKind};
    use netlist::TruthTable;

    /// Two independent output cones: y0 = a AND b, y1 = a XOR c.
    fn two_cone_design() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let c = nl.add_input("c").unwrap();
        let (na, nb, nc) = (
            nl.cell_output(a).unwrap(),
            nl.cell_output(b).unwrap(),
            nl.cell_output(c).unwrap(),
        );
        let u0 = nl.add_lut("u0", TruthTable::and(2), &[na, nb]).unwrap();
        let u1 = nl.add_lut("u1", TruthTable::xor(2), &[na, nc]).unwrap();
        nl.add_output("y0", nl.cell_output(u0).unwrap()).unwrap();
        nl.add_output("y1", nl.cell_output(u1).unwrap()).unwrap();
        nl
    }

    #[test]
    fn identical_designs_never_mismatch() {
        let nl = two_cone_design();
        let m = first_mismatch(&nl, &nl.clone(), PatternGen::exhaustive(3)).unwrap();
        assert_eq!(m, None);
    }

    #[test]
    fn planted_bug_is_detected_with_per_output_verdicts() {
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let u1 = dut.find_cell("u1").unwrap();
        inject(&mut dut, u1, DesignErrorKind::Complement).unwrap();
        let m = first_mismatch(&golden, &dut, PatternGen::exhaustive(3))
            .unwrap()
            .expect("complemented gate must diverge");
        assert_eq!(m.output_name, "y1");
        // Per-output verdicts at the failing cycle: y0 clean, y1 bad
        // (the raw material the diagnosis evidence layer consumes).
        assert_eq!(m.output_ok, vec![true, false]);
    }

    /// One FF whose next state is `q ^ en` (`toggle`) or `q` (stuck:
    /// feedback buffered, not inverted).
    fn register_design(toggle: bool) -> Netlist {
        let mut nl = Netlist::new("seq");
        let en = nl.add_input("en").unwrap();
        let seed = nl.add_net("seed").unwrap();
        let ff = nl.add_ff("q", false, seed).unwrap();
        let q = nl.cell_output(ff).unwrap();
        let tt = if toggle {
            TruthTable::xor(2)
        } else {
            TruthTable::var(2, 1)
        };
        let f = nl
            .add_lut("f", tt, &[nl.cell_output(en).unwrap(), q])
            .unwrap();
        nl.set_pin(ff, 0, nl.cell_output(f).unwrap()).unwrap();
        nl.add_output("out", q).unwrap();
        nl
    }

    #[test]
    fn sequential_divergence_found_over_time() {
        let golden = register_design(true); // q ^= en
        let dut = register_design(false); // q stays q
        let m = first_mismatch(&golden, &dut, PatternGen::random(1, 20, 3))
            .unwrap()
            .expect("the stuck register diverges");
        // Stream mode: the cycle count at detection is the pattern index.
        assert_eq!(m.cycle, m.pattern_index as u64);
    }

    #[test]
    fn first_divergences_report_exact_onsets() {
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let u0 = dut.find_cell("u0").unwrap();
        // Flip only the row a=1,b=1: u0's net diverges first on the
        // exhaustive pattern with a=b=1 (index 3); u1 never diverges.
        inject(&mut dut, u0, DesignErrorKind::FlipRow { row: 3 }).unwrap();
        let n0 = golden.cell_output(golden.find_cell("u0").unwrap()).unwrap();
        let n1 = golden.cell_output(golden.find_cell("u1").unwrap()).unwrap();
        let trace = GoldenTrace::record(&golden, PatternGen::exhaustive(3)).unwrap();
        let onsets = net_first_divergences(&trace, &dut, &[n0, n1]).unwrap();
        assert_eq!(onsets, vec![Some(3), None]);
    }

    #[test]
    fn single_minterm_bug_needs_the_right_pattern() {
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let u0 = dut.find_cell("u0").unwrap();
        // Flip only the row a=1,b=1.
        inject(&mut dut, u0, DesignErrorKind::FlipRow { row: 3 }).unwrap();
        let m = first_mismatch(&golden, &dut, PatternGen::exhaustive(3))
            .unwrap()
            .expect("exhaustive patterns hit every minterm");
        // The failing stimulus must have a=b=1.
        let pat = PatternGen::exhaustive(3).nth(m.pattern_index).unwrap();
        assert!(pat[0] && pat[1]);
    }

    #[test]
    fn divergence_words_carry_the_whole_footprint() {
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let u0 = dut.find_cell("u0").unwrap();
        inject(&mut dut, u0, DesignErrorKind::FlipRow { row: 3 }).unwrap();
        let pairs = [(0, 0), (1, 1)];
        let trace = GoldenTrace::record(&golden, PatternGen::exhaustive(3)).unwrap();
        let (words, count) = po_divergence_words(&trace, &dut, &pairs).unwrap();
        assert_eq!(count, 8);
        // y0 fails exactly on the a=b=1 patterns (indices 3 and 7).
        assert_eq!(words[0], vec![(1 << 3) | (1 << 7)]);
        assert!(words[1].is_empty(), "y1 never diverges");
    }

    #[test]
    fn trace_holds_every_net_per_pattern() {
        let golden = two_cone_design();
        let pats: Vec<Vec<bool>> = PatternGen::random(3, 130, 1).collect();
        let trace = GoldenTrace::record(&golden, pats.clone()).unwrap();
        assert_eq!(trace.patterns(), 130);
        let y1 = golden.cell_output(golden.find_cell("u1").unwrap()).unwrap();
        let words = trace.net_words(y1);
        assert_eq!(words.len(), 3);
        for (p, pat) in pats.iter().enumerate() {
            assert_eq!(words[p / 64] >> (p % 64) & 1 == 1, pat[0] ^ pat[2]);
        }
        // Chunk reads shift and mask the same words: a one-pattern chunk
        // is lane 0, a 64-pattern chunk is the whole word.
        let tail = Chunk { base: 129, len: 1 };
        assert_eq!(trace.net_chunk(y1, tail), words[2] >> 1 & 1);
        let mid = Chunk { base: 64, len: 64 };
        assert_eq!(trace.net_chunk(y1, mid), words[1]);
        assert_eq!(trace.net_words(NetId::new(10_000)), &[] as &[u64]);
    }

    #[test]
    fn trace_accumulates_the_work_done_against_it() {
        let golden = two_cone_design();
        let trace = GoldenTrace::record(&golden, PatternGen::exhaustive(3)).unwrap();
        // Recording is one 8-lane pass over 5 ops (3 inputs, 2 LUTs).
        let recorded = trace.take_work();
        assert_eq!(
            recorded,
            SimWork {
                sweeps: 1,
                net_words: 5,
                lanes_loaded: 8
            }
        );
        assert_eq!(trace.take_work(), SimWork::default());
        // A DUT sweep of the same shape adds the same work.
        po_divergence_words(&trace, &golden.clone(), &[(0, 0)]).unwrap();
        assert_eq!(trace.take_work(), recorded);

        // A sequential design streams: one lane-0 pass per pattern, each
        // still counted as a sweep over every op (input, FF, LUT).
        let golden = register_design(true);
        let trace = GoldenTrace::record(&golden, PatternGen::random(1, 5, 3)).unwrap();
        let recorded = trace.take_work();
        assert_eq!(
            recorded,
            SimWork {
                sweeps: 5,
                net_words: 15,
                lanes_loaded: 5
            }
        );
        po_divergence_words(&trace, &register_design(false), &[(0, 0)]).unwrap();
        assert_eq!(trace.take_work(), recorded);
    }

    #[test]
    fn chunks_cover_the_patterns_without_straddling_words() {
        let chunks: Vec<Chunk> = Chunk::cover(130, LANES).collect();
        assert_eq!(
            chunks.iter().map(|c| (c.base, c.len)).collect::<Vec<_>>(),
            vec![(0, 64), (64, 64), (128, 2)]
        );
        assert_eq!(chunks[2].lanes(), 0b11);
        assert_eq!(Chunk::cover(3, 1).count(), 3);
        assert_eq!(Chunk::cover(0, LANES).count(), 0);
    }
}
