//! Response signatures and per-error blame attribution.
//!
//! With several errors live at once, one golden-vs-DUT sweep mixes
//! their symptoms. This module untangles them in two steps:
//!
//! 1. **Signatures** — [`collect_responses`] records, for every
//!    primary output, *which stimulus patterns it fails on* (a
//!    [`ResponseSignature`]). [`cluster_failures`] then groups failing
//!    outputs that present the same signature through the same fanin
//!    cone: each [`FailureCluster`] is one suspected error's observable
//!    footprint. (Two clusters can still turn out to be the same
//!    error seen through different cones — the scheduler's per-batch
//!    tap deduplication makes chasing both nearly free, and exact-cell
//!    agreement merges them at the end.)
//! 2. **Fault attribution** — when suspect cones intersect, a
//!    diverging observation in the shared core is ambiguous.
//!    [`FaultAttribution`] fault-simulates candidate sites under a
//!    generic complement error model and scores how well each
//!    candidate's predicted failing-output set matches a cluster's
//!    observed one (Jaccard), assigning blame to the best match.
//!
//! Everything causal — onset bounds, alibi tables, windowed pruning —
//! lives in [`crate::diagnosis::evidence`]; this module only builds
//! the observable footprints that feed it.

use std::collections::HashMap;

use netlist::{CellId, Netlist, NetlistError};
use sim::emulate::{Chunk, GoldenTrace};
use sim::patterns::PatternGen;
use sim::{PackedSimulator, LANES};

use super::cone::SuspectCone;

/// The set of stimulus patterns on which one output diverged,
/// word-packed by pattern index.
///
/// Invariant: the last word, if any, is non-zero —
/// [`record`](Self::record) and [`union_with`](Self::union_with) only ever grow
/// the vector to hold a set bit — so the derived `==`/`Hash` mean set
/// equality, like [`super::cone::SuspectCone`]'s (which indexes cells
/// rather than patterns).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ResponseSignature {
    words: Vec<u64>,
}

impl ResponseSignature {
    /// Marks pattern `index` as failing.
    pub fn record(&mut self, index: usize) {
        let (w, b) = (index / 64, index % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << b;
    }

    /// Builds a signature directly from packed divergence words (bit
    /// `p % 64` of word `p / 64` = pattern `p` failed) — the layout
    /// [`sim::emulate::po_divergence_words`] produces. Trailing zero
    /// words are trimmed to restore the invariant.
    pub fn from_words(mut words: Vec<u64>) -> Self {
        while words.last() == Some(&0) {
            words.pop();
        }
        Self { words }
    }

    /// Whether pattern `index` failed.
    pub fn contains(&self, index: usize) -> bool {
        let (w, b) = (index / 64, index % 64);
        self.words.get(w).is_some_and(|&word| word >> b & 1 == 1)
    }

    /// Number of failing patterns.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the output never diverged.
    pub fn is_clean(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The earliest failing pattern index, if any.
    pub fn first_failing(&self) -> Option<usize> {
        self.words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// Marks every pattern failing in `other` as failing here too
    /// (set union — how a cluster accumulates the signatures of its
    /// member outputs).
    pub fn union_with(&mut self, other: &ResponseSignature) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }
}

/// Per-output response signatures from one golden-vs-DUT sweep.
#[derive(Debug, Clone)]
pub struct ResponseMatrix {
    /// Golden primary-output cells, in PO order.
    pub outputs: Vec<CellId>,
    /// One signature per entry of `outputs`.
    pub signatures: Vec<ResponseSignature>,
    /// How many patterns were swept.
    pub patterns: usize,
}

impl ResponseMatrix {
    /// Indices into `outputs` whose signature is not clean.
    pub fn failing(&self) -> Vec<usize> {
        (0..self.outputs.len())
            .filter(|&k| !self.signatures[k].is_clean())
            .collect()
    }

    /// Whether every golden output in `outputs` matched on every
    /// pattern — how one sweep of a corrected DUT judges each error
    /// cluster separately.
    pub fn clean_on(&self, outputs: &[CellId]) -> bool {
        self.outputs
            .iter()
            .zip(&self.signatures)
            .all(|(po, sig)| sig.is_clean() || !outputs.contains(po))
    }
}

/// Sweeps `patterns` through both netlists and records, per primary
/// output, the set of patterns it fails on: [`traced_responses`] over
/// a [`GoldenTrace`] recorded for this one call. A caller sweeping
/// several DUTs against the same golden model and patterns (a debug
/// session) records the trace once and calls [`traced_responses`].
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
pub fn collect_responses(
    golden: &Netlist,
    dut: &Netlist,
    patterns: PatternGen,
) -> Result<ResponseMatrix, NetlistError> {
    traced_responses(&GoldenTrace::record(golden, patterns)?, golden, dut)
}

/// Sweeps only the DUT over `trace`'s patterns and records, per golden
/// primary output, the set of patterns it fails on. Outputs are paired
/// by cell name, so a DUT carrying leftover debug instrumentation
/// (extra observation outputs) is compared only on the original
/// outputs.
///
/// The sweep runs packed ([`sim::emulate::po_divergence_words`]):
/// combinational designs evaluate 64 patterns per topo pass and the
/// divergence words *are* the signature words; sequential designs are
/// clocked once per pattern without reset, as in
/// [`sim::emulate::first_mismatch`]. Unlike `first_mismatch` the
/// sweep does **not** stop at the first divergence — multi-error
/// diagnosis needs the whole footprint.
///
/// # Errors
///
/// Propagates simulator construction failures (combinational loops).
pub fn traced_responses(
    trace: &GoldenTrace,
    golden: &Netlist,
    dut: &Netlist,
) -> Result<ResponseMatrix, NetlistError> {
    let outputs = golden.primary_outputs();
    let pairs = po_pairs(golden, dut)?;
    let (words, count) = sim::emulate::po_divergence_words(trace, dut, &pairs)?;
    let mut signatures = vec![ResponseSignature::default(); outputs.len()];
    for (&(gk, _), w) in pairs.iter().zip(words) {
        signatures[gk] = ResponseSignature::from_words(w);
    }
    Ok(ResponseMatrix {
        outputs,
        signatures,
        patterns: count,
    })
}

/// Pairs golden primary outputs with the DUT cells of the same name:
/// `(golden PO index, DUT PO index)`, skipping outputs the DUT no
/// longer carries. The DUT accumulates extra debug-instrumentation
/// outputs during a campaign, so a plain positional compare would
/// misalign — every golden-vs-DUT output comparison in the session
/// and in [`collect_responses`] goes through this one pairing.
///
/// # Errors
///
/// Propagates cell-lookup failures.
pub fn po_pairs(golden: &Netlist, dut: &Netlist) -> Result<Vec<(usize, usize)>, NetlistError> {
    let gpos = golden.primary_outputs();
    let dpos = dut.primary_outputs();
    let mut pairs = Vec::with_capacity(gpos.len());
    for (k, &gpo) in gpos.iter().enumerate() {
        let name = &golden.cell(gpo)?.name;
        if let Some(dpo) = dut.find_cell(name) {
            if let Some(dk) = dpos.iter().position(|&c| c == dpo) {
                pairs.push((k, dk));
            }
        }
    }
    Ok(pairs)
}

/// One suspected error's observable footprint: the failing outputs
/// that see the same structural suspect cone, with the union of
/// their response signatures.
#[derive(Debug, Clone)]
pub struct FailureCluster {
    /// Golden primary-output cells presenting this footprint.
    pub outputs: Vec<CellId>,
    /// The patterns on which at least one member output fails.
    pub signature: ResponseSignature,
    /// Fanin cone of the member outputs (identical across members by
    /// construction; the *intersection* of member cones after an FSM
    /// merge), i.e. the raw structural suspect set.
    pub cone: SuspectCone,
    /// The cluster's observation window: the earliest failing pattern
    /// of any member output. Everything this error can teach us is
    /// already visible on `[0, window]` — the divergence that *first*
    /// exposed the cluster happened there — so pruning and tap
    /// verdicts for this cluster are evaluated within the window,
    /// mirroring the serial path's first-mismatching-cycle split.
    pub window: usize,
}

/// Groups the failing outputs of `matrix` into error clusters: two
/// outputs land in the same cluster iff they see exactly the same
/// fanin cone. Signature differences within one cone do *not* split a
/// cluster — a single error behind shared logic routinely reaches
/// different outputs on different patterns (ubiquitous on sequential
/// designs, where every state-fed output sees the whole state cone),
/// and splitting it would spawn redundant localizations of the same
/// site. Distinct cones stay distinct clusters even with identical
/// signatures. Clusters are ordered by their first member's PO
/// position, so the result is deterministic.
pub fn cluster_failures(golden: &Netlist, matrix: &ResponseMatrix) -> Vec<FailureCluster> {
    let mut clusters: Vec<FailureCluster> = Vec::new();
    for k in matrix.failing() {
        let po = matrix.outputs[k];
        let cone = SuspectCone::fanin(golden, &[po]);
        let sig = &matrix.signatures[k];
        if let Some(c) = clusters.iter_mut().find(|c| c.cone == cone) {
            c.outputs.push(po);
            c.signature.union_with(sig);
        } else {
            clusters.push(FailureCluster {
                outputs: vec![po],
                signature: sig.clone(),
                cone,
                window: 0,
            });
        }
    }
    for c in &mut clusters {
        // The union signature's earliest failure is the min over the
        // member outputs' onsets — the sharpest window that still
        // contains the divergence that exposed the cluster.
        c.window = c.signature.first_failing().unwrap_or(0);
    }
    clusters
}

/// Fault-simulation-based blame assignment.
///
/// For a candidate error site, the engine simulates the golden model
/// with that cell's function complemented (the generic single-error
/// model: any functional bug at a cell perturbs its output on *some*
/// patterns; the complement perturbs it on all, giving the widest
/// observable footprint the site can produce) and records which
/// primary outputs ever diverge. A candidate *explains* a cluster to
/// the degree its predicted failing-output set overlaps the cluster's
/// observed one.
///
/// Fault simulation runs packed on both design classes, exploiting a
/// different word axis on each: combinational candidates sweep 64
/// *patterns* per topo pass (the candidate planted as an all-lane
/// complement via [`PackedSimulator::set_fault_lanes`]), while
/// sequential designs — whose stimulus stream cannot be
/// pattern-parallel — batch up to 64 candidate *machines* per stream
/// pass, one lane-complement fault each (classic parallel-fault
/// simulation). [`prime`](Self::prime) fills the cache batch-wise;
/// per-candidate queries fall back to batches of one.
///
/// Both the stimulus and the fault-free response come from the
/// session's [`GoldenTrace`], so the engine never simulates the golden
/// model itself; every candidate sweep's simulation work is added to
/// that trace.
pub struct FaultAttribution<'a> {
    golden: &'a Netlist,
    /// The fault-free response every candidate machine is diffed
    /// against, and the stimulus that drives it.
    trace: &'a GoldenTrace,
    /// Persistent packed engine over the golden model; faults are
    /// planted and cleared around each candidate sweep.
    psim: PackedSimulator<'a>,
    sequential: bool,
    /// Cache: candidate cell → predicted failing-PO mask.
    cache: HashMap<CellId, Vec<bool>>,
}

impl<'a> FaultAttribution<'a> {
    /// Prepares the engine over `golden`, scoring candidates against
    /// `trace`, the golden model's recorded response.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures.
    pub fn new(golden: &'a Netlist, trace: &'a GoldenTrace) -> Result<Self, NetlistError> {
        Ok(Self {
            golden,
            trace,
            psim: PackedSimulator::new(golden)?,
            sequential: golden.is_sequential(),
            cache: HashMap::new(),
        })
    }

    /// Fills the prediction cache for every candidate in one packed
    /// sweep per 64 candidates (sequential designs) or one
    /// pattern-parallel sweep per candidate (combinational designs).
    /// Call before a loop of [`blame_score`](Self::blame_score)s so
    /// sequential scoring pays one stream pass per candidate *batch*
    /// rather than per candidate.
    ///
    /// # Errors
    ///
    /// Propagates fault-simulation failures.
    pub fn prime(&mut self, candidates: &[CellId]) -> Result<(), NetlistError> {
        let mut luts: Vec<CellId> = Vec::new();
        for &c in candidates {
            if self.cache.contains_key(&c) || luts.contains(&c) {
                continue;
            }
            let is_lut = self
                .golden
                .cell(c)
                .ok()
                .is_some_and(|cell| cell.lut_function().is_some());
            if is_lut {
                luts.push(c);
            } else {
                // Non-LUT candidates predict nothing.
                self.cache.insert(c, vec![false; self.trace.num_outputs()]);
            }
        }
        if self.sequential {
            for batch in luts.chunks(LANES) {
                for (c, mask) in sweep_candidate_batch(&mut self.psim, self.trace, batch)? {
                    self.cache.insert(c, mask);
                }
            }
        } else {
            for c in luts {
                let mask = sweep_candidate_patterns(&mut self.psim, self.trace, c)?;
                self.cache.insert(c, mask);
            }
        }
        Ok(())
    }

    /// Predicted failing-PO mask (PO order) for a complement-model
    /// error at `cell`. Non-LUT cells predict nothing.
    ///
    /// # Errors
    ///
    /// Propagates netlist editing / simulation failures.
    pub fn fault_outputs(&mut self, cell: CellId) -> Result<Vec<bool>, NetlistError> {
        if !self.cache.contains_key(&cell) {
            self.prime(&[cell])?;
        }
        Ok(self.cache[&cell].clone())
    }

    /// Jaccard similarity between the candidate's predicted
    /// failing-PO set and an observed one (both in PO order).
    /// 0.0 = disjoint, 1.0 = identical footprints.
    ///
    /// # Errors
    ///
    /// Propagates fault-simulation failures.
    pub fn blame_score(&mut self, cell: CellId, observed: &[bool]) -> Result<f64, NetlistError> {
        let predicted = self.fault_outputs(cell)?;
        let mut inter = 0usize;
        let mut uni = 0usize;
        for (p, o) in predicted.iter().zip(observed) {
            inter += usize::from(*p && *o);
            uni += usize::from(*p || *o);
        }
        Ok(if uni == 0 {
            0.0
        } else {
            inter as f64 / uni as f64
        })
    }
}

/// One pattern-parallel sweep of a single combinational candidate:
/// all 64 lanes carry the complemented machine, patterns chunk
/// through the lanes. Returns the predicted failing-PO mask in PO
/// order; the sweep's work is added to `trace`.
fn sweep_candidate_patterns(
    psim: &mut PackedSimulator<'_>,
    trace: &GoldenTrace,
    cell: CellId,
) -> Result<Vec<bool>, NetlistError> {
    let mut acc = vec![0u64; trace.num_outputs()];
    psim.set_fault_lanes(cell, u64::MAX)?;
    for chunk in Chunk::cover(trace.patterns(), LANES) {
        trace.load_chunk(psim, chunk);
        psim.comb_eval();
        for (j, a) in acc.iter_mut().enumerate() {
            *a |= (psim.output_word(j) ^ trace.output_chunk(j, chunk)) & chunk.lanes();
        }
    }
    psim.clear_faults();
    trace.add_work(psim.take_work());
    Ok(acc.iter().map(|&a| a != 0).collect())
}

/// One packed stream pass over up to 64 sequential candidates: lane
/// `i` carries the machine with `batch[i]` complemented, all lanes
/// fed the same stimulus stream. Returns `(candidate, failing-PO
/// mask)` pairs in batch order; the pass's work is added to `trace`.
fn sweep_candidate_batch(
    psim: &mut PackedSimulator<'_>,
    trace: &GoldenTrace,
    batch: &[CellId],
) -> Result<Vec<(CellId, Vec<bool>)>, NetlistError> {
    debug_assert!(batch.len() <= LANES);
    let mut acc = vec![0u64; trace.num_outputs()];
    psim.clear_faults();
    psim.reset();
    for (i, &c) in batch.iter().enumerate() {
        psim.set_fault_lanes(c, 1u64 << i)?;
    }
    for p in 0..trace.patterns() {
        trace.broadcast_pattern(psim, p);
        psim.comb_eval();
        let chunk = Chunk { base: p, len: 1 };
        for (j, a) in acc.iter_mut().enumerate() {
            *a |= psim.output_word(j) ^ 0u64.wrapping_sub(trace.output_chunk(j, chunk));
        }
        psim.latch();
    }
    psim.clear_faults();
    trace.add_work(psim.take_work());
    Ok(batch
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, acc.iter().map(|&a| a >> i & 1 == 1).collect()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::TruthTable;
    use sim::inject::{inject, DesignErrorKind};

    /// y0 = a AND b through u0; y1 = a XOR c through u1 (independent
    /// cones except for the shared input a).
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
    fn signatures_separate_two_simultaneous_errors() {
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let u0 = dut.find_cell("u0").unwrap();
        let u1 = dut.find_cell("u1").unwrap();
        inject(&mut dut, u0, DesignErrorKind::FlipRow { row: 3 }).unwrap();
        inject(&mut dut, u1, DesignErrorKind::Complement).unwrap();
        let m = collect_responses(&golden, &dut, PatternGen::exhaustive(3)).unwrap();
        assert_eq!(m.patterns, 8);
        assert_eq!(m.failing().len(), 2, "both outputs must fail");
        // y0 fails only on a=b=1 (2 of 8 patterns); y1 on all 8.
        assert_eq!(m.signatures[0].count(), 2);
        assert_eq!(m.signatures[1].count(), 8);
        let clusters = cluster_failures(&golden, &m);
        assert_eq!(clusters.len(), 2, "distinct footprints, distinct clusters");
        assert!(clusters[0].cone.contains(golden.find_cell("u0").unwrap()));
        assert!(!clusters[0].cone.contains(golden.find_cell("u1").unwrap()));
    }

    #[test]
    fn windowed_pruning_on_combinational_designs_matches_the_passing_split() {
        // No flip-flops: every causal depth is zero, so evidence
        // pruning degenerates to the classic passing-cone subtraction
        // — it keeps the guilty cell while shedding the clean sibling
        // cone.
        use crate::diagnosis::evidence::EvidenceBase;
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let u1 = dut.find_cell("u1").unwrap();
        inject(&mut dut, u1, DesignErrorKind::Complement).unwrap();
        let m = collect_responses(&golden, &dut, PatternGen::exhaustive(3)).unwrap();
        let clusters = cluster_failures(&golden, &m);
        assert_eq!(clusters.len(), 1);
        let cl = &clusters[0];
        let evidence = EvidenceBase::from_sweep(&golden, &m);
        let pruned = evidence.prune_cone(&cl.cone, &evidence.causal_window(cl));
        let u1g = golden.find_cell("u1").unwrap();
        let u0g = golden.find_cell("u0").unwrap();
        assert!(pruned.contains(u1g));
        assert!(!pruned.contains(u0g), "clean y0's cone is an alibi");
        assert_eq!(
            pruned.union(&cl.cone),
            cl.cone,
            "pruning only ever shrinks the cone"
        );
    }

    #[test]
    fn clean_on_judges_only_the_named_outputs() {
        // One live error behind y1: a cluster of y0 alone reads
        // repaired, any cluster holding y1 does not.
        let golden = two_cone_design();
        let mut dut = golden.clone();
        let u1 = dut.find_cell("u1").unwrap();
        inject(&mut dut, u1, DesignErrorKind::Complement).unwrap();
        let m = collect_responses(&golden, &dut, PatternGen::exhaustive(3)).unwrap();
        let (y0, y1) = (m.outputs[0], m.outputs[1]);
        assert!(m.clean_on(&[y0]));
        assert!(!m.clean_on(&[y1]));
        assert!(!m.clean_on(&[y0, y1]));
        assert!(m.clean_on(&[]));
    }

    #[test]
    fn clean_design_yields_no_clusters() {
        let golden = two_cone_design();
        let m = collect_responses(&golden, &golden.clone(), PatternGen::exhaustive(3)).unwrap();
        assert!(m.failing().is_empty());
        assert!(cluster_failures(&golden, &m).is_empty());
    }

    #[test]
    fn fault_simulation_blames_the_right_cone() {
        let golden = two_cone_design();
        let trace = GoldenTrace::record(&golden, PatternGen::exhaustive(3)).unwrap();
        let mut att = FaultAttribution::new(&golden, &trace).unwrap();
        let u0 = golden.find_cell("u0").unwrap();
        let u1 = golden.find_cell("u1").unwrap();
        // Observed: only y1 failing (an error somewhere in u1's cone).
        let observed = vec![false, true];
        let s0 = att.blame_score(u0, &observed).unwrap();
        let s1 = att.blame_score(u1, &observed).unwrap();
        assert!(s1 > s0, "u1 {s1} must beat u0 {s0}");
        assert!(s1 > 0.99, "exact footprint match expected");
        // Non-LUT candidates predict nothing and score zero.
        let a = golden.find_cell("a").unwrap();
        assert_eq!(att.blame_score(a, &observed).unwrap(), 0.0);
    }
}
