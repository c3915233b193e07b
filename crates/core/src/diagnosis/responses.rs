//! Response signatures and failure clustering.
//!
//! With several errors live at once, one golden-vs-DUT sweep mixes
//! their symptoms. [`collect_responses`] records, for every primary
//! output, *which stimulus patterns it fails on* (a
//! [`ResponseSignature`]). [`cluster_failures`] then groups failing
//! outputs that see the same fanin cone: each [`FailureCluster`] is one
//! suspected error's observable footprint. (Two clusters can still turn
//! out to be the same error seen through different cones — the
//! scheduler's per-batch tap deduplication makes chasing both nearly
//! free, and exact-cell agreement merges them at the end.)
//! [`po_pairs`] pairs golden and DUT outputs by name for every
//! comparison of the two.
//!
//! Everything causal — onset bounds, alibi tables, windowed pruning —
//! lives in [`crate::diagnosis::evidence`]; this module only builds
//! the observable footprints that feed it.

use netlist::{CellId, Netlist, NetlistError};
use sim::emulate::GoldenTrace;
use sim::patterns::PatternGen;

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
}
