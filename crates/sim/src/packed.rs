//! Bit-packed pattern-parallel simulator: 64 values per net per pass.
//!
//! [`Simulator`](crate::Simulator) stores one `bool` per net and walks
//! the topo order once per stimulus pattern. This module stores one
//! `u64` *word* per net instead, so a single topo pass evaluates 64
//! independent simulations at once — bit `l` of every word belongs to
//! *lane* `l`. What a lane means is the caller's choice:
//!
//! * **patterns as lanes** (combinational sweeps): lane `l` of a chunk
//!   carries stimulus pattern `base + l`, so a 512-pattern sweep takes
//!   8 topo passes instead of 512 ([`PackedSimulator::load_patterns`]);
//! * **machines as lanes** (parallel-fault simulation): all lanes see
//!   the *same* stimulus stream
//!   ([`PackedSimulator::broadcast_inputs`]) but each lane simulates a
//!   different machine — a per-lane XOR mask at a cell's output,
//!   planted with [`PackedSimulator::set_fault_lanes`]. No debug
//!   session uses this mode today; `simbench`'s `faultsim` rows check
//!   it against the scalar oracle, and a lane-packed DUT (one machine
//!   per lane, each carrying its own LUT differences as masks) is the
//!   planned way to give sequential emulation more than one lane.
//!
//! Sequential designs clock once per pattern *without* reset, so the
//! stimulus stream is a temporal sequence: pattern `i`'s flip-flop
//! state depends on pattern `i-1`, and lanes can never be time steps.
//! Stream sweeps over sequential designs therefore run one pattern per
//! topo pass, with [`PackedSimulator::stream_eval`]: it computes lane 0
//! alone, each LUT turning bit 0 of its fanin words into a truth-table
//! row index and reading that row, so a pass costs a few ALU ops per
//! LUT instead of the mux tree below. It stays bit-exact with the
//! scalar oracle; the 64× parallelism for sequential designs has to
//! come from the machine axis instead. What keeps stream sweeps
//! affordable beyond that is running as few passes as possible:
//!
//! * a loop that evaluates a pattern (to read it) and then clocks
//!   calls [`PackedSimulator::latch`], one pass per pattern, rather
//!   than [`PackedSimulator::step`], which would evaluate the same
//!   inputs again before latching;
//! * a debug session simulates its golden model once, into a
//!   [`GoldenTrace`](crate::emulate::GoldenTrace), and every sweep
//!   after that runs only the DUT (see [`crate::emulate`]).
//!
//! 64-lane LUT evaluation ([`PackedSimulator::comb_eval`]) is word-wise
//! truth-table selection: the `2^arity` rows of the
//! [`TruthTable`](netlist::TruthTable) are broadcast to
//! all-ones/all-zeros candidate words, then each input word
//! mask-selects between candidate halves (a Shannon mux tree), leaving
//! the output word after `arity` folding levels — about `2·2^arity`
//! ALU ops for 64 lanes.
//!
//! The scalar [`Simulator`](crate::Simulator) stays untouched as the
//! differential oracle: every packed consumer is pinned to it
//! bit-exactly by property tests (`tests/properties.rs`).
//!
//! Each engine counts its own work in a [`SimWork`] (plain fields, two
//! adds per topo pass). Whoever owns the engine reads it back with
//! [`PackedSimulator::take_work`]; a debug session folds every sweep's
//! count into its [`GoldenTrace`](crate::emulate::GoldenTrace), so the
//! count belongs to the campaign that did the work.

use std::ops::AddAssign;

use netlist::{CellId, CellKind, NetId, Netlist, NetlistError};

/// Lanes per machine word (bits in a `u64`).
pub const LANES: usize = 64;

/// Simulation work done by packed engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimWork {
    /// Packed topo passes (`comb_eval` or `stream_eval` calls) — each
    /// evaluates 64 lanes at once, or lane 0 alone in a stream pass.
    pub sweeps: u64,
    /// Net *words* evaluated: ops walked per sweep, whichever lanes
    /// the pass filled.
    pub net_words: u64,
    /// Stimulus lanes loaded (a broadcast pattern counts once):
    /// `lanes_loaded / (sweeps * 64)` approximates lane occupancy.
    pub lanes_loaded: u64,
}

impl AddAssign for SimWork {
    fn add_assign(&mut self, rhs: SimWork) {
        self.sweeps += rhs.sweeps;
        self.net_words += rhs.net_words;
        self.lanes_loaded += rhs.lanes_loaded;
    }
}

/// One compiled evaluation step (topo order position).
#[derive(Debug, Clone)]
enum Op {
    /// Copy primary-input word `pi` to net `out`.
    Input { pi: u32, out: u32 },
    /// Copy flip-flop state word of cell `cell` to net `out`.
    Ff { cell: u32, out: u32 },
    /// LUT: a mask-select over the truth table rows for 64 lanes, or
    /// one row lookup for lane 0.
    Lut {
        bits: u64,
        arity: u8,
        ins: [u32; netlist::logic::MAX_ARITY],
        out: u32,
    },
}

/// Pattern-parallel (word-per-net) simulator over a mapped netlist.
///
/// The evaluation order is compiled once at construction into a flat
/// op list over structure-of-arrays `u64` arenas, so the per-chunk
/// walk touches no netlist data structures at all.
///
/// ```
/// use netlist::{Netlist, TruthTable};
/// use sim::PackedSimulator;
/// # fn main() -> Result<(), netlist::NetlistError> {
/// let mut nl = Netlist::new("inv");
/// let a = nl.add_input("a")?;
/// let u = nl.add_lut("u", TruthTable::not(), &[nl.cell_output(a)?])?;
/// nl.add_output("y", nl.cell_output(u)?)?;
/// let mut sim = PackedSimulator::new(&nl)?;
/// // Two patterns in lanes 0 and 1: a=0 and a=1.
/// let lanes = sim.load_patterns(&[vec![false], vec![true]]);
/// sim.comb_eval();
/// assert_eq!(sim.output_word(0) & lanes, 0b01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PackedSimulator<'a> {
    nl: &'a Netlist,
    ops: Vec<Op>,
    /// `(cell index, D-input net index)` per flip-flop.
    latches: Vec<(u32, u32)>,
    num_inputs: usize,
    /// First input net of each primary output (None = dangling PO).
    po_nets: Vec<Option<u32>>,
    /// One word per net (indexed by `NetId::index`).
    values: Vec<u64>,
    /// Flip-flop state, one word per cell (indexed by `CellId::index`).
    state: Vec<u64>,
    /// Pending input words (PI order).
    inputs: Vec<u64>,
    /// Per-net lane mask XORed into the driven word after evaluation —
    /// a complement fault in exactly those lanes.
    fault: Vec<u64>,
    /// Mux-tree scratch for LUT row candidates.
    scratch: [u64; 1 << netlist::logic::MAX_ARITY],
    cycles: u64,
    /// Work done since construction or the last
    /// [`take_work`](Self::take_work).
    work: SimWork,
}

impl<'a> PackedSimulator<'a> {
    /// Compiles the evaluation order (topo order, PI positions, PO
    /// nets, FF latch list) once.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] for cyclic logic.
    pub fn new(nl: &'a Netlist) -> Result<Self, NetlistError> {
        let order = nl.topo_order()?;
        let pis = nl.primary_inputs();
        let mut ops = Vec::with_capacity(order.len());
        for &id in &order {
            let cell = nl.cell(id).expect("order holds live cells");
            let Some(out) = cell.output else {
                continue; // Output cells (and dangling) drive nothing.
            };
            let out = out.index() as u32;
            match &cell.kind {
                CellKind::Input => {
                    let pi = pis.iter().position(|&p| p == id).expect("input is a PI") as u32;
                    ops.push(Op::Input { pi, out });
                }
                CellKind::Ff { .. } => ops.push(Op::Ff {
                    cell: id.index() as u32,
                    out,
                }),
                CellKind::Lut(tt) => {
                    let mut ins = [0u32; netlist::logic::MAX_ARITY];
                    for (k, &n) in cell.inputs.iter().enumerate() {
                        ins[k] = n.index() as u32;
                    }
                    ops.push(Op::Lut {
                        bits: tt.bits(),
                        arity: tt.arity() as u8,
                        ins,
                        out,
                    });
                }
                CellKind::Output => {}
            }
        }
        let mut latches = Vec::new();
        let mut state = vec![0u64; nl.cell_capacity()];
        for (id, cell) in nl.cells() {
            if let CellKind::Ff { init } = cell.kind {
                state[id.index()] = broadcast(init);
                latches.push((id.index() as u32, cell.inputs[0].index() as u32));
            }
        }
        let po_nets = nl
            .primary_outputs()
            .iter()
            .map(|&po| {
                let cell = nl.cell(po).expect("po is live");
                cell.inputs.first().map(|n| n.index() as u32)
            })
            .collect();
        Ok(Self {
            nl,
            ops,
            latches,
            num_inputs: pis.len(),
            po_nets,
            values: vec![0u64; nl.net_capacity()],
            state,
            inputs: vec![0u64; pis.len()],
            fault: vec![0u64; nl.net_capacity()],
            scratch: [0u64; 1 << netlist::logic::MAX_ARITY],
            cycles: 0,
            work: SimWork::default(),
        })
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.po_nets.len()
    }

    /// Clock cycles stepped since construction/reset.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The work done since construction or the previous call, which
    /// the count restarts from.
    pub fn take_work(&mut self) -> SimWork {
        std::mem::take(&mut self.work)
    }

    /// Counts `n` stimulus lanes loaded by a caller that drives the
    /// input words itself ([`GoldenTrace`](crate::emulate::GoldenTrace)).
    pub(crate) fn count_lanes(&mut self, n: usize) {
        self.work.lanes_loaded += n as u64;
    }

    /// Transposes up to [`LANES`] stimulus patterns into the input
    /// words (pattern `l` of the chunk occupies lane `l`) and returns
    /// the valid-lane mask (`(1 << n) - 1` for `n` patterns).
    ///
    /// # Panics
    ///
    /// Panics if more than [`LANES`] patterns are given or any pattern
    /// width differs from the PI count (same contract as
    /// [`Simulator::set_inputs`](crate::Simulator::set_inputs)).
    pub fn load_patterns(&mut self, chunk: &[Vec<bool>]) -> u64 {
        assert!(chunk.len() <= LANES, "at most {LANES} patterns per chunk");
        for pat in chunk {
            assert_eq!(pat.len(), self.num_inputs, "input width mismatch");
        }
        self.count_lanes(chunk.len());
        for (k, word) in self.inputs.iter_mut().enumerate() {
            let mut w = 0u64;
            for (l, pat) in chunk.iter().enumerate() {
                w |= u64::from(pat[k]) << l;
            }
            *word = w;
        }
        lane_mask(chunk.len())
    }

    /// Drives the *same* pattern on every lane (machines-as-lanes
    /// mode).
    ///
    /// # Panics
    ///
    /// Panics if the width differs from the PI count.
    pub fn broadcast_inputs(&mut self, pat: &[bool]) {
        assert_eq!(pat.len(), self.num_inputs, "input width mismatch");
        // Machines-as-lanes mode: one stimulus pattern drives all 64
        // lanes, so this counts as a single loaded lane.
        self.count_lanes(1);
        for (word, &bit) in self.inputs.iter_mut().zip(pat) {
            *word = broadcast(bit);
        }
    }

    /// Sets one primary input's word directly (lane `l` = bit `l`) —
    /// how a control-point sweep drives `force_val` with the golden
    /// model's packed net value.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range index.
    pub fn set_input_word(&mut self, index: usize, word: u64) {
        self.inputs[index] = word;
    }

    /// Plants a complement fault on `cell`'s output in the lanes of
    /// `mask`: after every evaluation the driven word is XORed with
    /// `mask`, so those lanes simulate the machine with the cell's
    /// function complemented. Faults accumulate until
    /// [`clear_faults`](Self::clear_faults).
    ///
    /// # Errors
    ///
    /// Propagates the lookup error for unknown cells or cells that
    /// drive no net.
    pub fn set_fault_lanes(&mut self, cell: CellId, mask: u64) -> Result<(), NetlistError> {
        let net = self.nl.cell_output(cell)?;
        self.fault[net.index()] ^= mask;
        Ok(())
    }

    /// Removes all planted lane faults.
    pub fn clear_faults(&mut self) {
        self.fault.fill(0);
    }

    /// Restores all flip-flops to their init values (all lanes).
    pub fn reset(&mut self) {
        for (id, cell) in self.nl.cells() {
            if let CellKind::Ff { init } = cell.kind {
                self.state[id.index()] = broadcast(init);
            }
        }
        self.cycles = 0;
    }

    /// Propagates the current input words and FF state through the
    /// combinational network — one topo pass for all 64 lanes.
    pub fn comb_eval(&mut self) {
        self.work.sweeps += 1;
        self.work.net_words += self.ops.len() as u64;
        let Self {
            ops,
            values,
            state,
            inputs,
            fault,
            scratch,
            ..
        } = self;
        for op in ops.iter() {
            match *op {
                Op::Input { pi, out } => {
                    values[out as usize] = inputs[pi as usize] ^ fault[out as usize];
                }
                Op::Ff { cell, out } => {
                    values[out as usize] = state[cell as usize] ^ fault[out as usize];
                }
                Op::Lut {
                    bits,
                    arity,
                    ins,
                    out,
                } => {
                    // Broadcast each truth-table row to a candidate
                    // word, then mask-select with each input word —
                    // a Shannon mux tree folded LSB-variable first.
                    let arity = arity as usize;
                    let mut n = 1usize << arity;
                    for (r, slot) in scratch.iter_mut().enumerate().take(n) {
                        *slot = broadcast(bits >> r & 1 == 1);
                    }
                    for k in 0..arity {
                        let w = values[ins[k] as usize];
                        n >>= 1;
                        for j in 0..n {
                            scratch[j] = (scratch[2 * j] & !w) | (scratch[2 * j + 1] & w);
                        }
                    }
                    values[out as usize] = scratch[0] ^ fault[out as usize];
                }
            }
        }
    }

    /// The one-pattern pass of a stream sweep: propagates lane 0 only.
    /// Each LUT turns bit 0 of its fanin words into a truth-table row
    /// index and reads that row (`(bits >> row) & 1`, where
    /// [`comb_eval`](Self::comb_eval) folds a mux tree over all 64
    /// lanes); inputs and flip-flops copy bit 0. Lane 0 of every driven
    /// net, fault XOR included, is what `comb_eval` computes, and lanes
    /// 1–63 read 0. The work counts as one sweep over every op, like
    /// `comb_eval`'s.
    pub fn stream_eval(&mut self) {
        self.work.sweeps += 1;
        self.work.net_words += self.ops.len() as u64;
        let Self {
            ops,
            values,
            state,
            inputs,
            fault,
            ..
        } = self;
        for op in ops.iter() {
            match *op {
                Op::Input { pi, out } => {
                    values[out as usize] = (inputs[pi as usize] ^ fault[out as usize]) & 1;
                }
                Op::Ff { cell, out } => {
                    values[out as usize] = (state[cell as usize] ^ fault[out as usize]) & 1;
                }
                Op::Lut {
                    bits,
                    arity,
                    ins,
                    out,
                } => {
                    let mut row = 0u64;
                    for (k, &net) in ins[..arity as usize].iter().enumerate() {
                        row |= (values[net as usize] & 1) << k;
                    }
                    values[out as usize] = ((bits >> row) ^ fault[out as usize]) & 1;
                }
            }
        }
    }

    /// One clock cycle for every lane: combinational propagate, then
    /// latch all FFs.
    pub fn step(&mut self) {
        self.comb_eval();
        self.latch();
    }

    /// The latching half of [`step`](Self::step): every flip-flop
    /// takes its D net's current word and the clock advances, with no
    /// topo pass. A stream loop that has just run
    /// [`comb_eval`](Self::comb_eval) on a pattern (to read its
    /// outputs) calls this instead of `step`, which would re-evaluate
    /// the same inputs before latching.
    pub fn latch(&mut self) {
        for &(cell, d) in &self.latches {
            self.state[cell as usize] = self.values[d as usize];
        }
        self.cycles += 1;
    }

    /// Current word of a net (valid after `comb_eval`, `stream_eval`
    /// or `step`); lanes of unknown nets read as 0.
    pub fn net_word(&self, net: NetId) -> u64 {
        self.values.get(net.index()).copied().unwrap_or(0)
    }

    /// Every net's current word, indexed by `NetId::index` (dead net
    /// slots read 0) — the bulk form of [`net_word`](Self::net_word).
    pub(crate) fn net_words(&self) -> &[u64] {
        &self.values
    }

    /// Current word of primary output `index` (PO order).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range index.
    pub fn output_word(&self, index: usize) -> u64 {
        self.po_nets[index].map_or(0, |n| self.values[n as usize])
    }

    /// The flip-flop state word of a sequential cell.
    pub fn ff_word(&self, cell: CellId) -> Option<u64> {
        let c = self.nl.cell(cell).ok()?;
        c.is_sequential().then(|| self.state[cell.index()])
    }
}

/// All-ones word for `true`, zero for `false`.
#[inline]
pub(crate) fn broadcast(bit: bool) -> u64 {
    0u64.wrapping_sub(u64::from(bit))
}

/// Valid-lane mask for a chunk of `n <= 64` patterns.
#[inline]
pub(crate) fn lane_mask(n: usize) -> u64 {
    debug_assert!(n <= LANES);
    if n == LANES {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PatternGen, Simulator};
    use netlist::TruthTable;

    /// Exhaustively checks a packed comb eval against the scalar
    /// oracle for every net.
    fn assert_matches_scalar(nl: &Netlist, pats: &[Vec<bool>]) {
        let mut packed = PackedSimulator::new(nl).unwrap();
        let lanes = packed.load_patterns(pats);
        packed.comb_eval();
        let mut scalar = Simulator::new(nl).unwrap();
        for (l, pat) in pats.iter().enumerate() {
            scalar.set_inputs(pat);
            scalar.comb_eval();
            for (net, _) in nl.nets() {
                assert_eq!(
                    packed.net_word(net) >> l & 1 == 1,
                    scalar.net_value(net),
                    "net {net:?} lane {l}"
                );
            }
        }
        assert_eq!(lanes, lane_mask(pats.len()));
    }

    #[test]
    fn combinational_lanes_match_scalar() {
        let mut nl = Netlist::new("mix");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let c = nl.add_input("c").unwrap();
        let (na, nb, nc) = (
            nl.cell_output(a).unwrap(),
            nl.cell_output(b).unwrap(),
            nl.cell_output(c).unwrap(),
        );
        let u = nl.add_lut("u", TruthTable::and(2), &[na, nb]).unwrap();
        let v = nl
            .add_lut(
                "v",
                TruthTable::mux2(),
                &[nc, na, nl.cell_output(u).unwrap()],
            )
            .unwrap();
        nl.add_output("y", nl.cell_output(v).unwrap()).unwrap();
        let pats: Vec<Vec<bool>> = PatternGen::exhaustive(3).collect();
        assert_matches_scalar(&nl, &pats);
    }

    #[test]
    fn sequential_stream_matches_scalar() {
        // Toggle FF driven by an enable input; stream mode = chunks
        // of one pattern, stepping between them.
        let mut nl = Netlist::new("seq");
        let en = nl.add_input("en").unwrap();
        let seed = nl.add_net("seed").unwrap();
        let ff = nl.add_ff("q", false, seed).unwrap();
        let q = nl.cell_output(ff).unwrap();
        let f = nl
            .add_lut("f", TruthTable::xor(2), &[nl.cell_output(en).unwrap(), q])
            .unwrap();
        nl.set_pin(ff, 0, nl.cell_output(f).unwrap()).unwrap();
        nl.add_output("out", q).unwrap();

        let mut packed = PackedSimulator::new(&nl).unwrap();
        let mut scalar = Simulator::new(&nl).unwrap();
        for pat in PatternGen::random(1, 32, 9) {
            packed.load_patterns(std::slice::from_ref(&pat));
            packed.comb_eval();
            scalar.set_inputs(&pat);
            scalar.comb_eval();
            assert_eq!(packed.output_word(0) & 1 == 1, scalar.outputs()[0]);
            packed.step();
            scalar.step();
            assert_eq!(
                packed.ff_word(ff).unwrap() & 1 == 1,
                scalar.ff_state(ff).unwrap()
            );
        }
        assert_eq!(packed.cycles(), 32);
        packed.reset();
        assert_eq!(packed.cycles(), 0);
        assert_eq!(packed.ff_word(ff), Some(0));
    }

    #[test]
    fn eval_then_latch_is_a_step() {
        // Two FFs in a ring through an XOR with the input: `step()` on
        // one engine and `comb_eval(); latch()` on the other must keep
        // every state word and the cycle count in lockstep.
        let mut nl = Netlist::new("ring");
        let en = nl.add_input("en").unwrap();
        let seed = nl.add_net("seed").unwrap();
        let f0 = nl.add_ff("q0", true, seed).unwrap();
        let q0 = nl.cell_output(f0).unwrap();
        let f1 = nl.add_ff("q1", false, q0).unwrap();
        let q1 = nl.cell_output(f1).unwrap();
        let x = nl
            .add_lut("x", TruthTable::xor(2), &[nl.cell_output(en).unwrap(), q1])
            .unwrap();
        nl.set_pin(f0, 0, nl.cell_output(x).unwrap()).unwrap();
        nl.add_output("y", q1).unwrap();

        let mut stepped = PackedSimulator::new(&nl).unwrap();
        let mut latched = PackedSimulator::new(&nl).unwrap();
        let pats: Vec<Vec<bool>> = PatternGen::random(1, 64 * 3, 5).collect();
        for chunk in pats.chunks(LANES) {
            stepped.load_patterns(chunk);
            latched.load_patterns(chunk);
            stepped.step();
            latched.comb_eval();
            latched.latch();
            for ff in [f0, f1] {
                assert_eq!(stepped.ff_word(ff), latched.ff_word(ff));
            }
            assert_eq!(stepped.cycles(), latched.cycles());
        }
        assert_eq!(latched.cycles(), 3);
    }

    #[test]
    fn lane_faults_complement_exactly_those_lanes() {
        // One AND gate; complement it in lane 1 only and check lanes
        // 0 and 2 stay faithful while lane 1 inverts.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let u = nl
            .add_lut(
                "u",
                TruthTable::and(2),
                &[nl.cell_output(a).unwrap(), nl.cell_output(b).unwrap()],
            )
            .unwrap();
        nl.add_output("y", nl.cell_output(u).unwrap()).unwrap();
        let mut sim = PackedSimulator::new(&nl).unwrap();
        sim.set_fault_lanes(u, 0b10).unwrap();
        // All three lanes see a=1, b=1.
        sim.broadcast_inputs(&[true, true]);
        sim.comb_eval();
        assert_eq!(sim.output_word(0) & 0b111, 0b101);
        sim.clear_faults();
        sim.comb_eval();
        assert_eq!(sim.output_word(0) & 0b111, 0b111);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn strict_load_panics_on_width() {
        let mut nl = Netlist::new("t");
        nl.add_input("a").unwrap();
        let mut sim = PackedSimulator::new(&nl).unwrap();
        sim.load_patterns(&[vec![true, false]]);
    }
}
