//! A fixed reference computation, timed beside the campaigns to measure
//! how fast the host's core is running at the time.
//!
//! On a shared host the same campaign's CPU time moves by a third or
//! more from one minute to the next: clock frequency, a busy
//! hyper-thread sibling and shared caches all change with what other
//! tenants do. The reference is work of the same kind as a campaign's —
//! a 64-lane evaluation of a random logic network whose fanins lie all
//! over a working set larger than a core's private caches, then
//! hash-map bookkeeping over its outputs — and lives in the benchmark,
//! so no change to the program can change what it costs. Dividing a
//! campaign's time by the reference's time around it cancels the
//! host's speed.

use std::collections::HashMap;

/// Nodes in the reference network, inputs included: 1.5 MiB of node
/// values and fanin lists.
const NODES: usize = 1 << 16;
/// Primary inputs.
const INPUTS: usize = 256;
/// Distinct keys the bookkeeping phase counts.
const KEYS: u64 = 1 << 14;

/// The reference network and its scratch state.
pub struct Reference {
    fanin: Vec<[u32; 4]>,
    values: Vec<u64>,
    counts: HashMap<u64, u64>,
    runs: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// The network, the same on every call: each node reads four
    /// earlier nodes chosen at random.
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let fanin = (0..NODES)
            .map(|i| {
                let mut f = [0u32; 4];
                if i >= INPUTS {
                    for slot in &mut f {
                        *slot = (next() % i as u64) as u32;
                    }
                }
                f
            })
            .collect();
        Self {
            fanin,
            values: vec![0; NODES],
            counts: HashMap::new(),
            runs: 0,
        }
    }

    /// One run; returns a checksum of the work done. Every run does the
    /// same work on fresh input values.
    pub fn run(&mut self) -> u64 {
        self.runs += 1;
        for (i, v) in self.values[..INPUTS].iter_mut().enumerate() {
            *v = (self.runs << 32 | i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
        for i in INPUTS..NODES {
            let [a, b, c, d] = self.fanin[i].map(|j| self.values[j as usize]);
            self.values[i] = ((a & b) | (!a & c)) ^ d.rotate_left(i as u32 & 63);
        }
        self.counts.clear();
        let mut sum = 0u64;
        for &v in &self.values[NODES - 4 * KEYS as usize..] {
            *self.counts.entry(v % KEYS).or_insert(0) += 1;
            sum = sum.wrapping_add(v);
        }
        sum ^ self.counts.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert_eq!(a.run(), b.run());
        assert_eq!(a.run(), b.run());
    }
}
