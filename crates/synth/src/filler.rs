//! Random-logic padding used to calibrate generated benchmarks to the
//! paper's mapped sizes.
//!
//! Real MCNC circuits pushed through a 1990s synthesis flow carry
//! substantial mapping redundancy; our structural cores are leaner. To
//! make Table 1's `# CLBs` column comparable, each generator pads its
//! core with a deterministic pseudo-random LUT cloud that consumes
//! existing signals (so connectivity stays realistic) and feeds
//! auxiliary outputs (so nothing dangles or sweeps away).

use netlist::{NetId, NetlistError, TruthTable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::builder::NetBuilder;

/// A random non-degenerate `arity`-input truth table.
///
/// The table is guaranteed to depend on every input, so padding logic
/// never collapses under support reduction.
pub fn random_lut(rng: &mut SmallRng, arity: usize) -> TruthTable {
    loop {
        let bits: u64 = rng.gen();
        let Ok(tt) = TruthTable::from_bits(arity, bits) else {
            continue;
        };
        if !tt.is_constant() && tt.support_size() == arity {
            return tt;
        }
    }
}

/// Appends random 4-LUT logic until the netlist holds `target_luts`
/// LUTs, then ties loose cones into `pad[k]` outputs.
///
/// `pool_seed` supplies the initial signals the cloud draws from
/// (typically the design's primary-input nets and a few internal
/// buses). Generation is fully determined by `seed`.
///
/// # Errors
///
/// Propagates netlist construction errors.
///
/// # Panics
///
/// Panics if `pool_seed` is empty.
pub fn pad_to_lut_count(
    b: &mut NetBuilder,
    seed: u64,
    target_luts: usize,
    pool_seed: &[NetId],
) -> Result<(), NetlistError> {
    assert!(!pool_seed.is_empty(), "padding needs seed signals");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pool: Vec<NetId> = pool_seed.to_vec();
    let mut loose: Vec<NetId> = Vec::new();
    while b.netlist().num_luts() < target_luts {
        let arity = match rng.gen_range(0..10u32) {
            0..=1 => 2,
            2..=4 => 3,
            _ => 4,
        };
        let mut ins = Vec::with_capacity(arity);
        // Bias toward recent nets for locality (shallow cone shapes).
        for _ in 0..arity {
            let idx = if rng.gen_bool(0.7) && pool.len() > 8 {
                rng.gen_range(pool.len().saturating_sub(24)..pool.len())
            } else {
                rng.gen_range(0..pool.len())
            };
            ins.push(pool[idx]);
        }
        ins.sort_unstable();
        ins.dedup();
        let tt = random_lut(&mut rng, ins.len());
        let out = b.lut(tt, &ins)?;
        pool.push(out);
        loose.push(out);
        // Periodically retire cones into the loose set only.
        if loose.len() > 64 {
            let y = b.xor_tree(&loose)?;
            pool.push(y);
            loose = vec![y];
        }
    }
    // Tie off what's left so validation and sweeps keep the cloud.
    if !loose.is_empty() {
        let mut k = 0;
        for chunk in loose.chunks(16) {
            let y = b.xor_tree(chunk)?;
            b.output(format!("pad[{k}]"), y)?;
            k += 1;
        }
    }
    Ok(())
}

/// Ties every logic cone that cannot reach a primary output into
/// auxiliary `deadpad[k]` outputs.
///
/// [`random_cloud`]'s output layer draws from only the deepest quarter
/// of its pool, so shallow cones (and state bits no cloud happened to
/// sample) would otherwise sweep away — exactly the dead logic the
/// DRC's unreachable-logic rule flags. Every generator calls this
/// once, right before `finish`, to restore the module invariant that
/// nothing dangles. XOR-folding keeps the added logic small (roughly a
/// third of the dead-net count).
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn tie_off_unreachable(b: &mut NetBuilder) -> Result<(), NetlistError> {
    let dead: Vec<NetId> = {
        let nl = b.netlist();
        let mut reachable = vec![false; nl.cell_capacity()];
        for c in nl.fanin_cone(&nl.primary_outputs()) {
            if c.index() < reachable.len() {
                reachable[c.index()] = true;
            }
        }
        nl.cells()
            .filter(|(id, c)| c.is_logic() && !reachable[id.index()])
            .filter_map(|(_, c)| c.output)
            .collect()
    };
    if dead.is_empty() {
        return Ok(());
    }
    let mut folds = Vec::new();
    for chunk in dead.chunks(16) {
        folds.push(b.xor_tree(chunk)?);
    }
    for (k, y) in folds.into_iter().enumerate() {
        b.output(format!("deadpad[{k}]"), y)?;
    }
    Ok(())
}

/// Builds a layered random combinational cloud.
///
/// Produces `outputs` nets computed from `inputs` through roughly
/// `luts` random 4-LUTs arranged in locality-biased layers. Used for
/// FSM next-state/output logic.
///
/// # Errors
///
/// Propagates netlist construction errors.
///
/// # Panics
///
/// Panics if `inputs` is empty or `outputs` is zero.
pub fn random_cloud(
    b: &mut NetBuilder,
    seed: u64,
    inputs: &[NetId],
    luts: usize,
    outputs: usize,
) -> Result<Vec<NetId>, NetlistError> {
    assert!(!inputs.is_empty(), "cloud needs inputs");
    assert!(outputs > 0, "cloud needs at least one output");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pool: Vec<NetId> = inputs.to_vec();
    let body = luts.saturating_sub(outputs).max(1);
    for _ in 0..body {
        let arity = rng.gen_range(2..=4usize);
        let mut ins = Vec::with_capacity(arity);
        for _ in 0..arity {
            ins.push(pool[rng.gen_range(0..pool.len())]);
        }
        ins.sort_unstable();
        ins.dedup();
        let tt = random_lut(&mut rng, ins.len());
        pool.push(b.lut(tt, &ins)?);
    }
    // Output layer draws from the deepest quarter of the pool.
    let lo = pool.len().saturating_sub((pool.len() / 4).max(4));
    let mut outs = Vec::with_capacity(outputs);
    for _ in 0..outputs {
        let mut ins = Vec::new();
        for _ in 0..4usize {
            ins.push(pool[rng.gen_range(lo..pool.len())]);
        }
        ins.sort_unstable();
        ins.dedup();
        let tt = random_lut(&mut rng, ins.len());
        outs.push(b.lut(tt, &ins)?);
    }
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_lut_has_full_support() {
        let mut rng = SmallRng::seed_from_u64(7);
        for arity in 1..=4 {
            let tt = random_lut(&mut rng, arity);
            assert_eq!(tt.support_size(), arity);
        }
    }

    #[test]
    fn padding_hits_target() {
        let mut b = NetBuilder::new("pad");
        let ins = b.input_bus("i", 8).unwrap();
        pad_to_lut_count(&mut b, 42, 150, &ins).unwrap();
        let nl = b.finish();
        nl.validate().unwrap();
        assert!(nl.num_luts() >= 150);
        assert!(nl.num_luts() < 150 + 40, "tie-off overhead bounded");
    }

    #[test]
    fn padding_is_deterministic() {
        let build = || {
            let mut b = NetBuilder::new("pad");
            let ins = b.input_bus("i", 8).unwrap();
            pad_to_lut_count(&mut b, 9, 60, &ins).unwrap();
            let nl = b.finish();
            netlist::blif::write(&nl)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn cloud_counts() {
        let mut b = NetBuilder::new("cloud");
        let ins = b.input_bus("i", 10).unwrap();
        let outs = random_cloud(&mut b, 3, &ins, 80, 12).unwrap();
        assert_eq!(outs.len(), 12);
        let nl = b.finish();
        nl.validate().unwrap();
        let total = nl.num_luts();
        assert!((80..=95).contains(&total), "got {total}");
    }
}
