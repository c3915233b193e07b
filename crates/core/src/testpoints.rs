//! Figure 3 and Figure 4 computations.
//!
//! * Figure 3: the percentage of tiles affected when a block of new
//!   logic of a given size is inserted (averaged over insertion
//!   sites), driven by the neighbour-expansion algorithm.
//! * Figure 4: the maximum per-point test-logic size that still fits
//!   when `n` evenly distributed test points are inserted at once,
//!   found by binary search over the same machinery with capacity
//!   accounting.

use crate::error::TilingError;
use crate::flow::TiledDesign;
use crate::tile::TileId;

/// Mean fraction of tiles affected by inserting `logic_clbs` CLBs of
/// test logic, averaged over every possible seed tile (Figure 3).
///
/// # Errors
///
/// Propagates plan lookups.
pub fn affected_fraction(td: &TiledDesign, logic_clbs: usize) -> Result<f64, TilingError> {
    let free = free_per_tile(td)?;
    let n = td.plan.len();
    if n == 0 {
        return Ok(0.0);
    }
    let mut total = 0.0;
    for seed in 0..n {
        let count =
            expand_from(td, &mut free.clone(), TileId(seed as u32), logic_clbs)?.unwrap_or(n);
        total += count as f64 / n as f64;
    }
    Ok(total / n as f64)
}

/// Maximum test-logic size (CLBs per point) that fits when `points`
/// evenly distributed test points are inserted (Figure 4).
///
/// # Errors
///
/// Propagates plan lookups.
pub fn max_logic_per_point(td: &TiledDesign, points: usize) -> Result<usize, TilingError> {
    max_logic_binary_search(td, points, false)
}

/// Figure 4's *clustered* variant (§6.1 discussion): all test points
/// seed the same tile, so per-point capacity decays like one insertion
/// of `points × size` CLBs.
///
/// # Errors
///
/// Propagates plan lookups.
pub fn max_logic_per_point_clustered(
    td: &TiledDesign,
    points: usize,
) -> Result<usize, TilingError> {
    max_logic_binary_search(td, points, true)
}

fn max_logic_binary_search(
    td: &TiledDesign,
    points: usize,
    clustered: bool,
) -> Result<usize, TilingError> {
    if points == 0 {
        return Ok(td.total_free_clbs());
    }
    let mut lo = 0usize;
    let mut hi = td.total_free_clbs() / points + 1;
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if fits(td, points, mid, clustered)? {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Ok(lo)
}

/// Checks whether `points` points of `size` CLBs each fit, inserting
/// them round-robin across tiles (or all into tile 0 when clustered)
/// with shared capacity accounting.
fn fits(
    td: &TiledDesign,
    points: usize,
    size: usize,
    clustered: bool,
) -> Result<bool, TilingError> {
    if size == 0 {
        return Ok(true);
    }
    let mut free = free_per_tile(td)?;
    let n = td.plan.len();
    for k in 0..points {
        let seed = if clustered {
            TileId(0)
        } else {
            TileId((k % n) as u32)
        };
        if expand_from(td, &mut free, seed, size)?.is_none() {
            return Ok(false);
        }
    }
    Ok(true)
}

fn free_per_tile(td: &TiledDesign) -> Result<Vec<usize>, TilingError> {
    let mut v = Vec::with_capacity(td.plan.len());
    for (id, _) in td.plan.iter() {
        v.push(td.plan.usage(id, &td.placement)?.free_clbs());
    }
    Ok(v)
}

/// Greedy neighbour expansion from `seed` consuming `size` CLBs out of
/// `free`. Returns the number of tiles drafted, or `None` if the
/// request cannot fit even device-wide. Capacity is *deducted* so
/// successive insertions compete for slack.
fn expand_from(
    td: &TiledDesign,
    free: &mut [usize],
    seed: TileId,
    size: usize,
) -> Result<Option<usize>, TilingError> {
    let mut tiles = vec![seed];
    let mut available = free[seed.index()];
    while available < size {
        // Frontier: adjacent tiles not yet drafted, most free first.
        let mut best: Option<(usize, TileId)> = None;
        for &t in &tiles {
            for nb in td.plan.neighbors(t)? {
                if tiles.contains(&nb) {
                    continue;
                }
                let f = free[nb.index()];
                if best.is_none_or(|(bf, bid)| f > bf || (f == bf && nb < bid)) {
                    best = Some((f, nb));
                }
            }
        }
        let Some((f, chosen)) = best else {
            return Ok(None); // saturated
        };
        available += f;
        tiles.push(chosen);
    }
    // Deduct the consumed capacity, seed tile first.
    let mut remaining = size;
    for &t in &tiles {
        let take = remaining.min(free[t.index()]);
        free[t.index()] -= take;
        remaining -= take;
        if remaining == 0 {
            break;
        }
    }
    Ok(Some(tiles.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{implement, TilingOptions};
    use synth::PaperDesign;

    fn td() -> TiledDesign {
        let nl = PaperDesign::NineSym.generate().unwrap();
        implement(nl, TilingOptions::fast(5)).unwrap()
    }

    #[test]
    fn fraction_is_monotone_in_logic_size() {
        let td = td();
        let f1 = affected_fraction(&td, 1).unwrap();
        let f5 = affected_fraction(&td, 5).unwrap();
        let f50 = affected_fraction(&td, 50).unwrap();
        assert!(f1 <= f5 && f5 <= f50, "{f1} {f5} {f50}");
        assert!(f1 > 0.0);
        assert!(f50 <= 1.0 + 1e-9);
    }

    #[test]
    fn huge_insertion_saturates_all_tiles() {
        let td = td();
        let f = affected_fraction(&td, 10_000).unwrap();
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn max_logic_decreases_with_points() {
        let td = td();
        let m1 = max_logic_per_point(&td, 1).unwrap();
        let m4 = max_logic_per_point(&td, 4).unwrap();
        let m20 = max_logic_per_point(&td, 20).unwrap();
        assert!(m1 >= m4 && m4 >= m20, "{m1} {m4} {m20}");
        assert!(m1 >= 1, "one point must fit at least one CLB");
    }

    #[test]
    fn clustered_points_fit_less_than_distributed() {
        let td = td();
        for points in [2usize, 5, 10] {
            let even = max_logic_per_point(&td, points).unwrap();
            let clustered = max_logic_per_point_clustered(&td, points).unwrap();
            assert!(
                clustered <= even,
                "clustered {clustered} > distributed {even} at {points} points"
            );
        }
    }

    #[test]
    fn capacity_conservation() {
        // points × size never exceeds the design's total slack.
        let td = td();
        let total = td.total_free_clbs();
        for points in [1usize, 3, 7, 10] {
            let m = max_logic_per_point(&td, points).unwrap();
            assert!(m * points <= total, "{points} × {m} > {total}");
        }
    }
}
