//! Tile-boundary determination (paper step 6).
//!
//! "Tile boundaries are determined by a number of factors. First,
//! inter-tile interconnect is minimized" (§3.2). We partition the CLB
//! grid with straight cut lines (so tiles stay rectangles — the shape
//! the constraint system and interface locking need) and choose the
//! cut positions by dynamic programming to minimize the number of
//! placed nets each line severs, under a width-balance constraint that
//! keeps tile capacities near-equal (the user's area-overhead budget
//! is per tile).

use fpga::{Device, Placement, Rect};
use netlist::Netlist;

use crate::tile::TilePlan;

/// Partitions a placed design into roughly `target_tiles` rectangular
/// tiles, minimizing severed nets.
///
/// The grid is split into `r × c` tiles with `r·c ≥ target_tiles`,
/// the row/column counts chosen to match the device aspect ratio.
///
/// # Panics
///
/// Panics if `target_tiles == 0`.
pub fn partition(
    nl: &Netlist,
    device: &Device,
    placement: &Placement,
    target_tiles: usize,
) -> TilePlan {
    assert!(target_tiles > 0, "need at least one tile");
    let (w, h) = (device.width() as usize, device.height() as usize);
    let t = target_tiles.min(w * h);
    // Rows/cols matching the aspect ratio. Tiles must be at least two
    // CLBs on a side: a one-CLB-wide tile owns no interior routing
    // channel at all, so nothing could ever be re-routed inside it.
    let max_rows = (h / 2).max(1);
    let max_cols = (w / 2).max(1);
    let mut rows = ((t as f64 * h as f64 / w as f64).sqrt().round() as usize).max(1);
    rows = rows.min(max_rows).min(t);
    let cols = t.div_ceil(rows).min(max_cols);

    // Crossing histograms: how many net bounding boxes straddle each
    // candidate cut line.
    let (xcross, ycross) = crossing_histograms(nl, device, placement);
    let xcuts = best_cuts(&xcross, w, cols);
    let ycuts = best_cuts(&ycross, h, rows);

    let mut rects = Vec::with_capacity(cols * rows);
    for r in 0..rows {
        for c in 0..cols {
            let x0 = xcuts[c] as u16;
            let x1 = (xcuts[c + 1] - 1) as u16;
            let y0 = ycuts[r] as u16;
            let y1 = (ycuts[r + 1] - 1) as u16;
            rects.push(Rect::new(x0, y0, x1, y1));
        }
    }
    TilePlan::from_rects(device, rects)
}

fn even_cuts(len: usize, parts: usize) -> Vec<usize> {
    (0..=parts).map(|i| i * len / parts).collect()
}

/// Histogram of net-bbox crossings per vertical/horizontal line.
///
/// `xcross[x]` counts nets whose bbox spans the line between columns
/// `x-1` and `x` (valid x: 1..w).
fn crossing_histograms(
    nl: &Netlist,
    device: &Device,
    placement: &Placement,
) -> (Vec<u32>, Vec<u32>) {
    let (w, h) = (device.width(), device.height());
    let mut xcross = vec![0u32; w as usize + 1];
    let mut ycross = vec![0u32; h as usize + 1];
    for (_, net) in nl.nets() {
        let (mut x0, mut y0, mut x1, mut y1) = (u16::MAX, u16::MAX, 0u16, 0u16);
        let mut any = false;
        let mut visit = |cell: netlist::CellId| {
            if let Some(loc) = placement.loc_of(cell) {
                let c = loc.proxy_coord(w, h);
                x0 = x0.min(c.x);
                y0 = y0.min(c.y);
                x1 = x1.max(c.x);
                y1 = y1.max(c.y);
                any = true;
            }
        };
        if let Some(d) = net.driver {
            visit(d);
        }
        for s in &net.sinks {
            visit(s.cell);
        }
        if !any {
            continue;
        }
        for x in (x0 + 1)..=x1 {
            xcross[x as usize] += 1;
        }
        for y in (y0 + 1)..=y1 {
            ycross[y as usize] += 1;
        }
    }
    (xcross, ycross)
}

/// Chooses `parts - 1` interior cut positions minimizing total
/// crossing cost, with each part's width within ±2 of the even split
/// (never below 1). Returns the `parts + 1` boundaries including 0
/// and `len`.
fn best_cuts(cross: &[u32], len: usize, parts: usize) -> Vec<usize> {
    if parts <= 1 {
        return vec![0, len];
    }
    let even = len as f64 / parts as f64;
    // Keep every tile at least 2 CLBs across when the grid allows it
    // (see `partition` — 1-wide tiles have no interior routing).
    let min_dim = if len >= 2 * parts { 2.0 } else { 1.0 };
    let lo = ((even - 2.0).floor().max(min_dim)) as usize;
    let hi = ((even + 2.0).ceil()) as usize;

    // dp[i][p] = min cost of placing boundary i at position p, with
    // boundaries 0..i already placed (boundary 0 at 0).
    const INF: u64 = u64::MAX / 4;
    let mut dp = vec![vec![INF; len + 1]; parts + 1];
    let mut from = vec![vec![usize::MAX; len + 1]; parts + 1];
    dp[0][0] = 0;
    for i in 1..=parts {
        for p in 1..=len {
            let cost_here = if i == parts {
                // The final boundary must be exactly `len` (no cut cost).
                if p != len {
                    continue;
                }
                0
            } else {
                u64::from(cross[p])
            };
            // A boundary closer to the origin than `lo` would make the
            // first segment under-width (saturating here used to let
            // cut 1 land at x=1, creating 1-CLB sliver tiles).
            let Some(hi_prev) = p.checked_sub(lo) else {
                continue;
            };
            let lo_prev = p.saturating_sub(hi);
            for q in lo_prev..=hi_prev.min(len) {
                if dp[i - 1][q] == INF {
                    continue;
                }
                let cand = dp[i - 1][q] + cost_here;
                if cand < dp[i][p] {
                    dp[i][p] = cand;
                    from[i][p] = q;
                }
            }
        }
    }
    if dp[parts][len] == INF {
        // Balance constraints infeasible (tiny grids): fall back.
        return even_cuts(len, parts);
    }
    let mut cuts = vec![0usize; parts + 1];
    cuts[parts] = len;
    let mut p = len;
    for i in (1..=parts).rev() {
        let q = from[i][p];
        cuts[i - 1] = q;
        p = q;
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga::{BelLoc, ClbSlot};
    use netlist::TruthTable;

    #[test]
    fn partition_prefers_low_cut_lines() {
        // Two clusters at x in {0,1} and x in {6,7}; the cheap vertical
        // cut is anywhere in 2..=6 — the DP must avoid x=1 and x=7.
        let mut nl = Netlist::new("t");
        let dev = Device::new(8, 2, 4, 2).unwrap();
        let mut p = fpga::Placement::new(64);
        let make_cluster = |nl: &mut Netlist, tag: &str, x: u16| {
            let a = nl.add_input(format!("{tag}_a")).unwrap();
            let na = nl.cell_output(a).unwrap();
            let u = nl
                .add_lut(format!("{tag}_u"), TruthTable::not(), &[na])
                .unwrap();
            let v = nl
                .add_lut(
                    format!("{tag}_v"),
                    TruthTable::not(),
                    &[nl.cell_output(u).unwrap()],
                )
                .unwrap();
            nl.add_output(format!("{tag}_y"), nl.cell_output(v).unwrap())
                .unwrap();
            (u, v, x)
        };
        let (u0, v0, _) = make_cluster(&mut nl, "l", 0);
        let (u1, v1, _) = make_cluster(&mut nl, "r", 6);
        p.place(u0, BelLoc::clb(0, 0, ClbSlot::LutF)).unwrap();
        p.place(v0, BelLoc::clb(1, 0, ClbSlot::LutF)).unwrap();
        p.place(u1, BelLoc::clb(6, 0, ClbSlot::LutF)).unwrap();
        p.place(v1, BelLoc::clb(7, 0, ClbSlot::LutF)).unwrap();
        let plan = partition(&nl, &dev, &p, 2);
        assert_eq!(plan.len(), 2);
        // Both cluster cells end up in the same tile.
        assert_eq!(
            plan.tile_of_cell(&p, u0),
            plan.tile_of_cell(&p, v0),
            "left cluster split"
        );
        assert_eq!(
            plan.tile_of_cell(&p, u1),
            plan.tile_of_cell(&p, v1),
            "right cluster split"
        );
        assert_eq!(plan.cut_nets(&nl, &p), 0);
    }

    #[test]
    fn partition_hits_target_count() {
        let dev = Device::new(10, 10, 4, 2).unwrap();
        let nl = Netlist::new("empty");
        let p = fpga::Placement::new(0);
        for target in [1, 2, 4, 9, 10, 25] {
            let plan = partition(&nl, &dev, &p, target);
            assert!(plan.len() >= target, "target {target} got {}", plan.len());
            assert!(
                plan.len() <= target * 2,
                "target {target} got {}",
                plan.len()
            );
        }
    }

    #[test]
    fn degenerate_small_grid() {
        // A 2x2 device cannot host more than one >=2x2 tile.
        let dev = Device::new(2, 2, 4, 2).unwrap();
        let nl = Netlist::new("empty");
        let p = fpga::Placement::new(0);
        let plan = partition(&nl, &dev, &p, 16);
        assert_eq!(plan.len(), 1);
        // A 4x4 device holds four 2x2 tiles.
        let dev = Device::new(4, 4, 4, 2).unwrap();
        let plan = partition(&nl, &dev, &p, 16);
        assert_eq!(plan.len(), 4);
    }
}
