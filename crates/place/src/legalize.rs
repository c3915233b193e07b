//! Tetris legalization: snap continuous analytical positions onto
//! free, compatible, region-respecting BELs.
//!
//! Cells are processed in deterministic solved-position order (left to
//! right, then top to bottom — the classical tetris sweep) and each
//! takes the nearest free compatible slot to its continuous target,
//! searched over growing Chebyshev rings so displacement stays small
//! where density allows. Region constraints are *hard* here: a
//! confined cell only ever considers slots inside its clipped region
//! rectangles, which is what keeps the ECO flow's tile confinement
//! invariant intact through the analytical engine.

use fpga::{BelLoc, Coord, Device, Placement, Rect};
use netlist::{CellId, CellKind, Netlist};

use crate::config::Constraints;
use crate::initial::{clip, slots_for};
use crate::sa::PlaceError;

/// Added to a candidate CLB's squared distance per already-occupied
/// slot. Below 1.0 (one grid unit²) so it only decides near-ties.
const SPREAD_PENALTY: f64 = 0.75;

/// Places every cell of `cells` (currently unplaced) at the free
/// compatible slot nearest its solved `(x, y)` target.
///
/// Each cell is placed greedily and on its own, so the result does not
/// minimise the number of CLBs used: the spreading penalty, or a tie at
/// equal distance, can open an empty CLB while an occupied one still
/// has a free slot.
///
/// # Errors
///
/// Returns [`PlaceError::NoSpace`] when a cell's region has no free
/// compatible slot left.
pub(crate) fn legalize(
    nl: &Netlist,
    device: &Device,
    constraints: &Constraints,
    placement: &mut Placement,
    targets: &[(CellId, f64, f64)],
) -> Result<(), PlaceError> {
    // Tetris order: sweep by solved x, then y, then id for stability.
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        let (ca, xa, ya) = targets[a];
        let (cb, xb, yb) = targets[b];
        xa.total_cmp(&xb).then(ya.total_cmp(&yb)).then(ca.cmp(&cb))
    });
    for &i in &order {
        let (cell, x, y) = targets[i];
        let kind = &nl.cell(cell).map_err(PlaceError::Netlist)?.kind;
        let loc = nearest_free(nl, device, constraints, placement, cell, kind, x, y)?;
        placement
            .place(cell, loc)
            .map_err(|_| PlaceError::NoSpace(cell))?;
    }
    Ok(())
}

/// The free compatible slot nearest to `(x, y)` for `cell`, honoring
/// its region rectangles. Deterministic: ties break on (coord, slot).
#[allow(clippy::too_many_arguments)]
fn nearest_free(
    _nl: &Netlist,
    device: &Device,
    constraints: &Constraints,
    placement: &Placement,
    cell: CellId,
    kind: &CellKind,
    x: f64,
    y: f64,
) -> Result<BelLoc, PlaceError> {
    match kind {
        CellKind::Input | CellKind::Output => {
            // Pads: nearest free perimeter site by proxy distance.
            let (w, h) = (device.width(), device.height());
            device
                .iob_sites()
                .map(BelLoc::Iob)
                .filter(|&l| placement.is_free(l))
                .min_by(|&a, &b| {
                    let da = dist2(a.proxy_coord(w, h), x, y);
                    let db = dist2(b.proxy_coord(w, h), x, y);
                    da.total_cmp(&db).then(a.cmp(&b))
                })
                .ok_or(PlaceError::NoSpace(cell))
        }
        CellKind::Lut(_) | CellKind::Ff { .. } => {
            let whole = [device.bounds()];
            let raw: &[Rect] = constraints.region_of(cell).unwrap_or(&whole);
            let rects: Vec<Rect> = raw
                .iter()
                .filter_map(|&r| clip(r, device.bounds()))
                .collect();
            if rects.is_empty() {
                return Err(PlaceError::NoSpace(cell));
            }
            let slots = slots_for(kind);
            // Seed the ring search from the in-region point nearest
            // the continuous target.
            let seed = nearest_point_in(&rects, x, y);
            let max_r = device.width().max(device.height());
            for r in 0..=max_r {
                let mut best: Option<(f64, Coord, u8)> = None;
                for c in chebyshev_ring(seed, r, device.bounds()) {
                    if !rects.iter().any(|rc| rc.contains(c)) {
                        continue;
                    }
                    // Congestion-aware spreading: bias toward emptier
                    // CLBs so the quadratic solution's piles don't all
                    // stack their pin demand on the same tile. The
                    // penalty is sub-cell, so it only breaks near-ties
                    // — a genuinely closer CLB still wins.
                    let occupied = fpga::ClbSlot::ALL
                        .iter()
                        .filter(|&&s| !placement.is_free(BelLoc::Clb { coord: c, slot: s }))
                        .count();
                    for (si, &slot) in slots.iter().enumerate() {
                        let loc = BelLoc::Clb { coord: c, slot };
                        if !placement.is_free(loc) {
                            continue;
                        }
                        let d = dist2(c, x, y) + SPREAD_PENALTY * occupied as f64;
                        let key = (d, c, si as u8);
                        let better = match &best {
                            None => true,
                            Some((bd, bc, bs)) => {
                                key.0.total_cmp(bd).then((key.1, key.2).cmp(&(*bc, *bs)))
                                    == std::cmp::Ordering::Less
                            }
                        };
                        if better {
                            best = Some(key);
                        }
                    }
                }
                if let Some((_, c, si)) = best {
                    return Ok(BelLoc::Clb {
                        coord: c,
                        slot: slots[si as usize],
                    });
                }
            }
            // Rings exhausted around the seed; the region may be
            // disjoint from the seed's neighborhood. Exhaustive sweep.
            for rc in &rects {
                for c in rc.iter() {
                    for &slot in slots {
                        let loc = BelLoc::Clb { coord: c, slot };
                        if placement.is_free(loc) {
                            return Ok(loc);
                        }
                    }
                }
            }
            Err(PlaceError::NoSpace(cell))
        }
    }
}

fn dist2(c: Coord, x: f64, y: f64) -> f64 {
    let dx = f64::from(c.x) - x;
    let dy = f64::from(c.y) - y;
    dx * dx + dy * dy
}

/// The in-bounds point of the rect union closest to `(x, y)`.
fn nearest_point_in(rects: &[Rect], x: f64, y: f64) -> Coord {
    let clamp = |v: f64, lo: u16, hi: u16| -> u16 {
        let r = v.round();
        if r <= f64::from(lo) {
            lo
        } else if r >= f64::from(hi) {
            hi
        } else {
            r as u16
        }
    };
    rects
        .iter()
        .map(|r| Coord {
            x: clamp(x, r.x0, r.x1),
            y: clamp(y, r.y0, r.y1),
        })
        .min_by(|&a, &b| dist2(a, x, y).total_cmp(&dist2(b, x, y)).then(a.cmp(&b)))
        .unwrap_or(Coord { x: 0, y: 0 })
}

/// The coordinates at Chebyshev distance exactly `r` from `center`,
/// clipped to `bounds`, in deterministic scan order.
fn chebyshev_ring(center: Coord, r: u16, bounds: Rect) -> Vec<Coord> {
    let mut out = Vec::new();
    let x0 = center.x.saturating_sub(r).max(bounds.x0);
    let x1 = (center.x + r).min(bounds.x1);
    let y0 = center.y.saturating_sub(r).max(bounds.y0);
    let y1 = (center.y + r).min(bounds.y1);
    for y in y0..=y1 {
        for x in x0..=x1 {
            let d = (x.abs_diff(center.x)).max(y.abs_diff(center.y));
            if d == r {
                out.push(Coord { x, y });
            }
        }
    }
    out
}

/// Companion check used by the analytical placer's debug assertions.
#[cfg(debug_assertions)]
pub(crate) fn respects_regions(
    constraints: &Constraints,
    placement: &Placement,
    cells: &[CellId],
) -> bool {
    cells.iter().all(|&c| match constraints.region_of(c) {
        None => true,
        Some(rects) => match placement.loc_of(c).and_then(|l| l.coord()) {
            // IOB placements carry no CLB coordinate; regions only
            // constrain CLB cells.
            None => true,
            Some(coord) => rects.iter().any(|r| r.contains(coord)),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga::ClbSlot;
    use netlist::TruthTable;

    #[test]
    fn snaps_to_nearest_free_slot_and_respects_regions() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let mut prev = nl.cell_output(a).unwrap();
        let mut luts = Vec::new();
        for i in 0..4 {
            let u = nl
                .add_lut(format!("u{i}"), TruthTable::not(), &[prev])
                .unwrap();
            prev = nl.cell_output(u).unwrap();
            luts.push(u);
        }
        nl.add_output("y", prev).unwrap();
        let dev = Device::new(8, 8, 4, 2).unwrap();
        let mut cons = Constraints::free();
        let region = Rect::new(4, 4, 5, 5);
        for &u in &luts {
            cons.confine(u, region);
        }
        let mut p = Placement::new(nl.cell_capacity());
        // All four target the same out-of-region point: they must
        // pack into the region anyway, distinct slots each.
        let targets: Vec<(CellId, f64, f64)> = luts.iter().map(|&u| (u, 0.0, 0.0)).collect();
        legalize(&nl, &dev, &cons, &mut p, &targets).unwrap();
        let locs: Vec<BelLoc> = luts.iter().map(|&u| p.loc_of(u).unwrap()).collect();
        for (&u, loc) in luts.iter().zip(&locs) {
            assert!(region.contains(loc.coord().unwrap()), "{u} at {loc}");
        }
        let mut distinct = locs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), luts.len(), "two LUTs share a slot");
        // Each LUT sits in a function-generator slot, so no CLB holds
        // more than two. How many CLBs the four spread over is not
        // pinned: the legalizer does not minimise CLB count.
        for loc in &locs {
            let BelLoc::Clb { coord, slot } = *loc else {
                panic!("{loc} is not a CLB slot");
            };
            assert!(matches!(slot, ClbSlot::LutF | ClbSlot::LutG), "{loc}");
            let used = locs.iter().filter(|l| l.coord() == Some(coord)).count();
            assert!(used <= 2, "CLB {coord:?} holds {used} LUTs");
        }
    }

    #[test]
    fn exact_target_slot_wins_when_free() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let u = nl
            .add_lut("u", TruthTable::not(), &[nl.cell_output(a).unwrap()])
            .unwrap();
        nl.add_output("y", nl.cell_output(u).unwrap()).unwrap();
        let dev = Device::new(8, 8, 4, 2).unwrap();
        let mut p = Placement::new(nl.cell_capacity());
        legalize(&nl, &dev, &Constraints::free(), &mut p, &[(u, 3.0, 6.0)]).unwrap();
        assert_eq!(p.loc_of(u).unwrap().coord().unwrap(), Coord { x: 3, y: 6 });
    }

    #[test]
    fn overfull_region_reports_no_space() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let mut prev = nl.cell_output(a).unwrap();
        let mut luts = Vec::new();
        for i in 0..3 {
            let u = nl
                .add_lut(format!("u{i}"), TruthTable::not(), &[prev])
                .unwrap();
            prev = nl.cell_output(u).unwrap();
            luts.push(u);
        }
        nl.add_output("y", prev).unwrap();
        let dev = Device::new(8, 8, 4, 2).unwrap();
        let mut cons = Constraints::free();
        for &u in &luts {
            cons.confine(u, Rect::new(0, 0, 0, 0)); // one CLB: 2 slots
        }
        let mut p = Placement::new(nl.cell_capacity());
        let targets: Vec<_> = luts.iter().map(|&u| (u, 0.0, 0.0)).collect();
        let err = legalize(&nl, &dev, &cons, &mut p, &targets);
        assert!(matches!(err, Err(PlaceError::NoSpace(_))));
    }
}
