//! Initial (constructive) placement of unplaced cells.

use fpga::{BelLoc, ClbSlot, Device, Placement, Rect};
use netlist::{CellId, CellKind, Netlist};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::Constraints;
use crate::sa::PlaceError;

/// True if `kind` may occupy `loc`.
pub(crate) fn compatible(kind: &CellKind, loc: BelLoc) -> bool {
    match (kind, loc) {
        (CellKind::Lut(_), BelLoc::Clb { slot, .. }) => slot.is_lut(),
        (CellKind::Ff { .. }, BelLoc::Clb { slot, .. }) => slot.is_ff(),
        (CellKind::Input | CellKind::Output, BelLoc::Iob(_)) => true,
        _ => false,
    }
}

/// The slots of `kind` available at a CLB coordinate.
pub(crate) fn slots_for(kind: &CellKind) -> &'static [ClbSlot] {
    match kind {
        CellKind::Lut(_) => &[ClbSlot::LutF, ClbSlot::LutG],
        CellKind::Ff { .. } => &[ClbSlot::FfA, ClbSlot::FfB],
        _ => &[],
    }
}

/// Places every currently unplaced live cell at a random free
/// compatible location inside its region constraint.
///
/// Already-placed cells are left untouched, so this doubles as the
/// "fill the cleared tile" step of the ECO flow.
///
/// # Errors
///
/// Returns [`PlaceError::NoSpace`] if a cell has no free compatible
/// site in its region.
pub fn initial_place(
    nl: &Netlist,
    device: &Device,
    constraints: &Constraints,
    placement: &mut Placement,
    seed: u64,
) -> Result<(), PlaceError> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1CE_BA5E);
    for (id, cell) in nl.cells() {
        if placement.loc_of(id).is_some() {
            continue;
        }
        let loc = find_free(nl, device, constraints, placement, &mut rng, id)?;
        placement
            .place(id, loc)
            .map_err(|_| PlaceError::NoSpace(id))?;
        let _ = cell;
    }
    Ok(())
}

/// Finds a free compatible location for `cell` (random, then sweep).
pub(crate) fn find_free(
    nl: &Netlist,
    device: &Device,
    constraints: &Constraints,
    placement: &Placement,
    rng: &mut SmallRng,
    cell: CellId,
) -> Result<BelLoc, PlaceError> {
    let kind = &nl.cell(cell).map_err(PlaceError::Netlist)?.kind;
    match kind {
        CellKind::Input | CellKind::Output => {
            // Random probes, then linear sweep.
            let sites = device.io_capacity();
            for _ in 0..64 {
                let probe = device.iob_site(rng.gen_range(0..sites)).map(BelLoc::Iob);
                if let Some(loc) = probe.filter(|&l| placement.is_free(l)) {
                    return Ok(loc);
                }
            }
            device
                .iob_sites()
                .map(BelLoc::Iob)
                .find(|&l| placement.is_free(l))
                .ok_or(PlaceError::NoSpace(cell))
        }
        CellKind::Lut(_) | CellKind::Ff { .. } => {
            let whole = [device.bounds()];
            let raw_rects: &[Rect] = constraints.region_of(cell).unwrap_or(&whole);
            let rects: Vec<Rect> = raw_rects
                .iter()
                .filter_map(|&r| clip(r, device.bounds()))
                .collect();
            if rects.is_empty() {
                return Err(PlaceError::NoSpace(cell));
            }
            let slots = slots_for(kind);
            for _ in 0..128 {
                let region = rects[rng.gen_range(0..rects.len())];
                let x = rng.gen_range(region.x0..=region.x1);
                let y = rng.gen_range(region.y0..=region.y1);
                let slot = slots[rng.gen_range(0..slots.len())];
                let loc = BelLoc::clb(x, y, slot);
                if placement.is_free(loc) {
                    return Ok(loc);
                }
            }
            for region in &rects {
                for c in region.iter() {
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

/// Intersects two rectangles.
pub(crate) fn clip(a: Rect, b: Rect) -> Option<Rect> {
    if !a.intersects(&b) {
        return None;
    }
    Some(Rect::new(
        a.x0.max(b.x0),
        a.y0.max(b.y0),
        a.x1.min(b.x1),
        a.y1.min(b.y1),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::TruthTable;

    fn design(luts: usize) -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let mut prev = nl.cell_output(a).unwrap();
        for i in 0..luts {
            let u = nl
                .add_lut(format!("u{i}"), TruthTable::not(), &[prev])
                .unwrap();
            prev = nl.cell_output(u).unwrap();
        }
        nl.add_output("y", prev).unwrap();
        nl
    }

    #[test]
    fn places_everything() {
        let nl = design(10);
        let dev = Device::new(4, 4, 4, 2).unwrap();
        let mut p = Placement::new(nl.cell_capacity());
        initial_place(&nl, &dev, &Constraints::free(), &mut p, 3).unwrap();
        assert_eq!(p.num_placed(), nl.num_cells());
        for (id, cell) in nl.cells() {
            assert!(compatible(&cell.kind, p.loc_of(id).unwrap()));
        }
    }

    #[test]
    fn honors_region() {
        let nl = design(6);
        let dev = Device::new(8, 8, 4, 2).unwrap();
        let region = Rect::new(2, 2, 3, 3);
        let mut cons = Constraints::free();
        for (id, cell) in nl.cells() {
            if cell.is_logic() {
                cons.confine(id, region);
            }
        }
        let mut p = Placement::new(nl.cell_capacity());
        initial_place(&nl, &dev, &cons, &mut p, 3).unwrap();
        for (id, cell) in nl.cells() {
            if cell.is_logic() {
                let loc = p.loc_of(id).unwrap();
                assert!(region.contains(loc.coord().unwrap()));
            }
        }
    }

    #[test]
    fn overfull_region_errors() {
        let nl = design(10); // 10 LUTs into a 1-CLB region (2 LUT slots)
        let dev = Device::new(8, 8, 4, 2).unwrap();
        let mut cons = Constraints::free();
        for (id, cell) in nl.cells() {
            if cell.is_logic() {
                cons.confine(id, Rect::new(0, 0, 0, 0));
            }
        }
        let mut p = Placement::new(nl.cell_capacity());
        let err = initial_place(&nl, &dev, &cons, &mut p, 3).unwrap_err();
        assert!(matches!(err, PlaceError::NoSpace(_)));
    }

    #[test]
    fn preserves_existing_locations() {
        let nl = design(2);
        let dev = Device::new(4, 4, 4, 2).unwrap();
        let u0 = nl.find_cell("u0").unwrap();
        let mut p = Placement::new(nl.cell_capacity());
        let pinned = BelLoc::clb(3, 3, ClbSlot::LutG);
        p.place(u0, pinned).unwrap();
        initial_place(&nl, &dev, &Constraints::free(), &mut p, 3).unwrap();
        assert_eq!(p.loc_of(u0), Some(pinned));
    }
}
