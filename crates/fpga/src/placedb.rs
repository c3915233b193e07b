//! Placement database: which netlist cell occupies which BEL.

use std::error::Error;
use std::fmt;

use netlist::CellId;

use crate::bel::BelLoc;
use crate::hash::FxHashMap;

/// Errors from placement bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlacementError {
    /// Target BEL already hosts another cell.
    Occupied(BelLoc),
    /// The cell has no current location.
    NotPlaced(CellId),
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Occupied(loc) => write!(f, "location {loc} is occupied"),
            Self::NotPlaced(c) => write!(f, "cell {c} is not placed"),
        }
    }
}

impl Error for PlacementError {}

/// A (partial) placement of netlist cells onto device BELs.
///
/// ```
/// use fpga::{BelLoc, ClbSlot, Placement};
/// use netlist::CellId;
///
/// let mut p = Placement::new(4);
/// let c = CellId::new(0);
/// p.place(c, BelLoc::clb(1, 1, ClbSlot::LutF))?;
/// assert_eq!(p.loc_of(c), Some(BelLoc::clb(1, 1, ClbSlot::LutF)));
/// # Ok::<(), fpga::placedb::PlacementError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Placement {
    locs: Vec<Option<BelLoc>>,
    occ: FxHashMap<BelLoc, CellId>,
}

impl Placement {
    /// Creates an empty placement able to hold `num_cells` cells.
    pub fn new(num_cells: usize) -> Self {
        Self {
            locs: vec![None; num_cells],
            occ: FxHashMap::default(),
        }
    }

    /// Number of cell slots (not all necessarily placed).
    pub fn capacity(&self) -> usize {
        self.locs.len()
    }

    /// Number of placed cells.
    pub fn num_placed(&self) -> usize {
        self.occ.len()
    }

    /// Location of a cell.
    #[inline]
    pub fn loc_of(&self, cell: CellId) -> Option<BelLoc> {
        self.locs.get(cell.index()).copied().flatten()
    }

    /// Cell at a location.
    #[inline]
    pub fn cell_at(&self, loc: BelLoc) -> Option<CellId> {
        self.occ.get(&loc).copied()
    }

    /// True if no cell occupies `loc`.
    pub fn is_free(&self, loc: BelLoc) -> bool {
        !self.occ.contains_key(&loc)
    }

    /// Places a cell at a free location (moving it if already placed).
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Occupied`] if another cell holds `loc`.
    pub fn place(&mut self, cell: CellId, loc: BelLoc) -> Result<(), PlacementError> {
        if let Some(&holder) = self.occ.get(&loc) {
            if holder == cell {
                return Ok(());
            }
            return Err(PlacementError::Occupied(loc));
        }
        if cell.index() >= self.locs.len() {
            self.locs.resize(cell.index() + 1, None);
        }
        if let Some(old) = self.locs[cell.index()] {
            self.occ.remove(&old);
        }
        self.locs[cell.index()] = Some(loc);
        self.occ.insert(loc, cell);
        Ok(())
    }

    /// Removes a cell from the placement.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::NotPlaced`] if the cell has no
    /// location.
    pub fn unplace(&mut self, cell: CellId) -> Result<BelLoc, PlacementError> {
        let loc = self.loc_of(cell).ok_or(PlacementError::NotPlaced(cell))?;
        self.locs[cell.index()] = None;
        self.occ.remove(&loc);
        Ok(loc)
    }

    /// Swaps the locations of two placed cells.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::NotPlaced`] if either is unplaced.
    pub fn swap(&mut self, a: CellId, b: CellId) -> Result<(), PlacementError> {
        let la = self.loc_of(a).ok_or(PlacementError::NotPlaced(a))?;
        let lb = self.loc_of(b).ok_or(PlacementError::NotPlaced(b))?;
        self.locs[a.index()] = Some(lb);
        self.locs[b.index()] = Some(la);
        self.occ.insert(la, b);
        self.occ.insert(lb, a);
        Ok(())
    }

    /// Iterates over placed `(cell, location)` pairs in cell order.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, BelLoc)> + '_ {
        self.locs
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|loc| (CellId::new(i), loc)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bel::ClbSlot;

    #[test]
    fn place_and_query() {
        let mut p = Placement::new(2);
        let c0 = CellId::new(0);
        let loc = BelLoc::clb(0, 0, ClbSlot::LutF);
        p.place(c0, loc).unwrap();
        assert_eq!(p.cell_at(loc), Some(c0));
        assert_eq!(p.num_placed(), 1);
        assert!(!p.is_free(loc));
    }

    #[test]
    fn occupied_rejected_idempotent_allowed() {
        let mut p = Placement::new(2);
        let loc = BelLoc::clb(0, 0, ClbSlot::LutF);
        p.place(CellId::new(0), loc).unwrap();
        assert_eq!(
            p.place(CellId::new(1), loc),
            Err(PlacementError::Occupied(loc))
        );
        // Re-placing the same cell at its own location is a no-op.
        p.place(CellId::new(0), loc).unwrap();
    }

    #[test]
    fn move_frees_old_location() {
        let mut p = Placement::new(1);
        let c = CellId::new(0);
        let a = BelLoc::clb(0, 0, ClbSlot::LutF);
        let b = BelLoc::clb(1, 0, ClbSlot::LutF);
        p.place(c, a).unwrap();
        p.place(c, b).unwrap();
        assert!(p.is_free(a));
        assert_eq!(p.loc_of(c), Some(b));
        assert_eq!(p.num_placed(), 1);
    }

    #[test]
    fn swap_exchanges() {
        let mut p = Placement::new(2);
        let (c0, c1) = (CellId::new(0), CellId::new(1));
        let a = BelLoc::clb(0, 0, ClbSlot::LutF);
        let b = BelLoc::clb(2, 2, ClbSlot::LutG);
        p.place(c0, a).unwrap();
        p.place(c1, b).unwrap();
        p.swap(c0, c1).unwrap();
        assert_eq!(p.loc_of(c0), Some(b));
        assert_eq!(p.cell_at(a), Some(c1));
    }

    #[test]
    fn unplace_errors_when_absent() {
        let mut p = Placement::new(1);
        assert!(p.unplace(CellId::new(0)).is_err());
    }

    #[test]
    fn grows_on_demand() {
        let mut p = Placement::new(0);
        p.place(CellId::new(7), BelLoc::clb(0, 0, ClbSlot::FfA))
            .unwrap();
        assert!(p.capacity() >= 8);
        assert_eq!(p.iter().count(), 1);
    }
}
