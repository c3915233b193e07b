//! Affected-tile identification with neighbour expansion (paper §4.2).
//!
//! A debugging change or test-logic insertion seeds a set of tiles
//! (the tiles its changed cells are placed in). If the new logic
//! needs more CLBs than the seed tiles' slack provides, neighbouring
//! tiles are drafted in — "neighboring tiles can also be labeled
//! 'affected' and may contribute their unused resources" — until the
//! request fits or the whole device is consumed. Figure 3 sweeps the
//! inserted-logic size through this exact algorithm, and the tiled ECO
//! flow ([`crate::eco_flow`]) drafts by the same rule when routing,
//! rather than logic, runs short.

use fpga::{Placement, Rect};
use netlist::CellId;

use crate::error::TilingError;
use crate::tile::{TileId, TilePlan};

/// The tiles a change touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffectedSet {
    /// Affected tiles in the order they were drafted.
    pub tiles: Vec<TileId>,
    /// CLBs of new logic requested.
    pub needed_clbs: usize,
    /// Free CLBs available across the affected set.
    pub free_clbs: usize,
    /// Whether the request fits in the affected set's slack.
    pub fits: bool,
}

impl AffectedSet {
    /// Fraction of all tiles affected (Figure 3's y-axis).
    pub fn fraction_of(&self, plan: &TilePlan) -> f64 {
        if plan.is_empty() {
            return 0.0;
        }
        self.tiles.len() as f64 / plan.len() as f64
    }

    /// True if the tile is in the set.
    pub fn contains(&self, tile: TileId) -> bool {
        self.tiles.contains(&tile)
    }

    /// The affected set made of exactly `tiles`, with their free CLBs
    /// counted under `placement` against a request of `needed_clbs`.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::UnknownTile`] for a tile not in the plan.
    pub(crate) fn of_tiles(
        plan: &TilePlan,
        placement: &Placement,
        tiles: Vec<TileId>,
        needed_clbs: usize,
    ) -> Result<AffectedSet, TilingError> {
        let mut free_clbs = 0;
        for &t in &tiles {
            free_clbs += plan.usage(t, placement)?.free_clbs();
        }
        Ok(AffectedSet {
            tiles,
            needed_clbs,
            free_clbs,
            fits: free_clbs >= needed_clbs,
        })
    }

    /// Computes the affected set for a change.
    ///
    /// `seeds` are the perturbed cells (from an
    /// [`netlist::EcoReport`] or a test-point list); `extra_clbs` is
    /// the CLB cost of newly inserted logic. When the seed tiles lack
    /// the slack, the adjacent tile with the most free CLBs is drafted
    /// in, repeatedly. The set saturates at the whole device rather
    /// than failing; check [`AffectedSet::fits`].
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::UnknownTile`] only on internal plan
    /// inconsistencies.
    pub fn compute(
        plan: &TilePlan,
        placement: &Placement,
        seeds: &[CellId],
        extra_clbs: usize,
    ) -> Result<AffectedSet, TilingError> {
        let mut tiles: Vec<TileId> = Vec::new();
        for &cell in seeds {
            if let Some(t) = plan.tile_of_cell(placement, cell) {
                if !tiles.contains(&t) {
                    tiles.push(t);
                }
            }
        }
        if tiles.is_empty() {
            // Pure insertion with no placed seed: start at the tile
            // with the most slack.
            let all = plan.iter().map(|(id, _)| id);
            if let Some((id, _)) = most_free(plan, placement, all)? {
                tiles.push(id);
            }
        }
        let mut set = Self::of_tiles(plan, placement, tiles, extra_clbs)?;
        // Neighbour expansion until the request fits (or every tile
        // is affected).
        while !set.fits && set.draft_neighbour(plan, placement)? {}
        Ok(set)
    }

    /// Drafts the neighbouring tile with the most free CLBs under
    /// `placement` (ties to the lowest id) and adds its slack. Returns
    /// `false`, changing nothing, when no tile outside the set borders
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::UnknownTile`] for a tile not in the plan.
    pub(crate) fn draft_neighbour(
        &mut self,
        plan: &TilePlan,
        placement: &Placement,
    ) -> Result<bool, TilingError> {
        let mut frontier: Vec<TileId> = Vec::new();
        for &t in &self.tiles {
            for n in plan.neighbors(t)? {
                if !self.tiles.contains(&n) && !frontier.contains(&n) {
                    frontier.push(n);
                }
            }
        }
        let Some((tile, free)) = most_free(plan, placement, frontier)? else {
            return Ok(false);
        };
        self.tiles.push(tile);
        self.free_clbs += free;
        self.fits = self.free_clbs >= self.needed_clbs;
        Ok(true)
    }

    /// The rectangles of the affected tiles.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::UnknownTile`] for a tile not in the plan.
    pub(crate) fn rects(&self, plan: &TilePlan) -> Result<Vec<Rect>, TilingError> {
        self.tiles
            .iter()
            .map(|&t| plan.tile(t).map(|tile| tile.rect))
            .collect()
    }
}

/// The candidate with the most free CLBs, ties to the lowest id, with
/// its free CLB count.
fn most_free(
    plan: &TilePlan,
    placement: &Placement,
    candidates: impl IntoIterator<Item = TileId>,
) -> Result<Option<(TileId, usize)>, TilingError> {
    let mut best: Option<(TileId, usize)> = None;
    for id in candidates {
        let free = plan.usage(id, placement)?.free_clbs();
        if best.is_none_or(|(bid, bf)| free > bf || (free == bf && id < bid)) {
            best = Some((id, free));
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga::{BelLoc, ClbSlot, Device, Rect};

    /// 4x4 grid split into 4 tiles of 4 CLBs; each CLB = 2 LUT slots.
    fn plan() -> (Device, TilePlan) {
        let dev = Device::new(4, 4, 4, 2).unwrap();
        let rects = vec![
            Rect::new(0, 0, 1, 1),
            Rect::new(2, 0, 3, 1),
            Rect::new(0, 2, 1, 3),
            Rect::new(2, 2, 3, 3),
        ];
        let plan = TilePlan::from_rects(&dev, rects);
        (dev, plan)
    }

    /// Fills `n` LUT slots of tile 0 (coords (0,0),(1,0),(0,1),(1,1)).
    fn fill_tile0(p: &mut Placement, n: usize) {
        let coords = [(0u16, 0u16), (1, 0), (0, 1), (1, 1)];
        let mut k = 0;
        'outer: for (x, y) in coords {
            for slot in [ClbSlot::LutF, ClbSlot::LutG] {
                if k >= n {
                    break 'outer;
                }
                p.place(CellId::new(k), BelLoc::clb(x, y, slot)).unwrap();
                k += 1;
            }
        }
    }

    #[test]
    fn small_insertion_stays_in_one_tile() {
        let (_, plan) = plan();
        let mut p = Placement::new(16);
        fill_tile0(&mut p, 4); // 2 CLBs used, 2 free in tile 0
        let set = AffectedSet::compute(&plan, &p, &[CellId::new(0)], 2).unwrap();
        assert_eq!(set.tiles, vec![TileId(0)]);
        assert!(set.fits);
        assert_eq!(set.fraction_of(&plan), 0.25);
    }

    #[test]
    fn large_insertion_expands_to_neighbors() {
        let (_, plan) = plan();
        let mut p = Placement::new(16);
        fill_tile0(&mut p, 4);
        // Need 6 CLBs: tile0 has 2 free, neighbours have 4 each.
        let set = AffectedSet::compute(&plan, &p, &[CellId::new(0)], 6).unwrap();
        assert_eq!(set.tiles.len(), 2);
        assert_eq!(set.tiles[0], TileId(0));
        assert!(set.fits);
        assert!(set.free_clbs >= 6);
    }

    #[test]
    fn saturates_at_whole_device() {
        let (_, plan) = plan();
        let p = Placement::new(0);
        let set = AffectedSet::compute(&plan, &p, &[], 1000).unwrap();
        assert_eq!(set.tiles.len(), 4);
        assert!(!set.fits);
        assert_eq!(set.fraction_of(&plan), 1.0);
    }

    #[test]
    fn empty_seed_starts_at_most_free_tile() {
        let (_, plan) = plan();
        let mut p = Placement::new(16);
        fill_tile0(&mut p, 8); // tile 0 completely full of LUTs
        let set = AffectedSet::compute(&plan, &p, &[], 1).unwrap();
        assert_ne!(set.tiles[0], TileId(0));
        assert!(set.fits);
    }

    #[test]
    fn multi_seed_unions_tiles() {
        let (_, plan) = plan();
        let mut p = Placement::new(16);
        p.place(CellId::new(0), BelLoc::clb(0, 0, ClbSlot::LutF))
            .unwrap();
        p.place(CellId::new(1), BelLoc::clb(3, 3, ClbSlot::LutF))
            .unwrap();
        let set = AffectedSet::compute(&plan, &p, &[CellId::new(0), CellId::new(1)], 0).unwrap();
        assert_eq!(set.tiles, vec![TileId(0), TileId(3)]);
        assert!(set.contains(TileId(3)));
    }
}
