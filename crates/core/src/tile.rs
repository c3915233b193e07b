//! Tiles and the tile plan.

use std::fmt;

use fpga::{BelLoc, ClbSlot, Coord, Device, Placement, Rect};
use netlist::{CellId, CellKind, Netlist};

use crate::error::TilingError;

/// Identifier of a tile within a [`TilePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(pub u32);

impl TileId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One tile: a rectangle of CLBs with a locked interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tile {
    /// Physical footprint.
    pub rect: Rect,
}

impl Tile {
    /// CLB capacity of the tile.
    pub fn capacity_clbs(&self) -> usize {
        self.rect.area()
    }
}

/// Per-tile resource usage snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileUsage {
    /// Occupied LUT slots.
    pub used_luts: usize,
    /// Occupied flip-flop slots.
    pub used_ffs: usize,
    /// Total CLBs in the tile.
    pub capacity: usize,
}

impl TileUsage {
    /// CLBs considered consumed (XC4000 packing bound).
    pub fn used_clbs(&self) -> usize {
        self.used_luts.max(self.used_ffs).div_ceil(2)
    }

    /// Whole CLBs still available for new logic.
    ///
    /// New test logic needs both LUT and FF slots, so the free count
    /// is bounded by the scarcer resource.
    pub fn free_clbs(&self) -> usize {
        let free_luts = 2 * self.capacity - self.used_luts;
        let free_ffs = 2 * self.capacity - self.used_ffs;
        free_luts.min(free_ffs) / 2
    }
}

/// The physical partition of a device into tiles.
///
/// Tiles exactly cover the CLB grid and never overlap. I/O pads live
/// outside every tile (their placement never changes during ECOs).
#[derive(Debug, Clone)]
pub struct TilePlan {
    tiles: Vec<Tile>,
    /// Row-major `width × height` map from CLB coordinate to tile.
    coord_tile: Vec<TileId>,
    width: u16,
    height: u16,
}

impl TilePlan {
    /// Builds a plan from tile rectangles that exactly cover `device`.
    ///
    /// # Panics
    ///
    /// Panics if the rectangles overlap or leave grid coordinates
    /// uncovered (programming error in the partitioner).
    pub fn from_rects(device: &Device, rects: Vec<Rect>) -> Self {
        let (w, h) = (device.width(), device.height());
        let mut coord_tile = vec![None; w as usize * h as usize];
        for (i, r) in rects.iter().enumerate() {
            for c in r.iter() {
                let idx = c.y as usize * w as usize + c.x as usize;
                assert!(coord_tile[idx].is_none(), "tiles overlap at {c}");
                coord_tile[idx] = Some(TileId(i as u32));
            }
        }
        let coord_tile: Vec<TileId> = coord_tile
            .into_iter()
            .map(|t| t.expect("tiles must cover the grid"))
            .collect();
        Self {
            tiles: rects.into_iter().map(|rect| Tile { rect }).collect(),
            coord_tile,
            width: w,
            height: h,
        }
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// True if the plan has no tiles (never the case for real plans).
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// The tile with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::UnknownTile`] for bad ids.
    pub fn tile(&self, id: TileId) -> Result<&Tile, TilingError> {
        self.tiles
            .get(id.index())
            .ok_or(TilingError::UnknownTile(id.index()))
    }

    /// Iterates over `(id, tile)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TileId, &Tile)> {
        self.tiles
            .iter()
            .enumerate()
            .map(|(i, t)| (TileId(i as u32), t))
    }

    /// The tile covering a CLB coordinate.
    pub fn tile_of_coord(&self, c: Coord) -> Option<TileId> {
        if c.x >= self.width || c.y >= self.height {
            return None;
        }
        Some(self.coord_tile[c.y as usize * self.width as usize + c.x as usize])
    }

    /// The tile hosting a placed cell (None for IOB-placed and
    /// unplaced cells).
    pub fn tile_of_cell(&self, placement: &Placement, cell: CellId) -> Option<TileId> {
        match placement.loc_of(cell)? {
            BelLoc::Clb { coord, .. } => self.tile_of_coord(coord),
            BelLoc::Iob(_) => None,
        }
    }

    /// Tiles sharing an edge with `id`.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::UnknownTile`] for bad ids.
    pub fn neighbors(&self, id: TileId) -> Result<Vec<TileId>, TilingError> {
        let rect = self.tile(id)?.rect;
        let mut out = Vec::new();
        let mut push = |t: Option<TileId>| {
            if let Some(t) = t {
                if t != id && !out.contains(&t) {
                    out.push(t);
                }
            }
        };
        for x in rect.x0..=rect.x1 {
            if rect.y0 > 0 {
                push(self.tile_of_coord(Coord::new(x, rect.y0 - 1)));
            }
            push(self.tile_of_coord(Coord::new(x, rect.y1 + 1)));
        }
        for y in rect.y0..=rect.y1 {
            if rect.x0 > 0 {
                push(self.tile_of_coord(Coord::new(rect.x0 - 1, y)));
            }
            push(self.tile_of_coord(Coord::new(rect.x1 + 1, y)));
        }
        Ok(out)
    }

    /// Resource usage of one tile under a placement.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::UnknownTile`] for bad ids.
    pub fn usage(&self, id: TileId, placement: &Placement) -> Result<TileUsage, TilingError> {
        let rect = self.tile(id)?.rect;
        let mut u = TileUsage {
            capacity: rect.area(),
            ..Default::default()
        };
        for c in rect.iter() {
            for slot in ClbSlot::ALL {
                let loc = BelLoc::Clb { coord: c, slot };
                if placement.cell_at(loc).is_some() {
                    if slot.is_lut() {
                        u.used_luts += 1;
                    } else {
                        u.used_ffs += 1;
                    }
                }
            }
        }
        Ok(u)
    }

    /// Cells of the netlist placed inside tile `id`.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::UnknownTile`] for bad ids.
    pub fn cells_in_tile(
        &self,
        id: TileId,
        nl: &Netlist,
        placement: &Placement,
    ) -> Result<Vec<CellId>, TilingError> {
        self.tile(id)?;
        Ok(nl
            .cells()
            .filter(|(cid, c)| {
                matches!(c.kind, CellKind::Lut(_) | CellKind::Ff { .. })
                    && self.tile_of_cell(placement, *cid) == Some(id)
            })
            .map(|(cid, _)| cid)
            .collect())
    }

    /// Nets whose placed terminals span more than one tile (or a tile
    /// and the IOB ring) — the inter-tile interconnect the partitioner
    /// minimizes.
    pub fn cut_nets(&self, nl: &Netlist, placement: &Placement) -> usize {
        let mut cut = 0;
        for (_, net) in nl.nets() {
            let mut first: Option<Option<TileId>> = None;
            let mut is_cut = false;
            let mut visit = |cell: CellId| {
                if placement.loc_of(cell).is_none() {
                    return;
                }
                let t = self.tile_of_cell(placement, cell);
                match first {
                    None => first = Some(t),
                    Some(f) if f != t => is_cut = true,
                    _ => {}
                }
            };
            if let Some(d) = net.driver {
                visit(d);
            }
            for s in &net.sinks {
                visit(s.cell);
            }
            if is_cut {
                cut += 1;
            }
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_plan() -> (Device, TilePlan) {
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

    #[test]
    fn coverage_and_lookup() {
        let (_, plan) = quad_plan();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.tile_of_coord(Coord::new(0, 0)), Some(TileId(0)));
        assert_eq!(plan.tile_of_coord(Coord::new(3, 3)), Some(TileId(3)));
        assert_eq!(plan.tile_of_coord(Coord::new(4, 0)), None);
    }

    #[test]
    fn neighbors_are_edge_adjacent() {
        let (_, plan) = quad_plan();
        let mut n = plan.neighbors(TileId(0)).unwrap();
        n.sort_unstable();
        assert_eq!(n, vec![TileId(1), TileId(2)]); // not the diagonal t3
    }

    #[test]
    #[should_panic(expected = "cover")]
    fn uncovered_grid_panics() {
        let dev = Device::new(4, 4, 4, 2).unwrap();
        let _ = TilePlan::from_rects(&dev, vec![Rect::new(0, 0, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_tiles_panic() {
        let dev = Device::new(2, 1, 4, 2).unwrap();
        let _ = TilePlan::from_rects(&dev, vec![Rect::new(0, 0, 1, 0), Rect::new(1, 0, 1, 0)]);
    }

    #[test]
    fn usage_counts_slots() {
        let (_, plan) = quad_plan();
        let mut p = Placement::new(4);
        p.place(CellId::new(0), BelLoc::clb(0, 0, ClbSlot::LutF))
            .unwrap();
        p.place(CellId::new(1), BelLoc::clb(1, 1, ClbSlot::LutG))
            .unwrap();
        p.place(CellId::new(2), BelLoc::clb(0, 1, ClbSlot::FfA))
            .unwrap();
        let u = plan.usage(TileId(0), &p).unwrap();
        assert_eq!(u.used_luts, 2);
        assert_eq!(u.used_ffs, 1);
        assert_eq!(u.capacity, 4);
        assert_eq!(u.used_clbs(), 1);
        // free: min(8-2, 8-1)/2 = 3
        assert_eq!(u.free_clbs(), 3);
    }

    #[test]
    fn cut_nets_counts_cross_tile_nets() {
        let (_, plan) = quad_plan();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let na = nl.cell_output(a).unwrap();
        let u = nl.add_lut("u", netlist::TruthTable::not(), &[na]).unwrap();
        let v = nl
            .add_lut(
                "v",
                netlist::TruthTable::not(),
                &[nl.cell_output(u).unwrap()],
            )
            .unwrap();
        nl.add_output("y", nl.cell_output(v).unwrap()).unwrap();
        let mut p = Placement::new(nl.cell_capacity());
        // u in tile 0, v in tile 3: u->v is cut. a is an IOB (outside).
        p.place(
            a,
            BelLoc::Iob(fpga::IobSite {
                side: fpga::IobSide::West,
                pos: 0,
                k: 0,
            }),
        )
        .unwrap();
        p.place(u, BelLoc::clb(0, 0, ClbSlot::LutF)).unwrap();
        p.place(v, BelLoc::clb(3, 3, ClbSlot::LutF)).unwrap();
        // a->u also counts: IOB (None) vs tile 0. v->y does not: the
        // output cell y is unplaced, so the net has one visible
        // terminal.
        assert_eq!(plan.cut_nets(&nl, &p), 2); // a->u, u->v
    }
}
