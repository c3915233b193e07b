//! Basic elements (BELs): the placeable slots of the device.

use std::fmt;

use crate::coords::Coord;

/// One of the four placeable slots inside a CLB.
///
/// An XC4000 CLB contains two 4-input lookup tables (F and G) and two
/// flip-flops. The paper's CLB counts assume this packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ClbSlot {
    /// First 4-input LUT (the "F" function generator).
    LutF,
    /// Second 4-input LUT (the "G" function generator).
    LutG,
    /// First flip-flop.
    FfA,
    /// Second flip-flop.
    FfB,
}

impl ClbSlot {
    /// All slots in canonical order.
    pub const ALL: [ClbSlot; 4] = [ClbSlot::LutF, ClbSlot::LutG, ClbSlot::FfA, ClbSlot::FfB];

    /// Dense index 0..4.
    pub fn index(self) -> usize {
        match self {
            Self::LutF => 0,
            Self::LutG => 1,
            Self::FfA => 2,
            Self::FfB => 3,
        }
    }

    /// Slot from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }

    /// True for the two LUT slots.
    pub fn is_lut(self) -> bool {
        matches!(self, Self::LutF | Self::LutG)
    }

    /// True for the two flip-flop slots.
    pub fn is_ff(self) -> bool {
        !self.is_lut()
    }

    /// Number of input pins the slot offers (4 for LUTs, 1 for FFs).
    pub fn num_inputs(self) -> usize {
        if self.is_lut() {
            4
        } else {
            1
        }
    }

    /// First input-pin index of this slot within the CLB's pin space.
    ///
    /// CLB input pins are numbered: LUT F gets 0..4, LUT G gets 4..8,
    /// FF A gets 8, FF B gets 9.
    pub fn pin_base(self) -> usize {
        match self {
            Self::LutF => 0,
            Self::LutG => 4,
            Self::FfA => 8,
            Self::FfB => 9,
        }
    }
}

impl fmt::Display for ClbSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::LutF => "F",
            Self::LutG => "G",
            Self::FfA => "FFa",
            Self::FfB => "FFb",
        };
        f.write_str(s)
    }
}

/// Side of the device perimeter an IOB sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IobSide {
    /// Along the y = height channel (top edge).
    North,
    /// Along the y = 0 channel (bottom edge).
    South,
    /// Along the x = width channel (right edge).
    East,
    /// Along the x = 0 channel (left edge).
    West,
}

impl IobSide {
    /// All sides in canonical order.
    pub const ALL: [IobSide; 4] = [IobSide::North, IobSide::South, IobSide::East, IobSide::West];
}

impl fmt::Display for IobSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::North => "N",
            Self::South => "S",
            Self::East => "E",
            Self::West => "W",
        };
        f.write_str(s)
    }
}

/// One I/O block site on the perimeter.
///
/// `pos` indexes along the side (a column for north/south, a row for
/// east/west); `k` distinguishes the multiple IOBs that share one
/// position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IobSite {
    /// Perimeter side.
    pub side: IobSide,
    /// Position along the side.
    pub pos: u16,
    /// Sub-site index at this position.
    pub k: u8,
}

impl fmt::Display for IobSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IOB-{}{}#{}", self.side, self.pos, self.k)
    }
}

/// A placement location: either a CLB slot or an IOB site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BelLoc {
    /// A slot inside the CLB at `coord`.
    Clb {
        /// CLB grid position.
        coord: Coord,
        /// Slot within the CLB.
        slot: ClbSlot,
    },
    /// A perimeter IOB.
    Iob(IobSite),
}

impl BelLoc {
    /// Convenience constructor for CLB slots.
    pub fn clb(x: u16, y: u16, slot: ClbSlot) -> Self {
        Self::Clb {
            coord: Coord::new(x, y),
            slot,
        }
    }

    /// The CLB coordinate, if this is a CLB slot.
    #[inline]
    pub fn coord(&self) -> Option<Coord> {
        match self {
            Self::Clb { coord, .. } => Some(*coord),
            Self::Iob(_) => None,
        }
    }

    /// A representative grid coordinate for distance computations.
    ///
    /// IOBs map to the nearest CLB coordinate on their side, clamped
    /// to a `width × height` grid.
    #[inline]
    pub fn proxy_coord(&self, width: u16, height: u16) -> Coord {
        match self {
            Self::Clb { coord, .. } => *coord,
            Self::Iob(site) => match site.side {
                IobSide::North => Coord::new(site.pos.min(width - 1), height - 1),
                IobSide::South => Coord::new(site.pos.min(width - 1), 0),
                IobSide::East => Coord::new(width - 1, site.pos.min(height - 1)),
                IobSide::West => Coord::new(0, site.pos.min(height - 1)),
            },
        }
    }
}

impl fmt::Display for BelLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Clb { coord, slot } => write!(f, "CLB{coord}.{slot}"),
            Self::Iob(site) => write!(f, "{site}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_indexing_roundtrip() {
        for (i, s) in ClbSlot::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(ClbSlot::from_index(i), *s);
        }
    }

    #[test]
    fn slot_pin_layout_is_disjoint() {
        assert_eq!(ClbSlot::LutF.pin_base(), 0);
        assert_eq!(ClbSlot::LutG.pin_base(), 4);
        assert_eq!(ClbSlot::FfA.pin_base(), 8);
        assert_eq!(ClbSlot::FfB.pin_base(), 9);
        assert_eq!(ClbSlot::LutF.num_inputs(), 4);
        assert_eq!(ClbSlot::FfB.num_inputs(), 1);
    }

    #[test]
    fn slot_kinds() {
        assert!(ClbSlot::LutF.is_lut());
        assert!(ClbSlot::FfA.is_ff());
    }

    #[test]
    fn proxy_coord_clamps_to_grid() {
        let north = BelLoc::Iob(IobSite {
            side: IobSide::North,
            pos: 99,
            k: 0,
        });
        assert_eq!(north.proxy_coord(10, 8), Coord::new(9, 7));
        let west = BelLoc::Iob(IobSite {
            side: IobSide::West,
            pos: 3,
            k: 1,
        });
        assert_eq!(west.proxy_coord(10, 8), Coord::new(0, 3));
        let clb = BelLoc::clb(4, 5, ClbSlot::LutG);
        assert_eq!(clb.proxy_coord(10, 8), Coord::new(4, 5));
        assert_eq!(clb.coord(), Some(Coord::new(4, 5)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(BelLoc::clb(1, 2, ClbSlot::LutF).to_string(), "CLB(1,2).F");
        let site = IobSite {
            side: IobSide::East,
            pos: 7,
            k: 1,
        };
        assert_eq!(site.to_string(), "IOB-E7#1");
    }
}
