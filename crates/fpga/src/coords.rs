//! Grid coordinates and rectangular regions.

use std::fmt;

/// Position of a CLB on the logic grid (column `x`, row `y`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Coord {
    /// Column, 0-based from the west edge.
    pub x: u16,
    /// Row, 0-based from the south edge.
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate.
    pub fn new(x: u16, y: u16) -> Self {
        Self { x, y }
    }

    /// Manhattan distance to another coordinate.
    pub fn manhattan(self, other: Coord) -> u32 {
        let dx = (self.x as i32 - other.x as i32).unsigned_abs();
        let dy = (self.y as i32 - other.y as i32).unsigned_abs();
        dx + dy
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// An inclusive rectangle of CLB coordinates — the footprint of a tile.
///
/// ```
/// use fpga::{Coord, Rect};
/// let r = Rect::new(2, 2, 4, 5);
/// assert!(r.contains(Coord::new(3, 4)));
/// assert_eq!(r.area(), 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// West-most column (inclusive).
    pub x0: u16,
    /// South-most row (inclusive).
    pub y0: u16,
    /// East-most column (inclusive).
    pub x1: u16,
    /// North-most row (inclusive).
    pub y1: u16,
}

impl Rect {
    /// Creates a rectangle from inclusive bounds.
    ///
    /// # Panics
    ///
    /// Panics if `x0 > x1` or `y0 > y1`.
    pub fn new(x0: u16, y0: u16, x1: u16, y1: u16) -> Self {
        assert!(x0 <= x1 && y0 <= y1, "degenerate rectangle");
        Self { x0, y0, x1, y1 }
    }

    /// A 1×1 rectangle at `c`.
    pub fn at(c: Coord) -> Self {
        Self::new(c.x, c.y, c.x, c.y)
    }

    /// Width in CLBs.
    pub fn width(&self) -> u16 {
        self.x1 - self.x0 + 1
    }

    /// Height in CLBs.
    pub fn height(&self) -> u16 {
        self.y1 - self.y0 + 1
    }

    /// Number of CLB positions covered.
    pub fn area(&self) -> usize {
        self.width() as usize * self.height() as usize
    }

    /// True if `c` lies inside.
    pub fn contains(&self, c: Coord) -> bool {
        c.x >= self.x0 && c.x <= self.x1 && c.y >= self.y0 && c.y <= self.y1
    }

    /// True if the rectangles share at least one CLB.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// True if the rectangles share an edge (4-adjacency, no overlap).
    pub fn is_adjacent(&self, other: &Rect) -> bool {
        if self.intersects(other) {
            return false;
        }
        let horizontal_touch = (self.x1 + 1 == other.x0 || other.x1 + 1 == self.x0)
            && self.y0 <= other.y1
            && other.y0 <= self.y1;
        let vertical_touch = (self.y1 + 1 == other.y0 || other.y1 + 1 == self.y0)
            && self.x0 <= other.x1
            && other.x0 <= self.x1;
        horizontal_touch || vertical_touch
    }

    /// The smallest rectangle containing both.
    #[must_use]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Iterates over all covered coordinates, row-major.
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        let (x0, x1, y0, y1) = (self.x0, self.x1, self.y0, self.y1);
        (y0..=y1).flat_map(move |y| (x0..=x1).map(move |x| Coord::new(x, y)))
    }

    /// Center of the rectangle (rounded down).
    pub fn center(&self) -> Coord {
        Coord::new((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)
    }

    /// Manhattan distance from `c` to the nearest covered coordinate
    /// (0 inside).
    pub fn distance(&self, c: Coord) -> u32 {
        let gap = |v: u16, lo: u16, hi: u16| u32::from(lo.saturating_sub(v) + v.saturating_sub(hi));
        gap(c.x, self.x0, self.x1) + gap(c.y, self.y0, self.y1)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]x[{},{}]", self.x0, self.x1, self.y0, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        assert_eq!(Coord::new(1, 1).manhattan(Coord::new(4, 3)), 5);
        assert_eq!(Coord::new(2, 2).manhattan(Coord::new(2, 2)), 0);
    }

    #[test]
    fn rect_geometry() {
        let r = Rect::new(0, 0, 3, 1);
        assert_eq!(r.width(), 4);
        assert_eq!(r.height(), 2);
        assert_eq!(r.area(), 8);
        assert_eq!(r.iter().count(), 8);
        assert_eq!(r.center(), Coord::new(1, 0));
        assert_eq!(r.distance(Coord::new(2, 1)), 0);
        assert_eq!(r.distance(Coord::new(5, 4)), 5);
    }

    #[test]
    fn containment_and_intersection() {
        let a = Rect::new(0, 0, 2, 2);
        let b = Rect::new(2, 2, 4, 4);
        let c = Rect::new(3, 0, 5, 1);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.contains(Coord::new(2, 2)));
        assert!(!a.contains(Coord::new(3, 0)));
    }

    #[test]
    fn adjacency_requires_shared_edge() {
        let a = Rect::new(0, 0, 1, 1);
        let right = Rect::new(2, 0, 3, 1);
        let above = Rect::new(0, 2, 1, 3);
        let diagonal = Rect::new(2, 2, 3, 3);
        let far = Rect::new(5, 5, 6, 6);
        assert!(a.is_adjacent(&right));
        assert!(a.is_adjacent(&above));
        assert!(!a.is_adjacent(&diagonal)); // corner contact only
        assert!(!a.is_adjacent(&far));
        assert!(!a.is_adjacent(&a)); // overlap is not adjacency
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(0, 0, 1, 1);
        let b = Rect::new(3, 2, 4, 5);
        let u = a.union(&b);
        assert!(u.contains(Coord::new(0, 0)));
        assert!(u.contains(Coord::new(4, 5)));
        assert_eq!(u, Rect::new(0, 0, 4, 5));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_rect_panics() {
        let _ = Rect::new(2, 0, 1, 0);
    }
}
