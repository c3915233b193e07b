//! Placer configuration and physical constraints.

use fpga::{FxHashMap, FxHashSet, Rect};
use netlist::CellId;

/// Which engine [`crate::run_placer`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlaceEngine {
    /// Pure VPR-style simulated annealing (the original engine).
    Annealing,
    /// Clique/star quadratic-wirelength solve (conjugate gradient),
    /// tetris legalization, then a short low-temperature annealing
    /// polish whose budget is `polish_inner` / `polish_temps`.
    #[default]
    Analytical,
}

impl PlaceEngine {
    /// Stable label used in metrics and bench output.
    pub fn label(self) -> &'static str {
        match self {
            Self::Annealing => "annealing",
            Self::Analytical => "analytical",
        }
    }
}

/// Annealing schedule and effort parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerConfig {
    /// RNG seed; fixes the result exactly.
    pub seed: u64,
    /// Moves per temperature = `inner_num × movable^(4/3)`.
    pub inner_num: f64,
    /// Stop when `T < exit_ratio × cost / nets`.
    pub exit_ratio: f64,
    /// Fast mode for tests: caps total temperatures.
    pub max_temps: usize,
    /// Engine selection for [`crate::run_placer`]. [`crate::place`]
    /// itself is always the annealer; the analytical engine calls it
    /// for its polish phase.
    pub engine: PlaceEngine,
    /// Polish `inner_num` for the analytical engine (a fraction of
    /// the full schedule's — the quadratic solve already did the
    /// global work, the polish only repairs legalization damage).
    pub polish_inner: f64,
    /// Polish temperature cap for the analytical engine.
    pub polish_temps: usize,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            inner_num: 1.0,
            exit_ratio: 0.005,
            max_temps: 200,
            engine: PlaceEngine::default(),
            polish_inner: 0.75,
            polish_temps: 80,
        }
    }
}

impl PlacerConfig {
    /// A light schedule for unit tests and small ECO regions.
    pub fn fast(seed: u64) -> Self {
        Self {
            seed,
            inner_num: 0.5,
            exit_ratio: 0.02,
            max_temps: 60,
            polish_inner: 0.35,
            polish_temps: 30,
            ..Self::default()
        }
    }
}

/// Placement constraints: locked cells and per-cell region boxes.
///
/// ```
/// use place::Constraints;
/// use fpga::Rect;
/// use netlist::CellId;
///
/// let mut c = Constraints::default();
/// c.lock(CellId::new(3));
/// c.confine(CellId::new(4), Rect::new(0, 0, 3, 3));
/// assert!(c.is_locked(CellId::new(3)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Constraints {
    // Probed on every annealing move; never iterated.
    locked: FxHashSet<CellId>,
    regions: FxHashMap<CellId, Vec<Rect>>,
}

impl Constraints {
    /// No locks, no regions: the full-placement case.
    pub fn free() -> Self {
        Self::default()
    }

    /// Marks a cell immovable (it must already have a location).
    pub fn lock(&mut self, cell: CellId) {
        self.locked.insert(cell);
    }

    /// Locks every cell in the iterator.
    pub fn lock_all(&mut self, cells: impl IntoIterator<Item = CellId>) {
        self.locked.extend(cells);
    }

    /// Confines a cell's CLB placement to `rect`.
    pub fn confine(&mut self, cell: CellId, rect: Rect) {
        self.regions.insert(cell, vec![rect]);
    }

    /// Confines a cell to the *union* of several rectangles (used for
    /// cleared multi-tile regions, which are rarely rectangular).
    ///
    /// # Panics
    ///
    /// Panics on an empty rectangle list.
    pub fn confine_any(&mut self, cell: CellId, rects: Vec<Rect>) {
        assert!(!rects.is_empty(), "region must have at least one rectangle");
        self.regions.insert(cell, rects);
    }

    /// True if the cell may not move.
    pub fn is_locked(&self, cell: CellId) -> bool {
        self.locked.contains(&cell)
    }

    /// The cell's region rectangles, if constrained.
    pub fn region_of(&self, cell: CellId) -> Option<&[Rect]> {
        self.regions.get(&cell).map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraints_roundtrip() {
        let mut c = Constraints::free();
        c.lock(CellId::new(0));
        c.lock_all([CellId::new(1), CellId::new(2)]);
        c.confine(CellId::new(5), Rect::new(1, 1, 2, 2));
        assert!(c.is_locked(CellId::new(2)));
        assert!(!c.is_locked(CellId::new(5)));
        assert_eq!(
            c.region_of(CellId::new(5)),
            Some(&[Rect::new(1, 1, 2, 2)][..])
        );
        assert_eq!(c.region_of(CellId::new(0)), None);
        c.confine_any(
            CellId::new(6),
            vec![Rect::new(0, 0, 1, 1), Rect::new(4, 4, 5, 5)],
        );
        assert_eq!(c.region_of(CellId::new(6)).unwrap().len(), 2);
    }

    #[test]
    fn config_presets() {
        let fast = PlacerConfig::fast(9);
        assert_eq!(fast.seed, 9);
        assert!(fast.max_temps < PlacerConfig::default().max_temps);
    }
}
