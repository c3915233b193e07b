//! Partitioning of overlapping suspect cones.
//!
//! When `k` errors are diagnosed simultaneously, their suspect cones
//! usually overlap (shared upstream logic feeds several failing
//! outputs). [`ConePartition::split`] decomposes the cones into
//! disjoint regions:
//!
//! * an **exclusive** region per error — cells only that error's cone
//!   implicates;
//! * one **shared core** — cells implicated by two or more cones.
//!
//! The scheduler screens the shared core's frontier before any
//! strategy walks the core; the session's `ConeSplit` event reports
//! the region sizes, which show how entangled a multi-error scenario
//! is.

use super::cone::SuspectCone;

/// Disjoint decomposition of `k` (possibly overlapping) suspect cones.
///
/// ```
/// use netlist::CellId;
/// use tiling::diagnosis::{ConePartition, SuspectCone};
///
/// let a: SuspectCone = [0, 1, 2].map(CellId::new).into_iter().collect();
/// let b: SuspectCone = [2, 3].map(CellId::new).into_iter().collect();
/// let p = ConePartition::split(&[a, b]);
/// assert_eq!(p.exclusive[0].cells(), [0, 1].map(CellId::new).to_vec());
/// assert_eq!(p.exclusive[1].cells(), vec![CellId::new(3)]);
/// assert_eq!(p.shared.cells(), vec![CellId::new(2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConePartition {
    /// Per input cone: the cells no other cone implicates.
    pub exclusive: Vec<SuspectCone>,
    /// Cells implicated by at least two cones.
    pub shared: SuspectCone,
}

impl ConePartition {
    /// Splits `cones` into per-cone exclusive regions plus the shared
    /// core. The regions are pairwise disjoint and their union is the
    /// union of the input cones.
    pub fn split(cones: &[SuspectCone]) -> Self {
        let mut shared = SuspectCone::new();
        for (i, a) in cones.iter().enumerate() {
            for b in cones.iter().skip(i + 1) {
                shared.union_with(&a.intersect(b));
            }
        }
        let exclusive = cones.iter().map(|c| c.subtract(&shared)).collect();
        Self { exclusive, shared }
    }

    /// Sizes of the exclusive regions, in input-cone order.
    pub fn exclusive_sizes(&self) -> Vec<usize> {
        self.exclusive.iter().map(SuspectCone::len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::CellId;

    fn ids(xs: &[usize]) -> SuspectCone {
        xs.iter().map(|&i| CellId::new(i)).collect()
    }

    #[test]
    fn split_is_a_disjoint_cover() {
        let cones = [ids(&[0, 1, 2, 3]), ids(&[2, 3, 4]), ids(&[3, 5])];
        let p = ConePartition::split(&cones);
        assert_eq!(p.exclusive[0], ids(&[0, 1]));
        assert_eq!(p.exclusive[1], ids(&[4]));
        assert_eq!(p.exclusive[2], ids(&[5]));
        assert_eq!(p.shared, ids(&[2, 3]));
        // Disjoint…
        for (i, a) in p.exclusive.iter().enumerate() {
            assert!(!a.intersects(&p.shared));
            for b in p.exclusive.iter().skip(i + 1) {
                assert!(!a.intersects(b));
            }
        }
        // …and covering.
        let (mut union, mut regions) = (SuspectCone::new(), p.shared.clone());
        for (c, e) in cones.iter().zip(&p.exclusive) {
            union.union_with(c);
            regions.union_with(e);
        }
        assert_eq!(regions, union);
        assert_eq!(p.exclusive_sizes(), vec![2, 1, 1]);
    }

    #[test]
    fn disjoint_cones_have_empty_shared_core() {
        let p = ConePartition::split(&[ids(&[0, 1]), ids(&[2])]);
        assert!(p.shared.is_empty());
        assert_eq!(p.exclusive[0], ids(&[0, 1]));
    }

    #[test]
    fn identical_cones_are_entirely_shared() {
        let p = ConePartition::split(&[ids(&[7, 8]), ids(&[7, 8])]);
        assert!(p.exclusive.iter().all(SuspectCone::is_empty));
        assert_eq!(p.shared.len(), 2);
    }
}
