//! A small fixed hasher for the per-move lookups of placement and
//! routing.
//!
//! The standard library's default hasher (SipHash) is randomly keyed
//! to resist hash flooding, which these maps never meet: their keys are
//! BEL locations, cell ids and routing nodes the tools choose
//! themselves. [`FxHasher`] is the FxHash mixing step instead: for each
//! word of the key, rotate the state, xor the word in and multiply by a
//! fixed odd constant. A BEL location hashes in four such steps.
//!
//! The maps that use it are only ever probed (`get`, `insert`,
//! `remove`, `len`), never iterated, so no output depends on the order
//! a hasher gives them; keep it that way.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the FxHash mixing step (an odd 64-bit constant).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// The FxHash hasher: one rotate, xor and multiply per key word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Byte strings mix in a byte at a time; the map keys above hash
    /// through the integer writes instead.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; every hasher starts from the same state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`]. Create it with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`]. Create it with `default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bel::{BelLoc, ClbSlot};
    use std::hash::BuildHasher;

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        let build = FxBuildHasher::default();
        let a = BelLoc::clb(3, 4, ClbSlot::LutF);
        assert_eq!(build.hash_one(a), build.hash_one(a));
        assert_ne!(
            build.hash_one(a),
            build.hash_one(BelLoc::clb(4, 3, ClbSlot::LutF))
        );
        assert_ne!(
            build.hash_one(a),
            build.hash_one(BelLoc::clb(3, 4, ClbSlot::LutG))
        );
    }

    #[test]
    fn byte_strings_hash_every_byte() {
        let build = FxBuildHasher::default();
        assert_ne!(build.hash_one("abcdefgh"), build.hash_one("abcdefgi"));
        assert_ne!(build.hash_one([1u8, 2, 3]), build.hash_one([1u8, 2, 4]));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<BelLoc, u32> = FxHashMap::default();
        for x in 0..20u16 {
            for y in 0..20u16 {
                m.insert(BelLoc::clb(x, y, ClbSlot::FfA), u32::from(x * 100 + y));
            }
        }
        assert_eq!(m.len(), 400);
        assert_eq!(m.get(&BelLoc::clb(7, 9, ClbSlot::FfA)), Some(&709));
        assert_eq!(m.get(&BelLoc::clb(7, 9, ClbSlot::FfB)), None);
    }
}
