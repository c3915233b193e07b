//! Truth-table logic functions of up to six inputs.
//!
//! A [`TruthTable`] stores the complete function of a small
//! combinational node as a 64-bit mask: bit `i` holds the output value
//! for the input assignment whose binary encoding is `i` (input 0 is
//! the least-significant bit of the row index). Six inputs is enough
//! for every pre-mapping node this project produces (DES S-boxes are
//! 6-input); the technology mapper decomposes anything wider than the
//! 4-input XC4000 LUTs.

use std::fmt;

use crate::error::NetlistError;

/// Maximum number of inputs representable by [`TruthTable`].
pub const MAX_ARITY: usize = 6;

/// A complete truth table over `arity` inputs (`arity <= 6`).
///
/// ```
/// use netlist::TruthTable;
/// let xor2 = TruthTable::xor(2);
/// assert!(xor2.eval(&[true, false]));
/// assert!(!xor2.eval(&[true, true]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TruthTable {
    bits: u64,
    arity: u8,
}

impl TruthTable {
    /// Creates a truth table from a raw bit mask.
    ///
    /// Bits above row `2^arity - 1` are cleared so equality works.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if `arity > 6`.
    pub fn from_bits(arity: usize, bits: u64) -> Result<Self, NetlistError> {
        if arity > MAX_ARITY {
            return Err(NetlistError::BadArity {
                arity,
                max: MAX_ARITY,
            });
        }
        Ok(Self {
            bits: bits & Self::row_mask(arity),
            arity: arity as u8,
        })
    }

    /// Creates a truth table by evaluating `f` on every input row.
    ///
    /// `f` receives the row index; input `k` of the row is bit `k`.
    ///
    /// # Panics
    ///
    /// Panics if `arity > 6`.
    pub fn from_fn(arity: usize, f: impl Fn(u64) -> bool) -> Self {
        assert!(arity <= MAX_ARITY, "arity {arity} exceeds {MAX_ARITY}");
        let mut bits = 0u64;
        for row in 0..(1u64 << arity) {
            if f(row) {
                bits |= 1 << row;
            }
        }
        Self {
            bits,
            arity: arity as u8,
        }
    }

    /// The constant-0 function of the given arity.
    pub fn constant0(arity: usize) -> Self {
        Self::from_fn(arity, |_| false)
    }

    /// The constant-1 function of the given arity.
    pub fn constant1(arity: usize) -> Self {
        Self::from_fn(arity, |_| true)
    }

    /// The identity function on input `var` of `arity` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `var >= arity` or `arity > 6`.
    pub fn var(arity: usize, var: usize) -> Self {
        assert!(var < arity, "variable {var} out of range for arity {arity}");
        Self::from_fn(arity, |row| row >> var & 1 == 1)
    }

    /// The `arity`-input AND function.
    pub fn and(arity: usize) -> Self {
        Self::from_fn(arity, |row| row == (1 << arity) - 1)
    }

    /// The `arity`-input OR function.
    pub fn or(arity: usize) -> Self {
        Self::from_fn(arity, |row| row != 0)
    }

    /// The `arity`-input XOR (odd-parity) function.
    pub fn xor(arity: usize) -> Self {
        Self::from_fn(arity, |row| row.count_ones() % 2 == 1)
    }

    /// The `arity`-input NAND function.
    pub fn nand(arity: usize) -> Self {
        Self::and(arity).complement()
    }

    /// The `arity`-input NOR function.
    pub fn nor(arity: usize) -> Self {
        Self::or(arity).complement()
    }

    /// The 1-input inverter.
    pub fn not() -> Self {
        Self::from_fn(1, |row| row == 0)
    }

    /// The 1-input buffer.
    pub fn buf() -> Self {
        Self::var(1, 0)
    }

    /// 2:1 multiplexer: inputs `[a, b, sel]`, output `sel ? b : a`.
    pub fn mux2() -> Self {
        Self::from_fn(3, |row| {
            let (a, b, sel) = (row & 1 == 1, row >> 1 & 1 == 1, row >> 2 & 1 == 1);
            if sel {
                b
            } else {
                a
            }
        })
    }

    /// Majority-of-three function.
    pub fn maj3() -> Self {
        Self::from_fn(3, |row| row.count_ones() >= 2)
    }

    /// Number of inputs.
    pub fn arity(&self) -> usize {
        self.arity as usize
    }

    /// Raw output mask (rows above `2^arity` are zero).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Evaluates the function on the given input values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    pub fn eval(&self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.arity(), "input count mismatch");
        let mut row = 0u64;
        for (k, &v) in inputs.iter().enumerate() {
            if v {
                row |= 1 << k;
            }
        }
        self.eval_row(row)
    }

    /// Evaluates the function on a packed input row.
    pub fn eval_row(&self, row: u64) -> bool {
        self.bits >> (row & (Self::row_count(self.arity()) - 1)) & 1 == 1
    }

    /// Returns the complement of this function.
    #[must_use]
    pub fn complement(&self) -> Self {
        Self {
            bits: !self.bits & Self::row_mask(self.arity()),
            arity: self.arity,
        }
    }

    /// True if the function ignores all of its inputs.
    pub fn is_constant(&self) -> bool {
        self.bits == 0 || self.bits == Self::row_mask(self.arity())
    }

    /// True if the function depends on input `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        if var >= self.arity() {
            return false;
        }
        self.cofactor(var, false) != self.cofactor(var, true)
    }

    /// Number of inputs the function actually depends on.
    pub fn support_size(&self) -> usize {
        (0..self.arity()).filter(|&v| self.depends_on(v)).count()
    }

    /// The Shannon cofactor with input `var` fixed to `value`.
    ///
    /// The result has arity `self.arity() - 1`; remaining inputs keep
    /// their relative order.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.arity()` or the arity is zero.
    #[must_use]
    pub fn cofactor(&self, var: usize, value: bool) -> Self {
        let arity = self.arity();
        assert!(var < arity, "variable {var} out of range for arity {arity}");
        Self::from_fn(arity - 1, |row| {
            let low = row & ((1 << var) - 1);
            let high = (row >> var) << (var + 1);
            let fixed = if value { 1 << var } else { 0 };
            self.eval_row(low | high | fixed)
        })
    }

    /// Flips the output for one input row, returning the mutated table.
    ///
    /// This is the canonical "design error" used by the fault-injection
    /// machinery: a single-minterm functional bug.
    ///
    /// # Panics
    ///
    /// Panics if `row >= 2^arity`.
    #[must_use]
    pub fn with_flipped_row(&self, row: u64) -> Self {
        assert!(row < Self::row_count(self.arity()), "row out of range");
        Self {
            bits: self.bits ^ (1 << row),
            arity: self.arity,
        }
    }

    /// Swaps two input variables, returning the permuted table.
    ///
    /// # Panics
    ///
    /// Panics if either variable index is out of range.
    #[must_use]
    pub fn with_swapped_vars(&self, a: usize, b: usize) -> Self {
        let arity = self.arity();
        assert!(a < arity && b < arity, "variable out of range");
        Self::from_fn(arity, |row| {
            let bit_a = row >> a & 1;
            let bit_b = row >> b & 1;
            let swapped = (row & !((1 << a) | (1 << b))) | (bit_a << b) | (bit_b << a);
            self.eval_row(swapped)
        })
    }

    /// Number of rows (`2^arity`).
    fn row_count(arity: usize) -> u64 {
        1u64 << arity
    }

    /// Mask covering all valid rows.
    fn row_mask(arity: usize) -> u64 {
        if arity >= 6 {
            u64::MAX
        } else {
            (1u64 << (1 << arity)) - 1
        }
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lut{}:{:0width$b}",
            self.arity,
            self.bits,
            width = 1 << self.arity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_gates() {
        assert!(TruthTable::and(2).eval(&[true, true]));
        assert!(!TruthTable::and(2).eval(&[true, false]));
        assert!(TruthTable::or(3).eval(&[false, true, false]));
        assert!(!TruthTable::nor(2).eval(&[true, false]));
        assert!(TruthTable::nand(2).eval(&[true, false]));
        assert!(TruthTable::not().eval(&[false]));
        assert!(TruthTable::buf().eval(&[true]));
    }

    #[test]
    fn mux_selects() {
        let m = TruthTable::mux2();
        assert!(!m.eval(&[false, true, false])); // sel=0 -> a
        assert!(m.eval(&[false, true, true])); // sel=1 -> b
    }

    #[test]
    fn var_projects() {
        let v1 = TruthTable::var(3, 1);
        assert!(v1.eval(&[false, true, false]));
        assert!(!v1.eval(&[true, false, true]));
    }

    #[test]
    fn complement_involution() {
        let t = TruthTable::maj3();
        assert_eq!(t.complement().complement(), t);
    }

    #[test]
    fn constants_have_empty_support() {
        assert!(TruthTable::constant0(4).is_constant());
        assert!(TruthTable::constant1(4).is_constant());
        assert_eq!(TruthTable::constant1(4).support_size(), 0);
    }

    #[test]
    fn cofactor_of_and() {
        let and2 = TruthTable::and(2);
        assert_eq!(and2.cofactor(0, false), TruthTable::constant0(1));
        assert_eq!(and2.cofactor(0, true), TruthTable::var(1, 0));
    }

    #[test]
    fn depends_on_detects_support() {
        let v0 = TruthTable::var(4, 0);
        assert!(v0.depends_on(0));
        assert!(!v0.depends_on(1));
        assert_eq!(v0.support_size(), 1);
    }

    #[test]
    fn flipped_row_changes_exactly_one_entry() {
        let t = TruthTable::xor(3);
        let t2 = t.with_flipped_row(5);
        let diff = t.bits() ^ t2.bits();
        assert_eq!(diff, 1 << 5);
    }

    #[test]
    fn swap_vars_on_asymmetric_function() {
        // f = a AND NOT b
        let f = TruthTable::from_fn(2, |row| row & 1 == 1 && row >> 1 & 1 == 0);
        let g = f.with_swapped_vars(0, 1);
        assert!(g.eval(&[false, true]));
        assert!(!g.eval(&[true, false]));
    }

    #[test]
    fn arity_bounds_enforced() {
        assert!(TruthTable::from_bits(7, 0).is_err());
    }

    #[test]
    fn six_input_table_uses_full_mask() {
        let t = TruthTable::constant1(6);
        assert_eq!(t.bits(), u64::MAX);
    }

    #[test]
    fn display_shows_arity() {
        assert!(TruthTable::and(2).to_string().starts_with("lut2:"));
    }
}
