//! Index newtypes used throughout the netlist graph.
//!
//! All identifiers are plain dense indices into the owning
//! [`Netlist`](crate::Netlist)'s internal arenas. The newtypes exist to
//! keep cell and net indices from being confused with one another
//! (C-NEWTYPE).

use std::fmt;

/// Identifier of a cell within a [`Netlist`](crate::Netlist).
///
/// ```
/// use netlist::CellId;
/// let id = CellId::new(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(id.to_string(), "c3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(u32);

/// Identifier of a net within a [`Netlist`](crate::Netlist).
///
/// ```
/// use netlist::NetId;
/// assert_eq!(NetId::new(7).to_string(), "n7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(u32);

macro_rules! impl_id {
    ($ty:ident, $prefix:literal) => {
        impl $ty {
            /// Creates an identifier from a raw index.
            pub fn new(index: usize) -> Self {
                Self(index as u32)
            }

            /// Returns the raw index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$ty> for usize {
            fn from(id: $ty) -> usize {
                id.index()
            }
        }
    };
}

impl_id!(CellId, "c");
impl_id!(NetId, "n");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        assert_eq!(CellId::new(42).index(), 42);
        assert_eq!(NetId::new(0).index(), 0);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(CellId::new(1).to_string(), "c1");
        assert_eq!(NetId::new(2).to_string(), "n2");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(CellId::new(1) < CellId::new(2));
        assert!(NetId::new(9) > NetId::new(3));
    }

    #[test]
    fn usize_conversion() {
        let id: usize = CellId::new(5).into();
        assert_eq!(id, 5);
    }
}
