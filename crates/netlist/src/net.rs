//! Nets: the edges of the netlist graph.

use std::fmt;

use crate::id::CellId;

/// A sink: one input pin of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sink {
    /// The consuming cell.
    pub cell: CellId,
    /// The input-pin index on that cell.
    pub pin: usize,
}

impl fmt::Display for Sink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.cell, self.pin)
    }
}

/// A single net: one driver, many sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Net name; unique within the netlist.
    pub name: String,
    /// Driving cell, if connected.
    pub driver: Option<CellId>,
    /// Consuming pins.
    pub sinks: Vec<Sink>,
}

impl Net {
    /// Creates a named, unconnected net.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            driver: None,
            sinks: Vec::new(),
        }
    }

    /// Number of sinks.
    pub fn fanout(&self) -> usize {
        self.sinks.len()
    }
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (fanout {})", self.name, self.fanout())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_net_starts_unconnected() {
        let n = Net::new("w");
        assert_eq!(n.fanout(), 0);
        assert!(n.driver.is_none());
    }

    #[test]
    fn fanout_counts_sinks() {
        let mut n = Net::new("w");
        n.sinks.push(Sink {
            cell: CellId::new(0),
            pin: 0,
        });
        n.sinks.push(Sink {
            cell: CellId::new(1),
            pin: 2,
        });
        assert_eq!(n.fanout(), 2);
    }

    #[test]
    fn sink_display() {
        let s = Sink {
            cell: CellId::new(4),
            pin: 1,
        };
        assert_eq!(s.to_string(), "c4.1");
    }
}
