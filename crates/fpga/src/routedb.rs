//! Routing database: per-net route trees over RRG nodes.

use std::collections::BTreeSet;

use netlist::NetId;

use crate::rrg::{NodeId, RoutingGraph};

/// The physical route of one net.
///
/// Stored as one node path per sink, each starting at the net's source
/// pin and ending at that sink's input pin. Paths of the same net may
/// share prefixes (the route is a tree); shared nodes count once for
/// occupancy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTree {
    /// One source→sink node path per sink, in the net's sink order.
    pub paths: Vec<Vec<NodeId>>,
}

impl RouteTree {
    /// All distinct nodes used by the net.
    pub fn nodes(&self) -> BTreeSet<NodeId> {
        self.paths.iter().flatten().copied().collect()
    }

    /// The distinct nodes, in ascending order: what [`Self::nodes`]
    /// holds, gathered without building a set (installing and ripping
    /// a route walk them on every router iteration).
    fn distinct_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.paths.iter().flatten().copied().collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Total wire length (distinct nodes, a proxy for segments used).
    pub fn wirelength(&self) -> usize {
        self.nodes().len()
    }

    /// Delay from source to sink `k`: the sum of intrinsic node delays
    /// along that sink's path.
    ///
    /// Returns `None` if sink `k` has no path.
    pub fn sink_delay(&self, rrg: &RoutingGraph, k: usize) -> Option<f64> {
        let path = self.paths.get(k)?;
        if path.is_empty() {
            return None;
        }
        Some(path.iter().map(|&n| rrg.intrinsic_delay(n)).sum())
    }
}

/// All routes of a design, plus per-node occupancy counts.
///
/// ```
/// use fpga::{Device, RoutingGraph, Routing};
/// let dev = Device::new(3, 3, 4, 2)?;
/// let rrg = RoutingGraph::new(&dev);
/// let routing = Routing::new(rrg.num_nodes());
/// assert_eq!(routing.num_routed(), 0);
/// # Ok::<(), fpga::DeviceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Routing {
    routes: Vec<Option<RouteTree>>,
    occupancy: Vec<u16>,
}

impl Routing {
    /// Creates an empty routing over a graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            routes: Vec::new(),
            occupancy: vec![0; num_nodes],
        }
    }

    /// Number of nets currently routed.
    pub fn num_routed(&self) -> usize {
        self.routes.iter().filter(|r| r.is_some()).count()
    }

    /// The route of a net, if present.
    pub fn route(&self, net: NetId) -> Option<&RouteTree> {
        self.routes.get(net.index()).and_then(Option::as_ref)
    }

    /// Occupancy count of a node.
    #[inline]
    pub fn occupancy(&self, node: NodeId) -> u16 {
        self.occupancy.get(node.index()).copied().unwrap_or(0)
    }

    /// Installs (or replaces) the route of a net, updating occupancy.
    pub fn set_route(&mut self, net: NetId, tree: RouteTree) {
        self.clear_route(net);
        if net.index() >= self.routes.len() {
            self.routes.resize(net.index() + 1, None);
        }
        for node in tree.distinct_nodes() {
            self.occupancy[node.index()] += 1;
        }
        self.routes[net.index()] = Some(tree);
    }

    /// Removes the route of a net, releasing its nodes.
    ///
    /// Returns the removed tree, if any.
    pub fn clear_route(&mut self, net: NetId) -> Option<RouteTree> {
        let tree = self.routes.get_mut(net.index())?.take()?;
        for node in tree.distinct_nodes() {
            let o = &mut self.occupancy[node.index()];
            *o = o.saturating_sub(1);
        }
        Some(tree)
    }

    /// Nodes used by more than one net (routing conflicts).
    pub fn overused_nodes(&self) -> Vec<NodeId> {
        self.occupancy
            .iter()
            .enumerate()
            .filter(|(_, &o)| o > 1)
            .map(|(i, _)| NodeId::default_for_test(i as u32))
            .collect()
    }

    /// True if no node is used by more than one net.
    pub fn is_feasible(&self) -> bool {
        self.occupancy.iter().all(|&o| o <= 1)
    }

    /// Iterates over routed `(net, tree)` pairs in net order.
    pub fn iter(&self) -> impl Iterator<Item = (NetId, &RouteTree)> {
        self.routes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|t| (NetId::new(i), t)))
    }

    /// Total wirelength across all nets.
    pub fn total_wirelength(&self) -> usize {
        self.iter().map(|(_, t)| t.wirelength()).sum()
    }

    /// Channel-utilization summary over the wire nodes of `rrg`.
    pub fn congestion(&self, rrg: &crate::rrg::RoutingGraph) -> CongestionSummary {
        let mut s = CongestionSummary::default();
        for i in 0..rrg.num_nodes() {
            let id = NodeId::default_for_test(i as u32);
            if !matches!(
                rrg.node(id),
                crate::rrg::NodeKind::ChanX { .. } | crate::rrg::NodeKind::ChanY { .. }
            ) {
                continue;
            }
            s.wires += 1;
            let o = self.occupancy(id);
            if o > 0 {
                s.used += 1;
            }
            if o > 1 {
                s.overused += 1;
            }
        }
        s
    }
}

/// Wire-utilization summary (see [`Routing::congestion`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CongestionSummary {
    /// Total channel wire segments on the device.
    pub wires: usize,
    /// Segments carrying a signal.
    pub used: usize,
    /// Segments carrying more than one signal (conflicts).
    pub overused: usize,
}

impl CongestionSummary {
    /// Fraction of wire segments in use.
    pub fn utilization(&self) -> f64 {
        if self.wires == 0 {
            return 0.0;
        }
        self.used as f64 / self.wires as f64
    }
}

impl std::fmt::Display for CongestionSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} wires used ({:.1}%), {} overused",
            self.used,
            self.wires,
            100.0 * self.utilization(),
            self.overused
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().map(|&r| NodeId::default_for_test(r)).collect()
    }

    #[test]
    fn set_and_clear_updates_occupancy() {
        let mut r = Routing::new(10);
        let tree = RouteTree {
            paths: vec![ids(&[0, 1, 2]), ids(&[0, 1, 3])],
        };
        r.set_route(NetId::new(0), tree);
        assert_eq!(r.occupancy(NodeId::default_for_test(1)), 1); // shared prefix counts once
        assert_eq!(r.num_routed(), 1);
        r.clear_route(NetId::new(0));
        assert_eq!(r.occupancy(NodeId::default_for_test(1)), 0);
        assert!(r.is_feasible());
    }

    #[test]
    fn distinct_nodes_are_the_node_set_in_order() {
        let tree = RouteTree {
            paths: vec![ids(&[7, 2, 9]), ids(&[7, 2, 4]), ids(&[7, 1])],
        };
        let set: Vec<NodeId> = tree.nodes().into_iter().collect();
        assert_eq!(tree.distinct_nodes(), set);
        assert_eq!(RouteTree::default().distinct_nodes(), Vec::new());
    }

    #[test]
    fn conflicts_detected() {
        let mut r = Routing::new(10);
        r.set_route(
            NetId::new(0),
            RouteTree {
                paths: vec![ids(&[4, 5])],
            },
        );
        r.set_route(
            NetId::new(1),
            RouteTree {
                paths: vec![ids(&[5, 6])],
            },
        );
        assert!(!r.is_feasible());
        assert_eq!(r.overused_nodes(), ids(&[5]));
    }

    #[test]
    fn replace_route_releases_old_nodes() {
        let mut r = Routing::new(10);
        r.set_route(
            NetId::new(0),
            RouteTree {
                paths: vec![ids(&[1, 2])],
            },
        );
        r.set_route(
            NetId::new(0),
            RouteTree {
                paths: vec![ids(&[3, 4])],
            },
        );
        assert_eq!(r.occupancy(NodeId::default_for_test(1)), 0);
        assert_eq!(r.occupancy(NodeId::default_for_test(3)), 1);
        assert_eq!(r.num_routed(), 1);
    }

    #[test]
    fn sink_delay_sums_path() {
        let dev = Device::new(3, 3, 2, 2).unwrap();
        let rrg = RoutingGraph::new(&dev);
        let tree = RouteTree {
            paths: vec![vec![
                rrg.opin(crate::Coord::new(0, 0), crate::ClbSlot::LutF),
                rrg.chanx(0, 1, 0),
                rrg.ipin(crate::Coord::new(1, 0), 0),
            ]],
        };
        let d = tree.sink_delay(&rrg, 0).unwrap();
        assert!((d - (0.25 + 0.55 + 0.25)).abs() < 1e-9);
        assert_eq!(tree.sink_delay(&rrg, 1), None);
        assert_eq!(tree.wirelength(), 3);
    }

    #[test]
    fn congestion_summary_counts_wires() {
        let dev = Device::new(3, 3, 2, 2).unwrap();
        let rrg = RoutingGraph::new(&dev);
        let mut r = Routing::new(rrg.num_nodes());
        let empty = r.congestion(&rrg);
        assert_eq!(empty.used, 0);
        assert!(empty.wires > 0);
        assert_eq!(empty.utilization(), 0.0);
        r.set_route(
            NetId::new(0),
            RouteTree {
                paths: vec![vec![rrg.chanx(0, 1, 0), rrg.chanx(1, 1, 0)]],
            },
        );
        let c = r.congestion(&rrg);
        assert_eq!(c.used, 2);
        assert_eq!(c.overused, 0);
        assert!(c.to_string().contains("2/"));
    }

    #[test]
    fn total_wirelength_accumulates() {
        let mut r = Routing::new(10);
        r.set_route(
            NetId::new(0),
            RouteTree {
                paths: vec![ids(&[0, 1])],
            },
        );
        r.set_route(
            NetId::new(2),
            RouteTree {
                paths: vec![ids(&[2, 3, 4])],
            },
        );
        assert_eq!(r.total_wirelength(), 5);
        assert_eq!(r.iter().count(), 2);
    }
}
