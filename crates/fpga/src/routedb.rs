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
/// An optional undo log ([`Self::open_log`]) keeps each net's tree
/// from before its first change, so a failed edit can be rolled back
/// at the cost of what it changed rather than a copy of every route.
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
    log: Option<UndoLog>,
}

/// Two routings are equal when they route the same nets on the same
/// trees and occupy the same nodes; an open undo log is bookkeeping,
/// not routing, and is not compared.
impl PartialEq for Routing {
    fn eq(&self, other: &Self) -> bool {
        self.occupancy == other.occupancy && self.iter().eq(other.iter())
    }
}

impl Eq for Routing {}

/// The trees an open log restores: every net changed since the log
/// opened (or last rolled back), with the tree it had then.
#[derive(Debug, Clone, Default)]
struct UndoLog {
    /// `routes.len()` when the log opened.
    len: usize,
    /// One entry per changed net, `None` for a net that had no route.
    saved: Vec<(NetId, Option<RouteTree>)>,
    /// Bit `i` set: net `i` has its entry in `saved`.
    logged: Vec<u64>,
}

impl UndoLog {
    /// Keeps `old` as `net`'s tree to restore, unless the net already
    /// has an entry (then `old` is an intermediate tree and is dropped).
    fn record(&mut self, net: NetId, old: Option<RouteTree>) {
        let (word, bit) = (net.index() / 64, 1u64 << (net.index() % 64));
        if word >= self.logged.len() {
            self.logged.resize(word + 1, 0);
        }
        if self.logged[word] & bit == 0 {
            self.logged[word] |= bit;
            self.saved.push((net, old));
        }
    }
}

impl Routing {
    /// Creates an empty routing over a graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            routes: Vec::new(),
            occupancy: vec![0; num_nodes],
            log: None,
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
    /// Under an open undo log, the net's first change hands its
    /// previous tree (or its lack of one) to the log.
    pub fn set_route(&mut self, net: NetId, tree: RouteTree) {
        let old = self.take(net);
        self.keep_for_undo(net, old);
        self.install(net, tree);
    }

    /// Removes the route of a net, if any, releasing its nodes. Under
    /// an open undo log, the net's first change hands the removed tree
    /// to the log; otherwise the tree is dropped.
    pub fn clear_route(&mut self, net: NetId) {
        if let Some(old) = self.take(net) {
            self.keep_for_undo(net, Some(old));
        }
    }

    /// Opens an undo log on the routing as it is now: from here on,
    /// the first change to each net keeps the tree it had, so
    /// [`Self::rollback`] can restore this state. An open log holds at
    /// most one tree per net, however often the net changes.
    ///
    /// # Panics
    ///
    /// If a log is already open: its changes could no longer be rolled
    /// back.
    pub fn open_log(&mut self) {
        assert!(self.log.is_none(), "an undo log is already open");
        self.log = Some(UndoLog {
            len: self.routes.len(),
            ..UndoLog::default()
        });
    }

    /// Puts back every net changed since the log opened (or last
    /// rolled back) with its occupancy, and keeps the log open from
    /// the restored state. Its cost follows the changed nets, not the
    /// design.
    ///
    /// # Panics
    ///
    /// If no undo log is open.
    pub fn rollback(&mut self) {
        let log = self.log.as_mut().expect("rollback needs an open undo log");
        let saved = std::mem::take(&mut log.saved);
        log.logged.clear();
        let len = log.len;
        for (net, old) in saved {
            self.take(net);
            if let Some(tree) = old {
                self.install(net, tree);
            }
        }
        self.routes.truncate(len);
    }

    /// Closes the undo log, keeping every change made under it and
    /// dropping the trees it held.
    pub fn close_log(&mut self) {
        self.log = None;
    }

    /// Takes a net's tree out, releasing its nodes; the log is not told.
    fn take(&mut self, net: NetId) -> Option<RouteTree> {
        let tree = self.routes.get_mut(net.index())?.take()?;
        for node in tree.distinct_nodes() {
            let o = &mut self.occupancy[node.index()];
            *o = o.saturating_sub(1);
        }
        Some(tree)
    }

    /// Puts `tree` on `net`, which has no route, taking its nodes.
    fn install(&mut self, net: NetId, tree: RouteTree) {
        if net.index() >= self.routes.len() {
            self.routes.resize(net.index() + 1, None);
        }
        for node in tree.distinct_nodes() {
            self.occupancy[node.index()] += 1;
        }
        self.routes[net.index()] = Some(tree);
    }

    /// Hands `net`'s tree from before a change to the open log, if any.
    fn keep_for_undo(&mut self, net: NetId, old: Option<RouteTree>) {
        if let Some(log) = &mut self.log {
            log.record(net, old);
        }
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

    fn path(raw: &[u32]) -> RouteTree {
        RouteTree {
            paths: vec![ids(raw)],
        }
    }

    /// Nets 0 and 2 routed, net 1 not, over 12 nodes.
    fn three_nets() -> Routing {
        let mut r = Routing::new(12);
        r.set_route(NetId::new(0), path(&[0, 1, 2]));
        r.set_route(NetId::new(2), path(&[3, 4]));
        r
    }

    /// Compares every routed net, every node's occupancy and the
    /// routed-net count, then the whole value.
    fn assert_same(got: &Routing, want: &Routing) {
        let routes = |r: &Routing| -> Vec<(NetId, RouteTree)> {
            r.iter().map(|(n, t)| (n, t.clone())).collect()
        };
        assert_eq!(routes(got), routes(want));
        for i in 0..12 {
            let node = NodeId::default_for_test(i);
            assert_eq!(got.occupancy(node), want.occupancy(node), "node {i}");
        }
        assert_eq!(got.num_routed(), want.num_routed());
        assert_eq!(got, want);
    }

    /// Sets, replaces, clears and grows past the routed length.
    fn edit(r: &mut Routing) {
        r.set_route(NetId::new(1), path(&[5, 6]));
        r.set_route(NetId::new(0), path(&[0, 7, 2]));
        r.clear_route(NetId::new(2));
        r.set_route(NetId::new(5), path(&[3, 8, 9]));
    }

    #[test]
    fn rollback_restores_every_route_and_its_occupancy() {
        let before = three_nets();
        let mut r = before.clone();
        r.open_log();
        edit(&mut r);
        assert_ne!(r, before);
        r.rollback();
        assert_same(&r, &before);
        // The log stays open from the restored state: more changes
        // roll back to it again.
        r.set_route(NetId::new(2), path(&[10, 11]));
        r.clear_route(NetId::new(0));
        r.set_route(NetId::new(7), path(&[1]));
        r.rollback();
        assert_same(&r, &before);
        r.rollback();
        assert_same(&r, &before);
    }

    #[test]
    fn closing_the_log_keeps_its_changes() {
        let mut want = three_nets();
        edit(&mut want);
        let mut r = three_nets();
        r.open_log();
        edit(&mut r);
        r.close_log();
        assert_same(&r, &want);
        // A log opened afterwards rolls back to the edited state.
        r.open_log();
        r.clear_route(NetId::new(5));
        r.rollback();
        assert_same(&r, &want);
    }

    #[test]
    fn a_net_changed_many_times_is_logged_once() {
        let before = three_nets();
        let mut r = before.clone();
        r.open_log();
        for k in 0..10 {
            r.set_route(NetId::new(0), path(&[k, k + 1]));
            r.clear_route(NetId::new(0));
        }
        r.set_route(NetId::new(0), path(&[9, 10, 11]));
        r.clear_route(NetId::new(1)); // no route: nothing changes
        assert_eq!(r.log.as_ref().unwrap().saved.len(), 1);
        r.rollback();
        assert_same(&r, &before);
    }
}
