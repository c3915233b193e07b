//! The PathFinder negotiated-congestion router.

use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;

use fpga::{NodeId, RouteTree, Routing, RoutingGraph};

use crate::request::ConnectionRequest;

/// Router parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOptions {
    /// Maximum negotiation iterations before giving up.
    pub max_iterations: usize,
    /// Initial present-congestion factor.
    pub pres_fac_init: f64,
    /// Present-congestion growth per iteration.
    pub pres_fac_mult: f64,
    /// Historical congestion weight.
    pub acc_fac: f64,
    /// A* aggressiveness (1.0 = admissible, >1 = faster, greedier).
    pub astar_weight: f64,
    /// Present-congestion ceiling: beyond this the cost landscape
    /// stops changing, so higher values only slow the search down.
    pub pres_fac_max: f64,
    /// Give up early if the overuse count has not improved for this
    /// many consecutive iterations (congestion is structural).
    pub stall_limit: usize,
    /// Optional per-node availability mask (tile confinement). `None`
    /// allows the whole device.
    pub allowed: Option<Vec<bool>>,
}

impl Default for RouteOptions {
    fn default() -> Self {
        Self {
            max_iterations: 40,
            pres_fac_init: 0.6,
            pres_fac_mult: 1.7,
            acc_fac: 1.0,
            astar_weight: 1.15,
            pres_fac_max: 5_000.0,
            stall_limit: 6,
            allowed: None,
        }
    }
}

/// Routing statistics — the effort half of Figure 5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Negotiation iterations performed.
    pub iterations: usize,
    /// Total wavefront node expansions (the effort metric).
    pub expansions: u64,
    /// Nets routed.
    pub nets: usize,
}

/// Routing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// A sink was unreachable from its source under the mask/locks.
    Unroutable {
        /// The offending net.
        net: netlist::NetId,
    },
    /// Congestion negotiation did not converge.
    CongestionUnresolved {
        /// Iterations performed.
        iterations: usize,
        /// Overused nodes remaining.
        overused: usize,
    },
    /// Request construction failed (netlist inconsistency).
    BadRequest(String),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unroutable { net } => write!(f, "net {net} has an unreachable sink"),
            Self::CongestionUnresolved {
                iterations,
                overused,
            } => {
                write!(f, "congestion unresolved after {iterations} iterations ({overused} nodes overused)")
            }
            Self::BadRequest(msg) => write!(f, "bad routing request: {msg}"),
        }
    }
}

impl Error for RouteError {}

/// Routes all `requests` into `routing`.
///
/// On entry, `routing` holds (a) the untouched routes of every net
/// *not* in `requests` — these are locked: their nodes are
/// hard-unavailable to other nets — and (b) optionally a *base
/// fragment* for request nets (the preserved outside-the-tile part of
/// an interface-crossing net). Base fragments stay fixed; the router
/// connects each request's source and sinks, growing from the base.
///
/// # Errors
///
/// [`RouteError::Unroutable`] if some sink has no path at all,
/// [`RouteError::CongestionUnresolved`] if negotiation fails.
pub fn route(
    rrg: &RoutingGraph,
    requests: &[ConnectionRequest],
    routing: &mut Routing,
    options: &RouteOptions,
) -> Result<RouteStats, RouteError> {
    let n = rrg.num_nodes();
    if let Some(mask) = &options.allowed {
        assert_eq!(mask.len(), n, "allowed mask must cover the RRG");
    }
    // One request per net: a second request would rip up the first's
    // routes on every iteration (callers must merge their sinks).
    {
        let mut nets: Vec<netlist::NetId> = requests.iter().map(|r| r.net).collect();
        nets.sort_unstable();
        let before = nets.len();
        nets.dedup();
        assert_eq!(nets.len(), before, "duplicate net in routing requests");
    }

    // Locked occupancy snapshot: whatever is installed at entry that a
    // request net does not own is immovable.
    let mut locked_occ = vec![0u16; n];
    for i in 0..n {
        locked_occ[i] = routing.occupancy(NodeId::default_for_test(i as u32));
    }
    // Request nets' bases stay in `locked_occ` (they are locked for
    // *other* nets); a per-net `own_seed` overlay unlocks each net's
    // own base while that net routes.
    let mut bases: Vec<RouteTree> = Vec::with_capacity(requests.len());
    for req in requests {
        bases.push(routing.route(req.net).cloned().unwrap_or_default());
    }
    // Base fragments split into the *source-connected* component
    // (usable as zero-cost seeds) and disconnected fragments (the
    // outside stubs of severed interface crossings): those may only be
    // entered at their head node as an explicit target — seeding them
    // would fake connectivity across the unrouted gap.
    struct BaseSplit {
        seed_nodes: Vec<NodeId>,
        /// (head node, full fragment nodes) per disconnected fragment.
        fragments: Vec<(NodeId, Vec<NodeId>)>,
    }
    let mut splits: Vec<BaseSplit> = Vec::with_capacity(requests.len());
    for (req, base) in requests.iter().zip(&bases) {
        let paths = &base.paths;
        // Union-find over paths sharing any node; the source joins the
        // component of any path containing it.
        let mut comp: Vec<usize> = (0..paths.len()).collect();
        fn find(comp: &mut Vec<usize>, i: usize) -> usize {
            if comp[i] != i {
                let r = find(comp, comp[i]);
                comp[i] = r;
            }
            comp[i]
        }
        for i in 0..paths.len() {
            let set_i: std::collections::BTreeSet<NodeId> = paths[i].iter().copied().collect();
            for j in (i + 1)..paths.len() {
                if paths[j].iter().any(|nd| set_i.contains(nd)) {
                    let (ri, rj) = (find(&mut comp, i), find(&mut comp, j));
                    comp[ri] = rj;
                }
            }
        }
        let source_comp: Option<usize> = (0..paths.len())
            .find(|&i| paths[i].contains(&req.source))
            .map(|i| find(&mut comp, i));
        let mut seed_nodes = vec![req.source];
        let mut fragments: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for i in 0..paths.len() {
            let root = find(&mut comp, i);
            if Some(root) == source_comp {
                seed_nodes.extend(paths[i].iter().copied());
            } else {
                fragments.push((paths[i][0], paths[i].clone()));
            }
        }
        seed_nodes.sort_unstable();
        seed_nodes.dedup();
        splits.push(BaseSplit {
            seed_nodes,
            fragments,
        });
    }
    // Per-net overlays for the net currently being routed:
    // `own_frag[i]` marks its disconnected-fragment nodes (blocked
    // unless targeted), `own_seed[i]` its source-connected base nodes
    // (exempt from the locked check).
    let mut own_frag = vec![false; n];
    let mut own_seed = vec![false; n];

    let mut stats = RouteStats {
        nets: requests.len(),
        ..Default::default()
    };
    let mut hist = vec![0.0f32; n];
    let mut pres = options.pres_fac_init;
    let mut astar = AStar::new(n);
    let mut best_overuse = usize::MAX;
    let mut stalled = 0usize;

    for iteration in 1..=options.max_iterations {
        stats.iterations = iteration;
        for ((req, base), split) in requests.iter().zip(&bases).zip(&splits) {
            routing.clear_route(req.net);
            // Reinstall the fixed base so its occupancy is visible.
            if !base.paths.is_empty() {
                routing.set_route(req.net, base.clone());
            }
            let mut frag_active: Vec<bool> = vec![true; split.fragments.len()];
            for (_, nodes) in &split.fragments {
                for nd in nodes {
                    own_frag[nd.index()] = true;
                }
            }
            for nd in &split.seed_nodes {
                own_seed[nd.index()] = true;
            }

            let mut seeds: Vec<NodeId> = split.seed_nodes.clone();
            let mut new_paths: Vec<Vec<NodeId>> = Vec::with_capacity(req.sinks.len());
            let mut fail = false;
            for &sink in &req.sinks {
                let path = astar.search(
                    rrg,
                    routing,
                    &locked_occ,
                    &own_frag,
                    &own_seed,
                    &hist,
                    options,
                    pres,
                    &seeds,
                    sink,
                    &mut stats.expansions,
                );
                let Some(path) = path else {
                    fail = true;
                    break;
                };
                for nd in &path {
                    own_seed[nd.index()] = true;
                }
                seeds.extend(path.iter().copied());
                // Reaching a fragment head reconnects that fragment:
                // its nodes become legitimate seeds for later sinks.
                for (fi, (head, nodes)) in split.fragments.iter().enumerate() {
                    if frag_active[fi] && path.last() == Some(head) {
                        frag_active[fi] = false;
                        for nd in nodes {
                            own_frag[nd.index()] = false;
                            own_seed[nd.index()] = true;
                        }
                        seeds.extend(nodes.iter().copied());
                    }
                }
                new_paths.push(path);
            }
            // Clear the per-net overlays.
            for (_, nodes) in &split.fragments {
                for nd in nodes {
                    own_frag[nd.index()] = false;
                    own_seed[nd.index()] = false;
                }
            }
            for nd in &split.seed_nodes {
                own_seed[nd.index()] = false;
            }
            for p in &new_paths {
                for nd in p {
                    own_seed[nd.index()] = false;
                }
            }
            if fail {
                return Err(RouteError::Unroutable { net: req.net });
            }
            let mut tree = base.clone();
            tree.paths.extend(new_paths);
            routing.clear_route(req.net);
            routing.set_route(req.net, tree);
        }

        // Converged?
        let overused = routing.overused_nodes();
        if overused.is_empty() {
            return Ok(stats);
        }
        // Stall detection: if escalation stopped reducing overuse, the
        // conflict is structural and further iterations are wasted.
        if overused.len() < best_overuse {
            best_overuse = overused.len();
            stalled = 0;
        } else {
            stalled += 1;
            if stalled >= options.stall_limit {
                return Err(RouteError::CongestionUnresolved {
                    iterations: stats.iterations,
                    overused: overused.len(),
                });
            }
        }
        for node in overused {
            let over = routing.occupancy(node).saturating_sub(1);
            hist[node.index()] += options.acc_fac as f32 * over as f32;
        }
        pres = (pres * options.pres_fac_mult).min(options.pres_fac_max);
    }
    Err(RouteError::CongestionUnresolved {
        iterations: stats.iterations,
        overused: routing.overused_nodes().len(),
    })
}

/// Heap entry ordered for a min-heap on (f, node).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    f: f64,
    node: u32,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed for BinaryHeap (max-heap) -> min-heap behaviour;
        // tie-break on node id for determinism.
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Entry {
    /// True if the heap pops `self` before `other`: smaller f, then
    /// smaller node.
    fn precedes(&self, other: &Self) -> bool {
        self > other
    }
}

/// A relaxation of an input pin that is not the target.
///
/// Input pins have no outgoing edges, so popping one only counts an
/// expansion (when the entry is not stale) and changes nothing else.
/// Such entries are kept out of the heap, and [`AStar::pin_expansions`]
/// counts afterwards the ones the heap would have popped, in its order.
#[derive(Debug, Clone, Copy)]
struct PinEntry {
    f: f64,
    node: u32,
    /// Heap pops made before it was pushed.
    after: u32,
}

impl PinEntry {
    /// The heap entry it stands for.
    fn entry(&self) -> Entry {
        Entry {
            f: self.f,
            node: self.node,
        }
    }
}

/// Reusable A* state with generation-stamped visit arrays: a node's
/// entries are valid when its `stamp` is the search's generation.
struct AStar {
    g: Vec<f64>,
    /// The heuristic's distance term, a pure function of the node and
    /// the target: computed once per search instead of on every pop.
    dist: Vec<f32>,
    prev: Vec<u32>,
    stamp: Vec<u32>,
    /// The node's newest entry in `pins`, or `NO_PIN`.
    pin: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<Entry>,
    /// This search's heap pops, stale ones included, in order.
    pops: Vec<Entry>,
    /// This search's input-pin relaxations, in order.
    pins: Vec<PinEntry>,
    /// `(k, j)` for each of `pins[k]` whose node already had an entry
    /// this search, `pins[j]` the newest of those; in order of `k`.
    undercuts: Vec<(u32, u32)>,
    nbrs: Vec<NodeId>,
}

const NO_PREV: u32 = u32::MAX;
const NO_PIN: u32 = u32::MAX;

impl AStar {
    fn new(n: usize) -> Self {
        Self {
            g: vec![0.0; n],
            dist: vec![0.0; n],
            prev: vec![NO_PREV; n],
            stamp: vec![0; n],
            pin: vec![NO_PIN; n],
            generation: 0,
            heap: BinaryHeap::new(),
            pops: Vec::new(),
            pins: Vec::new(),
            undercuts: Vec::new(),
            nbrs: Vec::new(),
        }
    }

    /// Cost of stepping onto `node` (PathFinder node cost).
    fn node_cost(
        rrg: &RoutingGraph,
        routing: &Routing,
        hist: &[f32],
        pres: f64,
        node: NodeId,
    ) -> f64 {
        let b = rrg.base_cost(node);
        let h = 1.0 + f64::from(hist[node.index()]);
        let occ = routing.occupancy(node) as f64;
        let p = 1.0 + (occ + 1.0 - 1.0).max(0.0) * pres;
        b * h * p
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &mut self,
        rrg: &RoutingGraph,
        routing: &Routing,
        locked_occ: &[u16],
        own_frag: &[bool],
        own_seed: &[bool],
        hist: &[f32],
        options: &RouteOptions,
        pres: f64,
        seeds: &[NodeId],
        target: NodeId,
        expansions: &mut u64,
    ) -> Option<Vec<NodeId>> {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.heap.clear();
        self.pops.clear();
        self.pins.clear();
        self.undercuts.clear();
        let (tx, ty) = rrg.center(target);
        let dist_of = |rrg: &RoutingGraph, node: NodeId| -> f32 {
            let (x, y) = rrg.center(node);
            (x - tx).abs() + (y - ty).abs()
        };
        let h = |dist: f32| options.astar_weight * 0.55 * f64::from(dist);
        // Seed the wavefront. Seeds are free (already paid for). Under
        // a mask, a seed that is outside it *and* has no in-mask
        // neighbour can never contribute — dropping those keeps large
        // outside route-trees from flooding confined searches.
        for &s in seeds {
            let i = s.index();
            if self.stamp[i] == self.generation {
                continue;
            }
            if let Some(mask) = &options.allowed {
                if !mask[i] {
                    rrg.neighbors(s, &mut self.nbrs);
                    let useful = self.nbrs.iter().any(|m| mask[m.index()] || *m == target);
                    if !useful {
                        continue;
                    }
                }
            }
            self.stamp[i] = self.generation;
            self.g[i] = 0.0;
            self.dist[i] = dist_of(rrg, s);
            self.prev[i] = NO_PREV;
            self.pin[i] = NO_PIN;
            self.heap.push(Entry {
                f: h(self.dist[i]),
                node: s.index() as u32,
            });
        }
        // Re-pops of stale heap entries are filtered by comparing the
        // entry's f against the node's current g + h. Every pop, stale
        // or not, is recorded: `pin_expansions` places the input-pin
        // entries kept off the heap among them.
        while let Some(popped) = self.heap.pop() {
            let Entry { f, node } = popped;
            self.pops.push(popped);
            let ni = node as usize;
            let nid = NodeId::default_for_test(node);
            // Stale heap entry?
            let g_here = self.g[ni];
            if f > g_here + h(self.dist[ni]) + 1e-9 {
                continue;
            }
            *expansions += 1;
            if nid == target {
                *expansions += self.pin_expansions(true);
                return Some(self.trace(nid));
            }
            rrg.neighbors(nid, &mut self.nbrs);
            let neighbors = std::mem::take(&mut self.nbrs);
            for &m in &neighbors {
                let mi = m.index();
                // Availability: the explicit target is always fair
                // game (interface nodes straddle the mask boundary and
                // belong to this net's locked fragments); everything
                // else must pass the mask and be unlocked. The net's
                // own source-connected base is exempt from the locked
                // check; its disconnected fragments are target-only.
                if m != target {
                    if let Some(mask) = &options.allowed {
                        if !mask[mi] {
                            continue;
                        }
                    }
                    if own_frag[mi] || (locked_occ[mi] > 0 && !own_seed[mi]) {
                        continue;
                    }
                }
                let step = Self::node_cost(rrg, routing, hist, pres, m);
                let cand = g_here + step;
                let first_visit = self.stamp[mi] != self.generation;
                if first_visit || cand + 1e-12 < self.g[mi] {
                    if first_visit {
                        self.stamp[mi] = self.generation;
                        self.dist[mi] = dist_of(rrg, m);
                        self.pin[mi] = NO_PIN;
                    }
                    self.g[mi] = cand;
                    self.prev[mi] = node;
                    let entry = Entry {
                        f: cand + h(self.dist[mi]),
                        node: mi as u32,
                    };
                    // A pin other than the target has no edges to
                    // relax: it stays off the heap (see `PinEntry`).
                    if m != target && rrg.is_ipin(m) {
                        let k = self.pins.len() as u32;
                        if self.pin[mi] != NO_PIN {
                            self.undercuts.push((k, self.pin[mi]));
                        }
                        self.pins.push(PinEntry {
                            f: entry.f,
                            node: entry.node,
                            after: self.pops.len() as u32,
                        });
                        self.pin[mi] = k;
                    } else {
                        self.heap.push(entry);
                    }
                }
            }
            self.nbrs = neighbors;
        }
        *expansions += self.pin_expansions(false);
        None
    }

    /// The expansions the heap would have made of this search's
    /// input-pin entries. `reached` says the search stopped when it
    /// popped its target, the last of `pops`; otherwise the heap ran
    /// dry, so it popped every entry.
    ///
    /// An entry pushed after `after` pops is popped just before the
    /// first later pop that it precedes in heap order; if there is none
    /// before the search stopped, it is never popped. It counts unless
    /// it is stale when popped: its f exceeds by more than 1e-9 the f
    /// of its node's newest entry pushed by that moment, which is the
    /// heap's own stale test (an entry's f is the node's g then plus
    /// its h).
    fn pin_expansions(&self, reached: bool) -> u64 {
        let end = self.pops.len();
        let mut count = 0;
        // Walked backwards, the pins' `after` only falls, so one sweep
        // down `pops` keeps `last`: of `pops[t..]`, the pop the heap
        // order puts last.
        let mut t = end;
        let mut last: Option<Entry> = None;
        for (i, pin) in self.pins.iter().enumerate().rev() {
            let after = pin.after as usize;
            while t > after {
                t -= 1;
                let pop = self.pops[t];
                match last {
                    Some(l) if !l.precedes(&pop) => {}
                    _ => last = Some(pop),
                }
            }
            let entry = pin.entry();
            if reached && !last.is_some_and(|l| entry.precedes(&l)) {
                continue;
            }
            let mut newest = self.pin[pin.node as usize] as usize;
            if newest == i {
                // The node's newest entry: nothing undercut it.
                count += 1;
                continue;
            }
            let popped_at = (after..end)
                .find(|&t| entry.precedes(&self.pops[t]))
                .unwrap_or(end);
            while self.pins[newest].after as usize > popped_at {
                let k = self
                    .undercuts
                    .binary_search_by_key(&(newest as u32), |&(k, _)| k)
                    .expect("every entry newer than another of its node is an undercut");
                newest = self.undercuts[k].1 as usize;
            }
            if pin.f <= self.pins[newest].f + 1e-9 {
                count += 1;
            }
        }
        count
    }

    fn trace(&self, target: NodeId) -> Vec<NodeId> {
        let mut path = vec![target];
        let mut cur = target.index() as u32;
        while self.prev[cur as usize] != NO_PREV {
            cur = self.prev[cur as usize];
            path.push(NodeId::default_for_test(cur));
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga::{BelLoc, ClbSlot, Coord, Device, Placement};
    use netlist::{NetId, Netlist, TruthTable};

    fn small_world() -> (Netlist, Device, RoutingGraph, Placement) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let u = nl
            .add_lut("u", TruthTable::not(), &[nl.cell_output(a).unwrap()])
            .unwrap();
        let v = nl
            .add_lut("v", TruthTable::not(), &[nl.cell_output(u).unwrap()])
            .unwrap();
        nl.add_output("y", nl.cell_output(v).unwrap()).unwrap();
        let dev = Device::new(6, 6, 4, 2).unwrap();
        let rrg = RoutingGraph::new(&dev);
        let mut p = Placement::new(nl.cell_capacity());
        p.place(
            nl.find_cell("a").unwrap(),
            BelLoc::Iob(fpga::IobSite {
                side: fpga::IobSide::West,
                pos: 1,
                k: 0,
            }),
        )
        .unwrap();
        p.place(nl.find_cell("u").unwrap(), BelLoc::clb(1, 1, ClbSlot::LutF))
            .unwrap();
        p.place(nl.find_cell("v").unwrap(), BelLoc::clb(4, 4, ClbSlot::LutG))
            .unwrap();
        p.place(
            nl.find_cell("y").unwrap(),
            BelLoc::Iob(fpga::IobSite {
                side: fpga::IobSide::East,
                pos: 4,
                k: 1,
            }),
        )
        .unwrap();
        (nl, dev, rrg, p)
    }

    #[test]
    fn routes_a_chain() {
        let (nl, _dev, rrg, p) = small_world();
        let mut routing = Routing::new(rrg.num_nodes());
        let stats =
            crate::request::route_design(&nl, &p, &rrg, &mut routing, &RouteOptions::default())
                .unwrap();
        assert_eq!(stats.nets, 3);
        assert!(routing.is_feasible());
        assert_eq!(routing.num_routed(), 3);
        assert!(stats.expansions > 0);
        // Each path starts at the source pin and ends at the sink pin.
        let u = nl.find_cell("u").unwrap();
        let unet = nl.cell_output(u).unwrap();
        let tree = routing.route(unet).unwrap();
        assert_eq!(tree.paths.len(), 1);
        let path = &tree.paths[0];
        assert_eq!(path[0], rrg.opin(Coord::new(1, 1), ClbSlot::LutF));
        assert_eq!(*path.last().unwrap(), rrg.ipin(Coord::new(4, 4), 4));
    }

    #[test]
    fn multi_sink_nets_share_a_tree() {
        let mut nl = Netlist::new("fanout");
        let a = nl.add_input("a").unwrap();
        let src = nl.cell_output(a).unwrap();
        for i in 0..4 {
            let u = nl
                .add_lut(format!("u{i}"), TruthTable::not(), &[src])
                .unwrap();
            nl.add_output(format!("y{i}"), nl.cell_output(u).unwrap())
                .unwrap();
        }
        let dev = Device::new(6, 6, 6, 2).unwrap();
        let rrg = RoutingGraph::new(&dev);
        let mut p = Placement::new(nl.cell_capacity());
        place::initial_place_for_tests(&nl, &dev, &mut p);
        let mut routing = Routing::new(rrg.num_nodes());
        let stats =
            crate::request::route_design(&nl, &p, &rrg, &mut routing, &RouteOptions::default())
                .unwrap();
        assert!(routing.is_feasible());
        let tree = routing.route(src).unwrap();
        assert_eq!(tree.paths.len(), 4);
        let _ = stats;
    }

    // Minimal stand-in for the place crate (not a dependency here):
    // deterministic spread placement used only by this test module.
    mod place {
        use super::*;

        pub fn initial_place_for_tests(nl: &Netlist, dev: &Device, p: &mut Placement) {
            let mut iobs = dev.iob_sites();
            let mut coords = dev.clb_coords();
            for (id, cell) in nl.cells() {
                match cell.kind {
                    netlist::CellKind::Input | netlist::CellKind::Output => {
                        let s = iobs.next().unwrap();
                        p.place(id, BelLoc::Iob(s)).unwrap();
                    }
                    _ => {
                        let c = coords.next().unwrap();
                        p.place(
                            id,
                            BelLoc::Clb {
                                coord: c,
                                slot: ClbSlot::LutF,
                            },
                        )
                        .unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn mask_confines_routing() {
        let (nl, _dev, rrg, p) = small_world();
        // Only allow nodes in the lower-left quadrant; the u->v net
        // (to (4,4)) becomes unroutable.
        let mut mask = vec![false; rrg.num_nodes()];
        for i in 0..rrg.num_nodes() {
            let (x0, y0, x1, y1) = rrg.span(NodeId::default_for_test(i as u32));
            if x0 >= -1 && y0 >= -1 && x1 <= 2 && y1 <= 2 {
                mask[i] = true;
            }
        }
        let mut routing = Routing::new(rrg.num_nodes());
        let err = crate::request::route_design(
            &nl,
            &p,
            &rrg,
            &mut routing,
            &RouteOptions {
                allowed: Some(mask),
                ..Default::default()
            },
        );
        assert!(matches!(err, Err(RouteError::Unroutable { .. })));
    }

    #[test]
    fn locked_nets_are_avoided() {
        let (nl, _dev, rrg, p) = small_world();
        let mut routing = Routing::new(rrg.num_nodes());
        crate::request::route_design(&nl, &p, &rrg, &mut routing, &RouteOptions::default())
            .unwrap();
        // Re-route only the u->v net; the other two stay locked.
        let u = nl.find_cell("u").unwrap();
        let unet = nl.cell_output(u).unwrap();
        let reqs = crate::request::derive_requests(&nl, &p, &rrg)
            .unwrap()
            .into_iter()
            .filter(|r| r.net == unet)
            .collect::<Vec<_>>();
        routing.clear_route(unet);
        let locked_nodes: std::collections::BTreeSet<_> =
            routing.iter().flat_map(|(_, t)| t.nodes()).collect();
        route(&rrg, &reqs, &mut routing, &RouteOptions::default()).unwrap();
        assert!(routing.is_feasible());
        // New route avoids every locked node.
        let new_nodes = routing.route(unet).unwrap().nodes();
        assert!(new_nodes.is_disjoint(&locked_nodes));
    }

    #[test]
    fn base_fragment_is_preserved_and_extended() {
        let (nl, _dev, rrg, p) = small_world();
        let mut routing = Routing::new(rrg.num_nodes());
        crate::request::route_design(&nl, &p, &rrg, &mut routing, &RouteOptions::default())
            .unwrap();
        let u = nl.find_cell("u").unwrap();
        let unet = nl.cell_output(u).unwrap();
        let full = routing.route(unet).unwrap().clone();
        let full_path = full.paths[0].clone();
        // Split the path in half: keep the source-side fragment as the
        // fixed base, re-route from its tip to the sink.
        let mid = full_path.len() / 2;
        let base = RouteTree {
            paths: vec![full_path[..=mid].to_vec()],
        };
        let tip = full_path[mid];
        let sink = *full_path.last().unwrap();
        routing.clear_route(unet);
        routing.set_route(unet, base.clone());
        let req = ConnectionRequest {
            net: unet,
            source: tip,
            sinks: vec![sink],
        };
        route(&rrg, &[req], &mut routing, &RouteOptions::default()).unwrap();
        let merged = routing.route(unet).unwrap();
        assert!(routing.is_feasible());
        // Base fragment still present verbatim.
        assert_eq!(merged.paths[0], base.paths[0]);
        // And the sink is reconnected.
        assert!(merged.nodes().contains(&sink));
    }

    #[test]
    fn congestion_negotiation_resolves_conflicts() {
        // Two nets forced through the same 1-track corridor must
        // negotiate (tracks=1 keeps capacity tight).
        let mut nl = Netlist::new("cong");
        for i in 0..2 {
            let a = nl.add_input(format!("a{i}")).unwrap();
            let u = nl
                .add_lut(
                    format!("u{i}"),
                    TruthTable::not(),
                    &[nl.cell_output(a).unwrap()],
                )
                .unwrap();
            nl.add_output(format!("y{i}"), nl.cell_output(u).unwrap())
                .unwrap();
        }
        let dev = Device::new(4, 4, 2, 2).unwrap();
        let rrg = RoutingGraph::new(&dev);
        let mut p = Placement::new(nl.cell_capacity());
        p.place(
            nl.find_cell("a0").unwrap(),
            BelLoc::Iob(fpga::IobSite {
                side: fpga::IobSide::West,
                pos: 1,
                k: 0,
            }),
        )
        .unwrap();
        p.place(
            nl.find_cell("a1").unwrap(),
            BelLoc::Iob(fpga::IobSite {
                side: fpga::IobSide::West,
                pos: 1,
                k: 1,
            }),
        )
        .unwrap();
        p.place(
            nl.find_cell("u0").unwrap(),
            BelLoc::clb(2, 1, ClbSlot::LutF),
        )
        .unwrap();
        p.place(
            nl.find_cell("u1").unwrap(),
            BelLoc::clb(2, 1, ClbSlot::LutG),
        )
        .unwrap();
        p.place(
            nl.find_cell("y0").unwrap(),
            BelLoc::Iob(fpga::IobSite {
                side: fpga::IobSide::East,
                pos: 1,
                k: 0,
            }),
        )
        .unwrap();
        p.place(
            nl.find_cell("y1").unwrap(),
            BelLoc::Iob(fpga::IobSite {
                side: fpga::IobSide::East,
                pos: 1,
                k: 1,
            }),
        )
        .unwrap();
        let mut routing = Routing::new(rrg.num_nodes());
        let stats =
            crate::request::route_design(&nl, &p, &rrg, &mut routing, &RouteOptions::default())
                .unwrap();
        assert!(routing.is_feasible());
        assert!(stats.iterations >= 1);
    }

    /// The search as it was before input pins were kept off the heap:
    /// every entry on one heap, the heuristic recomputed at each pop.
    /// Returns the path and the expansions it counted.
    #[allow(clippy::too_many_arguments)]
    fn reference_search(
        rrg: &RoutingGraph,
        routing: &Routing,
        locked_occ: &[u16],
        own_frag: &[bool],
        own_seed: &[bool],
        hist: &[f32],
        options: &RouteOptions,
        pres: f64,
        seeds: &[NodeId],
        target: NodeId,
    ) -> (Option<Vec<NodeId>>, u64) {
        let n = rrg.num_nodes();
        let (mut g, mut prev, mut seen) = (vec![0.0; n], vec![NO_PREV; n], vec![false; n]);
        let mut heap = BinaryHeap::new();
        let mut nbrs = Vec::new();
        let mut expansions = 0;
        let (tx, ty) = rrg.center(target);
        let h_of = |node: NodeId| -> f64 {
            let (x, y) = rrg.center(node);
            options.astar_weight * 0.55 * ((x - tx).abs() + (y - ty).abs()) as f64
        };
        for &s in seeds {
            let i = s.index();
            if seen[i] {
                continue;
            }
            if let Some(mask) = &options.allowed {
                if !mask[i] {
                    rrg.neighbors(s, &mut nbrs);
                    if !nbrs.iter().any(|m| mask[m.index()] || *m == target) {
                        continue;
                    }
                }
            }
            seen[i] = true;
            g[i] = 0.0;
            heap.push(Entry {
                f: h_of(s),
                node: i as u32,
            });
        }
        while let Some(Entry { f, node }) = heap.pop() {
            let ni = node as usize;
            let nid = NodeId::default_for_test(node);
            if f > g[ni] + h_of(nid) + 1e-9 {
                continue;
            }
            expansions += 1;
            if nid == target {
                let mut path = vec![nid];
                let mut cur = node;
                while prev[cur as usize] != NO_PREV {
                    cur = prev[cur as usize];
                    path.push(NodeId::default_for_test(cur));
                }
                path.reverse();
                return (Some(path), expansions);
            }
            rrg.neighbors(nid, &mut nbrs);
            for &m in &nbrs {
                let mi = m.index();
                if m != target {
                    if let Some(mask) = &options.allowed {
                        if !mask[mi] {
                            continue;
                        }
                    }
                    if own_frag[mi] || (locked_occ[mi] > 0 && !own_seed[mi]) {
                        continue;
                    }
                }
                let cand = g[ni] + AStar::node_cost(rrg, routing, hist, pres, m);
                if !seen[mi] || cand + 1e-12 < g[mi] {
                    seen[mi] = true;
                    g[mi] = cand;
                    prev[mi] = node;
                    heap.push(Entry {
                        f: cand + h_of(m),
                        node: mi as u32,
                    });
                }
            }
        }
        (None, expansions)
    }

    #[test]
    fn search_matches_the_single_heap_search() {
        // Random congestion, history, locks, masks, seeds and targets
        // on small devices: the search with input pins kept off the
        // heap returns the same path and counts the same expansions.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |bound: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let (mut searches, mut unreached, mut undercut_pins) = (0, 0, 0);
        for _ in 0..40 {
            let dev = Device::new(
                1 + next(6) as u16,
                1 + next(6) as u16,
                1 + next(4) as u16,
                1 + next(2) as u8,
            )
            .unwrap();
            let rrg = RoutingGraph::new(&dev);
            let n = rrg.num_nodes();
            let node = |i: usize| NodeId::default_for_test(i as u32);
            let mut routing = Routing::new(n);
            for net in 0..next(8) {
                let path: Vec<NodeId> = (0..1 + next(12)).map(|_| node(next(n))).collect();
                routing.set_route(NetId::new(net), RouteTree { paths: vec![path] });
            }
            let hist: Vec<f32> = (0..n)
                .map(|_| {
                    if next(4) == 0 {
                        next(5) as f32 * 0.5
                    } else {
                        0.0
                    }
                })
                .collect();
            let locked_occ: Vec<u16> = (0..n).map(|_| u16::from(next(10) == 0)).collect();
            let own_seed: Vec<bool> = (0..n).map(|_| next(3) == 0).collect();
            let own_frag: Vec<bool> = (0..n).map(|_| next(25) == 0).collect();
            let options = RouteOptions {
                astar_weight: [1.0, 1.15, 1.6, 3.0][next(4)],
                allowed: (next(3) == 0).then(|| (0..n).map(|_| next(5) != 0).collect()),
                ..RouteOptions::default()
            };
            let mut astar = AStar::new(n);
            for _ in 0..25 {
                let pres = [0.6, 4.0, 300.0][next(3)];
                let seeds: Vec<NodeId> = (0..1 + next(20)).map(|_| node(next(n))).collect();
                let target = node(next(n));
                let (want, want_expansions) = reference_search(
                    &rrg,
                    &routing,
                    &locked_occ,
                    &own_frag,
                    &own_seed,
                    &hist,
                    &options,
                    pres,
                    &seeds,
                    target,
                );
                let mut expansions = 0;
                let got = astar.search(
                    &rrg,
                    &routing,
                    &locked_occ,
                    &own_frag,
                    &own_seed,
                    &hist,
                    &options,
                    pres,
                    &seeds,
                    target,
                    &mut expansions,
                );
                assert_eq!(got, want, "path to {target} from {seeds:?}");
                assert_eq!(expansions, want_expansions, "expansions to {target}");
                searches += 1;
                unreached += usize::from(got.is_none());
                undercut_pins += astar.undercuts.len();
            }
        }
        // The cases the pin count must get right all occurred.
        assert_eq!(searches, 1000);
        assert!(unreached > 0, "no search ran its heap dry");
        assert!(undercut_pins > 0, "no pin was relaxed twice in one search");
    }

    #[test]
    fn error_display() {
        let e = RouteError::Unroutable { net: NetId::new(3) };
        assert!(e.to_string().contains("n3"));
        let e = RouteError::CongestionUnresolved {
            iterations: 5,
            overused: 2,
        };
        assert!(e.to_string().contains('5'));
    }
}
