//! The routing-resource graph (RRG).
//!
//! Every physical routing resource is a node: horizontal and vertical
//! channel wires (one node per track per segment), CLB input and output
//! pins, and IOB pads. Edges are implied by the architecture and
//! enumerated on demand by [`RoutingGraph::neighbors`]:
//!
//! * *connection boxes*: output pins drive the four adjacent channel
//!   segments; channel segments reach the input pins of the two CLBs
//!   they border (full population, `Fc = 1`);
//! * *switch boxes*: at each channel intersection, same-track segments
//!   interconnect in the disjoint (XC4000-like) pattern;
//! * *pads*: IOB pins attach to the boundary channel alongside them.
//!
//! All wire nodes have capacity one, which is what makes routing a
//! negotiation problem for PathFinder.

use std::fmt;

use crate::bel::{BelLoc, ClbSlot, IobSide, IobSite};
use crate::coords::Coord;
use crate::device::Device;

/// Input pins per CLB (2 LUTs × 4 + 2 FF D-pins).
pub const CLB_IN_PINS: usize = 10;
/// Output pins per CLB (one per slot).
pub const CLB_OUT_PINS: usize = 4;

/// Dense identifier of an RRG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Decoded identity of an RRG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Horizontal wire in channel `y` (0..=H) spanning column `x`..`x+1`.
    ChanX {
        /// Segment column (0..W).
        x: u16,
        /// Channel row (0..=H).
        y: u16,
        /// Track within the channel.
        t: u16,
    },
    /// Vertical wire in channel `x` (0..=W) spanning row `y`..`y+1`.
    ChanY {
        /// Channel column (0..=W).
        x: u16,
        /// Segment row (0..H).
        y: u16,
        /// Track within the channel.
        t: u16,
    },
    /// CLB input pin.
    IPin {
        /// Owning CLB.
        coord: Coord,
        /// Pin index (0..[`CLB_IN_PINS`]); see [`ClbSlot::pin_base`].
        pin: u8,
    },
    /// CLB output pin (one per slot).
    OPin {
        /// Owning CLB.
        coord: Coord,
        /// Driving slot.
        slot: ClbSlot,
    },
    /// Bidirectional IOB pad pin.
    Iob(IobSite),
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ChanX { x, y, t } => write!(f, "chx({x},{y}).{t}"),
            Self::ChanY { x, y, t } => write!(f, "chy({x},{y}).{t}"),
            Self::IPin { coord, pin } => write!(f, "ipin{coord}.{pin}"),
            Self::OPin { coord, slot } => write!(f, "opin{coord}.{slot}"),
            Self::Iob(site) => write!(f, "{site}"),
        }
    }
}

/// Orthogonal-turn track choices at a switch point: `t` plus its two
/// cyclic neighbours (deduplicated for narrow channels). The relation
/// `|t - t'| mod T ∈ {0, 1, T-1}` is symmetric, so wire↔wire edges
/// stay bidirectional.
fn turn_tracks(t: u16, tracks: u16) -> impl Iterator<Item = u16> {
    let prev = (t + tracks - 1) % tracks;
    let next = (t + 1) % tracks;
    let mut v = [t, prev, next];
    v.sort_unstable();
    let mut out = [u16::MAX; 3];
    let mut n = 0;
    for x in v {
        if n == 0 || out[n - 1] != x {
            out[n] = x;
            n += 1;
        }
    }
    out.into_iter().take(n)
}

/// Per-node intrinsic delays (nanoseconds) of the model.
pub mod delay {
    /// Channel wire segment.
    pub const WIRE: f64 = 0.55;
    /// Connection-box hop into an input pin.
    pub const IPIN: f64 = 0.25;
    /// Output-pin buffer.
    pub const OPIN: f64 = 0.25;
    /// Pad delay.
    pub const IOB: f64 = 0.90;
}

/// Division of node ids by one of the graph's fixed dimensions, done
/// as a multiply and a shift: decoding an id is on the router's inner
/// loop, and a hardware divide costs several times as much.
///
/// For a divisor `d ≥ 2` and `c = ⌈2⁶⁴ / d⌉`, `⌊c · n / 2⁶⁴⌋ = ⌊n / d⌋`
/// for every 32-bit `n` (Lemire, Kaser and Kurz, "Faster Remainder by
/// Direct Computation", 2019); node ids are 32-bit.
#[derive(Debug, Clone, Copy)]
struct Divisor {
    d: usize,
    /// `⌈2⁶⁴ / d⌉`, or 0 when `d` is 1.
    c: u64,
}

impl Divisor {
    fn new(d: usize) -> Self {
        let d32 = u32::try_from(d).expect("graph dimensions fit 32 bits");
        assert!(d32 > 0, "graph dimensions are positive");
        Self {
            d,
            c: if d32 == 1 {
                0
            } else {
                u64::MAX / u64::from(d32) + 1
            },
        }
    }

    /// `(n / d, n % d)` for a node-id-sized `n`.
    fn div_rem(self, n: usize) -> (usize, usize) {
        if self.c == 0 {
            return (n, 0);
        }
        let n32 = n as u32;
        debug_assert_eq!(n32 as usize, n, "node ids are 32-bit");
        let q = ((u128::from(self.c) * u128::from(n32)) >> 64) as usize;
        (q, n - q * self.d)
    }
}

/// The routing-resource graph of a [`Device`].
///
/// ```
/// use fpga::{Device, RoutingGraph};
/// let dev = Device::new(4, 4, 6, 2)?;
/// let rrg = RoutingGraph::new(&dev);
/// assert!(rrg.num_nodes() > 0);
/// // Every node id decodes and re-encodes to itself.
/// let node = rrg.node(fpga::NodeId::default_for_test(0));
/// let _ = node;
/// # Ok::<(), fpga::DeviceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RoutingGraph {
    w: usize,
    h: usize,
    t: usize,
    k: usize,
    chanx_base: usize,
    chany_base: usize,
    ipin_base: usize,
    opin_base: usize,
    iob_base: usize,
    total: usize,
    div_w: Divisor,
    div_h: Divisor,
    div_t: Divisor,
    div_k: Divisor,
}

impl NodeId {
    /// Constructs a raw node id. Exposed for doctests and serializers;
    /// prefer [`RoutingGraph`] encode methods.
    pub fn default_for_test(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl RoutingGraph {
    /// Builds the RRG for a device.
    pub fn new(device: &Device) -> Self {
        let w = device.width() as usize;
        let h = device.height() as usize;
        let t = device.tracks() as usize;
        let k = device.iobs_per_pos() as usize;
        let chanx_base = 0;
        let n_chanx = w * (h + 1) * t;
        let chany_base = chanx_base + n_chanx;
        let n_chany = (w + 1) * h * t;
        let ipin_base = chany_base + n_chany;
        let n_ipin = w * h * CLB_IN_PINS;
        let opin_base = ipin_base + n_ipin;
        let n_opin = w * h * CLB_OUT_PINS;
        let iob_base = opin_base + n_opin;
        let n_iob = 2 * (w + h) * k;
        Self {
            w,
            h,
            t,
            k,
            chanx_base,
            chany_base,
            ipin_base,
            opin_base,
            iob_base,
            total: iob_base + n_iob,
            div_w: Divisor::new(w),
            div_h: Divisor::new(h),
            div_t: Divisor::new(t),
            div_k: Divisor::new(k),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.total
    }

    // --------------------------------------------------------------
    // Encoding
    // --------------------------------------------------------------

    /// Id of a horizontal channel wire.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    pub fn chanx(&self, x: u16, y: u16, t: u16) -> NodeId {
        let (x, y, t) = (x as usize, y as usize, t as usize);
        assert!(
            x < self.w && y <= self.h && t < self.t,
            "chanx out of range"
        );
        NodeId((self.chanx_base + (y * self.w + x) * self.t + t) as u32)
    }

    /// Id of a vertical channel wire.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    pub fn chany(&self, x: u16, y: u16, t: u16) -> NodeId {
        let (x, y, t) = (x as usize, y as usize, t as usize);
        assert!(
            x <= self.w && y < self.h && t < self.t,
            "chany out of range"
        );
        NodeId((self.chany_base + (x * self.h + y) * self.t + t) as u32)
    }

    /// Id of a CLB input pin.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    pub fn ipin(&self, coord: Coord, pin: u8) -> NodeId {
        let (x, y, p) = (coord.x as usize, coord.y as usize, pin as usize);
        assert!(
            x < self.w && y < self.h && p < CLB_IN_PINS,
            "ipin out of range"
        );
        NodeId((self.ipin_base + (y * self.w + x) * CLB_IN_PINS + p) as u32)
    }

    /// Id of a CLB output pin.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    pub fn opin(&self, coord: Coord, slot: ClbSlot) -> NodeId {
        let (x, y) = (coord.x as usize, coord.y as usize);
        assert!(x < self.w && y < self.h, "opin out of range");
        NodeId((self.opin_base + (y * self.w + x) * CLB_OUT_PINS + slot.index()) as u32)
    }

    /// Id of an IOB pad pin.
    ///
    /// # Panics
    ///
    /// Panics if the site does not exist.
    pub fn iob(&self, site: IobSite) -> NodeId {
        let (pos, k) = (site.pos as usize, site.k as usize);
        assert!(k < self.k, "iob sub-site out of range");
        let side_base = match site.side {
            IobSide::North => {
                assert!(pos < self.w, "iob pos out of range");
                0
            }
            IobSide::South => {
                assert!(pos < self.w, "iob pos out of range");
                self.w * self.k
            }
            IobSide::East => {
                assert!(pos < self.h, "iob pos out of range");
                2 * self.w * self.k
            }
            IobSide::West => {
                assert!(pos < self.h, "iob pos out of range");
                2 * self.w * self.k + self.h * self.k
            }
        };
        NodeId((self.iob_base + side_base + pos * self.k + k) as u32)
    }

    /// The pin node through which `loc` drives its output.
    pub fn source_node(&self, loc: BelLoc) -> NodeId {
        match loc {
            BelLoc::Clb { coord, slot } => self.opin(coord, slot),
            BelLoc::Iob(site) => self.iob(site),
        }
    }

    /// The pin node through which input pin `pin` of `loc` is reached.
    ///
    /// For CLB slots, `pin` is the slot-relative input index (0..4 for
    /// LUTs, 0 for flip-flops); IOBs have a single pad node.
    pub fn sink_node(&self, loc: BelLoc, pin: usize) -> NodeId {
        match loc {
            BelLoc::Clb { coord, slot } => self.ipin(coord, (slot.pin_base() + pin) as u8),
            BelLoc::Iob(site) => self.iob(site),
        }
    }

    // --------------------------------------------------------------
    // Decoding
    // --------------------------------------------------------------

    /// Decodes a node id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this graph.
    #[inline]
    pub fn node(&self, id: NodeId) -> NodeKind {
        let i = id.index();
        assert!(i < self.total, "node id out of range");
        if i < self.chany_base {
            let (xy, t) = self.div_t.div_rem(i - self.chanx_base);
            let (y, x) = self.div_w.div_rem(xy);
            NodeKind::ChanX {
                x: x as u16,
                y: y as u16,
                t: t as u16,
            }
        } else if i < self.ipin_base {
            let (xy, t) = self.div_t.div_rem(i - self.chany_base);
            let (x, y) = self.div_h.div_rem(xy);
            NodeKind::ChanY {
                x: x as u16,
                y: y as u16,
                t: t as u16,
            }
        } else if i < self.opin_base {
            let r = i - self.ipin_base;
            let p = r % CLB_IN_PINS;
            let (y, x) = self.div_w.div_rem(r / CLB_IN_PINS);
            NodeKind::IPin {
                coord: Coord::new(x as u16, y as u16),
                pin: p as u8,
            }
        } else if i < self.iob_base {
            let r = i - self.opin_base;
            let s = r % CLB_OUT_PINS;
            let (y, x) = self.div_w.div_rem(r / CLB_OUT_PINS);
            NodeKind::OPin {
                coord: Coord::new(x as u16, y as u16),
                slot: ClbSlot::from_index(s),
            }
        } else {
            let r = i - self.iob_base;
            let north = self.w * self.k;
            let south = 2 * self.w * self.k;
            let east = south + self.h * self.k;
            let (side, r) = if r < north {
                (IobSide::North, r)
            } else if r < south {
                (IobSide::South, r - north)
            } else if r < east {
                (IobSide::East, r - south)
            } else {
                (IobSide::West, r - east)
            };
            let (pos, k) = self.div_k.div_rem(r);
            NodeKind::Iob(IobSite {
                side,
                pos: pos as u16,
                k: k as u8,
            })
        }
    }

    /// Intrinsic traversal delay of a node, in nanoseconds. It depends
    /// on the node's kind only, which its id range gives without
    /// decoding.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this graph.
    #[inline]
    pub fn intrinsic_delay(&self, id: NodeId) -> f64 {
        let i = id.index();
        assert!(i < self.total, "node id out of range");
        if i < self.ipin_base {
            delay::WIRE
        } else if i < self.opin_base {
            delay::IPIN
        } else if i < self.iob_base {
            delay::OPIN
        } else {
            delay::IOB
        }
    }

    /// True if `id` is a CLB input pin: a terminal node, with no
    /// outgoing edges. The id range tells without decoding.
    #[inline]
    pub fn is_ipin(&self, id: NodeId) -> bool {
        (self.ipin_base..self.opin_base).contains(&id.index())
    }

    /// Base congestion cost of a node (PathFinder `b_n`).
    #[inline]
    pub fn base_cost(&self, id: NodeId) -> f64 {
        self.intrinsic_delay(id)
    }

    /// Geometric center of a node in CLB-grid units, for A* heuristics.
    #[inline]
    pub fn center(&self, id: NodeId) -> (f32, f32) {
        match self.node(id) {
            NodeKind::ChanX { x, y, .. } => (x as f32 + 0.5, y as f32 - 0.5),
            NodeKind::ChanY { x, y, .. } => (x as f32 - 0.5, y as f32 + 0.5),
            NodeKind::IPin { coord, .. } | NodeKind::OPin { coord, .. } => {
                (coord.x as f32, coord.y as f32)
            }
            NodeKind::Iob(site) => match site.side {
                IobSide::North => (site.pos as f32, self.h as f32),
                IobSide::South => (site.pos as f32, -1.0),
                IobSide::East => (self.w as f32, site.pos as f32),
                IobSide::West => (-1.0, site.pos as f32),
            },
        }
    }

    /// Inclusive CLB-coordinate span touched by a node, as signed
    /// coordinates (`-1` and `width`/`height` occur at the boundary).
    ///
    /// A node lies strictly inside a tile rectangle iff its span does;
    /// wires whose span straddles the tile edge are *interface*
    /// resources.
    pub fn span(&self, id: NodeId) -> (i32, i32, i32, i32) {
        match self.node(id) {
            NodeKind::ChanX { x, y, .. } => (x as i32, y as i32 - 1, x as i32, y as i32),
            NodeKind::ChanY { x, y, .. } => (x as i32 - 1, y as i32, x as i32, y as i32),
            NodeKind::IPin { coord, .. } | NodeKind::OPin { coord, .. } => (
                coord.x as i32,
                coord.y as i32,
                coord.x as i32,
                coord.y as i32,
            ),
            NodeKind::Iob(site) => {
                let (x, y) = match site.side {
                    IobSide::North => (site.pos as i32, self.h as i32),
                    IobSide::South => (site.pos as i32, -1),
                    IobSide::East => (self.w as i32, site.pos as i32),
                    IobSide::West => (-1, site.pos as i32),
                };
                (x, y, x, y)
            }
        }
    }

    /// Appends all nodes reachable in one hop from `id` to `out`.
    ///
    /// The graph is directed: input pins are terminal, output pins are
    /// sources. Wire↔wire and wire↔pad edges are symmetric.
    pub fn neighbors(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let (w, h, tr, k) = (self.w as u16, self.h as u16, self.t as u16, self.k as u8);
        match self.node(id) {
            NodeKind::OPin { coord, .. } => {
                let (x, y) = (coord.x, coord.y);
                for t in 0..tr {
                    out.push(self.chanx(x, y, t));
                    out.push(self.chanx(x, y + 1, t));
                    out.push(self.chany(x, y, t));
                    out.push(self.chany(x + 1, y, t));
                }
            }
            NodeKind::ChanX { x, y, t } => {
                // Switch points at (x, y) and (x+1, y). Straight-through
                // connections keep the track; orthogonal turns reach
                // tracks t-1, t, t+1 (the XC4000 switch matrix offers a
                // few alternatives per wire, not a bare disjoint box).
                if x > 0 {
                    out.push(self.chanx(x - 1, y, t));
                }
                if x + 1 < w {
                    out.push(self.chanx(x + 1, y, t));
                }
                for px in [x, x + 1] {
                    for tt in turn_tracks(t, tr) {
                        if y < h {
                            out.push(self.chany(px, y, tt));
                        }
                        if y > 0 {
                            out.push(self.chany(px, y - 1, tt));
                        }
                    }
                }
                // Connection boxes into the CLBs above and below.
                if y < h {
                    for p in 0..CLB_IN_PINS as u8 {
                        out.push(self.ipin(Coord::new(x, y), p));
                    }
                }
                if y > 0 {
                    for p in 0..CLB_IN_PINS as u8 {
                        out.push(self.ipin(Coord::new(x, y - 1), p));
                    }
                }
                // Boundary pads.
                if y == 0 {
                    for kk in 0..k {
                        out.push(self.iob(IobSite {
                            side: IobSide::South,
                            pos: x,
                            k: kk,
                        }));
                    }
                } else if y == h {
                    for kk in 0..k {
                        out.push(self.iob(IobSite {
                            side: IobSide::North,
                            pos: x,
                            k: kk,
                        }));
                    }
                }
            }
            NodeKind::ChanY { x, y, t } => {
                // Switch points at (x, y) and (x, y+1); see ChanX for
                // the turn-track pattern.
                if y > 0 {
                    out.push(self.chany(x, y - 1, t));
                }
                if y + 1 < h {
                    out.push(self.chany(x, y + 1, t));
                }
                for py in [y, y + 1] {
                    for tt in turn_tracks(t, tr) {
                        if x < w {
                            out.push(self.chanx(x, py, tt));
                        }
                        if x > 0 {
                            out.push(self.chanx(x - 1, py, tt));
                        }
                    }
                }
                // Connection boxes into the CLBs right and left.
                if x < w {
                    for p in 0..CLB_IN_PINS as u8 {
                        out.push(self.ipin(Coord::new(x, y), p));
                    }
                }
                if x > 0 {
                    for p in 0..CLB_IN_PINS as u8 {
                        out.push(self.ipin(Coord::new(x - 1, y), p));
                    }
                }
                // Boundary pads.
                if x == 0 {
                    for kk in 0..k {
                        out.push(self.iob(IobSite {
                            side: IobSide::West,
                            pos: y,
                            k: kk,
                        }));
                    }
                } else if x == w {
                    for kk in 0..k {
                        out.push(self.iob(IobSite {
                            side: IobSide::East,
                            pos: y,
                            k: kk,
                        }));
                    }
                }
            }
            NodeKind::IPin { .. } => {}
            NodeKind::Iob(site) => match site.side {
                IobSide::North => {
                    for t in 0..tr {
                        out.push(self.chanx(site.pos, h, t));
                    }
                }
                IobSide::South => {
                    for t in 0..tr {
                        out.push(self.chanx(site.pos, 0, t));
                    }
                }
                IobSide::East => {
                    for t in 0..tr {
                        out.push(self.chany(w, site.pos, t));
                    }
                }
                IobSide::West => {
                    for t in 0..tr {
                        out.push(self.chany(0, site.pos, t));
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> RoutingGraph {
        RoutingGraph::new(&Device::new(4, 3, 2, 2).unwrap())
    }

    #[test]
    fn encode_decode_roundtrip_everything() {
        let g = graph();
        for i in 0..g.num_nodes() {
            let id = NodeId(i as u32);
            let kind = g.node(id);
            let re = match kind {
                NodeKind::ChanX { x, y, t } => g.chanx(x, y, t),
                NodeKind::ChanY { x, y, t } => g.chany(x, y, t),
                NodeKind::IPin { coord, pin } => g.ipin(coord, pin),
                NodeKind::OPin { coord, slot } => g.opin(coord, slot),
                NodeKind::Iob(site) => g.iob(site),
            };
            assert_eq!(re, id, "roundtrip failed for {kind}");
        }
    }

    #[test]
    fn decoding_by_multiplication_matches_division() {
        // Every shape with a dimension of 1 (the divisor the multiply
        // cannot carry) and a few wider ones: each id decodes to the
        // node it encodes, and the kind tests read the same kind.
        for (w, h, t, k) in [
            (1, 1, 1, 1),
            (1, 3, 2, 1),
            (3, 1, 1, 2),
            (5, 4, 7, 2),
            (24, 17, 12, 3),
        ] {
            let g = RoutingGraph::new(&Device::new(w, h, t, k).unwrap());
            for i in 0..g.num_nodes() {
                let id = NodeId(i as u32);
                let kind = g.node(id);
                let re = match kind {
                    NodeKind::ChanX { x, y, t } => g.chanx(x, y, t),
                    NodeKind::ChanY { x, y, t } => g.chany(x, y, t),
                    NodeKind::IPin { coord, pin } => g.ipin(coord, pin),
                    NodeKind::OPin { coord, slot } => g.opin(coord, slot),
                    NodeKind::Iob(site) => g.iob(site),
                };
                assert_eq!(re, id, "{w}x{h}, {t} tracks, {k} pads: {kind}");
                assert_eq!(g.is_ipin(id), matches!(kind, NodeKind::IPin { .. }));
                let delay = match kind {
                    NodeKind::ChanX { .. } | NodeKind::ChanY { .. } => delay::WIRE,
                    NodeKind::IPin { .. } => delay::IPIN,
                    NodeKind::OPin { .. } => delay::OPIN,
                    NodeKind::Iob(_) => delay::IOB,
                };
                assert_eq!(g.intrinsic_delay(id), delay);
            }
        }
        // The quotient and remainder are exact over the 32-bit range.
        for d in 1..=70 {
            let div = Divisor::new(d);
            for n in (0..5_000).chain([u32::MAX as usize - 1, u32::MAX as usize]) {
                assert_eq!(div.div_rem(n), (n / d, n % d), "{n} / {d}");
            }
        }
    }

    #[test]
    fn node_counts() {
        let g = graph();
        // 4*(3+1)*2 chanx + 5*3*2 chany + 12*10 ipin + 12*4 opin + 2*(4+3)*2 iob
        assert_eq!(g.num_nodes(), 32 + 30 + 120 + 48 + 28);
    }

    #[test]
    fn wire_wire_edges_are_symmetric() {
        let g = graph();
        let mut nbrs = Vec::new();
        let mut back = Vec::new();
        for i in 0..g.num_nodes() {
            let id = NodeId(i as u32);
            let kind = g.node(id);
            let is_wire = matches!(kind, NodeKind::ChanX { .. } | NodeKind::ChanY { .. });
            if !is_wire {
                continue;
            }
            g.neighbors(id, &mut nbrs);
            let snapshot = nbrs.clone();
            for &n in &snapshot {
                let nk = g.node(n);
                if matches!(nk, NodeKind::ChanX { .. } | NodeKind::ChanY { .. }) {
                    g.neighbors(n, &mut back);
                    assert!(back.contains(&id), "{nk} missing back-edge to {kind}");
                }
            }
        }
    }

    #[test]
    fn opin_reaches_all_four_channels() {
        let g = graph();
        let mut nbrs = Vec::new();
        g.neighbors(g.opin(Coord::new(1, 1), ClbSlot::LutF), &mut nbrs);
        // 4 adjacent channel segments × 2 tracks.
        assert_eq!(nbrs.len(), 8);
        assert!(nbrs.contains(&g.chanx(1, 1, 0)));
        assert!(nbrs.contains(&g.chanx(1, 2, 1)));
        assert!(nbrs.contains(&g.chany(1, 1, 0)));
        assert!(nbrs.contains(&g.chany(2, 1, 1)));
    }

    #[test]
    fn wire_reaches_adjacent_ipins() {
        let g = graph();
        let mut nbrs = Vec::new();
        g.neighbors(g.chanx(2, 1, 0), &mut nbrs);
        assert!(nbrs.contains(&g.ipin(Coord::new(2, 1), 0)));
        assert!(nbrs.contains(&g.ipin(Coord::new(2, 0), 9)));
    }

    #[test]
    fn ipins_are_terminal() {
        let g = graph();
        let mut nbrs = Vec::new();
        g.neighbors(g.ipin(Coord::new(0, 0), 3), &mut nbrs);
        assert!(nbrs.is_empty());
    }

    #[test]
    fn boundary_wires_reach_pads_and_back() {
        let g = graph();
        let mut nbrs = Vec::new();
        let south_site = IobSite {
            side: IobSide::South,
            pos: 2,
            k: 1,
        };
        g.neighbors(g.chanx(2, 0, 1), &mut nbrs);
        assert!(nbrs.contains(&g.iob(south_site)));
        g.neighbors(g.iob(south_site), &mut nbrs);
        assert!(nbrs.contains(&g.chanx(2, 0, 1)));
        let east_site = IobSite {
            side: IobSide::East,
            pos: 1,
            k: 0,
        };
        g.neighbors(g.iob(east_site), &mut nbrs);
        assert!(nbrs.contains(&g.chany(4, 1, 0)));
    }

    #[test]
    fn interior_wires_have_no_pads() {
        let g = graph();
        let mut nbrs = Vec::new();
        g.neighbors(g.chanx(1, 1, 0), &mut nbrs);
        assert!(nbrs.iter().all(|&n| !matches!(g.node(n), NodeKind::Iob(_))));
    }

    #[test]
    fn sink_and_source_mapping() {
        let g = graph();
        let loc = BelLoc::clb(2, 1, ClbSlot::LutG);
        assert_eq!(g.source_node(loc), g.opin(Coord::new(2, 1), ClbSlot::LutG));
        assert_eq!(g.sink_node(loc, 2), g.ipin(Coord::new(2, 1), 6));
        let ff = BelLoc::clb(0, 0, ClbSlot::FfB);
        assert_eq!(g.sink_node(ff, 0), g.ipin(Coord::new(0, 0), 9));
    }

    #[test]
    fn span_marks_boundary_wires() {
        let g = graph();
        // Channel y=0 wires dip below the grid.
        assert_eq!(g.span(g.chanx(1, 0, 0)), (1, -1, 1, 0));
        // Interior vertical wire straddles two columns.
        assert_eq!(g.span(g.chany(2, 1, 0)), (1, 1, 2, 1));
        // Pins sit inside one cell.
        assert_eq!(g.span(g.opin(Coord::new(3, 2), ClbSlot::FfA)), (3, 2, 3, 2));
    }

    #[test]
    fn delays_positive() {
        let g = graph();
        for i in 0..g.num_nodes() {
            assert!(g.intrinsic_delay(NodeId(i as u32)) > 0.0);
        }
    }
}
