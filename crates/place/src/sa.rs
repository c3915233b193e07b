//! The simulated-annealing engine.

use std::error::Error;
use std::fmt;

use fpga::{BelLoc, Device, Placement, Rect};
use netlist::{CellId, CellKind, NetId, Netlist, NetlistError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{Constraints, PlacerConfig};
use crate::cost::q_factor;
use crate::initial::{clip, compatible, initial_place, slots_for};

/// Errors from placement.
#[derive(Debug)]
#[non_exhaustive]
pub enum PlaceError {
    /// No free compatible site exists for the cell in its region.
    NoSpace(CellId),
    /// Underlying netlist inconsistency.
    Netlist(NetlistError),
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSpace(c) => write!(f, "no free compatible site for cell {c}"),
            Self::Netlist(e) => write!(f, "netlist error during placement: {e}"),
        }
    }
}

impl Error for PlaceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for PlaceError {
    fn from(e: NetlistError) -> Self {
        Self::Netlist(e)
    }
}

/// Result of a placement run.
#[derive(Debug, Clone)]
pub struct PlaceOutcome {
    /// The final placement.
    pub placement: Placement,
    /// Final HPWL cost.
    pub cost: f64,
    /// Moves evaluated — the paper-comparable CAD-effort metric. The
    /// analytical engine folds its conjugate-gradient iterations in
    /// here too, so engine efforts stay comparable.
    pub moves_evaluated: u64,
    /// Moves accepted.
    pub moves_accepted: u64,
    /// Temperatures annealed through.
    pub temperatures: usize,
    /// Conjugate-gradient iterations (zero for the pure annealer).
    pub cg_iterations: u64,
}

/// How the annealing schedule picks its starting temperature.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TempInit {
    /// Calibrate from the cost variance of random probe moves (the
    /// full VPR run). Probe moves are *applied* (`T = ∞` accepts
    /// everything), so this is destructive — only for cold starts.
    Probe,
    /// `T0 = fraction × cost / nets` — a non-destructive low start
    /// for polishing an already-good placement.
    CostFraction(f64),
}

/// One annealing schedule: the full run and the analytical polish
/// share the move engine and differ only in these knobs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Schedule {
    pub temp_init: TempInit,
    pub inner_num: f64,
    pub exit_ratio: f64,
    pub max_temps: usize,
    /// Starting move-window radius (the full run uses the device
    /// diagonal; the polish starts local).
    pub rlim0: f64,
}

impl Schedule {
    pub(crate) fn full(config: &PlacerConfig, device: &Device) -> Self {
        Self {
            temp_init: TempInit::Probe,
            inner_num: config.inner_num,
            exit_ratio: config.exit_ratio,
            max_temps: config.max_temps,
            rlim0: f64::from(device.width().max(device.height())),
        }
    }

    pub(crate) fn polish(config: &PlacerConfig, device: &Device) -> Self {
        Self {
            temp_init: TempInit::CostFraction(0.65),
            inner_num: config.polish_inner,
            exit_ratio: config.exit_ratio,
            max_temps: config.polish_temps,
            rlim0: f64::from(device.width().max(device.height()) / 2).max(3.0),
        }
    }
}

/// Places a netlist on a device under constraints.
///
/// `initial` seeds the placement (locked cells *must* be placed in it);
/// unplaced movable cells are constructively placed first, then the
/// movable set is annealed. With `Constraints::free()` and no initial
/// placement this is a full VPR-style run.
///
/// This is the raw annealing engine; [`crate::run_placer`] dispatches
/// between it and the analytical engine via
/// [`crate::PlacerConfig::engine`].
///
/// # Errors
///
/// Returns [`PlaceError::NoSpace`] when a region cannot hold its cells,
/// or [`PlaceError::Netlist`] on graph inconsistencies.
pub fn place(
    nl: &Netlist,
    device: &Device,
    constraints: &Constraints,
    initial: Option<Placement>,
    config: &PlacerConfig,
) -> Result<PlaceOutcome, PlaceError> {
    let mut placement = initial.unwrap_or_else(|| Placement::new(nl.cell_capacity()));
    initial_place(nl, device, constraints, &mut placement, config.seed)?;
    anneal(
        nl,
        device,
        constraints,
        placement,
        config.seed,
        Schedule::full(config, device),
    )
}

/// Runs one annealing schedule over an already-complete placement.
/// Shared by [`place`] (full schedule) and the analytical engine's
/// polish phase.
pub(crate) fn anneal(
    nl: &Netlist,
    device: &Device,
    constraints: &Constraints,
    placement: Placement,
    seed: u64,
    schedule: Schedule,
) -> Result<PlaceOutcome, PlaceError> {
    // Nets incident to each movable cell, with the cell's terminal
    // multiplicity on the net (HPWL counts every sink occurrence, so
    // a cell sinking a net twice moves two bounding-box points). A
    // move reads the lists of the moved cell and of the occupant it
    // displaces, which is unlocked and so movable too; locked cells
    // get none.
    let mut movable: Vec<CellId> = Vec::new();
    let mut incident: Vec<Vec<(NetId, u32)>> = vec![Vec::new(); nl.cell_capacity()];
    let mut nets: Vec<NetId> = Vec::new();
    for (id, cell) in nl.cells() {
        if constraints.is_locked(id) {
            continue;
        }
        movable.push(id);
        nets.clear();
        nets.extend(cell.inputs.iter().copied().chain(cell.output));
        nets.sort_unstable();
        let with_mult = &mut incident[id.index()];
        for &n in &nets {
            match with_mult.last_mut() {
                Some((last, m)) if *last == n => *m += 1,
                _ => with_mult.push((n, 1)),
            }
        }
    }

    // Per-net incremental bounding-box cache.
    let mut net_box: Vec<NetBox> = vec![NetBox::default(); nl.net_capacity()];
    let mut cost = 0.0;
    for (id, _) in nl.nets() {
        let b = NetBox::scan(nl, device, &placement, id);
        cost += b.cost;
        net_box[id.index()] = b;
    }

    let mut outcome = PlaceOutcome {
        placement,
        cost,
        moves_evaluated: 0,
        moves_accepted: 0,
        temperatures: 0,
        cg_iterations: 0,
    };
    if movable.len() < 2 {
        return Ok(outcome);
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut annealer = Annealer {
        nl,
        device,
        constraints,
        incident: &incident,
        rng: &mut rng,
        placement: &mut outcome.placement,
        net_box: &mut net_box,
        cost: &mut outcome.cost,
        scratch: Vec::new(),
        candidates: Vec::new(),
    };

    let num_nets = nl.num_nets().max(1) as f64;
    let mut temp = match schedule.temp_init {
        TempInit::Probe => {
            // Estimate the starting temperature from random move deltas.
            let probes = (movable.len() * 4).clamp(16, 512);
            let mut deltas = Vec::with_capacity(probes);
            for _ in 0..probes {
                if let Some(d) = annealer.try_move(&movable, f64::INFINITY) {
                    deltas.push(d);
                }
            }
            let mean = deltas.iter().sum::<f64>() / deltas.len().max(1) as f64;
            let var = deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>()
                / deltas.len().max(1) as f64;
            (20.0 * var.sqrt()).max(1.0)
        }
        TempInit::CostFraction(f) => (f * *annealer.cost / num_nets).max(1e-3),
    };

    let inner = ((movable.len() as f64).powf(4.0 / 3.0) * schedule.inner_num).max(8.0) as u64;
    let mut rlim = schedule.rlim0;

    for _ in 0..schedule.max_temps {
        outcome.temperatures += 1;
        let mut accepted = 0u64;
        for _ in 0..inner {
            outcome.moves_evaluated += 1;
            let window = rlim.round().max(1.0) as u16;
            if annealer.anneal_move(&movable, temp, window).is_some() {
                accepted += 1;
            }
        }
        outcome.moves_accepted += accepted;
        let rate = accepted as f64 / inner as f64;
        // VPR schedule.
        let alpha = if rate > 0.96 {
            0.5
        } else if rate > 0.8 {
            0.9
        } else if rate > 0.15 {
            0.95
        } else {
            0.8
        };
        temp *= alpha;
        rlim =
            (rlim * (1.0 - 0.44 + rate)).clamp(1.0, f64::from(device.width().max(device.height())));
        if temp < schedule.exit_ratio * *annealer.cost / num_nets {
            break;
        }
    }
    Ok(outcome)
}

/// One net's cached bounding box: corners, how many placed terminals
/// sit on each edge, and the resulting HPWL cost. A move updates the
/// box incrementally; only when a departing terminal empties the edge
/// that defined a bound does the net get rescanned.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct NetBox {
    x0: u16,
    y0: u16,
    x1: u16,
    y1: u16,
    on_x0: u32,
    on_x1: u32,
    on_y0: u32,
    on_y1: u32,
    /// Placed terminal occurrences (driver + every sink occurrence).
    terms: u32,
    cost: f64,
}

impl NetBox {
    /// Full scan of the net under the current placement.
    fn scan(nl: &Netlist, device: &Device, placement: &Placement, net: NetId) -> Self {
        let Ok(n) = nl.net(net) else {
            return Self::default();
        };
        let (w, h) = (device.width(), device.height());
        let mut b = Self {
            x0: u16::MAX,
            y0: u16::MAX,
            ..Self::default()
        };
        let mut visit = |cell: CellId| {
            if let Some(loc) = placement.loc_of(cell) {
                let c = loc.proxy_coord(w, h);
                b.x0 = b.x0.min(c.x);
                b.y0 = b.y0.min(c.y);
                b.x1 = b.x1.max(c.x);
                b.y1 = b.y1.max(c.y);
                b.terms += 1;
            }
        };
        if let Some(driver) = n.driver {
            visit(driver);
        }
        for s in &n.sinks {
            visit(s.cell);
        }
        if b.terms == 0 {
            return Self::default();
        }
        // Second pass for the edge counts (bounds are known now).
        let mut count = |cell: CellId| {
            if let Some(loc) = placement.loc_of(cell) {
                let c = loc.proxy_coord(w, h);
                b.on_x0 += u32::from(c.x == b.x0);
                b.on_x1 += u32::from(c.x == b.x1);
                b.on_y0 += u32::from(c.y == b.y0);
                b.on_y1 += u32::from(c.y == b.y1);
            }
        };
        if let Some(driver) = n.driver {
            count(driver);
        }
        for s in &n.sinks {
            count(s.cell);
        }
        b.recost();
        b
    }

    fn recost(&mut self) {
        self.cost = if self.terms < 2 {
            0.0
        } else {
            let span = f64::from(self.x1 - self.x0) + f64::from(self.y1 - self.y0);
            q_factor(self.terms as usize) * span
        };
    }

    /// Removes `m` terminal occurrences at `c`. Returns `false` when a
    /// bound-defining edge emptied and the box needs a rescan.
    fn remove(&mut self, c: fpga::Coord, m: u32) -> bool {
        if c.x == self.x0 {
            self.on_x0 -= m.min(self.on_x0);
            if self.on_x0 == 0 {
                return false;
            }
        }
        if c.x == self.x1 {
            self.on_x1 -= m.min(self.on_x1);
            if self.on_x1 == 0 {
                return false;
            }
        }
        if c.y == self.y0 {
            self.on_y0 -= m.min(self.on_y0);
            if self.on_y0 == 0 {
                return false;
            }
        }
        if c.y == self.y1 {
            self.on_y1 -= m.min(self.on_y1);
            if self.on_y1 == 0 {
                return false;
            }
        }
        true
    }

    /// Adds `m` terminal occurrences at `c`, growing the box if needed.
    fn add(&mut self, c: fpga::Coord, m: u32) {
        if c.x < self.x0 {
            self.x0 = c.x;
            self.on_x0 = m;
        } else if c.x == self.x0 {
            self.on_x0 += m;
        }
        if c.x > self.x1 {
            self.x1 = c.x;
            self.on_x1 = m;
        } else if c.x == self.x1 {
            self.on_x1 += m;
        }
        if c.y < self.y0 {
            self.y0 = c.y;
            self.on_y0 = m;
        } else if c.y == self.y0 {
            self.on_y0 += m;
        }
        if c.y > self.y1 {
            self.y1 = c.y;
            self.on_y1 = m;
        } else if c.y == self.y1 {
            self.on_y1 += m;
        }
    }
}

struct Annealer<'a> {
    nl: &'a Netlist,
    device: &'a Device,
    constraints: &'a Constraints,
    incident: &'a [Vec<(NetId, u32)>],
    rng: &'a mut SmallRng,
    placement: &'a mut Placement,
    net_box: &'a mut [NetBox],
    cost: &'a mut f64,
    scratch: Vec<NetId>,
    candidates: Vec<(NetId, NetBox)>,
}

impl Annealer<'_> {
    /// Proposes and (per Metropolis at `temp`) applies one move over
    /// the full device. Returns the delta if accepted.
    fn try_move(&mut self, movable: &[CellId], temp: f64) -> Option<f64> {
        let window = self.device.width().max(self.device.height());
        self.anneal_move(movable, temp, window)
    }

    fn anneal_move(&mut self, movable: &[CellId], temp: f64, window: u16) -> Option<f64> {
        let cell = movable[self.rng.gen_range(0..movable.len())];
        let kind = &self.nl.cell(cell).ok()?.kind;
        let cur = self.placement.loc_of(cell)?;
        let target = self.propose_target(cell, kind, cur, window)?;
        if target == cur {
            return None;
        }
        // Occupant handling.
        let occupant = self.placement.cell_at(target);
        if let Some(other) = occupant {
            if self.constraints.is_locked(other) {
                return None;
            }
            let other_kind = &self.nl.cell(other).ok()?.kind;
            if !compatible(other_kind, cur) || !compatible(kind, target) {
                return None;
            }
            // The displaced cell must accept our old location.
            if let Some(rects) = self.constraints.region_of(other) {
                match cur.coord() {
                    Some(c) if rects.iter().any(|r| r.contains(c)) => {}
                    _ => return None,
                }
            }
        } else if !compatible(kind, target) {
            return None;
        }

        // Affected nets.
        self.scratch.clear();
        self.scratch
            .extend(self.incident[cell.index()].iter().map(|&(n, _)| n));
        if let Some(other) = occupant {
            self.scratch
                .extend(self.incident[other.index()].iter().map(|&(n, _)| n));
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
        let old: f64 = self
            .scratch
            .iter()
            .map(|n| self.net_box[n.index()].cost)
            .sum();

        // Apply, then update each touched net's box incrementally
        // (rescanning only when a bound-defining edge empties).
        match occupant {
            Some(other) => self.placement.swap(cell, other).ok()?,
            None => self.placement.place(cell, target).ok()?,
        }
        let moved: [(CellId, BelLoc); 2] = match occupant {
            Some(other) => [(cell, cur), (other, target)],
            None => [(cell, cur), (cell, cur)],
        };
        let moved = &moved[..if occupant.is_some() { 2 } else { 1 }];
        let scratch = std::mem::take(&mut self.scratch);
        self.candidates.clear();
        let mut new = 0.0;
        for &n in &scratch {
            let b = self.candidate_box(n, moved);
            new += b.cost;
            self.candidates.push((n, b));
        }
        self.scratch = scratch;
        let delta = new - old;
        let accept = delta <= 0.0
            || (temp.is_finite()
                && self.rng.gen_range(0.0..1.0) < (-delta / temp.max(1e-12)).exp())
            || temp.is_infinite();
        if !accept {
            // Revert.
            match occupant {
                Some(other) => {
                    let _ = self.placement.swap(cell, other);
                }
                None => {
                    let _ = self.placement.place(cell, cur);
                }
            }
            return None;
        }
        for &(n, b) in &self.candidates {
            *self.cost += b.cost - self.net_box[n.index()].cost;
            self.net_box[n.index()] = b;
        }
        Some(delta)
    }

    /// The net's bounding box after the applied move: start from the
    /// cached box, remove each moved terminal at its old proxy
    /// coordinate and re-add it at the new one. Falls back to a full
    /// scan when a removal empties the edge that defined a bound.
    fn candidate_box(&self, net: NetId, moved: &[(CellId, BelLoc)]) -> NetBox {
        let (w, h) = (self.device.width(), self.device.height());
        let mut b = self.net_box[net.index()];
        for &(cell, old) in moved {
            let nets = &self.incident[cell.index()];
            let Ok(i) = nets.binary_search_by_key(&net, |&(n, _)| n) else {
                continue;
            };
            let m = nets[i].1;
            let new = match self.placement.loc_of(cell) {
                Some(loc) => loc,
                None => return NetBox::scan(self.nl, self.device, self.placement, net),
            };
            if !b.remove(old.proxy_coord(w, h), m) {
                // A bound's edge emptied; the placement already holds
                // every moved cell, so one rescan settles the box.
                return NetBox::scan(self.nl, self.device, self.placement, net);
            }
            b.add(new.proxy_coord(w, h), m);
        }
        b.recost();
        b
    }

    fn propose_target(
        &mut self,
        cell: CellId,
        kind: &CellKind,
        cur: BelLoc,
        window: u16,
    ) -> Option<BelLoc> {
        match kind {
            CellKind::Input | CellKind::Output => {
                // IOBs move along the perimeter freely.
                let i = self.rng.gen_range(0..self.device.io_capacity());
                self.device.iob_site(i).map(BelLoc::Iob)
            }
            CellKind::Lut(_) | CellKind::Ff { .. } => {
                let c = cur.coord()?;
                let b = self.device.bounds();
                let win = Rect::new(
                    c.x.saturating_sub(window),
                    c.y.saturating_sub(window),
                    (c.x + window).min(b.x1),
                    (c.y + window).min(b.y1),
                );
                let region = match self.constraints.region_of(cell) {
                    None => clip(win, b)?,
                    Some(rects) => {
                        // Pick one of the region rectangles; prefer the
                        // window intersection when it exists.
                        let r = rects[self.rng.gen_range(0..rects.len())];
                        clip(r, win).or_else(|| clip(r, b))?
                    }
                };
                let x = self.rng.gen_range(region.x0..=region.x1);
                let y = self.rng.gen_range(region.y0..=region.y1);
                let slots = slots_for(kind);
                let slot = slots[self.rng.gen_range(0..slots.len())];
                Some(BelLoc::clb(x, y, slot))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{net_bbox_cost, total_wirelength_cost};
    use netlist::TruthTable;

    /// Two clusters of tightly connected LUTs.
    fn clustered_design() -> Netlist {
        let mut nl = Netlist::new("clusters");
        for g in 0..2 {
            let a = nl.add_input(format!("a{g}")).unwrap();
            let mut prev = nl.cell_output(a).unwrap();
            for i in 0..10 {
                let u = nl
                    .add_lut(format!("g{g}_u{i}"), TruthTable::not(), &[prev])
                    .unwrap();
                prev = nl.cell_output(u).unwrap();
            }
            nl.add_output(format!("y{g}"), prev).unwrap();
        }
        nl
    }

    #[test]
    fn annealing_reduces_cost() {
        let nl = clustered_design();
        let dev = Device::new(8, 8, 4, 2).unwrap();
        // Random initial placement cost:
        let mut init = Placement::new(nl.cell_capacity());
        initial_place(&nl, &dev, &Constraints::free(), &mut init, 77).unwrap();
        let init_cost = total_wirelength_cost(&nl, &dev, &init);
        let out = place(
            &nl,
            &dev,
            &Constraints::free(),
            Some(init),
            &PlacerConfig::default(),
        )
        .unwrap();
        assert!(out.cost < init_cost, "{} !< {init_cost}", out.cost);
        assert!(out.moves_evaluated > 0);
        // Cache consistency: recomputed cost matches incremental cost.
        let recomputed = total_wirelength_cost(&nl, &dev, &out.placement);
        assert!((recomputed - out.cost).abs() < 1e-6);
    }

    /// The incremental bounding-box cache must agree with the full
    /// per-net scan after any accepted/rejected move mix — driven
    /// through several real annealing runs with different shapes
    /// (swaps, empty-edge rescans, high-fanout q-factor changes).
    #[test]
    fn bbox_cache_matches_scan_recompute() {
        // A design with a high-fanout net and a cell that sinks the
        // same net twice (multiplicity > 1 matters for edge counts).
        let mut nl = Netlist::new("fanout");
        let a = nl.add_input("a").unwrap();
        let anet = nl.cell_output(a).unwrap();
        let mut last = anet;
        for i in 0..12 {
            let u = nl
                .add_lut(format!("u{i}"), TruthTable::and(2), &[anet, last])
                .unwrap();
            last = nl.cell_output(u).unwrap();
        }
        let d = nl
            .add_lut("dbl", TruthTable::and(2), &[anet, anet])
            .unwrap();
        nl.add_output("yd", nl.cell_output(d).unwrap()).unwrap();
        nl.add_output("y", last).unwrap();

        let dev = Device::new(6, 6, 4, 2).unwrap();
        for seed in [3, 17, 99] {
            let out = place(
                &nl,
                &dev,
                &Constraints::free(),
                None,
                &PlacerConfig::fast(seed),
            )
            .unwrap();
            let mut total = 0.0;
            for (id, _) in nl.nets() {
                let scanned = NetBox::scan(&nl, &dev, &out.placement, id);
                let cached = net_bbox_cost(&nl, &dev, &out.placement, id);
                assert!(
                    (scanned.cost - cached).abs() < 1e-9,
                    "net {id}: box scan {} != direct scan {cached}",
                    scanned.cost
                );
                total += cached;
            }
            assert!(
                (total - out.cost).abs() < 1e-6,
                "seed {seed}: cached total {} != scanned {total}",
                out.cost
            );
        }
    }

    /// The shape of an ECO: every cell locked but three, so the
    /// annealer builds incident-net lists for those three only. The
    /// cached cost must still agree with a full scan.
    #[test]
    fn bbox_cache_matches_scan_with_most_cells_locked() {
        // `dbl` sinks `anet` twice; `y` is a pad on a net no other
        // movable cell shares; `u5` is a LUT.
        let mut nl = Netlist::new("mostly_locked");
        let a = nl.add_input("a").unwrap();
        let anet = nl.cell_output(a).unwrap();
        let mut last = anet;
        for i in 0..10 {
            let u = nl
                .add_lut(format!("u{i}"), TruthTable::and(2), &[anet, last])
                .unwrap();
            last = nl.cell_output(u).unwrap();
        }
        let d = nl
            .add_lut("dbl", TruthTable::and(2), &[anet, anet])
            .unwrap();
        nl.add_output("yd", nl.cell_output(d).unwrap()).unwrap();
        nl.add_output("y", last).unwrap();
        let free = [d, nl.find_cell("y").unwrap(), nl.find_cell("u5").unwrap()];

        let dev = Device::new(6, 6, 4, 2).unwrap();
        let mut cons = Constraints::free();
        for (id, _) in nl.cells().filter(|(id, _)| !free.contains(id)) {
            cons.lock(id);
        }
        for seed in [3, 17, 99] {
            let mut init = Placement::new(nl.cell_capacity());
            initial_place(&nl, &dev, &Constraints::free(), &mut init, seed).unwrap();
            let out = place(
                &nl,
                &dev,
                &cons,
                Some(init.clone()),
                &PlacerConfig::fast(seed),
            )
            .unwrap();
            assert!(out.moves_accepted > 0, "seed {seed}: nothing moved");
            for (id, loc) in init.iter() {
                if !free.contains(&id) {
                    assert_eq!(out.placement.loc_of(id), Some(loc), "locked {id} moved");
                }
            }
            let scanned = total_wirelength_cost(&nl, &dev, &out.placement);
            assert!(
                (scanned - out.cost).abs() < 1e-6,
                "seed {seed}: cached total {} != scanned {scanned}",
                out.cost
            );
        }
    }

    #[test]
    fn locked_cells_do_not_move() {
        let nl = clustered_design();
        let dev = Device::new(8, 8, 4, 2).unwrap();
        let mut init = Placement::new(nl.cell_capacity());
        initial_place(&nl, &dev, &Constraints::free(), &mut init, 5).unwrap();
        let locked_cell = nl.find_cell("g0_u0").unwrap();
        let pinned = init.loc_of(locked_cell).unwrap();
        let mut cons = Constraints::free();
        cons.lock(locked_cell);
        let out = place(&nl, &dev, &cons, Some(init), &PlacerConfig::fast(5)).unwrap();
        assert_eq!(out.placement.loc_of(locked_cell), Some(pinned));
    }

    #[test]
    fn regions_are_respected_through_annealing() {
        let nl = clustered_design();
        let dev = Device::new(10, 10, 4, 2).unwrap();
        let region = Rect::new(0, 0, 3, 3);
        let mut cons = Constraints::free();
        let confined: Vec<CellId> = nl
            .cells()
            .filter(|(_, c)| c.is_logic())
            .map(|(id, _)| id)
            .collect();
        for &id in &confined {
            cons.confine(id, region);
        }
        let out = place(&nl, &dev, &cons, None, &PlacerConfig::fast(11)).unwrap();
        for &id in &confined {
            let loc = out.placement.loc_of(id).unwrap();
            assert!(
                region.contains(loc.coord().unwrap()),
                "{id} escaped to {loc}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let nl = clustered_design();
        let dev = Device::new(8, 8, 4, 2).unwrap();
        let run = || {
            let out = place(
                &nl,
                &dev,
                &Constraints::free(),
                None,
                &PlacerConfig::fast(42),
            )
            .unwrap();
            let locs: Vec<_> = out.placement.iter().collect();
            (locs, out.cost.to_bits(), out.moves_evaluated)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn effort_scales_with_movable_count() {
        let dev = Device::new(12, 12, 4, 2).unwrap();
        let small = {
            let mut nl = Netlist::new("s");
            let a = nl.add_input("a").unwrap();
            let mut prev = nl.cell_output(a).unwrap();
            for i in 0..4 {
                let u = nl
                    .add_lut(format!("u{i}"), TruthTable::not(), &[prev])
                    .unwrap();
                prev = nl.cell_output(u).unwrap();
            }
            nl.add_output("y", prev).unwrap();
            nl
        };
        let big = clustered_design();
        let cfg = PlacerConfig {
            max_temps: 10,
            ..PlacerConfig::default()
        };
        let e_small = place(&small, &dev, &Constraints::free(), None, &cfg)
            .unwrap()
            .moves_evaluated;
        let e_big = place(&big, &dev, &Constraints::free(), None, &cfg)
            .unwrap()
            .moves_evaluated;
        assert!(e_big > e_small);
    }

    #[test]
    fn fully_locked_design_returns_immediately() {
        let nl = clustered_design();
        let dev = Device::new(8, 8, 4, 2).unwrap();
        let mut init = Placement::new(nl.cell_capacity());
        initial_place(&nl, &dev, &Constraints::free(), &mut init, 5).unwrap();
        let mut cons = Constraints::free();
        for (id, _) in nl.cells() {
            cons.lock(id);
        }
        let out = place(&nl, &dev, &cons, Some(init), &PlacerConfig::default()).unwrap();
        assert_eq!(out.moves_evaluated, 0);
        assert_eq!(out.temperatures, 0);
    }

    #[test]
    fn no_space_is_reported() {
        let nl = clustered_design(); // 20 LUTs
        let dev = Device::new(2, 2, 4, 2).unwrap(); // 8 LUT slots
        let err = place(
            &nl,
            &dev,
            &Constraints::free(),
            None,
            &PlacerConfig::fast(1),
        );
        assert!(matches!(err, Err(PlaceError::NoSpace(_))));
    }
}
