//! The two placement engines and their dispatcher.
//!
//! The tiling flows never call an engine directly: they go through
//! [`run_placer`], which dispatches on [`PlacerConfig::engine`]. The
//! returned [`PlaceOutcome`] carries the run's effort (moves evaluated,
//! conjugate-gradient iterations) back to the caller that pays for it.
//! [`PlaceEngine::Annealing`] is the original VPR-style engine
//! ([`sa::place`]); [`PlaceEngine::Analytical`] is the quadratic solve
//! → tetris legalization → low-temperature polish pipeline that
//! reaches equal-or-better HPWL at a fraction of the moves.

use fpga::{Device, Placement};
use netlist::{CellId, CellKind, Netlist};

use crate::analytical::solve_quadratic;
use crate::config::{Constraints, PlaceEngine, PlacerConfig};
use crate::initial::initial_place;
use crate::legalize::legalize;
use crate::sa::{self, PlaceError, PlaceOutcome, Schedule};

/// Places through the engine selected by `config.engine`. This is the
/// entry point every tiling flow uses.
///
/// # Errors
///
/// Same contract as [`crate::place`]: [`PlaceError::NoSpace`] when a
/// region cannot hold its cells, [`PlaceError::Netlist`] on graph
/// inconsistencies.
pub fn run_placer(
    nl: &Netlist,
    device: &Device,
    constraints: &Constraints,
    initial: Option<Placement>,
    config: &PlacerConfig,
) -> Result<PlaceOutcome, PlaceError> {
    match config.engine {
        PlaceEngine::Annealing => sa::place(nl, device, constraints, initial, config),
        PlaceEngine::Analytical => analytical_place(nl, device, constraints, initial, config),
    }
}

/// Quadratic-wirelength solve + tetris legalization + SA polish.
fn analytical_place(
    nl: &Netlist,
    device: &Device,
    constraints: &Constraints,
    initial: Option<Placement>,
    config: &PlacerConfig,
) -> Result<PlaceOutcome, PlaceError> {
    let mut placement = initial.unwrap_or_else(|| Placement::new(nl.cell_capacity()));
    // Constructive fill first: pads get perimeter sites, logic a
    // (random but deterministic) fallback — and everything the
    // caller pre-placed or locked stays put.
    initial_place(nl, device, constraints, &mut placement, config.seed)?;

    let mut movable_logic: Vec<CellId> = Vec::new();
    let mut movable_io: Vec<CellId> = Vec::new();
    for (id, cell) in nl.cells() {
        if constraints.is_locked(id) {
            continue;
        }
        match cell.kind {
            CellKind::Lut(_) | CellKind::Ff { .. } => movable_logic.push(id),
            CellKind::Input | CellKind::Output => movable_io.push(id),
        }
    }
    if movable_logic.len() + movable_io.len() < 2 {
        // Nothing to optimize; mirror the annealer's fast path.
        return sa::place(nl, device, constraints, Some(placement), config);
    }

    let mut cg_iterations = 0u64;
    if !movable_logic.is_empty() {
        // Alternate solve ↔ pad reassignment: the constructive pad
        // sites are random, and a solve against them inherits that
        // randomness. Each reassignment pulls every movable pad to
        // the perimeter site nearest its solved neighborhood, which
        // contracts pad spread geometrically — a handful of rounds
        // settles the mutual logic/pad dependency. The final solve
        // (against the settled pads) is what gets legalized.
        const PAD_ROUNDS: usize = 4;
        let rounds = if movable_io.is_empty() { 0 } else { PAD_ROUNDS };
        let mut sol = solve_quadratic(nl, device, constraints, &placement, &movable_logic);
        cg_iterations += sol.cg_iterations;
        for _ in 0..rounds {
            assign_pads(nl, device, &mut placement, &movable_io, |c| {
                sol.positions.get(&c).copied()
            })?;
            sol = solve_quadratic(nl, device, constraints, &placement, &movable_logic);
            cg_iterations += sol.cg_iterations;
        }
        for &c in &movable_logic {
            let _ = placement.unplace(c);
        }
        let targets: Vec<(CellId, f64, f64)> = movable_logic
            .iter()
            .map(|&c| {
                let (x, y) = sol.positions[&c];
                (c, x, y)
            })
            .collect();
        legalize(nl, device, constraints, &mut placement, &targets)?;
        #[cfg(debug_assertions)]
        debug_assert!(crate::legalize::respects_regions(
            constraints,
            &placement,
            &movable_logic
        ));
    }

    // Short low-temperature polish: repairs legalization damage
    // and settles the pads; never worse than its own start.
    let mut out = sa::anneal(
        nl,
        device,
        constraints,
        placement,
        config.seed,
        Schedule::polish(config, device),
    )?;
    // Fold the CG work into the paper-comparable effort metric so
    // engine comparisons stay honest.
    out.cg_iterations = cg_iterations;
    out.moves_evaluated += cg_iterations;
    Ok(out)
}

/// Moves each movable pad to the free perimeter site nearest the
/// centroid of its nets' solved logic positions.
fn assign_pads(
    nl: &Netlist,
    device: &Device,
    placement: &mut Placement,
    pads: &[CellId],
    solved: impl Fn(CellId) -> Option<(f64, f64)>,
) -> Result<(), PlaceError> {
    let (w, h) = (device.width(), device.height());
    for &pad in pads {
        // Centroid of the solved positions on the pad's nets.
        let cell = nl.cell(pad).map_err(PlaceError::Netlist)?;
        let mut nets: Vec<netlist::NetId> = cell.inputs.clone();
        if let Some(o) = cell.output {
            nets.push(o);
        }
        let (mut sx, mut sy, mut k) = (0.0f64, 0.0f64, 0usize);
        for net in nets {
            let Ok(n) = nl.net(net) else { continue };
            let mut visit = |c: CellId| {
                if c == pad {
                    return;
                }
                if let Some((x, y)) = solved(c) {
                    sx += x;
                    sy += y;
                    k += 1;
                }
            };
            if let Some(d) = n.driver {
                visit(d);
            }
            for s in &n.sinks {
                visit(s.cell);
            }
        }
        if k == 0 {
            continue; // keep the constructive site
        }
        let (tx, ty) = (sx / k as f64, sy / k as f64);
        let _ = placement.unplace(pad);
        let best = device
            .iob_sites()
            .map(fpga::BelLoc::Iob)
            .filter(|&l| placement.is_free(l))
            .min_by(|&a, &b| {
                let pa = a.proxy_coord(w, h);
                let pb = b.proxy_coord(w, h);
                let da = (f64::from(pa.x) - tx).powi(2) + (f64::from(pa.y) - ty).powi(2);
                let db = (f64::from(pb.x) - tx).powi(2) + (f64::from(pb.y) - ty).powi(2);
                da.total_cmp(&db).then(a.cmp(&b))
            })
            .ok_or(PlaceError::NoSpace(pad))?;
        placement
            .place(pad, best)
            .map_err(|_| PlaceError::NoSpace(pad))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::total_wirelength_cost;
    use fpga::Rect;
    use netlist::TruthTable;

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
    fn analytical_matches_sa_quality_at_fraction_of_moves() {
        // Both engines are noisy on a design this small, so compare
        // aggregates over a few seeds rather than one lucky draw.
        let nl = clustered_design();
        let dev = Device::new(8, 8, 4, 2).unwrap();
        let (mut sa_cost, mut an_cost) = (0.0f64, 0.0f64);
        let (mut sa_moves, mut an_moves) = (0u64, 0u64);
        for seed in [0, 2, 4] {
            let mk = |engine| PlacerConfig {
                seed,
                engine,
                ..PlacerConfig::default()
            };
            let sa_out = run_placer(
                &nl,
                &dev,
                &Constraints::free(),
                None,
                &mk(PlaceEngine::Annealing),
            )
            .unwrap();
            let an_out = run_placer(
                &nl,
                &dev,
                &Constraints::free(),
                None,
                &mk(PlaceEngine::Analytical),
            )
            .unwrap();
            assert!(an_out.cg_iterations > 0, "quadratic solve must run");
            // Everything placed, consistent cached cost.
            assert_eq!(an_out.placement.num_placed(), nl.num_cells());
            let recomputed = total_wirelength_cost(&nl, &dev, &an_out.placement);
            assert!((recomputed - an_out.cost).abs() < 1e-6);
            sa_cost += sa_out.cost;
            an_cost += an_out.cost;
            sa_moves += sa_out.moves_evaluated;
            an_moves += an_out.moves_evaluated;
        }
        assert!(
            an_moves * 2 <= sa_moves,
            "analytical {an_moves} moves !≪ SA {sa_moves}"
        );
        assert!(
            an_cost <= sa_cost * 1.05,
            "analytical HPWL {an_cost} worse than SA {sa_cost}"
        );
    }

    #[test]
    fn analytical_is_deterministic() {
        let nl = clustered_design();
        let dev = Device::new(8, 8, 4, 2).unwrap();
        let run = || {
            let out = run_placer(
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
    fn analytical_respects_locks_and_regions() {
        let nl = clustered_design();
        let dev = Device::new(10, 10, 4, 2).unwrap();
        let mut init = Placement::new(nl.cell_capacity());
        initial_place(&nl, &dev, &Constraints::free(), &mut init, 5).unwrap();
        let locked_cell = nl.find_cell("g0_u0").unwrap();
        let pinned = init.loc_of(locked_cell).unwrap();
        let region = Rect::new(0, 0, 4, 4);
        let mut cons = Constraints::free();
        cons.lock(locked_cell);
        let confined: Vec<CellId> = nl
            .cells()
            .filter(|(id, c)| c.is_logic() && *id != locked_cell)
            .map(|(id, _)| id)
            .collect();
        for &id in &confined {
            cons.confine(id, region);
        }
        let out = run_placer(&nl, &dev, &cons, Some(init), &PlacerConfig::fast(7)).unwrap();
        assert_eq!(out.placement.loc_of(locked_cell), Some(pinned));
        for &id in &confined {
            let loc = out.placement.loc_of(id).unwrap();
            assert!(
                region.contains(loc.coord().unwrap()),
                "{id} escaped to {loc}"
            );
        }
    }
}
