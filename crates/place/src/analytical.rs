//! Quadratic-wirelength analytical placement.
//!
//! The classical global-placement relaxation: model each net as
//! springs between its terminals (a *clique* of pairwise springs for
//! small nets, a *star* through an auxiliary center variable for large
//! ones), fix the pads and locked cells as anchors, and minimize the
//! total quadratic wirelength. The minimum of the resulting
//! positive-definite system is found with a hand-rolled conjugate
//! gradient — no external solver dependencies, deterministic f64
//! arithmetic, and the iteration count doubles as an effort metric
//! (returned as `PlaceOutcome::cg_iterations`).
//!
//! The solution is continuous and overlapping; `crate::legalize` snaps
//! it onto real BELs and the low-temperature polish in
//! `crate::placer` repairs what the snapping broke.

use std::collections::HashMap;

use fpga::{Device, Placement};
use netlist::{CellId, Netlist};

use crate::config::Constraints;
use crate::initial::clip;

/// Nets up to this many distinct placed terminals get the exact
/// clique decomposition; larger nets get the linear-size star.
const CLIQUE_MAX: usize = 3;

/// Weight pulling a region-confined movable cell toward its region
/// center (legalization enforces the hard constraint; the spring only
/// keeps the relaxation from drifting the cell far from its region).
const REGION_ANCHOR_W: f64 = 0.25;

/// Self-anchor toward the device center: guarantees strict diagonal
/// dominance (positive definiteness) even for floating components.
const EPS_ANCHOR_W: f64 = 1e-4;

/// The solved continuous positions of the movable cells.
pub(crate) struct QuadraticSolution {
    /// cell → (x, y), in device coordinates (unclamped).
    pub positions: HashMap<CellId, (f64, f64)>,
    /// Conjugate-gradient iterations spent (both axes).
    pub cg_iterations: u64,
}

/// Builds and solves the clique/star quadratic system for the movable
/// cells, with every placed non-movable cell folded in as a fixed
/// anchor at its proxy coordinate.
///
/// `movable` must be the cells to solve for (logic cells; IOBs are
/// anchors). Cells outside `movable` that appear on shared nets are
/// read from `placement` — unplaced ones are simply skipped.
pub(crate) fn solve_quadratic(
    nl: &Netlist,
    device: &Device,
    constraints: &Constraints,
    placement: &Placement,
    movable: &[CellId],
) -> QuadraticSolution {
    let n_mov = movable.len();
    let var_of: HashMap<CellId, usize> = movable.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let (w, h) = (device.width(), device.height());
    let center = (
        f64::from(w.saturating_sub(1)) / 2.0,
        f64::from(h.saturating_sub(1)) / 2.0,
    );
    let fixed_pos = |cell: CellId| -> Option<(f64, f64)> {
        let loc = placement.loc_of(cell)?;
        let c = loc.proxy_coord(w, h);
        Some((f64::from(c.x), f64::from(c.y)))
    };

    // Assemble triplets. Star centers get variables after the movable
    // block, discovered on the fly.
    let mut builder = SystemBuilder::new(n_mov);
    for (net, n) in nl.nets() {
        let _ = net;
        // Distinct terminal cells, split movable / fixed-placed.
        let mut terms: Vec<CellId> = Vec::with_capacity(n.sinks.len() + 1);
        if let Some(d) = n.driver {
            terms.push(d);
        }
        terms.extend(n.sinks.iter().map(|s| s.cell));
        terms.sort_unstable();
        terms.dedup();
        let mut vars: Vec<usize> = Vec::new();
        let mut anchors: Vec<(f64, f64)> = Vec::new();
        for &t in &terms {
            match var_of.get(&t) {
                Some(&v) => vars.push(v),
                None => {
                    if let Some(p) = fixed_pos(t) {
                        anchors.push(p);
                    }
                }
            }
        }
        if vars.is_empty() {
            continue;
        }
        let t = vars.len() + anchors.len();
        if t < 2 {
            continue;
        }
        let w_net = 2.0 / t as f64;
        if t <= CLIQUE_MAX {
            // Clique: a spring between every terminal pair.
            for i in 0..vars.len() {
                for j in (i + 1)..vars.len() {
                    builder.spring(vars[i], vars[j], w_net);
                }
                for a in &anchors {
                    builder.anchor(vars[i], *a, w_net);
                }
            }
        } else {
            // Star: one auxiliary center variable per large net.
            let c = builder.new_center();
            for &v in &vars {
                builder.spring(v, c, w_net);
            }
            for a in &anchors {
                builder.anchor(c, *a, w_net);
            }
        }
    }

    // Region springs and the ε self-anchor.
    for (i, &cell) in movable.iter().enumerate() {
        let target = constraints.region_of(cell).and_then(|rects| {
            let mut acc = (0.0f64, 0.0f64, 0usize);
            for r in rects.iter().filter_map(|&r| clip(r, device.bounds())) {
                acc.0 += (f64::from(r.x0) + f64::from(r.x1)) / 2.0;
                acc.1 += (f64::from(r.y0) + f64::from(r.y1)) / 2.0;
                acc.2 += 1;
            }
            (acc.2 > 0).then(|| (acc.0 / acc.2 as f64, acc.1 / acc.2 as f64))
        });
        if let Some(t) = target {
            builder.anchor(i, t, REGION_ANCHOR_W);
        }
        builder.anchor(i, center, EPS_ANCHOR_W);
    }
    for c in n_mov..builder.dim() {
        builder.anchor(c, center, EPS_ANCHOR_W);
    }

    let (matrix, rhs_x, rhs_y) = builder.finish();
    let mut x = vec![center.0; matrix.dim];
    let mut y = vec![center.1; matrix.dim];
    let mut iters = 0u64;
    iters += conjugate_gradient(&matrix, &rhs_x, &mut x);
    iters += conjugate_gradient(&matrix, &rhs_y, &mut y);

    let positions = movable
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, (x[i], y[i])))
        .collect();
    QuadraticSolution {
        positions,
        cg_iterations: iters,
    }
}

/// Sparse symmetric system accumulator (Laplacian + anchor diagonal).
struct SystemBuilder {
    dim: usize,
    /// Off-diagonal triplets (i, j, w) with i < j; `-w` enters the
    /// matrix at (i,j) and (j,i).
    springs: Vec<(usize, usize, f64)>,
    diag: Vec<f64>,
    rhs_x: Vec<f64>,
    rhs_y: Vec<f64>,
}

impl SystemBuilder {
    fn new(n: usize) -> Self {
        Self {
            dim: n,
            springs: Vec::new(),
            diag: vec![0.0; n],
            rhs_x: vec![0.0; n],
            rhs_y: vec![0.0; n],
        }
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn new_center(&mut self) -> usize {
        self.dim += 1;
        self.diag.push(0.0);
        self.rhs_x.push(0.0);
        self.rhs_y.push(0.0);
        self.dim - 1
    }

    /// A spring of weight `w` between two variables.
    fn spring(&mut self, i: usize, j: usize, w: f64) {
        debug_assert_ne!(i, j);
        self.diag[i] += w;
        self.diag[j] += w;
        self.springs.push((i.min(j), i.max(j), w));
    }

    /// A spring of weight `w` from variable `i` to a fixed point.
    fn anchor(&mut self, i: usize, at: (f64, f64), w: f64) {
        self.diag[i] += w;
        self.rhs_x[i] += w * at.0;
        self.rhs_y[i] += w * at.1;
    }

    /// Collapses the triplets into CSR form (duplicate springs between
    /// the same pair merge into one entry).
    fn finish(self) -> (SparseMatrix, Vec<f64>, Vec<f64>) {
        // Symmetrize: store both (i,j) and (j,i) entries.
        let mut entries: Vec<(usize, usize, f64)> = Vec::with_capacity(self.springs.len() * 2);
        for &(i, j, w) in &self.springs {
            entries.push((i, j, -w));
            entries.push((j, i, -w));
        }
        entries.sort_unstable_by_key(|a| (a.0, a.1));
        let mut row_ptr = vec![0usize; self.dim + 1];
        let mut cols: Vec<usize> = Vec::with_capacity(entries.len());
        let mut vals: Vec<f64> = Vec::with_capacity(entries.len());
        let mut last: Option<(usize, usize)> = None;
        for (i, j, w) in entries {
            if last == Some((i, j)) {
                *vals.last_mut().unwrap() += w;
            } else {
                cols.push(j);
                vals.push(w);
                row_ptr[i + 1] += 1;
                last = Some((i, j));
            }
        }
        for i in 0..self.dim {
            row_ptr[i + 1] += row_ptr[i];
        }
        (
            SparseMatrix {
                dim: self.dim,
                row_ptr,
                cols,
                vals,
                diag: self.diag,
            },
            self.rhs_x,
            self.rhs_y,
        )
    }
}

/// CSR off-diagonal + dense diagonal.
struct SparseMatrix {
    dim: usize,
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    diag: Vec<f64>,
}

impl SparseMatrix {
    fn mul(&self, v: &[f64], out: &mut [f64]) {
        for i in 0..self.dim {
            let mut acc = self.diag[i] * v[i];
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.vals[k] * v[self.cols[k]];
            }
            out[i] = acc;
        }
    }
}

/// Relative-residual tolerance for the CG solve: the solution feeds a
/// discrete legalizer, so sub-cell accuracy is wasted work.
const CG_TOL: f64 = 1e-6;
const CG_MAX_ITERS: usize = 300;

/// Standard conjugate gradient on the SPD system `A·x = b`, warm-
/// started from `x`. Returns the iteration count.
fn conjugate_gradient(a: &SparseMatrix, b: &[f64], x: &mut [f64]) -> u64 {
    let n = a.dim;
    if n == 0 {
        return 0;
    }
    let mut r = vec![0.0; n];
    let mut ap = vec![0.0; n];
    a.mul(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut p = r.clone();
    let mut rr: f64 = r.iter().map(|v| v * v).sum();
    let b_norm: f64 = b.iter().map(|v| v * v).sum::<f64>().max(1e-30);
    let mut iters = 0u64;
    for _ in 0..CG_MAX_ITERS.min(4 * n + 8) {
        if rr <= CG_TOL * CG_TOL * b_norm {
            break;
        }
        iters += 1;
        a.mul(&p, &mut ap);
        let pap: f64 = p.iter().zip(&ap).map(|(pi, api)| pi * api).sum();
        if pap <= 0.0 {
            break;
        }
        let alpha = rr / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rr_new / rr;
        rr = rr_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }
    iters
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga::BelLoc;
    use netlist::TruthTable;

    #[test]
    fn cg_solves_a_small_spd_system() {
        // Two variables coupled by a spring, each anchored at a
        // different point: the solution sits between the anchors.
        let mut b = SystemBuilder::new(2);
        b.spring(0, 1, 1.0);
        b.anchor(0, (0.0, 0.0), 2.0);
        b.anchor(1, (6.0, 3.0), 2.0);
        let (m, rhs_x, rhs_y) = b.finish();
        let mut x = vec![0.0; 2];
        let mut y = vec![0.0; 2];
        let it = conjugate_gradient(&m, &rhs_x, &mut x) + conjugate_gradient(&m, &rhs_y, &mut y);
        assert!(it > 0);
        // Exact solution of [[3,-1],[-1,3]]·x = [0,12]: x = [1.5, 4.5].
        assert!((x[0] - 1.5).abs() < 1e-4, "{x:?}");
        assert!((x[1] - 4.5).abs() < 1e-4, "{x:?}");
        assert!(x[0] < x[1]);
        assert!(y[0] < y[1]);
    }

    #[test]
    fn movable_cell_lands_between_its_fixed_neighbors() {
        // pad(0,3) → u → pad(7,4): the solved position is interior.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let u = nl
            .add_lut("u", TruthTable::not(), &[nl.cell_output(a).unwrap()])
            .unwrap();
        nl.add_output("y", nl.cell_output(u).unwrap()).unwrap();
        let y = nl.find_cell("y").unwrap();
        let dev = Device::new(8, 8, 4, 2).unwrap();
        let mut p = Placement::new(nl.cell_capacity());
        let mut sites = dev.iob_sites();
        p.place(a, BelLoc::Iob(sites.next().unwrap())).unwrap();
        p.place(y, BelLoc::Iob(sites.last().unwrap())).unwrap();
        let sol = solve_quadratic(&nl, &dev, &Constraints::free(), &p, &[u]);
        let (ax, ay) = {
            let c = p.loc_of(a).unwrap().proxy_coord(8, 8);
            (f64::from(c.x), f64::from(c.y))
        };
        let (yx, yy) = {
            let c = p.loc_of(y).unwrap().proxy_coord(8, 8);
            (f64::from(c.x), f64::from(c.y))
        };
        let (ux, uy) = sol.positions[&u];
        assert!(sol.cg_iterations > 0);
        // 1e-3 slack: the ε self-anchor tugs the solution toward the
        // device center by O(EPS_ANCHOR_W).
        assert!(ux >= ax.min(yx) - 1e-3 && ux <= ax.max(yx) + 1e-3, "{ux}");
        assert!(uy >= ay.min(yy) - 1e-3 && uy <= ay.max(yy) + 1e-3, "{uy}");
    }

    #[test]
    fn region_spring_pulls_confined_cells_toward_their_region() {
        let mut nl = Netlist::new("r");
        let a = nl.add_input("a").unwrap();
        let u = nl
            .add_lut("u", TruthTable::not(), &[nl.cell_output(a).unwrap()])
            .unwrap();
        let v = nl
            .add_lut("v", TruthTable::not(), &[nl.cell_output(u).unwrap()])
            .unwrap();
        nl.add_output("y", nl.cell_output(v).unwrap()).unwrap();
        let dev = Device::new(10, 10, 4, 2).unwrap();
        let p = Placement::new(nl.cell_capacity());
        // No placed anchors at all: only the region spring acts.
        let mut cons = Constraints::free();
        cons.confine(u, fpga::Rect::new(8, 8, 9, 9));
        let sol = solve_quadratic(&nl, &dev, &cons, &p, &[u, v]);
        let (ux, uy) = sol.positions[&u];
        assert!(ux > 6.0 && uy > 6.0, "({ux},{uy}) not pulled to region");
    }
}
