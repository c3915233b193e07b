//! Technology mapping onto 4-input LUTs.
//!
//! Generators express logic with up to 6-input truth tables (DES
//! S-boxes are 6-input). The XC4000 CLB offers 4-input LUTs, so
//! [`map_to_lut4`] rewrites every wider function into a tree of 4-LUTs
//! by Shannon decomposition, after first shrinking each function to its
//! true support.

use netlist::{CellId, CellKind, NetId, Netlist, NetlistError, TruthTable};

/// Maps a netlist onto 4-input LUTs.
///
/// Every cell of the input appears in the output under its original
/// name (decomposition helpers get `name$sK` suffixes), in the input's
/// cell order.
///
/// # Errors
///
/// Propagates netlist construction errors; the input is unchanged.
pub fn map_to_lut4(nl: &Netlist) -> Result<Netlist, NetlistError> {
    let mut out = Netlist::new(nl.name());

    // Nets first, preserving names.
    let mut net_map: Vec<Option<NetId>> = vec![None; nl.net_capacity()];
    for (id, net) in nl.nets() {
        let new = out.add_net(net.name.clone())?;
        net_map[id.index()] = Some(new);
    }
    let map_net = |m: &Vec<Option<NetId>>, id: NetId| -> Result<NetId, NetlistError> {
        m.get(id.index())
            .copied()
            .flatten()
            .ok_or(NetlistError::UnknownNet(id))
    };

    let mut fresh = 0u64;
    for (_, cell) in nl.cells() {
        match &cell.kind {
            CellKind::Input => {
                let o = map_net(&net_map, cell.output.expect("inputs drive a net"))?;
                out.add_input_driving(cell.name.clone(), o)?;
            }
            CellKind::Output => {
                let i = map_net(&net_map, cell.inputs[0])?;
                out.add_output(cell.name.clone(), i)?;
            }
            CellKind::Ff { init } => {
                let d = map_net(&net_map, cell.inputs[0])?;
                let q = map_net(&net_map, cell.output.expect("ffs drive a net"))?;
                out.add_ff_driving(cell.name.clone(), *init, d, q)?;
            }
            CellKind::Lut(tt) => {
                let ins: Vec<NetId> = cell
                    .inputs
                    .iter()
                    .map(|&n| map_net(&net_map, n))
                    .collect::<Result<_, _>>()?;
                let o = map_net(&net_map, cell.output.expect("luts drive a net"))?;
                let (tt, ins) = reduce_support(*tt, &ins);
                emit_lut4(&mut out, &cell.name, &mut fresh, tt, &ins, Some(o))?;
            }
        }
    }
    Ok(out)
}

/// Drops truth-table variables outside the function's support.
fn reduce_support(tt: TruthTable, inputs: &[NetId]) -> (TruthTable, Vec<NetId>) {
    let mut t = tt;
    let mut ins = inputs.to_vec();
    let mut var = 0;
    while var < t.arity() {
        if t.depends_on(var) {
            var += 1;
        } else {
            t = t.cofactor(var, false);
            ins.remove(var);
        }
    }
    (t, ins)
}

/// Recursively emits `tt(inputs)` as 4-LUTs; the final LUT is named
/// `name` and drives `drive` when given (else a fresh net).
fn emit_lut4(
    out: &mut Netlist,
    name: &str,
    fresh: &mut u64,
    tt: TruthTable,
    inputs: &[NetId],
    drive: Option<NetId>,
) -> Result<CellId, NetlistError> {
    if tt.arity() <= 4 {
        return match drive {
            Some(o) => out.add_lut_driving(name.to_string(), tt, inputs, o),
            None => out.add_lut(name.to_string(), tt, inputs),
        };
    }
    // Shannon split on the highest variable.
    let var = tt.arity() - 1;
    let sel = inputs[var];
    let rest = &inputs[..var];
    let mut halves = Vec::with_capacity(2);
    for value in [false, true] {
        let (sub, sub_ins) = reduce_support(tt.cofactor(var, value), rest);
        *fresh += 1;
        let sub_name = format!("{name}$s{fresh}");
        let cell = emit_lut4(out, &sub_name, fresh, sub, &sub_ins, None)?;
        halves.push(out.cell_output(cell)?);
    }
    let mux = TruthTable::mux2();
    match drive {
        Some(o) => out.add_lut_driving(name.to_string(), mux, &[halves[0], halves[1], sel], o),
        None => out.add_lut(name.to_string(), mux, &[halves[0], halves[1], sel]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetBuilder;

    fn six_input_design() -> Netlist {
        let mut b = NetBuilder::new("wide");
        let ins = b.input_bus("i", 6).unwrap();
        let y = b
            .lut(
                TruthTable::from_fn(6, |row| row.count_ones() % 3 == 0),
                &ins,
            )
            .unwrap();
        b.output("y", y).unwrap();
        b.finish()
    }

    #[test]
    fn wide_lut_decomposes() {
        let mapped = map_to_lut4(&six_input_design()).unwrap();
        mapped.validate().unwrap();
        assert!(mapped
            .cells()
            .all(|(_, c)| c.lut_function().is_none_or(|t| t.arity() <= 4)));
        assert!(mapped.num_luts() > 1);
    }

    #[test]
    fn mapping_preserves_function() {
        // Check all 64 input rows via direct table evaluation through
        // the mapped network (mini-interpreter).
        let mapped = map_to_lut4(&six_input_design()).unwrap();
        let golden = TruthTable::from_fn(6, |row| row.count_ones() % 3 == 0);
        for row in 0..64u64 {
            let mut values = std::collections::HashMap::new();
            for (i, &pi) in mapped.primary_inputs().iter().enumerate() {
                let net = mapped.cell_output(pi).unwrap();
                values.insert(net, row >> i & 1 == 1);
            }
            for id in mapped.topo_order().unwrap() {
                let cell = mapped.cell(id).unwrap();
                if let Some(tt) = cell.lut_function() {
                    let ins: Vec<bool> = cell.inputs.iter().map(|n| values[n]).collect();
                    values.insert(cell.output.unwrap(), tt.eval(&ins));
                }
            }
            let po = mapped.primary_outputs()[0];
            let net = mapped.cell(po).unwrap().inputs[0];
            assert_eq!(values[&net], golden.eval_row(row), "row {row}");
        }
    }

    #[test]
    fn support_reduction_shrinks() {
        let mut b = NetBuilder::new("red");
        let ins = b.input_bus("i", 5).unwrap();
        // Function of 5 declared inputs that only uses input 0.
        let tt = TruthTable::var(5, 0);
        let y = b.lut(tt, &ins).unwrap();
        b.output("y", y).unwrap();
        let nl = b.finish();
        let mapped = map_to_lut4(&nl).unwrap();
        assert_eq!(mapped.num_luts(), 1);
        let (_, lut) = mapped
            .cells()
            .find(|(_, c)| c.lut_function().is_some())
            .unwrap();
        assert_eq!(lut.arity(), 1);
    }

    #[test]
    fn small_luts_pass_through_unchanged() {
        let mut b = NetBuilder::new("small");
        let a = b.input("a").unwrap();
        let c = b.input("b").unwrap();
        let y = b.and2(a, c).unwrap();
        b.output("y", y).unwrap();
        let nl = b.finish();
        let mapped = map_to_lut4(&nl).unwrap();
        assert_eq!(mapped.num_luts(), nl.num_luts());
        assert_eq!(mapped.stats().depth, nl.stats().depth);
    }

    #[test]
    fn ffs_survive_mapping() {
        let mut b = NetBuilder::new("seq");
        let q = b.ff_loop(true, |b, q| b.not(q)).unwrap();
        b.output("q", q).unwrap();
        let nl = b.finish();
        let mapped = map_to_lut4(&nl).unwrap();
        assert_eq!(mapped.num_ffs(), 1);
        mapped.validate().unwrap();
    }
}
