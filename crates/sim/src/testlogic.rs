//! Control and observation logic generators (paper §4).
//!
//! Emulation exposes only primary outputs, so detecting and localizing
//! an error requires *inserting logic*: observation taps and signature
//! registers to see internal state, and control points to force it.
//! Each generator below mutates the netlist and returns the
//! [`EcoReport`] of added cells — the seed set from which the tiling
//! flow computes affected tiles (Figures 3 and 4 sweep exactly this
//! insertion cost).

use netlist::{CellId, EcoReport, NetId, Netlist, NetlistError, TruthTable};

/// CLB cost of an ECO's added cells (XC4000 packing: 2 LUTs + 2 FFs
/// per CLB, packed independently).
pub fn clb_cost(nl: &Netlist, report: &EcoReport) -> usize {
    let mut luts = 0usize;
    let mut ffs = 0usize;
    for &c in &report.added {
        if let Ok(cell) = nl.cell(c) {
            if cell.lut_function().is_some() {
                luts += 1;
            } else if cell.is_sequential() {
                ffs += 1;
            }
        }
    }
    luts.max(ffs).div_ceil(2)
}

/// Inserts an observation tap: the net becomes visible at a new
/// primary output, optionally through a pipeline flip-flop.
///
/// # Errors
///
/// Propagates netlist editing errors (duplicate names, unknown net).
pub fn insert_observation_tap(
    nl: &mut Netlist,
    net: NetId,
    name: &str,
    registered: bool,
) -> Result<EcoReport, NetlistError> {
    let mut report = EcoReport::default();
    let tap_net = if registered {
        let ff = nl.add_ff(format!("{name}_obs_ff"), false, net)?;
        report.added.push(ff);
        nl.cell_output(ff)?
    } else {
        net
    };
    let po = nl.add_output(format!("{name}_obs"), tap_net)?;
    report.added.push(po);
    Ok(report)
}

/// Handles to the pieces of an inserted control point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlPoint {
    /// The multiplexer cell overriding the net.
    pub mux: CellId,
    /// New primary input carrying the forced value.
    pub force_value: CellId,
    /// New primary input enabling the override.
    pub force_enable: CellId,
    /// Added cells (for affected-tile analysis).
    pub report: EcoReport,
}

/// Inserts a control point on `net`: all original sinks now see
/// `force_en ? force_val : net`.
///
/// # Errors
///
/// Propagates netlist editing errors.
pub fn insert_control_point(
    nl: &mut Netlist,
    net: NetId,
    name: &str,
) -> Result<ControlPoint, NetlistError> {
    let sinks: Vec<_> = nl.net(net)?.sinks.clone();
    let force_value = nl.add_input(format!("{name}_force_val"))?;
    let force_enable = nl.add_input(format!("{name}_force_en"))?;
    let val_net = nl.cell_output(force_value)?;
    let en_net = nl.cell_output(force_enable)?;
    let mux = nl.add_lut(
        format!("{name}_ctl_mux"),
        TruthTable::mux2(),
        &[net, val_net, en_net],
    )?;
    let mux_net = nl.cell_output(mux)?;
    for s in &sinks {
        nl.set_pin(s.cell, s.pin, mux_net)?;
    }
    let report = EcoReport {
        added: vec![force_value, force_enable, mux],
        modified: sinks.iter().map(|s| s.cell).collect(),
        removed: Vec::new(),
    };
    Ok(ControlPoint {
        mux,
        force_value,
        force_enable,
        report,
    })
}

/// Inserts a `width`-bit event counter clocked by `trigger` (the
/// paper's "large counter" example of bulky test logic).
///
/// The count appears on new primary outputs `{name}_cnt[i]`.
///
/// # Errors
///
/// Propagates netlist editing errors.
pub fn insert_event_counter(
    nl: &mut Netlist,
    trigger: NetId,
    width: usize,
    name: &str,
) -> Result<EcoReport, NetlistError> {
    let mut report = EcoReport::default();
    let mut carry = trigger;
    for i in 0..width {
        // Create the FF first with a placeholder D (its own Q), then
        // close the loop through sum logic.
        let seed = nl.add_net(format!("{name}_cnt_seed{i}"))?;
        let ff = nl.add_ff(format!("{name}_cnt_ff{i}"), false, seed)?;
        report.added.push(ff);
        let q = nl.cell_output(ff)?;
        let sum = nl.add_lut(
            format!("{name}_cnt_sum{i}"),
            TruthTable::xor(2),
            &[q, carry],
        )?;
        report.added.push(sum);
        nl.set_pin(ff, 0, nl.cell_output(sum)?)?;
        if i + 1 < width {
            let c = nl.add_lut(
                format!("{name}_cnt_car{i}"),
                TruthTable::and(2),
                &[q, carry],
            )?;
            report.added.push(c);
            carry = nl.cell_output(c)?;
        }
        let po = nl.add_output(format!("{name}_cnt[{i}]"), q)?;
        report.added.push(po);
    }
    Ok(report)
}

/// Inserts a multiple-input signature register (MISR) over `taps`.
///
/// Each cycle the register folds the tapped values into a rotating
/// XOR signature, visible on `{name}_sig[i]` outputs. Detects any
/// single-cycle divergence on the tapped nets with high probability.
///
/// # Errors
///
/// Propagates netlist editing errors.
///
/// # Panics
///
/// Panics if `taps` is empty.
pub fn insert_misr(
    nl: &mut Netlist,
    taps: &[NetId],
    name: &str,
) -> Result<EcoReport, NetlistError> {
    assert!(!taps.is_empty(), "misr needs at least one tap");
    let mut report = EcoReport::default();
    let width = taps.len();
    // Create FFs with placeholder seeds.
    let mut ffs = Vec::with_capacity(width);
    let mut qs = Vec::with_capacity(width);
    for i in 0..width {
        let seed = nl.add_net(format!("{name}_sig_seed{i}"))?;
        let ff = nl.add_ff(format!("{name}_sig_ff{i}"), false, seed)?;
        report.added.push(ff);
        qs.push(nl.cell_output(ff)?);
        ffs.push(ff);
    }
    // d_i = tap_i XOR q_{i-1 mod width}.
    for i in 0..width {
        let prev = qs[(i + width - 1) % width];
        let x = nl.add_lut(
            format!("{name}_sig_x{i}"),
            TruthTable::xor(2),
            &[taps[i], prev],
        )?;
        report.added.push(x);
        nl.set_pin(ffs[i], 0, nl.cell_output(x)?)?;
        let po = nl.add_output(format!("{name}_sig[{i}]"), qs[i])?;
        report.added.push(po);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::Simulator;

    fn fixture() -> (Netlist, NetId) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let na = nl.cell_output(a).unwrap();
        let u = nl.add_lut("u", TruthTable::not(), &[na]).unwrap();
        let nu = nl.cell_output(u).unwrap();
        nl.add_output("y", nu).unwrap();
        (nl, nu)
    }

    #[test]
    fn observation_tap_exposes_internal_net() {
        let (mut nl, nu) = fixture();
        insert_observation_tap(&mut nl, nu, "t0", false).unwrap();
        nl.validate().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_inputs(&[false]);
        sim.comb_eval();
        // Outputs: y and t0_obs, both reading the inverter.
        assert_eq!(sim.outputs(), vec![true, true]);
    }

    #[test]
    fn registered_tap_delays_one_cycle() {
        let (mut nl, nu) = fixture();
        insert_observation_tap(&mut nl, nu, "t0", true).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_inputs(&[false]); // inverter output = 1
        sim.step();
        sim.comb_eval();
        let outs = sim.outputs();
        assert!(outs[1]); // captured last cycle
    }

    #[test]
    fn control_point_forces_value() {
        let (mut nl, nu) = fixture();
        let cp = insert_control_point(&mut nl, nu, "c0").unwrap();
        nl.validate().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        // PI order: a, c0_force_val, c0_force_en.
        sim.set_inputs(&[false, false, true]); // inverter says 1, force 0
        sim.comb_eval();
        assert_eq!(sim.outputs(), vec![false]);
        sim.set_inputs(&[false, false, false]); // force off
        sim.comb_eval();
        assert_eq!(sim.outputs(), vec![true]);
        assert_eq!(cp.report.added.len(), 3);
    }

    #[test]
    fn event_counter_counts_triggers() {
        let (mut nl, nu) = fixture();
        insert_event_counter(&mut nl, nu, 3, "e").unwrap();
        nl.validate().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        // Trigger (inverter out) is 1 while a=0.
        sim.set_inputs(&[false]);
        for _ in 0..5 {
            sim.step();
        }
        sim.comb_eval();
        let outs = sim.outputs();
        // outs: y, e_cnt[0..3]; count == 5 -> 101.
        assert_eq!(&outs[1..], &[true, false, true]);
    }

    #[test]
    fn misr_signature_changes_with_behaviour() {
        let (mut nl, nu) = fixture();
        insert_misr(&mut nl, &[nu], "m").unwrap();
        nl.validate().unwrap();
        let run = |input: bool| {
            let mut sim = Simulator::new(&nl).unwrap();
            sim.set_inputs(&[input]);
            for _ in 0..4 {
                sim.step();
            }
            sim.comb_eval();
            sim.outputs()
        };
        assert_ne!(run(false), run(true));
    }

    #[test]
    fn clb_cost_packs_pairs() {
        let (mut nl, nu) = fixture();
        let rep = insert_event_counter(&mut nl, nu, 4, "e").unwrap();
        // 4 FFs, 7 LUTs (4 sums + 3 carries) -> ceil(7/2) = 4 CLBs.
        assert_eq!(clb_cost(&nl, &rep), 4);
    }
}
