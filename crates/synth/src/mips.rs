//! MIPS R2000-style processor datapath (the paper's 900-CLB design).
//!
//! The paper's second large benchmark is a MIPS R2000 core for FPGAs
//! developed at BYU. This generator rebuilds the classic single-cycle
//! R2000 datapath structure: instruction register, register file, sign
//! extension, 32-bit ALU (add/sub/and/or/xor/slt), barrel shifter,
//! program counter with branch adder, and a control-decode cloud. The
//! register file is eight 32-bit registers (the FPGA core's register
//! file was similarly reduced), and a padding cloud calibrates the
//! mapped size to Table 1's 900 CLBs.

use netlist::{NetId, Netlist, NetlistError};

use crate::builder::NetBuilder;
use crate::filler::{pad_to_lut_count, random_cloud, tie_off_unreachable};

const XLEN: usize = 32;
const NREGS: usize = 8;
const SEL_BITS: usize = 3;

/// Generates the MIPS R2000 datapath benchmark.
///
/// Primary inputs: `instr[0..32]` (instruction word) and
/// `din[0..32]` (load data); outputs: `result[0..32]`, `pc[0..32]`,
/// and `branch_taken`.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn generate() -> Result<Netlist, NetlistError> {
    let mut b = NetBuilder::new("mips_r2000");
    let instr_in = b.input_bus("instr", XLEN)?;
    let din = b.input_bus("din", XLEN)?;

    // ------------------------------------------------------------
    // Instruction register + field split
    // ------------------------------------------------------------
    let ir = b.register(&instr_in, 0)?;
    let op = &ir[0..4];
    let rs = &ir[4..4 + SEL_BITS];
    let rt = &ir[7..7 + SEL_BITS];
    let rd = &ir[10..10 + SEL_BITS];
    let shamt = &ir[13..18];
    let imm = &ir[16..32];

    // ------------------------------------------------------------
    // Register file: 8 × 32, two read ports, one write port
    // ------------------------------------------------------------
    // Register storage with placeholder D inputs; write-back is wired
    // after the ALU exists.
    let mut reg_q: Vec<Vec<NetId>> = Vec::with_capacity(NREGS);
    let mut reg_ff: Vec<Vec<netlist::CellId>> = Vec::with_capacity(NREGS);
    for _ in 0..NREGS {
        let mut qbits = Vec::with_capacity(XLEN);
        let mut ffs = Vec::with_capacity(XLEN);
        for _ in 0..XLEN {
            let q = b.ff_loop(false, |_, q| Ok(q))?;
            ffs.push(b.netlist().net(q)?.driver.expect("ff drives q"));
            qbits.push(q);
        }
        reg_q.push(qbits);
        reg_ff.push(ffs);
    }
    // Read ports.
    let mut a_bus = Vec::with_capacity(XLEN);
    let mut b_bus = Vec::with_capacity(XLEN);
    for bit in 0..XLEN {
        let column: Vec<NetId> = (0..NREGS).map(|r| reg_q[r][bit]).collect();
        a_bus.push(b.mux_n(&column, rs)?);
        b_bus.push(b.mux_n(&column, rt)?);
    }
    // Write decoder.
    let mut wdec = Vec::with_capacity(NREGS);
    for r in 0..NREGS {
        wdec.push(b.equals_const(rd, r as u64)?);
    }

    // ------------------------------------------------------------
    // Sign extension and operand select
    // ------------------------------------------------------------
    let sign = imm[15];
    let mut imm_ext: Vec<NetId> = imm.to_vec();
    imm_ext.extend(std::iter::repeat_n(sign, XLEN - imm.len()));
    // op[3] selects immediate addressing.
    let use_imm = op[3];
    let mut opb = Vec::with_capacity(XLEN);
    for i in 0..XLEN {
        opb.push(b.mux2(b_bus[i], imm_ext[i], use_imm)?);
    }

    // ------------------------------------------------------------
    // ALU: add, sub, and, or, xor, slt, shift, pass-din
    // ------------------------------------------------------------
    let sub = op[2];
    let mut b_xor = Vec::with_capacity(XLEN);
    for i in 0..XLEN {
        b_xor.push(b.xor2(opb[i], sub)?);
    }
    let (sum, _cout) = b.ripple_adder(&a_bus, &b_xor, Some(sub))?;
    let mut and_bus = Vec::with_capacity(XLEN);
    let mut or_bus = Vec::with_capacity(XLEN);
    let mut xor_bus = Vec::with_capacity(XLEN);
    for i in 0..XLEN {
        and_bus.push(b.and2(a_bus[i], opb[i])?);
        or_bus.push(b.or2(a_bus[i], opb[i])?);
        xor_bus.push(b.xor2(a_bus[i], opb[i])?);
    }
    // slt: sign bit of the subtraction, zero-extended.
    let zero = b.constant(false)?;
    let mut slt_bus = [zero; XLEN];
    slt_bus[0] = sum[XLEN - 1];

    // ------------------------------------------------------------
    // Barrel shifter (logical left, 5 stages)
    // ------------------------------------------------------------
    let mut shifted: Vec<NetId> = a_bus.clone();
    for (stage, &sel) in shamt.iter().enumerate() {
        let amount = 1usize << stage;
        let mut next = Vec::with_capacity(XLEN);
        for i in 0..XLEN {
            let moved = if i >= amount {
                shifted[i - amount]
            } else {
                zero
            };
            next.push(b.mux2(shifted[i], moved, sel)?);
        }
        shifted = next;
    }

    // ------------------------------------------------------------
    // Result mux + write-back
    // ------------------------------------------------------------
    let mut result = Vec::with_capacity(XLEN);
    for i in 0..XLEN {
        let choices = [
            sum[i], and_bus[i], or_bus[i], xor_bus[i], slt_bus[i], shifted[i], din[i], b_bus[i],
        ];
        result.push(b.mux_n(&choices, &op[0..3])?);
    }
    // Write enable: any op except the reserved 0b1111 store encoding.
    let all_ones = b.and_tree(op)?;
    let we = b.not(all_ones)?;
    for r in 0..NREGS {
        let we_r = b.and2(wdec[r], we)?;
        for bit in 0..XLEN {
            let d = b.mux2(reg_q[r][bit], result[bit], we_r)?;
            let ff = reg_ff[r][bit];
            b.netlist_mut().set_pin(ff, 0, d)?;
        }
    }

    // ------------------------------------------------------------
    // PC unit: +1 or branch target
    // ------------------------------------------------------------
    let zero_flag = {
        let inverted: Vec<NetId> = result
            .iter()
            .map(|&n| b.not(n))
            .collect::<Result<Vec<_>, _>>()?;
        b.and_tree(&inverted)?
    };
    let is_branch = b.equals_const(op, 0b0110)?;
    let take = b.and2(is_branch, zero_flag)?;
    // PC register with combinational next-PC logic.
    let mut pc_ff = Vec::with_capacity(XLEN);
    let mut pc_q = Vec::with_capacity(XLEN);
    for _ in 0..XLEN {
        let q = b.ff_loop(false, |_, q| Ok(q))?;
        pc_ff.push(b.netlist().net(q)?.driver.expect("ff drives q"));
        pc_q.push(q);
    }
    let one = b.constant(true)?;
    let mut one_bus = vec![zero; XLEN];
    one_bus[0] = one;
    let (pc_inc, _) = b.ripple_adder(&pc_q, &one_bus, None)?;
    let (pc_br, _) = b.ripple_adder(&pc_q, &imm_ext, None)?;
    for i in 0..XLEN {
        let next = b.mux2(pc_inc[i], pc_br[i], take)?;
        b.netlist_mut().set_pin(pc_ff[i], 0, next)?;
    }

    // ------------------------------------------------------------
    // Control cloud (models the R2000's main + local decoders)
    // ------------------------------------------------------------
    let ctrl = random_cloud(&mut b, 0x2000, &ir, 60, 8)?;

    b.output_bus("result", &result)?;
    b.output_bus("pc", &pc_q)?;
    b.output("branch_taken", take)?;
    b.output_bus("ctrl", &ctrl)?;

    // ------------------------------------------------------------
    // Calibration to the paper's 900 CLBs (1800 LUTs)
    // ------------------------------------------------------------
    let mut seeds = a_bus.clone();
    seeds.extend(&b_bus);
    seeds.extend(&ir);
    pad_to_lut_count(&mut b, 0x3000, 1800, &seeds)?;
    tie_off_unreachable(&mut b)?;

    let nl = b.finish();
    nl.validate()?;
    Ok(nl)
}

/// Total architectural register bits of the generated core (register
/// file + PC + instruction register); used by structural tests.
pub fn expected_register_bits() -> usize {
    NREGS * XLEN + 2 * XLEN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_and_size() {
        let nl = generate().unwrap();
        assert_eq!(nl.num_ffs(), expected_register_bits());
        let clbs = nl.stats().clb_estimate();
        assert!((830..=1000).contains(&clbs), "got {clbs} CLBs vs paper 900");
    }

    #[test]
    fn deterministic() {
        let a = netlist::blif::write(&generate().unwrap());
        let b = netlist::blif::write(&generate().unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn luts_are_mappable_without_decomposition() {
        let nl = generate().unwrap();
        assert!(nl
            .cells()
            .all(|(_, c)| c.lut_function().is_none_or(|t| t.arity() <= 4)));
    }
}
