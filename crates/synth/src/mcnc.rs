//! Regenerated MCNC-style benchmarks.
//!
//! Seven of the paper's nine designs are MCNC circuits. Each generator
//! below rebuilds the circuit's *kind* — symmetric function, XOR
//! error-correcting network, ALU, FSM controller, large sequential
//! netlist — and calibrates its mapped size to the paper's Table 1 CLB
//! count (see `designs::PaperDesign` for the targets).

use netlist::{Netlist, NetlistError};

use crate::builder::NetBuilder;
use crate::filler::{pad_to_lut_count, random_cloud, tie_off_unreachable};
use crate::fsm::{self, FsmSpec};

/// 9sym: 9-input symmetric function (true when 3..=6 inputs are high),
/// padded to the paper's 56-CLB mapping.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn nine_sym() -> Result<Netlist, NetlistError> {
    let mut b = NetBuilder::new("9sym");
    let ins = b.input_bus("x", 9)?;

    let count = b.popcount(&ins)?;

    // 3 <= count <= 6 over the 4-bit count.
    let mut hits = Vec::new();
    for v in 3..=6u64 {
        hits.push(b.equals_const(&count, v)?);
    }
    let y = b.lut(netlist::TruthTable::or(4), &hits)?;
    b.output("y", y)?;

    pad_to_lut_count(&mut b, 0x95_193, 112, &ins)?;
    tie_off_unreachable(&mut b)?;

    let nl = b.finish();
    nl.validate()?;
    Ok(nl)
}

/// c499: 32-bit single-error-correcting network (Hamming-style
/// syndrome decode plus correction XORs), the paper's 115-CLB circuit.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn c499() -> Result<Netlist, NetlistError> {
    let mut b = NetBuilder::new("c499");
    let data = b.input_bus("d", 32)?;
    let check = b.input_bus("c", 6)?;

    // Codeword positions: data bit i sits at the i-th non-power-of-two
    // position >= 3 (classic Hamming layout).
    let mut positions = Vec::with_capacity(32);
    let mut p = 3u64;
    while positions.len() < 32 {
        if !p.is_power_of_two() {
            positions.push(p);
        }
        p += 1;
    }

    let mut syndrome = Vec::with_capacity(6);
    for j in 0..6 {
        let mut members: Vec<_> = positions
            .iter()
            .enumerate()
            .filter(|(_, &pos)| pos >> j & 1 == 1)
            .map(|(i, _)| data[i])
            .collect();
        members.push(check[j]);
        syndrome.push(b.xor_tree(&members)?);
    }

    // Shared complement rail keeps the decoder near the real c499's
    // mapped size (per-position inverters would double it).
    let syndrome_n: Vec<_> = syndrome
        .iter()
        .map(|&s| b.not(s))
        .collect::<Result<Vec<_>, _>>()?;
    let mut flips = Vec::with_capacity(32);
    for &pos in &positions {
        let conds: Vec<_> = (0..6)
            .map(|j| {
                if pos >> j & 1 == 1 {
                    syndrome[j]
                } else {
                    syndrome_n[j]
                }
            })
            .collect();
        flips.push(b.and_tree(&conds)?);
    }

    let mut corrected = Vec::with_capacity(32);
    for i in 0..32 {
        corrected.push(b.xor2(data[i], flips[i])?);
    }
    b.output_bus("q", &corrected)?;

    pad_to_lut_count(&mut b, 0xc4_99, 230, &data)?;
    tie_off_unreachable(&mut b)?;

    let nl = b.finish();
    nl.validate()?;
    Ok(nl)
}

/// c880: 8-bit ALU (add/sub/logic/shift with flag outputs), the
/// paper's 135-CLB circuit.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn c880() -> Result<Netlist, NetlistError> {
    let mut b = NetBuilder::new("c880");
    let a = b.input_bus("a", 8)?;
    let bb = b.input_bus("b", 8)?;
    let op = b.input_bus("op", 3)?;
    let cin = b.input("cin")?;

    let (sum, cout) = b.ripple_adder(&a, &bb, Some(cin))?;
    let not_b: Vec<_> = bb.iter().map(|&n| b.not(n)).collect::<Result<_, _>>()?;
    let one = b.constant(true)?;
    let (diff, bout) = b.ripple_adder(&a, &not_b, Some(one))?;

    let mut and_bus = Vec::new();
    let mut or_bus = Vec::new();
    let mut xor_bus = Vec::new();
    for i in 0..8 {
        and_bus.push(b.and2(a[i], bb[i])?);
        or_bus.push(b.or2(a[i], bb[i])?);
        xor_bus.push(b.xor2(a[i], bb[i])?);
    }
    // Shift-left-by-one of a.
    let zero = b.constant(false)?;
    let mut shl = vec![zero];
    shl.extend(&a[..7]);

    let mut result = Vec::with_capacity(8);
    for i in 0..8 {
        let choices = [
            sum[i], diff[i], and_bus[i], or_bus[i], xor_bus[i], shl[i], a[i], bb[i],
        ];
        result.push(b.mux_n(&choices, &op)?);
    }
    let zero_flag = {
        let inverted: Vec<_> = result
            .iter()
            .map(|&n| b.not(n))
            .collect::<Result<Vec<_>, _>>()?;
        b.and_tree(&inverted)?
    };
    let parity = b.xor_tree(&result)?;

    b.output_bus("r", &result)?;
    b.output("cout", cout)?;
    b.output("bout", bout)?;
    b.output("zero", zero_flag)?;
    b.output("parity", parity)?;

    let mut seeds = a.clone();
    seeds.extend(&bb);
    pad_to_lut_count(&mut b, 0xc8_80, 270, &seeds)?;
    tie_off_unreachable(&mut b)?;

    let nl = b.finish();
    nl.validate()?;
    Ok(nl)
}

/// styr: FSM controller sized to the paper's 98 CLBs.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn styr() -> Result<Netlist, NetlistError> {
    fsm::generate(
        "styr",
        FsmSpec {
            inputs: 9,
            outputs: 10,
            state_bits: 5,
            next_state_luts: 115,
            output_luts: 70,
            seed: 0x57_79,
        },
    )
}

/// sand: FSM controller sized to the paper's 100 CLBs.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn sand() -> Result<Netlist, NetlistError> {
    fsm::generate(
        "sand",
        FsmSpec {
            inputs: 11,
            outputs: 9,
            state_bits: 5,
            next_state_luts: 120,
            output_luts: 70,
            seed: 0x5a_4d,
        },
    )
}

/// planet1: FSM controller sized to the paper's 115 CLBs.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn planet1() -> Result<Netlist, NetlistError> {
    fsm::generate(
        "planet1",
        FsmSpec {
            inputs: 7,
            outputs: 19,
            state_bits: 6,
            next_state_luts: 135,
            output_luts: 85,
            seed: 0x0009_1ae7,
        },
    )
}

/// s9234: large ISCAS-89-style sequential circuit — three register
/// banks threaded through random logic clouds — sized to the paper's
/// 235 CLBs (~210 flip-flops, ~470 LUTs).
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn s9234() -> Result<Netlist, NetlistError> {
    let mut b = NetBuilder::new("s9234");
    let pis = b.input_bus("in", 36)?;

    const BANKS: usize = 3;
    const BANK_FFS: usize = 70;

    // Create all flip-flops first (placeholder feedback), then route
    // each bank's D inputs through its own cloud.
    let mut ffs = Vec::new();
    let mut qs = Vec::new();
    for _ in 0..BANKS * BANK_FFS {
        let q = b.ff_loop(false, |_, q| Ok(q))?;
        let driver = b.netlist().net(q)?.driver.expect("ff drives q");
        qs.push(q);
        ffs.push(driver);
    }

    let mut cloud_in = pis.clone();
    cloud_in.extend(&qs);

    for bank in 0..BANKS {
        let d = random_cloud(&mut b, 0x9234 + bank as u64, &cloud_in, 140, BANK_FFS)?;
        let nl = b.netlist_mut();
        for (k, &dnet) in d.iter().enumerate() {
            nl.set_pin(ffs[bank * BANK_FFS + k], 0, dnet)?;
        }
    }

    let outs = random_cloud(&mut b, 0x0923_40ff, &cloud_in, 55, 39)?;
    b.output_bus("out", &outs)?;
    tie_off_unreachable(&mut b)?;

    let nl = b.finish();
    nl.validate()?;
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clbs(nl: &Netlist) -> usize {
        nl.stats().clb_estimate()
    }

    #[test]
    fn nine_sym_function_is_symmetric() {
        let nl = nine_sym().unwrap();
        // Evaluate the y output for a handful of rows via interpretation.
        let eval = |row: u64| -> bool {
            let mut values = std::collections::HashMap::new();
            for (i, &pi) in nl.primary_inputs().iter().enumerate() {
                let net = nl.cell_output(pi).unwrap();
                values.insert(net, row >> i & 1 == 1);
            }
            for id in nl.topo_order().unwrap() {
                let cell = nl.cell(id).unwrap();
                if let Some(tt) = cell.lut_function() {
                    let ins: Vec<bool> = cell.inputs.iter().map(|n| values[n]).collect();
                    values.insert(cell.output.unwrap(), tt.eval(&ins));
                }
            }
            let y = nl.find_cell("y").unwrap();
            values[&nl.cell(y).unwrap().inputs[0]]
        };
        assert!(!eval(0b000000000));
        assert!(eval(0b000000111)); // 3 ones
        assert!(eval(0b111100110)); // 6 ones
        assert!(!eval(0b111111110)); // 8 ones
        assert!(!eval(0b110000000)); // 2 ones
    }

    type Generator = fn() -> Result<Netlist, NetlistError>;

    #[test]
    fn sizes_match_table1() {
        // (generator, paper CLBs)
        let cases: Vec<(Generator, usize)> = vec![
            (nine_sym, 56),
            (styr, 98),
            (sand, 100),
            (c499, 115),
            (planet1, 115),
            (c880, 135),
            (s9234, 235),
        ];
        for (gen, target) in cases {
            let nl = gen().unwrap();
            let got = clbs(&nl);
            let lo = target * 92 / 100;
            let hi = target * 112 / 100;
            assert!(
                (lo..=hi).contains(&got),
                "{}: {got} CLBs vs paper {target}",
                nl.name()
            );
        }
    }

    #[test]
    fn c499_corrects_single_errors() {
        let nl = c499().unwrap();
        // Interpretation harness: data word with one flipped bit plus
        // matching check bits must decode to the original word.
        let mut positions = Vec::new();
        let mut p = 3u64;
        while positions.len() < 32 {
            if !p.is_power_of_two() {
                positions.push(p);
            }
            p += 1;
        }
        let word: u32 = 0xdead_beef;
        // Compute check bits in software.
        let mut check = [false; 6];
        for j in 0..6 {
            let mut s = false;
            for (i, &pos) in positions.iter().enumerate() {
                if pos >> j & 1 == 1 {
                    s ^= word >> i & 1 == 1;
                }
            }
            check[j] = s;
        }
        let flipped_bit = 11usize;
        let corrupted = word ^ (1 << flipped_bit);

        let mut values = std::collections::HashMap::new();
        for (i, &pi) in nl.primary_inputs().iter().enumerate() {
            let net = nl.cell_output(pi).unwrap();
            let name = &nl.cell(pi).unwrap().name;
            let v = if let Some(rest) = name.strip_prefix("d[") {
                let idx: usize = rest.trim_end_matches(']').parse().unwrap();
                corrupted >> idx & 1 == 1
            } else if let Some(rest) = name.strip_prefix("c[") {
                let idx: usize = rest.trim_end_matches(']').parse().unwrap();
                check[idx]
            } else {
                let _ = i;
                false
            };
            values.insert(net, v);
        }
        for id in nl.topo_order().unwrap() {
            let cell = nl.cell(id).unwrap();
            if let Some(tt) = cell.lut_function() {
                let ins: Vec<bool> = cell.inputs.iter().map(|n| values[n]).collect();
                values.insert(cell.output.unwrap(), tt.eval(&ins));
            }
        }
        for i in 0..32 {
            let po = nl.find_cell(&format!("q[{i}]")).unwrap();
            let got = values[&nl.cell(po).unwrap().inputs[0]];
            assert_eq!(got, word >> i & 1 == 1, "bit {i}");
        }
    }

    #[test]
    fn s9234_is_register_heavy() {
        let nl = s9234().unwrap();
        assert_eq!(nl.num_ffs(), 210);
        assert!(nl.num_luts() > 400);
    }

    #[test]
    fn all_generators_are_deterministic() {
        let a = netlist::blif::write(&c880().unwrap());
        let b = netlist::blif::write(&c880().unwrap());
        assert_eq!(a, b);
    }
}
