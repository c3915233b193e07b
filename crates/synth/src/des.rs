//! Key-specific DES datapath generator (the paper's 1050-CLB design).
//!
//! The paper's DES benchmark comes from Leonard & Mangione-Smith's
//! *key-specific* DES study \[8\]: the key schedule is evaluated at
//! compile time and folded into the hardware, so each round's S-boxes
//! become fixed 6-input functions `S'(x) = S(x ⊕ k_round)` and the
//! per-round key XOR gates disappear.
//!
//! [`generate`] emits an `R`-round key-specific datapath as a netlist
//! of 6-input S-box LUTs (lowered to 4-LUT trees by the mapper) plus
//! the Feistel XORs. Eight rounds land on the paper's 1050 CLBs; the
//! full 16-round variant is available for functional validation
//! against the FIPS-46 test vectors via [`reference_encrypt`].

use netlist::{NetId, Netlist, NetlistError, TruthTable};

use crate::builder::NetBuilder;

/// Initial permutation (spec bit numbering, 1-based, MSB-first).
pub const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, //
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8, //
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3, //
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

/// Final permutation (inverse of [`IP`]).
pub const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31, //
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29, //
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27, //
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
];

/// Expansion E: 32 → 48 bits.
pub const E: [u8; 48] = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, //
    12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25, //
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
];

/// P permutation within the round function.
pub const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, //
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
];

/// Key permuted choice 1: 64 → 56 bits.
pub const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, //
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36, //
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, //
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
];

/// Key permuted choice 2: 56 → 48 bits.
pub const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, //
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, //
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48, //
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Per-round left-rotate amounts of the key halves.
pub const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// The eight S-boxes, indexed `[box][row][col]`.
pub const SBOX: [[[u8; 16]; 4]; 8] = [
    [
        [14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7],
        [0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8],
        [4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0],
        [15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13],
    ],
    [
        [15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10],
        [3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5],
        [0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15],
        [13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9],
    ],
    [
        [10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8],
        [13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1],
        [13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7],
        [1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12],
    ],
    [
        [7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15],
        [13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9],
        [10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4],
        [3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14],
    ],
    [
        [2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9],
        [14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6],
        [4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14],
        [11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3],
    ],
    [
        [12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11],
        [10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8],
        [9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6],
        [4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13],
    ],
    [
        [4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1],
        [13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6],
        [1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2],
        [6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12],
    ],
    [
        [13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7],
        [1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2],
        [7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8],
        [2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11],
    ],
];

// ---------------------------------------------------------------------
// Bit-level helpers on u64 (spec bit 1 = MSB)
// ---------------------------------------------------------------------

fn get_bit(value: u64, width: u32, spec_pos: u8) -> bool {
    debug_assert!(spec_pos as u32 >= 1 && spec_pos as u32 <= width);
    value >> (width - spec_pos as u32) & 1 == 1
}

fn permute(value: u64, in_width: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    for &src in table {
        out = out << 1 | u64::from(get_bit(value, in_width, src));
    }
    out
}

/// S-box lookup on a 6-bit group value (spec convention: bits 1 and 6
/// select the row, bits 2..5 the column).
fn sbox_lookup(box_idx: usize, x6: u8) -> u8 {
    let row = ((x6 >> 4) & 0b10 | x6 & 1) as usize;
    let col = ((x6 >> 1) & 0xF) as usize;
    SBOX[box_idx][row][col]
}

/// Computes the 16 round keys of 48 bits each.
pub fn round_keys(key: u64) -> [u64; 16] {
    let cd = permute(key, 64, &PC1);
    let mut c = (cd >> 28) & 0x0FFF_FFFF;
    let mut d = cd & 0x0FFF_FFFF;
    let rot28 = |v: u64, by: u8| ((v << by) | (v >> (28 - by))) & 0x0FFF_FFFF;
    let mut keys = [0u64; 16];
    for (r, &s) in SHIFTS.iter().enumerate() {
        c = rot28(c, s);
        d = rot28(d, s);
        keys[r] = permute(c << 28 | d, 56, &PC2);
    }
    keys
}

/// The Feistel round function `f(R, k)`.
fn feistel(r: u64, k48: u64) -> u64 {
    let x = permute(r, 32, &E) ^ k48;
    let mut s_out = 0u64;
    for g in 0..8 {
        let group = ((x >> (42 - 6 * g)) & 0x3F) as u8;
        s_out = s_out << 4 | u64::from(sbox_lookup(g, group));
    }
    permute(s_out, 32, &P)
}

/// Software reference encryption with a configurable round count.
///
/// With `rounds = 16` this is standard single-DES (IP, 16 Feistel
/// rounds, swap, FP). Fewer rounds follow the same structure and are
/// what the hardware generator uses for the paper-sized benchmark.
pub fn reference_encrypt(plaintext: u64, key: u64, rounds: usize) -> u64 {
    assert!((1..=16).contains(&rounds), "rounds must be 1..=16");
    let keys = round_keys(key);
    let ip = permute(plaintext, 64, &IP);
    let mut l = ip >> 32;
    let mut r = ip & 0xFFFF_FFFF;
    for &k in keys.iter().take(rounds) {
        let new_r = l ^ feistel(r, k);
        l = r;
        r = new_r;
    }
    // Pre-output block is R||L (the final swap).
    permute(r << 32 | l, 64, &FP)
}

// ---------------------------------------------------------------------
// Hardware generator
// ---------------------------------------------------------------------

/// Generates an `rounds`-round key-specific DES datapath.
///
/// Primary inputs `pt[0..64]` and outputs `ct[0..64]` use spec-order
/// indexing: index `i` carries spec bit `i + 1` (the block's MSB is
/// index 0). Each round's cells are emitted together, in round order.
///
/// # Errors
///
/// Propagates netlist construction errors.
///
/// # Panics
///
/// Panics if `rounds` is outside `1..=16`.
pub fn generate(key: u64, rounds: usize) -> Result<Netlist, NetlistError> {
    assert!((1..=16).contains(&rounds), "rounds must be 1..=16");
    let keys = round_keys(key);
    let mut b = NetBuilder::new("des");
    let pt: Vec<NetId> = (0..64)
        .map(|i| b.input(format!("pt[{i}]")))
        .collect::<Result<_, _>>()?;

    // IP is pure wiring.
    let ip: Vec<NetId> = IP.iter().map(|&src| pt[src as usize - 1]).collect();
    let mut l: Vec<NetId> = ip[..32].to_vec();
    let mut r: Vec<NetId> = ip[32..].to_vec();

    for round in 0..rounds {
        let k = keys[round];
        // Expansion is wiring.
        let e: Vec<NetId> = E.iter().map(|&src| r[src as usize - 1]).collect();
        // Key-specific S-boxes: S'(x) = S(x ^ k_group).
        let mut s_out = Vec::with_capacity(32);
        for g in 0..8 {
            let group_key = ((k >> (42 - 6 * g)) & 0x3F) as u8;
            let ins: Vec<NetId> = e[6 * g..6 * g + 6].to_vec();
            for bit in 0..4 {
                // Truth-table var v corresponds to input pin v, which
                // carries spec bit v+1 of the group (MSB first).
                let tt = TruthTable::from_fn(6, |row| {
                    let mut x = 0u8;
                    for v in 0..6 {
                        if row >> v & 1 == 1 {
                            x |= 1 << (5 - v); // var 0 is the group MSB
                        }
                    }
                    let s = sbox_lookup(g, x ^ group_key);
                    s >> (3 - bit) & 1 == 1
                });
                s_out.push(b.lut(tt, &ins)?);
            }
        }
        // P permutation is wiring; Feistel XOR costs 32 LUTs.
        let f: Vec<NetId> = P.iter().map(|&src| s_out[src as usize - 1]).collect();
        let mut new_r = Vec::with_capacity(32);
        for i in 0..32 {
            new_r.push(b.xor2(l[i], f[i])?);
        }
        l = r;
        r = new_r;
    }

    // Final swap + FP wiring.
    let mut preout = r.clone();
    preout.extend(&l);
    let ct: Vec<NetId> = FP.iter().map(|&src| preout[src as usize - 1]).collect();
    b.output_bus("ct", &ct)?;
    crate::filler::tie_off_unreachable(&mut b)?;

    let nl = b.finish();
    nl.validate()?;
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_fips_vector() {
        // Classic worked example (Stallings / FIPS-46).
        let ct = reference_encrypt(0x0123_4567_89AB_CDEF, 0x1334_5779_9BBC_DFF1, 16);
        assert_eq!(ct, 0x85E8_1354_0F0A_B405);
    }

    #[test]
    fn reference_matches_zero_key_vector() {
        let ct = reference_encrypt(0, 0, 16);
        assert_eq!(ct, 0x8CA6_4DE9_C1B1_23A7);
    }

    #[test]
    fn round_keys_are_48_bit() {
        for k in round_keys(0x1334_5779_9BBC_DFF1) {
            assert_eq!(k >> 48, 0);
        }
        // First round key of the classic example.
        assert_eq!(
            round_keys(0x1334_5779_9BBC_DFF1)[0],
            0b000110_110000_001011_101111_111111_000111_000001_110010
        );
    }

    fn eval_circuit(nl: &Netlist, pt: u64) -> u64 {
        let mut values = std::collections::HashMap::new();
        for &pi in &nl.primary_inputs() {
            let name = nl.cell(pi).unwrap().name.clone();
            let idx: usize = name
                .strip_prefix("pt[")
                .unwrap()
                .trim_end_matches(']')
                .parse()
                .unwrap();
            let net = nl.cell_output(pi).unwrap();
            values.insert(net, pt >> (63 - idx) & 1 == 1);
        }
        for id in nl.topo_order().unwrap() {
            let cell = nl.cell(id).unwrap();
            if let Some(tt) = cell.lut_function() {
                let ins: Vec<bool> = cell.inputs.iter().map(|n| values[n]).collect();
                values.insert(cell.output.unwrap(), tt.eval(&ins));
            }
        }
        let mut ct = 0u64;
        for i in 0..64 {
            let po = nl.find_cell(&format!("ct[{i}]")).unwrap();
            let v = values[&nl.cell(po).unwrap().inputs[0]];
            ct |= u64::from(v) << (63 - i);
        }
        ct
    }

    #[test]
    fn circuit_matches_reference_two_rounds() {
        let key = 0x1334_5779_9BBC_DFF1;
        let nl = generate(key, 2).unwrap();
        for pt in [
            0u64,
            0x0123_4567_89AB_CDEF,
            0xFFFF_FFFF_FFFF_FFFF,
            0xA5A5_5A5A_DEAD_BEEF,
        ] {
            assert_eq!(
                eval_circuit(&nl, pt),
                reference_encrypt(pt, key, 2),
                "pt={pt:#x}"
            );
        }
    }

    #[test]
    fn full_des_circuit_matches_fips_vector() {
        let key = 0x1334_5779_9BBC_DFF1;
        let nl = generate(key, 16).unwrap();
        assert_eq!(
            eval_circuit(&nl, 0x0123_4567_89AB_CDEF),
            0x85E8_1354_0F0A_B405
        );
    }

    #[test]
    fn paper_size_lands_after_mapping() {
        let nl = generate(0x1334_5779_9BBC_DFF1, 8).unwrap();
        let mapped = crate::mapper::map_to_lut4(&nl).unwrap();
        let clbs = mapped.stats().clb_estimate();
        // Paper: 1050 CLBs. 8 rounds × (32 S-box 6-LUTs → ≤7 LUTs each
        // + 32 XORs) ≈ 2048 LUTs ≈ 1024 CLBs.
        assert!((950..=1120).contains(&clbs), "got {clbs} CLBs");
    }
}
