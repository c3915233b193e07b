//! Parameterized finite-state-machine benchmark generator.
//!
//! Models the MCNC sequential controllers (styr, sand, planet1): a
//! state register plus random-but-deterministic next-state and output
//! logic clouds sized to match each benchmark's mapped LUT count.

use netlist::{Netlist, NetlistError};

use crate::builder::NetBuilder;
use crate::filler::{random_cloud, tie_off_unreachable};

/// Shape parameters of a generated FSM benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsmSpec {
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// State register width.
    pub state_bits: usize,
    /// LUT budget of the next-state cloud.
    pub next_state_luts: usize,
    /// LUT budget of the output cloud.
    pub output_luts: usize,
    /// RNG seed (fixes the design exactly).
    pub seed: u64,
}

/// Generates an FSM benchmark from a spec.
///
/// The design is a state register, its next-state cloud and an output
/// cloud, both clouds reading the primary inputs and the state.
///
/// # Errors
///
/// Propagates netlist construction errors.
pub fn generate(name: &str, spec: FsmSpec) -> Result<Netlist, NetlistError> {
    let mut b = NetBuilder::new(name);
    let pis = b.input_bus("in", spec.inputs)?;

    // State register with placeholder D inputs (each Q feeds itself):
    // all state bits feed one shared cloud, so the loops are closed
    // onto it below.
    let mut ffs = Vec::with_capacity(spec.state_bits);
    let mut qs = Vec::with_capacity(spec.state_bits);
    for i in 0..spec.state_bits {
        let q = b.ff_loop(i == 0, |_, q| Ok(q))?;
        qs.push(q);
        ffs.push(b.netlist().net(q)?.driver.expect("ff drives q"));
    }

    let mut cloud_in = pis.clone();
    cloud_in.extend(&qs);

    let next = random_cloud(
        &mut b,
        spec.seed,
        &cloud_in,
        spec.next_state_luts,
        spec.state_bits,
    )?;

    let outs = random_cloud(
        &mut b,
        spec.seed.wrapping_add(0x9e37_79b9),
        &cloud_in,
        spec.output_luts,
        spec.outputs,
    )?;

    // Close the state loops onto the next-state cloud.
    {
        let nl = b.netlist_mut();
        for (ff, d) in ffs.iter().zip(&next) {
            nl.set_pin(*ff, 0, *d)?;
        }
    }
    b.output_bus("out", &outs)?;
    tie_off_unreachable(&mut b)?;
    let nl = b.finish();
    nl.validate()?;
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FsmSpec {
        FsmSpec {
            inputs: 9,
            outputs: 10,
            state_bits: 5,
            next_state_luts: 60,
            output_luts: 40,
            seed: 11,
        }
    }

    #[test]
    fn fsm_validates_and_sizes() {
        let nl = generate("fsm_t", spec()).unwrap();
        assert_eq!(nl.num_ffs(), 5);
        assert_eq!(nl.primary_inputs().len(), 9);
        // Spec outputs plus any `deadpad[k]` tie-offs.
        let functional = nl
            .primary_outputs()
            .iter()
            .filter(|&&c| nl.cell(c).unwrap().name.starts_with("out["))
            .count();
        assert_eq!(functional, 10);
        assert!(nl.num_luts() >= 100);
        assert!(nl.is_sequential());
    }

    #[test]
    fn fsm_is_deterministic() {
        let a = netlist::blif::write(&generate("fsm_t", spec()).unwrap());
        let b = netlist::blif::write(&generate("fsm_t", spec()).unwrap());
        assert_eq!(a, b);
    }
}
