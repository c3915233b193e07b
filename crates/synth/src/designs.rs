//! Registry of the paper's nine evaluation designs.

use std::fmt;

use netlist::{Netlist, NetlistError};

use crate::mapper::map_to_lut4;
use crate::{des, mcnc, mips};

/// One of the nine designs evaluated in the paper (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PaperDesign {
    /// 9-input symmetric function (combinational MCNC).
    NineSym,
    /// FSM controller (sequential MCNC).
    Styr,
    /// FSM controller (sequential MCNC).
    Sand,
    /// 32-bit error-correcting circuit (combinational MCNC).
    C499,
    /// FSM controller (sequential MCNC).
    Planet1,
    /// 8-bit ALU (combinational MCNC).
    C880,
    /// Large sequential ISCAS-89 circuit.
    S9234,
    /// BYU MIPS R2000 FPGA processor core.
    MipsR2000,
    /// Key-specific DES datapath.
    Des,
}

impl PaperDesign {
    /// All nine designs in Table 1 order (ascending CLB count).
    pub const ALL: [PaperDesign; 9] = [
        PaperDesign::NineSym,
        PaperDesign::Styr,
        PaperDesign::Sand,
        PaperDesign::C499,
        PaperDesign::Planet1,
        PaperDesign::C880,
        PaperDesign::S9234,
        PaperDesign::MipsR2000,
        PaperDesign::Des,
    ];

    /// The subset small enough for fast tests and examples.
    pub const SMALL: [PaperDesign; 7] = [
        PaperDesign::NineSym,
        PaperDesign::Styr,
        PaperDesign::Sand,
        PaperDesign::C499,
        PaperDesign::Planet1,
        PaperDesign::C880,
        PaperDesign::S9234,
    ];

    /// Table 1 name.
    pub fn name(self) -> &'static str {
        match self {
            Self::NineSym => "9sym",
            Self::Styr => "styr",
            Self::Sand => "sand",
            Self::C499 => "c499",
            Self::Planet1 => "planet1",
            Self::C880 => "c880",
            Self::S9234 => "s9234",
            Self::MipsR2000 => "MIPS R2000",
            Self::Des => "DES",
        }
    }

    /// The CLB count the paper reports for this design (Table 1).
    pub fn paper_clbs(self) -> usize {
        match self {
            Self::NineSym => 56,
            Self::Styr => 98,
            Self::Sand => 100,
            Self::C499 => 115,
            Self::Planet1 => 115,
            Self::C880 => 135,
            Self::S9234 => 235,
            Self::MipsR2000 => 900,
            Self::Des => 1050,
        }
    }

    /// Area overhead the paper reports after tiling (Table 1).
    pub fn paper_area_overhead(self) -> f64 {
        match self {
            Self::NineSym => 0.217,
            Self::Styr => 0.210,
            Self::Sand => 0.220,
            Self::C499 => 0.223,
            Self::Planet1 => 0.211,
            Self::C880 => 0.227,
            Self::S9234 => 0.205,
            Self::MipsR2000 => 0.190,
            Self::Des => 0.200,
        }
    }

    /// Timing overhead the paper reports after tiling (Table 1).
    pub fn paper_timing_overhead(self) -> f64 {
        match self {
            Self::NineSym => -0.045,
            Self::Styr => 0.074,
            Self::Sand => 0.129,
            Self::C499 => 0.000,
            Self::Planet1 => 0.137,
            Self::C880 => -0.055,
            Self::S9234 => -0.014,
            Self::MipsR2000 => 0.047,
            Self::Des => 0.036,
        }
    }

    /// True for designs containing flip-flops.
    pub fn is_sequential(self) -> bool {
        matches!(
            self,
            Self::Styr | Self::Sand | Self::Planet1 | Self::S9234 | Self::MipsR2000
        )
    }

    /// Generates the design, mapped to 4-input LUTs.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors (none occur in practice;
    /// the generators are self-consistent).
    pub fn generate(self) -> Result<Netlist, NetlistError> {
        let raw = match self {
            Self::NineSym => mcnc::nine_sym()?,
            Self::Styr => mcnc::styr()?,
            Self::Sand => mcnc::sand()?,
            Self::C499 => mcnc::c499()?,
            Self::Planet1 => mcnc::planet1()?,
            Self::C880 => mcnc::c880()?,
            Self::S9234 => mcnc::s9234()?,
            Self::MipsR2000 => mips::generate()?,
            Self::Des => des::generate(0x1334_5779_9BBC_DFF1, 8)?,
        };
        let netlist = map_to_lut4(&raw)?;
        netlist.validate()?;
        Ok(netlist)
    }
}

impl fmt::Display for PaperDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_ordered() {
        assert_eq!(PaperDesign::ALL.len(), 9);
        let clbs: Vec<usize> = PaperDesign::ALL.iter().map(|d| d.paper_clbs()).collect();
        let mut sorted = clbs.clone();
        sorted.sort_unstable();
        assert_eq!(clbs, sorted);
    }

    #[test]
    fn small_designs_generate_on_target() {
        for d in [PaperDesign::NineSym, PaperDesign::Styr] {
            let nl = d.generate().unwrap();
            let got = nl.stats().clb_estimate();
            let target = d.paper_clbs();
            assert!(
                (target * 92 / 100..=target * 112 / 100).contains(&got),
                "{d}: {got} vs {target}"
            );
            assert_eq!(nl.is_sequential(), d.is_sequential());
        }
    }

    #[test]
    fn names_match_table1() {
        assert_eq!(PaperDesign::S9234.to_string(), "s9234");
        assert_eq!(PaperDesign::MipsR2000.name(), "MIPS R2000");
    }
}
