//! The CAD-effort metric Figure 5's speedups are computed from.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Back-end CAD effort: placer moves plus router wavefront expansions.
///
/// Wall-clock on 1996 workstations is not reproducible; these two
/// deterministic counters are, and both scale linearly with the real
/// work the tools perform. Speedups are ratios of totals.
///
/// ```
/// use tiling::CadEffort;
/// let full = CadEffort { place_moves: 900_000, route_expansions: 100_000 };
/// let tile = CadEffort { place_moves: 80_000, route_expansions: 20_000 };
/// assert!(full.speedup_over(&tile).unwrap() > 9.0);
/// assert_eq!(full.speedup_over(&CadEffort::default()), None);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CadEffort {
    /// Simulated-annealing moves evaluated.
    pub place_moves: u64,
    /// PathFinder node expansions.
    pub route_expansions: u64,
}

impl CadEffort {
    /// Combined effort (moves and expansions cost about the same:
    /// both are one cost evaluation plus one heap/accept operation).
    pub fn total(&self) -> u64 {
        self.place_moves + self.route_expansions
    }

    /// How many times more effort `self` takes than `other`, or
    /// `None` when `other` took no effort: a function-only tiled ECO
    /// moves and routes nothing, and no ratio describes that.
    pub fn speedup_over(&self, other: &CadEffort) -> Option<f64> {
        let denom = other.total();
        (denom > 0).then(|| self.total() as f64 / denom as f64)
    }
}

/// A speedup as the bins and examples print it: `12.3x`, or
/// `0 effort` when the cheaper side took none (see
/// [`CadEffort::speedup_over`]).
pub fn speedup_label(speedup: Option<f64>) -> String {
    match speedup {
        Some(s) => format!("{s:.1}x"),
        None => "0 effort".to_string(),
    }
}

impl Add for CadEffort {
    type Output = CadEffort;

    fn add(self, rhs: CadEffort) -> CadEffort {
        CadEffort {
            place_moves: self.place_moves + rhs.place_moves,
            route_expansions: self.route_expansions + rhs.route_expansions,
        }
    }
}

impl AddAssign for CadEffort {
    fn add_assign(&mut self, rhs: CadEffort) {
        *self = *self + rhs;
    }
}

impl fmt::Display for CadEffort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} place moves + {} route expansions = {}",
            self.place_moves,
            self.route_expansions,
            self.total()
        )
    }
}

/// The four phases of one debugging iteration (paper §3.1): error
/// *detection* by emulation, iterative *localization* with observation
/// taps, controllability *confirmation* (§4.1), and the corrective
/// ECO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Pattern emulation until the first primary-output divergence.
    Detect,
    /// Observation-tap ECOs narrowing the suspect cone.
    Localize,
    /// Control-point ECO forcing the suspect to golden values.
    Confirm,
    /// The repairing ECO plus confirmation emulation.
    Correct,
}

impl Phase {
    /// All phases, in iteration order.
    pub const ALL: [Phase; 4] = [
        Phase::Detect,
        Phase::Localize,
        Phase::Confirm,
        Phase::Correct,
    ];

    /// Lower-case phase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Detect => "detect",
            Phase::Localize => "localize",
            Phase::Confirm => "confirm",
            Phase::Correct => "correct",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Detect => 0,
            Phase::Localize => 1,
            Phase::Confirm => 2,
            Phase::Correct => 3,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Effort accumulated within one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseEffort {
    /// CAD effort of this phase's physical ECOs.
    pub effort: CadEffort,
    /// Physical ECOs performed in this phase.
    pub ecos: usize,
    /// Tiles cleared (with multiplicity) across those ECOs.
    pub tiles_cleared: usize,
}

/// Per-phase effort bookkeeping for a debug session
/// (detect / localize / confirm / correct).
///
/// [`crate::report::DebugReport`] and the bench binaries render it;
/// [`crate::session::DebugSession`] fills it in.
///
/// ```
/// use tiling::effort::{CadEffort, EffortLedger, Phase};
/// let mut ledger = EffortLedger::default();
/// ledger.charge(
///     Phase::Localize,
///     CadEffort { place_moves: 10, route_expansions: 5 },
///     2,
/// );
/// assert_eq!(ledger.phase(Phase::Localize).ecos, 1);
/// assert_eq!(ledger.total().total(), 15);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffortLedger {
    phases: [PhaseEffort; 4],
}

impl EffortLedger {
    /// Records one physical ECO against a phase.
    pub fn charge(&mut self, phase: Phase, effort: CadEffort, tiles_cleared: usize) {
        let p = &mut self.phases[phase.index()];
        p.effort += effort;
        p.ecos += 1;
        p.tiles_cleared += tiles_cleared;
    }

    /// One phase's accumulated effort.
    pub fn phase(&self, phase: Phase) -> &PhaseEffort {
        &self.phases[phase.index()]
    }

    /// Overwrites one phase's accumulated effort — for reconstructing
    /// a ledger from externally stored totals (the metrics registry).
    pub fn set_phase(&mut self, phase: Phase, value: PhaseEffort) {
        self.phases[phase.index()] = value;
    }

    /// Total CAD effort across all phases.
    pub fn total(&self) -> CadEffort {
        self.phases
            .iter()
            .fold(CadEffort::default(), |acc, p| acc + p.effort)
    }

    /// Total physical ECOs across all phases.
    pub fn total_ecos(&self) -> usize {
        self.phases.iter().map(|p| p.ecos).sum()
    }

    /// Folds another ledger into this one (campaign aggregation).
    pub fn merge(&mut self, other: &EffortLedger) {
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.effort += theirs.effort;
            mine.ecos += theirs.ecos;
            mine.tiles_cleared += theirs.tiles_cleared;
        }
    }
}

impl fmt::Display for EffortLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, phase) in Phase::ALL.into_iter().enumerate() {
            let p = self.phase(phase);
            if k > 0 {
                writeln!(f)?;
            }
            write!(
                f,
                "{:<9} {:>2} ECOs, {:>2} tiles cleared, {}",
                phase, p.ecos, p.tiles_cleared, p.effort
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = CadEffort {
            place_moves: 10,
            route_expansions: 5,
        };
        let b = CadEffort {
            place_moves: 1,
            route_expansions: 2,
        };
        assert_eq!((a + b).total(), 18);
        let mut c = a;
        c += b;
        assert_eq!(c.total(), 18);
    }

    #[test]
    fn ledger_charges_and_merges_per_phase() {
        let eco = CadEffort {
            place_moves: 7,
            route_expansions: 3,
        };
        let mut a = EffortLedger::default();
        a.charge(Phase::Localize, eco, 2);
        a.charge(Phase::Localize, eco, 1);
        a.charge(Phase::Correct, eco, 1);
        assert_eq!(a.phase(Phase::Localize).ecos, 2);
        assert_eq!(a.phase(Phase::Localize).tiles_cleared, 3);
        assert_eq!(a.phase(Phase::Detect).ecos, 0);
        assert_eq!(a.total_ecos(), 3);
        assert_eq!(a.total().total(), 30);

        let mut b = EffortLedger::default();
        b.charge(Phase::Confirm, eco, 4);
        b.merge(&a);
        assert_eq!(b.total_ecos(), 4);
        let text = b.to_string();
        for phase in Phase::ALL {
            assert!(text.contains(phase.name()), "missing {phase} in {text}");
        }
    }

    #[test]
    fn speedup_guards_zero() {
        let a = CadEffort {
            place_moves: 100,
            route_expansions: 0,
        };
        let zero = CadEffort::default();
        assert_eq!(a.speedup_over(&zero), None);
        assert_eq!(speedup_label(a.speedup_over(&zero)), "0 effort");
        assert_eq!(zero.speedup_over(&a), Some(0.0));
        assert_eq!(speedup_label(a.speedup_over(&a)), "1.0x");
    }
}
