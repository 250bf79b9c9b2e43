//! The engine's degraded-mode layer: one watchdog/retry/breaker wrapper
//! per offloaded functional unit.
//!
//! [`FaultLayer`] is the per-engine instantiation of
//! [`bionic_sim::fault`]: five [`DegradedUnit`]s — tree probe, log
//! insert, queue, overlay, scanner, in the
//! [`bionic_telemetry::UNIT_NAMES`] order — each over its own
//! decorrelated RNG substream split from the engine seed, so a fault
//! history is replayable per unit and independent of what the other
//! units drew.
//!
//! The layer is strictly opt-in ([`crate::config::EngineConfig::hw_faults`]
//! is `None` by default). When absent, the hardware paths never consult
//! it: zero RNG draws, zero extra branches taken, byte-identical timing.
//! When present, every offloaded op asks its unit's
//! [`DegradedUnit::try_hw`] first; a "no" answer reroutes that single op
//! to the software path — and because the hardware paths are pure
//! *pricing* (functional results always come from the software-maintained
//! structures), a fallback can never change committed results.

use bionic_sim::fault::{BreakerState, DegradeStats, DegradedUnit, HwFaultConfig};
use bionic_sim::rng::SplitMix64;
use bionic_sim::time::SimTime;

/// Number of wrapped functional units (matches
/// [`bionic_telemetry::UNIT_NAMES`]).
pub const UNIT_COUNT: usize = 5;

/// Per-unit degraded-mode state for the whole engine.
pub struct FaultLayer {
    pub(crate) units: [DegradedUnit; UNIT_COUNT],
}

impl FaultLayer {
    /// Build the layer: one unit per offloadable component, each with its
    /// own substream split deterministically from the engine seed.
    pub fn new(cfg: &HwFaultConfig, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xFA11_B0DE_FA11_B0DE);
        FaultLayer {
            units: core::array::from_fn(|_| DegradedUnit::new(cfg, rng.split())),
        }
    }

    /// The unit at telemetry index `unit` (see
    /// [`bionic_telemetry::UNIT_NAMES`]).
    pub fn unit_mut(&mut self, unit: usize) -> &mut DegradedUnit {
        &mut self.units[unit]
    }

    /// Read-only view of the unit at telemetry index `unit` — the
    /// placement controller samples counters without touching state.
    pub fn unit(&self, unit: usize) -> &DegradedUnit {
        &self.units[unit]
    }

    /// Snapshot every unit for reporting, stamped at sim-time `now` (the
    /// time-in-degraded-state of a currently-Open breaker accrues up to
    /// `now`).
    pub fn report(&self, now: SimTime) -> Vec<FaultUnitReport> {
        (0..UNIT_COUNT).map(|u| self.unit_report(u, now)).collect()
    }

    /// Snapshot the unit at telemetry index `unit` (one entry of
    /// [`FaultLayer::report`], without building the whole list).
    pub(crate) fn unit_report(&self, unit: usize, now: SimTime) -> FaultUnitReport {
        let u = &self.units[unit];
        FaultUnitReport {
            unit: bionic_telemetry::UNIT_NAMES[unit],
            stats: u.stats,
            breaker_state: u.breaker().state(),
            breaker_opens: u.breaker().opens(),
            breaker_closes: u.breaker().closes(),
            time_degraded: u.breaker().time_degraded(now),
        }
    }
}

/// One unit's degraded-mode summary (see [`FaultLayer::report`]).
#[derive(Debug, Clone)]
pub struct FaultUnitReport {
    /// Unit name from [`bionic_telemetry::UNIT_NAMES`].
    pub unit: &'static str,
    /// Attempt/retry/fallback and per-family fault counters.
    pub stats: DegradeStats,
    /// Breaker state at snapshot time.
    pub breaker_state: BreakerState,
    /// Closed → Open transitions.
    pub breaker_opens: u64,
    /// HalfOpen → Closed recoveries.
    pub breaker_closes: u64,
    /// Cumulative quarantine time up to the snapshot.
    pub time_degraded: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_draw_decorrelated_streams() {
        // A rate where individual attempts can go either way.
        let cfg = HwFaultConfig::uniform(1_500);
        let mut layer = FaultLayer::new(&cfg, 7);
        let decisions: Vec<bool> = (0..UNIT_COUNT)
            .map(|u| layer.unit_mut(u).try_hw(SimTime::ZERO).hw)
            .collect();
        // Streams are split per unit: a fresh layer with the same seed
        // reproduces them exactly.
        let mut again = FaultLayer::new(&cfg, 7);
        let decisions2: Vec<bool> = (0..UNIT_COUNT)
            .map(|u| again.unit_mut(u).try_hw(SimTime::ZERO).hw)
            .collect();
        assert_eq!(decisions, decisions2);
        // And a different seed gives a different fault history somewhere
        // within a few ops (overwhelmingly likely at these rates).
        let mut other = FaultLayer::new(&cfg, 8);
        let mut diverged = false;
        for round in 0..50u64 {
            for u in 0..UNIT_COUNT {
                let t = SimTime::from_us(round as f64);
                if layer.unit_mut(u).try_hw(t) != other.unit_mut(u).try_hw(t) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "seeds 7 and 8 produced identical fault histories");
    }

    #[test]
    fn report_covers_every_unit_in_telemetry_order() {
        let layer = FaultLayer::new(&HwFaultConfig::uniform(0), 1);
        let report = layer.report(SimTime::ZERO);
        let names: Vec<&str> = report.iter().map(|r| r.unit).collect();
        assert_eq!(names, bionic_telemetry::UNIT_NAMES.to_vec());
        assert!(report.iter().all(|r| r.stats.ops == 0));
    }
}
