//! One-call synthesis: netlist → area / fmax / power report.

use std::collections::BTreeMap;
use std::fmt;

use crate::area;
use crate::netlist::Netlist;
use crate::power;
use crate::sizing;
use crate::sta::{Structure, TimingError, TimingReport};

/// Errors from the synthesis pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// Timing analysis failed.
    Timing(TimingError),
    /// The frequency target is unreachable; carries the best achievable
    /// frequency in MHz.
    TargetUnreachable { best_mhz: f64 },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Timing(e) => write!(f, "timing: {e}"),
            SynthError::TargetUnreachable { best_mhz } => {
                write!(f, "frequency target unreachable; best is {best_mhz:.0} MHz")
            }
        }
    }
}

impl std::error::Error for SynthError {}

/// A post-synthesis report for one component.
#[derive(Debug, Clone)]
pub struct SynthReport {
    /// Component name.
    pub name: String,
    /// Macro area in mm² (cells + routing overhead) at the final sizing.
    pub area_mm2: f64,
    /// Maximum operating frequency in MHz at the final sizing.
    pub fmax_mhz: f64,
    /// Total power in mW at the requested clock.
    pub power_mw: f64,
    /// Dynamic-power share of `power_mw`.
    pub dynamic_mw: f64,
    /// Per-block area breakdown in µm².
    pub area_breakdown_um2: BTreeMap<String, f64>,
    /// Gate and flop counts.
    pub gate_count: usize,
    /// Flip-flop count.
    pub dff_count: usize,
    /// Critical-path logic depth.
    pub critical_depth: usize,
}

impl fmt::Display for SynthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.4} mm², fmax {:.0} MHz, {:.2} mW ({} gates, {} DFF, depth {})",
            self.name,
            self.area_mm2,
            self.fmax_mhz,
            self.power_mw,
            self.gate_count,
            self.dff_count,
            self.critical_depth
        )
    }
}

/// Synthesizes `netlist` for a `target_mhz` clock: sizes the critical
/// path to meet the target, then reports area, fmax and power *at the
/// target clock*.
///
/// # Errors
///
/// * [`SynthError::TargetUnreachable`] when even maximum effort misses
///   the target (the error carries the achievable frequency).
/// * [`SynthError::Timing`] on malformed netlists.
pub fn synthesize(netlist: &Netlist, target_mhz: f64) -> Result<SynthReport, SynthError> {
    Run::new(netlist)?.at_target(target_mhz)
}

/// Synthesizes `netlist` at `target_mhz`, falling back to its maximum
/// achievable speed when the target is out of reach — the rule every
/// "what does this component cost at this clock" caller wants.
///
/// # Errors
///
/// [`SynthError::Timing`] on malformed netlists.
pub fn synthesize_or_best(netlist: &Netlist, target_mhz: f64) -> Result<SynthReport, SynthError> {
    let mut run = Run::new(netlist)?;
    match run.at_target(target_mhz) {
        Err(SynthError::TargetUnreachable { .. }) => run.max_speed(),
        r => r,
    }
}

/// Synthesizes at maximum effort and reports the achievable fmax (power
/// evaluated at that fmax).
///
/// # Errors
///
/// [`SynthError::Timing`] on malformed netlists.
pub fn synthesize_max_speed(netlist: &Netlist) -> Result<SynthReport, SynthError> {
    Run::new(netlist)?.max_speed()
}

/// One component's synthesis: a working copy of the netlist and its
/// timing graph, each made once and shared by the at-target fit, the
/// max-speed probe and the refit.
struct Run<'a> {
    netlist: &'a Netlist,
    work: Netlist,
    structure: Structure,
}

impl<'a> Run<'a> {
    fn new(netlist: &'a Netlist) -> Result<Self, SynthError> {
        let structure = Structure::new(netlist).map_err(SynthError::Timing)?;
        let work = netlist.clone();
        Ok(Run {
            netlist,
            work,
            structure,
        })
    }

    /// Sizes the netlist's own drives to meet `target_mhz` and reports
    /// at that clock.
    fn at_target(&mut self, target_mhz: f64) -> Result<SynthReport, SynthError> {
        self.work.reset_sizes(self.netlist);
        let target_ps = 1.0e6 / target_mhz.max(1.0);
        let timing =
            sizing::fit_to_period(&self.structure, &mut self.work, target_ps).map_err(|e| {
                SynthError::TargetUnreachable {
                    best_mhz: 1.0e6 / e.best_ps,
                }
            })?;
        Ok(self.report(&timing, target_mhz))
    }

    /// Probes the achievable floor (every drive at its maximum), then
    /// re-fits the netlist's own drives to exactly that period so the
    /// reported area is the *minimal* area achieving fmax. The greedy
    /// refit can marginally miss the all-max floor; the all-max sizing
    /// itself is reported then.
    fn max_speed(&mut self) -> Result<SynthReport, SynthError> {
        let fmax = 1.0e6 / sizing::best_period_ps(&self.structure, &mut self.work);
        match self.at_target(fmax) {
            Err(SynthError::TargetUnreachable { .. }) => {
                sizing::best_period_ps(&self.structure, &mut self.work);
                let timing = self.structure.time(&self.work).0;
                Ok(self.report(&timing, fmax))
            }
            r => r,
        }
    }

    /// The working copy's report at its sizing, with power at `clock_mhz`.
    fn report(&self, timing: &TimingReport, clock_mhz: f64) -> SynthReport {
        let (sized, p) = (&self.work, power::estimate(&self.work, clock_mhz));
        SynthReport {
            name: sized.name().to_string(),
            area_mm2: area::macro_area_mm2(sized),
            fmax_mhz: timing.fmax_mhz,
            power_mw: p.total_mw(),
            dynamic_mw: p.dynamic_mw + p.clock_mw,
            area_breakdown_um2: area::breakdown_um2(sized),
            gate_count: sized.gate_count(),
            dff_count: sized.dff_count(),
            critical_depth: timing.critical_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{initiator_ni_netlist, switch_netlist};
    use xpipes::config::{NiConfig, SwitchConfig};

    #[test]
    fn switch_4x4_meets_1ghz() {
        let n = switch_netlist(&SwitchConfig::new(4, 4, 32));
        let r = synthesize(&n, 1000.0).expect("the paper's switch runs at 1 GHz @ 130 nm");
        assert!(r.fmax_mhz >= 1000.0);
        assert!(r.area_mm2 > 0.02 && r.area_mm2 < 0.3, "{}", r.area_mm2);
        assert!(r.power_mw > 0.5 && r.power_mw < 100.0, "{}", r.power_mw);
    }

    #[test]
    fn tighter_target_costs_area() {
        let n = switch_netlist(&SwitchConfig::new(5, 5, 32));
        let relaxed = synthesize(&n, 400.0).unwrap();
        let tight = synthesize(&n, 1100.0);
        if let Ok(tight) = tight {
            assert!(tight.area_mm2 >= relaxed.area_mm2);
        }
        // At minimum, max-speed costs more than relaxed.
        let max = synthesize_max_speed(&n).unwrap();
        assert!(max.area_mm2 >= relaxed.area_mm2);
        assert!(max.fmax_mhz > 400.0);
    }

    #[test]
    fn unreachable_target_reports_best() {
        let n = switch_netlist(&SwitchConfig::new(4, 4, 32));
        let err = synthesize(&n, 100_000.0).unwrap_err();
        match err {
            SynthError::TargetUnreachable { best_mhz } => {
                assert!(best_mhz > 300.0 && best_mhz < 5000.0, "{best_mhz}")
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn report_display() {
        let n = initiator_ni_netlist(&NiConfig::new(32));
        let r = synthesize(&n, 800.0).unwrap();
        let s = r.to_string();
        assert!(s.contains("mm²") && s.contains("MHz"));
        assert!(r.dff_count > 100, "NI is register-rich: {}", r.dff_count);
        assert!(r.dynamic_mw <= r.power_mw);
    }

    #[test]
    fn breakdown_total_matches_area() {
        let n = switch_netlist(&SwitchConfig::new(4, 4, 32));
        let r = synthesize(&n, 500.0).unwrap();
        let sum_um2: f64 = r.area_breakdown_um2.values().sum();
        let macro_um2 = r.area_mm2 * 1.0e6;
        assert!((macro_um2 / sum_um2 - crate::cells::ROUTING_OVERHEAD).abs() < 1e-6);
    }
}
