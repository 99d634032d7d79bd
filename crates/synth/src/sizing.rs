//! Timing-driven gate sizing: the synthesis "effort" knob.
//!
//! `fit_to_period` runs slack analysis and upsizes **every cell on a
//! violating path** (negative slack against the target period), repeating
//! until the target is met or all violating cells saturate at maximum
//! drive. Tight targets therefore swell whole timing cones, trading area
//! for frequency exactly as a synthesis tool's effort knob does — this
//! reproduces the paper's area-vs-frequency "banana" curve for the 32-bit
//! 5x5 switch.
//!
//! The netlist's structure (`sta::Structure`) is passed in, built once
//! per component by the caller: sizing changes drive sizes, never
//! structure. Each round recomputes only the arrivals and the required
//! times, both `Vec`s indexed by `NetId.0`.

use crate::cells::MAX_SIZE;
use crate::netlist::{GateId, NetId, Netlist};
use crate::sta::{Structure, TimingReport};

/// The target period is out of reach of the greedy sizing; carries the
/// period of the last sizing it timed, in ps.
#[derive(Debug)]
pub(crate) struct Unachievable {
    pub best_ps: f64,
}

/// Upsize cells on violating paths of `netlist`, whose timing graph is
/// `structure`, until `target_ps` is met.
///
/// Mutates the netlist's drive sizes in place, starting from the sizes
/// it has.
///
/// # Errors
///
/// [`Unachievable`] when the rounds stop short of the target.
pub(crate) fn fit_to_period(
    structure: &Structure,
    netlist: &mut Netlist,
    target_ps: f64,
) -> Result<TimingReport, Unachievable> {
    // Required time per net; +inf marks a net no sink constrains, which
    // reads as the target period.
    let mut required = vec![f64::INFINITY; netlist.net_count() as usize];
    let tighten = |req: &mut [f64], net: NetId, t: f64| {
        let e = &mut req[net.0 as usize];
        if t < *e {
            *e = t;
        }
    };
    let required_at = |req: &[f64], net: NetId| match req[net.0 as usize] {
        t if t == f64::INFINITY => target_ps,
        t => t,
    };
    // Each round can raise every violating gate one size step, so
    // MAX_SIZE rounds saturate; a few extra rounds absorb load shifts.
    let max_iters = MAX_SIZE as usize + 8;
    for _ in 0..max_iters {
        let (timing, arrival) = structure.time(netlist);
        if timing.min_period_ps <= target_ps {
            return Ok(timing);
        }

        // Backward required-time pass against the target period.
        required.fill(f64::INFINITY);
        for g in netlist.gates() {
            if g.cell.is_sequential() {
                tighten(&mut required, g.inputs()[0], target_ps - g.cell.setup_ps());
            }
        }
        for &net in &structure.outputs {
            tighten(&mut required, net, target_ps);
        }
        for &gi in structure.topo_order.iter().rev() {
            let g = &netlist.gates()[gi];
            let req_out = required_at(&required, g.output);
            let d = structure.delay_ps(g);
            for &input in g.inputs() {
                tighten(&mut required, input, req_out - d);
            }
        }

        // Upsize every gate whose output violates its required time,
        // including a guard band: cells within a few percent of violation
        // are sized too, as a synthesis tool's margining would.
        let margin = target_ps * 0.08;
        let mut progressed = false;
        let mut any_violation_upsized = false;
        for gi in 0..netlist.gate_count() {
            let g = &netlist.gates()[gi];
            let arr = arrival[g.output.0 as usize];
            let req = required_at(&required, g.output);
            if arr + margin > req && g.size < MAX_SIZE {
                let size = g.size + 1;
                netlist.set_size(GateId(gi as u32), size);
                progressed = true;
                if arr > req {
                    any_violation_upsized = true;
                }
            }
        }
        if !progressed || !any_violation_upsized {
            return Err(Unachievable {
                best_ps: timing.min_period_ps,
            });
        }
    }
    let timing = structure.time(netlist).0;
    if timing.min_period_ps <= target_ps {
        Ok(timing)
    } else {
        Err(Unachievable {
            best_ps: timing.min_period_ps,
        })
    }
}

/// The fastest period any sizing reaches, in ps: every drive at
/// `MAX_SIZE`, where the netlist is left. A cell's delay falls strictly
/// with its size and its load counts pins, not sizes, so every arrival
/// is least at the largest sizes. This is also where `fit_to_period`
/// ends at target 0, which upsizes every gate each round.
pub(crate) fn best_period_ps(structure: &Structure, netlist: &mut Netlist) -> f64 {
    for gi in 0..netlist.gate_count() {
        netlist.set_size(GateId(gi as u32), MAX_SIZE);
    }
    structure.time(netlist).0.min_period_ps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::cell_area_um2;
    use crate::cells::CellKind;
    use crate::components::{initiator_ni_netlist, switch_netlist, target_ni_netlist};
    use crate::netlist::NetlistBuilder;
    use crate::sta::analyze;
    use xpipes::config::{NiConfig, SwitchConfig};

    fn wide_chain() -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let g = b.group("c", 0.2);
        let d0 = b.input();
        let mut net = b.dff(g, d0);
        for _ in 0..12 {
            net = b.gate(g, CellKind::Nand2, &[net, net]);
        }
        b.dff(g, net);
        b.finish()
    }

    fn period_of(n: &Netlist) -> f64 {
        analyze(n).unwrap().min_period_ps
    }

    fn fit(n: &mut Netlist, target_ps: f64) -> Result<TimingReport, Unachievable> {
        fit_to_period(&Structure::new(n).unwrap(), n, target_ps)
    }

    #[test]
    fn relaxed_target_needs_no_sizing() {
        let mut n = wide_chain();
        fit(&mut n, 1.0e6).unwrap();
        assert!(n.gates().iter().all(|g| g.size == 1));
    }

    #[test]
    fn tight_target_costs_area() {
        let mut relaxed = wide_chain();
        fit(&mut relaxed, 1.0e6).unwrap();
        let base_area = cell_area_um2(&relaxed);

        let mut tight = wide_chain();
        let t0 = period_of(&tight);
        fit(&mut tight, t0 * 0.7).unwrap();
        assert!(cell_area_um2(&tight) > base_area);
    }

    #[test]
    fn impossible_target_reports_best() {
        let mut n = wide_chain();
        let Unachievable { best_ps } = fit(&mut n, 1.0).unwrap_err();
        assert!(best_ps > 1.0);
        assert!(best_ps < period_of(&wide_chain()));
    }

    #[test]
    fn best_period_is_monotone_floor() {
        let mut n = wide_chain();
        let best = best_period_ps(&Structure::new(&n).unwrap(), &mut n);
        assert!(fit(&mut wide_chain(), best * 1.2).is_ok());
        assert!(fit(&mut wide_chain(), best * 0.8).is_err());
    }

    #[test]
    fn one_pass_probe_equals_the_greedy_rounds() {
        // At target 0 every gate violates, so each greedy round upsizes
        // all of them until every drive is at MAX_SIZE: the sizing the
        // one-pass probe sets directly.
        for width in [16, 32, 64, 128] {
            let ni = NiConfig::new(width);
            let switches = (2..=6).map(|r| switch_netlist(&SwitchConfig::new(r, r, width)));
            let nis = [initiator_ni_netlist(&ni), target_ni_netlist(&ni)];
            for mut n in switches.chain(nis) {
                let s = Structure::new(&n).unwrap();
                let greedy = fit_to_period(&s, &mut n.clone(), 0.0).unwrap_err();
                let one_pass = best_period_ps(&s, &mut n);
                assert_eq!(one_pass.to_bits(), greedy.best_ps.to_bits(), "{}", n.name());
            }
        }
    }

    #[test]
    fn area_monotonically_rises_as_target_tightens() {
        let t0 = period_of(&wide_chain());
        let mut last_area = 0.0;
        for factor in [1.0, 0.9, 0.8, 0.72] {
            let mut n = wide_chain();
            if fit(&mut n, t0 * factor).is_ok() {
                let a = cell_area_um2(&n);
                assert!(a >= last_area, "area must not shrink as target tightens");
                last_area = a;
            }
        }
        assert!(last_area > 0.0);
    }

    #[test]
    fn sizing_touches_whole_violating_cone() {
        // Two parallel equal chains between registers: both violate, both
        // must be sized (path-at-a-time sizing would alternate slowly).
        let mut b = NetlistBuilder::new("par");
        let g = b.group("c", 0.2);
        let d0 = b.input();
        let q = b.dff(g, d0);
        let mut x = q;
        let mut y = q;
        for _ in 0..10 {
            x = b.gate(g, CellKind::Nand2, &[x, x]);
            y = b.gate(g, CellKind::Nor2, &[y, y]);
        }
        b.dff(g, x);
        b.dff(g, y);
        let mut n = b.finish();
        let t0 = period_of(&n);
        fit(&mut n, t0 * 0.75).unwrap();
        // Both chains were upsized, not just the single critical one.
        let sized_nand = n
            .gates()
            .iter()
            .filter(|g| g.cell == CellKind::Nand2 && g.size > 1)
            .count();
        let sized_nor = n
            .gates()
            .iter()
            .filter(|g| g.cell == CellKind::Nor2 && g.size > 1)
            .count();
        assert!(sized_nand >= 5, "nand chain sized: {sized_nand}");
        assert!(sized_nor >= 5, "nor chain sized: {sized_nor}");
    }
}
