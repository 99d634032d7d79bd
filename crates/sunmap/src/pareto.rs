//! Pareto-front utilities over candidate reports.

use crate::eval::CandidateReport;

/// The objectives the selection stage minimises.
fn objectives(r: &CandidateReport) -> [f64; 3] {
    [r.area_mm2, r.power_mw, r.avg_latency_ns]
}

/// True when `a` dominates `b`: no objective worse, at least one better.
pub(crate) fn dominates(a: &CandidateReport, b: &CandidateReport) -> bool {
    let oa = objectives(a);
    let ob = objectives(b);
    let mut strictly_better = false;
    for (x, y) in oa.iter().zip(&ob) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Indices of the non-dominated candidates (the Pareto front), in input
/// order.
pub fn pareto_front(reports: &[CandidateReport]) -> Vec<usize> {
    (0..reports.len())
        .filter(|&i| {
            !reports
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && dominates(other, &reports[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(name: &str, area: f64, power: f64, lat_ns: f64) -> CandidateReport {
        CandidateReport {
            name: name.to_string(),
            area_mm2: area,
            fabric_area_mm2: area,
            fmax_mhz: 1000.0,
            power_mw: power,
            avg_latency_cycles: lat_ns,
            avg_latency_ns: lat_ns,
            accepted_packets_per_cycle: 0.0,
            accepted_packets_per_us: 0.0,
            load_imbalance: 1.0,
            switches: 0,
            nis: 0,
        }
    }

    #[test]
    fn strict_domination() {
        let a = report("a", 1.0, 10.0, 50.0);
        let b = report("b", 2.0, 20.0, 60.0);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
    }

    #[test]
    fn equal_reports_do_not_dominate() {
        let a = report("a", 1.0, 10.0, 50.0);
        let b = report("b", 1.0, 10.0, 50.0);
        assert!(!dominates(&a, &b));
        assert!(!dominates(&b, &a));
    }

    #[test]
    fn tradeoffs_are_incomparable() {
        let small_slow = report("ss", 1.0, 10.0, 100.0);
        let big_fast = report("bf", 2.0, 20.0, 40.0);
        assert!(!dominates(&small_slow, &big_fast));
        assert!(!dominates(&big_fast, &small_slow));
    }

    #[test]
    fn front_excludes_dominated() {
        let reports = vec![
            report("good-small", 1.0, 10.0, 100.0),
            report("good-fast", 2.0, 20.0, 40.0),
            report("bad", 3.0, 30.0, 120.0),
        ];
        let front = pareto_front(&reports);
        assert_eq!(front, vec![0, 1]);
    }

    #[test]
    fn empty_front() {
        assert!(pareto_front(&[]).is_empty());
    }
}
