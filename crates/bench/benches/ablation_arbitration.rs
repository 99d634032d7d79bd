//! A1 — arbitration ablation: fixed priority vs round robin under
//! hotspot contention. The paper offers both ("Arbitration: Fixed / RR");
//! round robin buys fairness (tighter per-initiator latency spread) at a
//! slightly deeper arbiter.

use criterion::{black_box, Criterion};
use xpipes::Arbiter;
use xpipes_bench::experiments::ablation_arbitration;
use xpipes_bench::Table;
use xpipes_topology::spec::Arbitration;

fn print_tables() {
    let rows = ablation_arbitration(0.05).expect("ablation");
    println!("\n== A1: arbitration policy under hotspot traffic ==");
    let mut t = Table::new(&[
        "policy",
        "mean latency (cyc)",
        "best initiator (cyc)",
        "worst initiator (cyc)",
        "spread",
    ]);
    for r in &rows {
        t.row_owned(vec![
            r.policy.to_string(),
            format!("{:.1}", r.mean_latency),
            format!("{:.1}", r.best_initiator_latency),
            format!("{:.1}", r.worst_initiator_latency),
            format!(
                "{:.2}x",
                r.worst_initiator_latency / r.best_initiator_latency.max(1e-9)
            ),
        ]);
    }
    print!("{t}");
    println!();
}

fn main() {
    print_tables();
    let mut c = Criterion::default().sample_size(10).configure_from_args();
    c.bench_function("round_robin_grant_6way", |b| {
        let mut arb = Arbiter::new(Arbitration::RoundRobin, 6);
        let requests = 0b10_1101;
        b.iter(|| arb.grant(black_box(requests)))
    });
    c.final_summary();
}
