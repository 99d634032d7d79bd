//! A4 — link pipelining ablation: the paper's links are pipelined so the
//! clock never waits on a long wire. Deeper pipes extend physical reach
//! at 1 GHz but add per-hop latency and grow the ACK/nACK retransmission
//! window (2·depth + 2 flits per output).

use criterion::{black_box, Criterion};
use xpipes::link::Link;
use xpipes_bench::experiments::ablation_link_pipeline;
use xpipes_bench::Table;
use xpipes_sim::{FaultPlan, SimRng};

fn print_tables() {
    let rows = ablation_link_pipeline(&[1, 2, 3, 4]).expect("ablation");
    println!("\n== A4: link pipeline depth ==");
    let mut t = Table::new(&[
        "stages",
        "mean latency (cyc)",
        "reach @ 1 GHz (mm)",
        "retransmit buffer (flits)",
    ]);
    for r in &rows {
        t.row_owned(vec![
            r.stages.to_string(),
            format!("{:.1}", r.mean_latency),
            format!("{:.1}", r.reach_mm_at_1ghz),
            r.retransmit_depth.to_string(),
        ]);
    }
    print!("{t}");
    println!();
}

fn main() {
    print_tables();
    let mut c = Criterion::default().sample_size(10).configure_from_args();
    c.bench_function("link_shift_2stage", |b| {
        let mut link = Link::new(2, SimRng::seed(1), FaultPlan::none());
        b.iter(|| link.shift(black_box(None), None))
    });
    c.final_summary();
}
