//! A2 — ACK/nACK ablation: the switch is "designed for pipelined,
//! unreliable links"; this sweep injects rising flit error rates and
//! shows lossless delivery at the cost of retransmissions and latency.

use criterion::{black_box, Criterion};
use xpipes::flow_control::{AckNack, LinkTx};
use xpipes::{Flit, FlitKind, FlitMeta};
use xpipes_bench::experiments::ablation_acknack;
use xpipes_bench::Table;
use xpipes_sim::Cycle;

fn print_tables() {
    let rates = [0.0, 0.001, 0.01, 0.05];
    let rows = ablation_acknack(&rates).expect("ablation");
    println!("\n== A2: link error rate vs ACK/nACK cost ==");
    let mut t = Table::new(&[
        "error rate",
        "packets delivered",
        "retransmitted flits",
        "mean latency (cyc)",
    ]);
    for r in &rows {
        t.row_owned(vec![
            format!("{:.3}", r.error_rate),
            r.delivered.to_string(),
            r.retransmissions.to_string(),
            format!("{:.1}", r.mean_latency),
        ]);
    }
    print!("{t}");
    println!("\nall error rates deliver the full traffic: the protocol is lossless\n");
}

fn main() {
    print_tables();
    let mut c = Criterion::default().sample_size(10).configure_from_args();
    c.bench_function("acknack_tx_cycle", |b| {
        let mut tx = LinkTx::new(4, None);
        let flit = Flit::new(FlitKind::Single, 7, FlitMeta::new(0, Cycle::ZERO, 0));
        let mut ack = None;
        b.iter(|| {
            tx.push(black_box(flit));
            let (sent, _) = tx.transmit(ack).expect("ready");
            ack = Some(AckNack {
                seq: sent.seq,
                ack: true,
            });
        })
    });
    c.final_summary();
}
