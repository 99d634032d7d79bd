//! A5 — flit-width ablation: the performance side of the paper's flit
//! sweep. Wider links serialize a transaction into fewer flits, cutting
//! latency, while datapath area grows near-linearly (E5 measures the
//! area side).

use criterion::{black_box, Criterion};
use xpipes::header::Header;
use xpipes::packet::{packetize, Packet};
use xpipes_bench::experiments::ablation_flit_width;
use xpipes_bench::Table;
use xpipes_ocp::{MCmd, Sideband, ThreadId};
use xpipes_sim::Cycle;
use xpipes_topology::route::SourceRoute;
use xpipes_topology::PortId;

fn print_tables() {
    let rows = ablation_flit_width(&[16, 32, 64, 128]).expect("ablation");
    println!("\n== A5: flit width vs latency and area ==");
    let mut t = Table::new(&[
        "flit width",
        "mean latency (cyc)",
        "flits / 4-beat write",
        "4x4 switch area (mm²)",
    ]);
    for r in &rows {
        t.row_owned(vec![
            r.width.to_string(),
            format!("{:.1}", r.mean_latency),
            r.flits_per_packet.to_string(),
            format!("{:.4}", r.switch_area_mm2),
        ]);
    }
    print!("{t}");
    println!();
}

fn main() {
    print_tables();
    let mut c = Criterion::default().sample_size(10).configure_from_args();
    c.bench_function("packetize_4beat_write_w32", |b| {
        let route = SourceRoute::new(vec![PortId(1)]).expect("valid");
        let header = Header::request(&route, 0, MCmd::Write, 4, ThreadId(0), 0, Sideband::NONE)
            .expect("valid");
        let packet = Packet::new(1, header, Some(0x40), vec![1, 2, 3, 4]);
        b.iter(|| {
            packetize(black_box(&packet), 32, 32, Cycle::ZERO)
                .expect("encodable")
                .collect::<Vec<_>>()
        })
    });
    c.final_summary();
}
