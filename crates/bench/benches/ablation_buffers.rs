//! A3 — output-queue depth ablation: the paper's switch is output-queued
//! with "buffering for performance"; this sweep shows saturation
//! throughput growing with queue depth, and the silicon it costs.

use criterion::{black_box, Criterion};
use xpipes::noc::Noc;
use xpipes_bench::cycle_engine::reference_spec;
use xpipes_bench::experiments::ablation_buffers;
use xpipes_bench::Table;

fn print_tables() {
    let depths = [2, 4, 6, 10];
    let rows = ablation_buffers(&depths).expect("ablation");
    println!("\n== A3: output queue depth vs throughput and area ==");
    let mut t = Table::new(&[
        "queue depth (flits)",
        "accepted @ heavy load (pkt/cyc)",
        "mean latency (cyc)",
        "4x4x32 switch area (mm²)",
    ]);
    for r in &rows {
        t.row_owned(vec![
            r.depth.to_string(),
            format!("{:.3}", r.accepted),
            format!("{:.1}", r.mean_latency),
            format!("{:.4}", r.switch_area_mm2),
        ]);
    }
    print!("{t}");
    println!();
}

fn main() {
    print_tables();
    let mut c = Criterion::default().sample_size(10).configure_from_args();
    // Switches are built wired to their channels, so instantiation is
    // timed for the whole reference 4x4 mesh.
    let spec = reference_spec();
    c.bench_function("noc_instantiation_mesh4x4_w32", |b| {
        b.iter(|| Noc::new(black_box(&spec)).expect("assembles"))
    });
    c.final_summary();
}
