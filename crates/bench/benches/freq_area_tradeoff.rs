//! E6 — "Full Custom vs Macro Based NoCs": the area-vs-target-frequency
//! tradeoff of a 32-bit 5x5 switch (the paper's banana curve spanning
//! ~0.10–0.18 mm² from relaxed clocks up to ~1.4 GHz).

use criterion::{black_box, Criterion};
use xpipes::config::SwitchConfig;
use xpipes_bench::experiments::freq_area_tradeoff;
use xpipes_bench::Table;
use xpipes_synth::components::switch_netlist;
use xpipes_synth::report::synthesize_max_speed;

fn print_tables() {
    let targets = [
        200.0, 400.0, 600.0, 800.0, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0,
    ];
    let pts = freq_area_tradeoff(&targets).expect("tradeoff sweep");
    println!("\n== E6: 32-bit 5x5 switch — area vs target frequency ==");
    let mut t = Table::new(&["target (MHz)", "area (mm²)", "met"]);
    for (mhz, area, met) in &pts {
        t.row_owned(vec![
            format!("{mhz:.0}"),
            format!("{area:.4}"),
            if *met {
                "yes".into()
            } else {
                "best-effort".into()
            },
        ]);
    }
    print!("{t}");
    let lo = pts.first().expect("points").1;
    let hi = pts.iter().map(|p| p.1).fold(0.0, f64::max);
    println!("\nband: {lo:.3}–{hi:.3} mm² (paper: 0.10–0.18 mm² over 0–1500 MHz)\n");
}

fn main() {
    print_tables();
    let mut c = Criterion::default().sample_size(10).configure_from_args();
    c.bench_function("max_effort_sizing_5x5_w32", |b| {
        b.iter(|| {
            let netlist = switch_netlist(black_box(&SwitchConfig::new(5, 5, 32)));
            synthesize_max_speed(&netlist).expect("timeable").fmax_mhz
        })
    });
    c.final_summary();
}
