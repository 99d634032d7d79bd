//! `experiments` — regenerate every paper table/figure in one run,
//! without criterion timing (the fast path for refreshing EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release -p xpipes-bench --bin experiments
//! ```

use xpipes_bench::experiments::{
    ablation_acknack, ablation_arbitration, ablation_buffers, ablation_flit_width,
    ablation_link_pipeline, e7_eval_config, freq_area_tradeoff, load_latency, mesh_case_study,
    ni_synthesis, pipeline_latency, switch_synthesis, topology_comparison, FLIT_WIDTHS,
};
use xpipes_bench::Table;
use xpipes_traffic::pattern::Pattern;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // E1/E2.
    let rows = ni_synthesis(&FLIT_WIDTHS)?;
    println!("== E1/E2: NI synthesis (area mm² / power mW @ 1 GHz) ==");
    let mut t = Table::new(&["flit", "ini mm²", "tgt mm²", "ini mW", "tgt mW"]);
    for r in &rows {
        t.row_owned(vec![
            r.flit_width.to_string(),
            format!("{:.4}", r.initiator.area_mm2),
            format!("{:.4}", r.target.area_mm2),
            format!("{:.2}", r.initiator.power_mw),
            format!("{:.2}", r.target.power_mw),
        ]);
    }
    print!("{t}");

    // E3/E4/E9.
    let configs = [(4usize, 4usize), (6, 4), (5, 5)];
    let rows = switch_synthesis(&configs, &FLIT_WIDTHS)?;
    println!("\n== E3/E4/E9: switch synthesis ==");
    let mut t = Table::new(&["switch", "flit", "area mm²", "power mW", "fmax MHz"]);
    for r in &rows {
        t.row_owned(vec![
            format!("{}x{}", r.inputs, r.outputs),
            r.flit_width.to_string(),
            format!("{:.4}", r.report.area_mm2),
            format!("{:.1}", r.report.power_mw),
            format!("{:.0}", r.fmax_mhz),
        ]);
    }
    print!("{t}");

    // E5.
    let study = mesh_case_study()?;
    println!("\n== E5: mesh case study ==");
    let mut t = Table::new(&["flit", "ini NI", "tgt NI", "4x4", "6x4"]);
    for (w, a, b, c, d) in &study.component_rows {
        t.row_owned(vec![
            w.to_string(),
            format!("{a:.4}"),
            format!("{b:.4}"),
            format!("{c:.4}"),
            format!("{d:.4}"),
        ]);
    }
    print!("{t}");
    for (w, total) in &study.mesh_totals_mm2 {
        println!("D26 3x4 mesh @ {w}-bit: {total:.2} mm² (paper ~2.6)");
    }
    for (w, fabric, initiators, targets) in &study.mesh_split_mm2 {
        println!(
            "  of which @ {w}-bit: switch fabric {fabric:.3}, initiator NIs {initiators:.3}, \
             target NIs {targets:.3} mm²"
        );
    }
    println!(
        "fmax: NI {:.0}, 4x4 {:.0}, 6x4 {:.0} MHz (ratio {:.2})",
        study.fmax_ni_mhz,
        study.fmax_4x4_mhz,
        study.fmax_6x4_mhz,
        study.fmax_6x4_mhz / study.fmax_4x4_mhz
    );

    // E6.
    println!("\n== E6: 5x5 32-bit area vs frequency ==");
    let mut t = Table::new(&["target MHz", "area mm²"]);
    for (mhz, area, _) in freq_area_tradeoff(&[200.0, 600.0, 1000.0, 1200.0, 1400.0])? {
        t.row_owned(vec![format!("{mhz:.0}"), format!("{area:.4}")]);
    }
    print!("{t}");

    // E7.
    println!("\n== E7: topology comparison (VOPD) ==");
    let mut t = Table::new(&["candidate", "fabric mm²", "total mm²", "MHz", "cyc", "ns"]);
    for r in topology_comparison(&e7_eval_config())? {
        t.row_owned(vec![
            r.name,
            format!("{:.3}", r.fabric_area_mm2),
            format!("{:.3}", r.total_area_mm2),
            format!("{:.0}", r.fmax_mhz),
            format!("{:.1}", r.latency_cycles),
            format!("{:.1}", r.latency_ns),
        ]);
    }
    print!("{t}");

    // E8.
    let p = pipeline_latency()?;
    println!(
        "\n== E8: pipeline depth == lite {:.1} cyc vs legacy {:.1} cyc ({:.1}/traversal)",
        p.lite_cycles,
        p.legacy_cycles,
        (p.legacy_cycles - p.lite_cycles) / 4.0
    );

    // P1.
    println!("\n== P1: load-latency (uniform, 4x4) ==");
    let mut t = Table::new(&["offered", "accepted", "avg cyc", "p95 cyc"]);
    for p in load_latency(Pattern::Uniform, &[0.01, 0.04, 0.08, 0.15])? {
        t.row_owned(vec![
            format!("{:.3}", p.offered),
            format!("{:.3}", p.accepted_packets_per_cycle),
            format!("{:.1}", p.avg_latency_cycles),
            format!("{:.0}", p.p95_latency_cycles),
        ]);
    }
    print!("{t}");

    // Ablations.
    println!("\n== A1: arbitration ==");
    for r in ablation_arbitration(0.05)? {
        println!(
            "  {}: mean {:.1} cyc (best {:.1}, worst {:.1})",
            r.policy, r.mean_latency, r.best_initiator_latency, r.worst_initiator_latency
        );
    }
    println!("== A2: ACK/nACK ==");
    for r in ablation_acknack(&[0.0, 0.01, 0.05])? {
        println!(
            "  er={:.3}: delivered {}, retransmitted {}, mean {:.1} cyc",
            r.error_rate, r.delivered, r.retransmissions, r.mean_latency
        );
    }
    println!("== A3: buffers ==");
    for r in ablation_buffers(&[2, 6, 10])? {
        println!(
            "  depth {}: {:.3} pkt/cyc, {:.1} cyc, {:.4} mm²",
            r.depth, r.accepted, r.mean_latency, r.switch_area_mm2
        );
    }
    println!("== A4: link pipeline ==");
    for r in ablation_link_pipeline(&[1, 2, 4])? {
        println!(
            "  stages {}: {:.1} cyc, reach {:.1} mm, retransmit {} flits",
            r.stages, r.mean_latency, r.reach_mm_at_1ghz, r.retransmit_depth
        );
    }
    println!("== A5: flit width ==");
    for r in ablation_flit_width(&[16, 32, 64, 128])? {
        println!(
            "  w={}: {:.1} cyc, {} flits/write, {:.4} mm²",
            r.width, r.mean_latency, r.flits_per_packet, r.switch_area_mm2
        );
    }
    Ok(())
}
