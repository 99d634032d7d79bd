//! MPEG-4 decoder on a mesh: the paper's motivating scenario — map a
//! communication-intensive media application onto an xpipes mesh, replay
//! its traffic, and inspect latency and link loads.
//!
//! Run with: `cargo run --release --example mesh_mpeg4`

use xpipes::noc::Noc;
use xpipes::Elaboration;
use xpipes_sunmap::codesign::{link_loads, load_report};
use xpipes_sunmap::{apps, build_spec, map_to_mesh};
use xpipes_traffic::appdriven::AppTraffic;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = apps::mpeg4_decoder()?;
    println!(
        "application '{}': {} cores, {} flows, {:.0} MB/s total",
        app.name(),
        app.core_count(),
        app.flows().len(),
        app.total_bandwidth()
    );

    // SunMap mapping stage: anneal the placement on a 3x4 mesh.
    let mapping = map_to_mesh(&app, 3, 4, 2, 42)?;
    println!("mapping cost (bw×hops): {:.0}", mapping.cost(&app));
    for core in app.cores() {
        let (x, y) = mapping.coord_of(core);
        println!(
            "  {:<10} -> switch ({x}, {y})",
            app.core_name(core).unwrap_or("?")
        );
    }

    // Instantiate and replay the application traffic.
    let spec = build_spec(&app, &mapping, 32)?;
    let mut noc = Noc::new(&spec)?;
    let mut traffic = AppTraffic::new(&spec, &app, 2.0e-5, 4, 7)?;
    traffic.run(&mut noc, 20_000);
    noc.run_until_idle(50_000);

    let stats = noc.stats();
    println!(
        "\nsimulated {} cycles: {} packets ({} flits), avg latency {:.1} cycles, \
         {} retransmissions",
        stats.cycles,
        stats.packets_delivered,
        stats.flits_routed,
        stats
            .transaction_latency
            .mean()
            .max(stats.request_latency.mean()),
        stats.retransmissions
    );

    // Routing co-design view: how evenly is traffic spread on the links?
    let loads = link_loads(&Elaboration::new(&spec)?, &app)?;
    let report = load_report(&loads);
    println!(
        "link loads: {} loaded links, max {:.0} MB/s, mean {:.0} MB/s, imbalance {:.2}x",
        report.loaded_links, report.max_mbps, report.mean_mbps, report.imbalance
    );
    Ok(())
}
