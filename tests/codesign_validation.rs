//! Closing the loop between the analytical routing co-design model and
//! the cycle-accurate simulator: the link loads SunMap *predicts* from
//! the task graph must match the traversals the network *measures* when
//! the same application actually runs.

use std::collections::HashMap;

use xpipes::noc::Noc;
use xpipes::Elaboration;
use xpipes_sunmap::apps;
use xpipes_sunmap::codesign::link_loads;
use xpipes_sunmap::mapping::{build_spec, map_to_mesh};
use xpipes_topology::{PortId, SwitchId};
use xpipes_traffic::appdriven::AppTraffic;

#[test]
fn predicted_link_loads_match_measured_traversals() {
    let graph = apps::vopd().expect("app builds");
    let mapping = map_to_mesh(&graph, 3, 4, 1, 7).expect("fits");
    let spec = build_spec(&graph, &mapping, 32).expect("valid spec");

    // Analytical prediction (MB/s per directed switch-to-switch link).
    let elab = Elaboration::new(&spec).expect("routable");
    let predicted = link_loads(&elab, &graph).expect("loads");

    // Simulated measurement (flit traversals per link).
    let mut noc = Noc::with_seed(&spec, 7).expect("instantiates");
    let mut traffic = AppTraffic::new(&spec, &graph, 2.0e-5, 4, 7).expect("binds");
    traffic.run(&mut noc, 30_000);
    noc.run_until_idle(100_000);
    let measured: HashMap<(SwitchId, u8), u64> = noc
        .link_traversals()
        .into_iter()
        .map(|(s, p, n)| ((s, p), n))
        .collect();

    // Compare on switch-to-switch links only (the prediction also loads
    // ejection ports, which link_traversals does not report).
    let mut pairs: Vec<(f64, u64)> = Vec::new();
    for ((sw, port), mbps) in &predicted {
        if let Some(&count) = measured.get(&(*sw, port.0)) {
            pairs.push((*mbps, count));
        }
    }
    assert!(
        pairs.len() >= 5,
        "need a meaningful set of loaded links, got {}",
        pairs.len()
    );

    // Rank correlation: the heaviest predicted links must be the busiest
    // measured links. Use Spearman-style agreement over rank order.
    let mut by_pred = pairs.clone();
    by_pred.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    let mut by_meas = pairs.clone();
    by_meas.sort_by_key(|p| std::cmp::Reverse(p.1));
    // The top-3 predicted links must sit inside the top-half measured.
    let half: Vec<u64> = by_meas[..by_meas.len().div_ceil(2)]
        .iter()
        .map(|p| p.1)
        .collect();
    for (mbps, count) in &by_pred[..3] {
        assert!(
            half.contains(count),
            "predicted-hot link ({mbps} MB/s, {count} flits) not among busy measured links"
        );
    }

    // Unloaded links must be (almost) silent: links with no predicted
    // load carry no application flits.
    for ((sw, port), count) in &measured {
        if *count > 0 {
            let loaded = predicted.contains_key(&(*sw, PortId(*port)));
            assert!(
                loaded,
                "link {sw:?}.{port} carried {count} flits but had no predicted load"
            );
        }
    }
}

#[test]
fn traversal_counts_are_zero_on_an_idle_network() {
    let graph = apps::mwd().expect("app builds");
    let mapping = map_to_mesh(&graph, 3, 4, 1, 5).expect("fits");
    let spec = build_spec(&graph, &mapping, 32).expect("valid spec");
    let mut noc = Noc::new(&spec).expect("instantiates");
    noc.run(500);
    assert!(noc.link_traversals().iter().all(|&(_, _, n)| n == 0));
}
