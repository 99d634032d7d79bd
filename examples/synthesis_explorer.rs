//! Synthesis design-space explorer: sweep flit widths and switch radices
//! through the synthesis-estimation library, printing area / power /
//! fmax — "Quick and Accurate Estimations" at the higher abstraction
//! layer, as the paper puts it.
//!
//! Run with: `cargo run --release --example synthesis_explorer`

use xpipes::config::{NiConfig, SwitchConfig};
use xpipes_synth::components::{initiator_ni_netlist, switch_netlist, target_ni_netlist};
use xpipes_synth::report::{synthesize, synthesize_max_speed, synthesize_or_best};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target_mhz = 1000.0;

    println!("network interfaces (target {target_mhz:.0} MHz):");
    println!(
        "{:<10} {:>6} {:>12} {:>10} {:>8} {:>7}",
        "component", "flit", "area (mm²)", "power (mW)", "gates", "DFFs"
    );
    for w in [16u32, 32, 64, 128] {
        for (label, netlist) in [
            ("ni_init", initiator_ni_netlist(&NiConfig::new(w))),
            ("ni_tgt", target_ni_netlist(&NiConfig::new(w))),
        ] {
            let r = synthesize(&netlist, target_mhz)?;
            println!(
                "{label:<10} {w:>6} {:>12.4} {:>10.2} {:>8} {:>7}",
                r.area_mm2, r.power_mw, r.gate_count, r.dff_count
            );
        }
    }

    println!("\nswitches (target {target_mhz:.0} MHz, 32-bit flits):");
    println!(
        "{:<10} {:>12} {:>10} {:>11} {:>7}",
        "radix", "area (mm²)", "power (mW)", "fmax (MHz)", "depth"
    );
    for radix in [3usize, 4, 5, 6, 8] {
        let netlist = switch_netlist(&SwitchConfig::new(radix, radix, 32));
        let r = synthesize_or_best(&netlist, target_mhz)?;
        let max = synthesize_max_speed(&netlist)?;
        println!(
            "{:<10} {:>12.4} {:>10.2} {:>11.0} {:>7}",
            format!("{radix}x{radix}"),
            r.area_mm2,
            r.power_mw,
            max.fmax_mhz,
            r.critical_depth
        );
    }

    println!("\narea breakdown of the paper's 4x4 32-bit switch:");
    let r = synthesize(&switch_netlist(&SwitchConfig::new(4, 4, 32)), target_mhz)?;
    let mut blocks: Vec<(&String, &f64)> = r.area_breakdown_um2.iter().collect();
    blocks.sort_by(|a, b| b.1.partial_cmp(a.1).expect("finite areas"));
    let total: f64 = r.area_breakdown_um2.values().sum();
    for (name, um2) in blocks {
        println!(
            "  {name:<12} {um2:>10.0} µm²  ({:>4.1}%)",
            um2 / total * 100.0
        );
    }
    Ok(())
}
