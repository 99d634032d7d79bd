//! Pins `select`, bit for bit, for the six bundled applications at the
//! design flow's evaluation config (warm-up 300, window 2,000, 1 GHz
//! target, default selection parameters): every `CandidateReport` field,
//! the winner index and the failure list.
//!
//! Floats are pinned through `f64::to_bits`. A change to synthesis,
//! floorplanning, mapping or the simulator that moves any of these bits
//! changes what SunMap picks or reports.

use xpipes_sunmap::apps;
use xpipes_sunmap::selection::{select, SelectionConfig, SelectionOutcome};
use xpipes_sunmap::CandidateReport;
use xpipes_topology::TaskGraph;

fn apps() -> Vec<(&'static str, TaskGraph)> {
    let build = [
        ("mpeg4", apps::mpeg4_decoder as fn() -> _),
        ("vopd", apps::vopd),
        ("mwd", apps::mwd),
        ("pip", apps::pip),
        ("h263enc", apps::h263_enc_mp3_dec),
        ("d26", apps::d26_media_soc),
    ];
    build
        .into_iter()
        .map(|(name, graph)| (name, graph().expect("bundled app builds")))
        .collect()
}

fn config() -> SelectionConfig {
    let mut cfg = SelectionConfig::default();
    cfg.eval.warmup = 300;
    cfg.eval.window = 2_000;
    cfg.eval.target_mhz = 1000.0;
    cfg
}

fn render_report(app: &str, r: &CandidateReport) -> String {
    format!(
        "{app} {} area={:016x} fabric={:016x} fmax={:016x} power={:016x} lat_cyc={:016x} \
         lat_ns={:016x} pkt_cyc={:016x} pkt_us={:016x} imbalance={:016x} switches={} nis={}",
        r.name,
        r.area_mm2.to_bits(),
        r.fabric_area_mm2.to_bits(),
        r.fmax_mhz.to_bits(),
        r.power_mw.to_bits(),
        r.avg_latency_cycles.to_bits(),
        r.avg_latency_ns.to_bits(),
        r.accepted_packets_per_cycle.to_bits(),
        r.accepted_packets_per_us.to_bits(),
        r.load_imbalance.to_bits(),
        r.switches,
        r.nis
    )
}

fn render(app: &str, outcome: &SelectionOutcome) -> Vec<String> {
    let mut lines: Vec<String> = outcome
        .reports
        .iter()
        .map(|r| render_report(app, r))
        .collect();
    lines.push(format!("{app} winner={}", outcome.winner));
    for (name, why) in &outcome.failures {
        lines.push(format!("{app} failed {name}: {why}"));
    }
    lines
}

#[test]
fn selection_is_pinned_bit_for_bit() {
    let cfg = config();
    let mut actual = Vec::new();
    for (app, graph) in apps() {
        let outcome = select(&graph, &cfg).expect("a candidate evaluates");
        actual.extend(render(app, &outcome));
    }
    assert_eq!(actual, GOLDEN);
}

const GOLDEN: &[&str] = &[
    "mpeg4 mesh3x2 area=3ff6330a5267a03a fabric=3fe8d50677d65cf9 fmax=408f400000000000 power=406168054690de39 lat_cyc=402922c3f35ba780 lat_ns=402922c3f35ba780 pkt_cyc=3fa2f1a9fbe76c8b pkt_us=4042800000000000 imbalance=4025acf389ca97ad switches=6 nis=20",
    "mpeg4 torus3x2 area=3ff7f5cf5bab1c8b fabric=3fec5a908a5d559c fmax=408f400000000000 power=4062af6af46aa0ab lat_cyc=402922c3f35ba780 lat_ns=402922c3f35ba780 pkt_cyc=3fa2f1a9fbe76c8b pkt_us=4042800000000000 imbalance=4025acf389ca97ad switches=6 nis=20",
    "mpeg4 mesh4x2 area=3ff83b03bf274674 fabric=3fece4f95155a96e fmax=408f400000000000 power=40630317d1427d83 lat_cyc=402922c3f35ba780 lat_ns=402922c3f35ba780 pkt_cyc=3fa2f1a9fbe76c8b pkt_us=4042800000000000 imbalance=402b577777777777 switches=8 nis=20",
    "mpeg4 torus4x2 area=3ff9d6fa057ebe3d fabric=3ff00e72ef024c80 fmax=4084d55555555555 power=4064393fdea7c0d7 lat_cyc=402922c3f35ba780 lat_ns=4032da12f684bda0 pkt_cyc=3fa2f1a9fbe76c8b pkt_us=4038aaaaaaaaaaaa imbalance=402b577777777777 switches=8 nis=20",
    "mpeg4 custom area=3ff755aaad0b672d fabric=3feb1a472d1deadf fmax=408f400000000000 power=4062268d603ad330 lat_cyc=40277b425ed097b5 lat_ns=40277b425ed097b5 pkt_cyc=3fa2f1a9fbe76c8b pkt_us=4042800000000000 imbalance=402c4f133770dea5 switches=6 nis=20",
    "mpeg4 winner=0",
    "vopd mesh3x2 area=3ffa12f51bf49c62 fabric=3fec5a908a5d559c fmax=408f400000000000 power=40645a6088d6d3dc lat_cyc=402692e29f79b476 lat_ns=402692e29f79b476 pkt_cyc=3faa5e353f7ced91 pkt_us=4049c00000000000 imbalance=3ffb65cf79c3af47 switches=6 nis=24",
    "vopd torus3x2 area=3ffbfc999c5160f0 fabric=3ff016ecc58b6f5c fmax=408f400000000000 power=4065b124993c7c8e lat_cyc=402692e29f79b476 lat_ns=402692e29f79b476 pkt_cyc=3faa5e353f7ced91 pkt_us=4049c00000000000 imbalance=3ffb65cf79c3af47 switches=6 nis=24",
    "vopd mesh4x2 area=3ffc32d2a7988e6b fabric=3ff04d25d0d29cd7 fmax=408f400000000000 power=4066026d098336a3 lat_cyc=4026ac10c9714fbd lat_ns=4026ac10c9714fbd pkt_cyc=3faa5e353f7ced91 pkt_us=4049c00000000000 imbalance=3ffe118fdf93ed16 switches=8 nis=24",
    "vopd torus4x2 area=3ffdfac72fb7a394 fabric=3ff2151a58f1b200 fmax=4084d55555555555 power=406749e4acbd62da lat_cyc=4026ac10c9714fbd lat_ns=4031010c9714fbce pkt_cyc=3faa5e353f7ced91 pkt_us=40412aaaaaaaaaaa imbalance=3ffe118fdf93ed16 switches=8 nis=24",
    "vopd custom area=3ffb035a2c4d389d fabric=3fee3b5aab0e8e11 fmax=408f400000000000 power=4064c58bfcf8e42f lat_cyc=4026e47ef130a941 lat_ns=4026e47ef130a941 pkt_cyc=3faa1cac083126e9 pkt_us=4049800000000000 imbalance=3ffc11a7b9611a7c switches=5 nis=24",
    "vopd winner=0",
    "mwd mesh3x2 area=3ff833c43017b4c2 fabric=3fea97cb8119d94a fmax=408f400000000000 power=4062ed06495abd0f lat_cyc=4027555555555554 lat_ns=4027555555555554 pkt_cyc=3f90624dd2f1a9fc pkt_us=4030000000000000 imbalance=4001344d1344d134 switches=6 nis=22",
    "mwd torus3x2 area=3ffa09f8f4e7d532 fabric=3fee44350aba1a2a fmax=408f400000000000 power=40643c1b287a72a2 lat_cyc=4027555555555554 lat_ns=4027555555555554 pkt_cyc=3f90624dd2f1a9fc pkt_us=4030000000000000 imbalance=4001344d1344d134 switches=6 nis=22",
    "mwd mesh4x2 area=3ffa7551b3f95630 fabric=3fef1ae688dd1c26 fmax=408f400000000000 power=4064a45f37329c52 lat_cyc=4027555555555555 lat_ns=4027555555555555 pkt_cyc=3f90624dd2f1a9fc pkt_us=4030000000000000 imbalance=4000e38e38e38e39 switches=8 nis=22",
    "mwd torus4x2 area=3ffc0826884e17d7 fabric=3ff1204818c34fba fmax=4084d55555555555 power=4065d4db3bfb58ee lat_cyc=4027555555555555 lat_ns=4031800000000000 pkt_cyc=3f90624dd2f1a9fc pkt_us=4025555555555555 imbalance=4000e38e38e38e39 switches=8 nis=22",
    "mwd custom area=3ff69d8bf2a6a019 fabric=3fe76b5b0637aff8 fmax=408f400000000000 power=406181841e0751e8 lat_cyc=4025aaaaaaaaaaac lat_ns=4025aaaaaaaaaaac pkt_cyc=3f90624dd2f1a9fc pkt_us=4030000000000000 imbalance=3fff2b3884fcace1 switches=4 nis=22",
    "mwd winner=4",
    "pip mesh2x2 area=3fef9039ad8f87ba fabric=3fe0d2aa92eb46a9 fmax=408f400000000000 power=4058c156da0168f9 lat_cyc=4027000000000000 lat_ns=4027000000000000 pkt_cyc=3f826e978d4fdf3b pkt_us=4022000000000000 imbalance=3ffb13b13b13b13b switches=4 nis=15",
    "pip mesh3x2 area=3ff1f63a9f1cc12c fabric=3fe52ee623954147 fmax=408f400000000000 power=405c20aa5325413c lat_cyc=4027000000000000 lat_ns=4027000000000000 pkt_cyc=3f826e978d4fdf3b pkt_us=4022000000000000 imbalance=3ffb13b13b13b13b switches=6 nis=15",
    "pip torus3x2 area=3ff39c7f2efe26f2 fabric=3fe87b6f43580cd3 fmax=408f400000000000 power=405e9100bf42a0b5 lat_cyc=4027000000000000 lat_ns=4027000000000000 pkt_cyc=3f826e978d4fdf3b pkt_us=4022000000000000 imbalance=3ffb13b13b13b13b switches=6 nis=15",
    "pip custom area=3ff012fe8efd0d31 fabric=3fe1686e0355d951 fmax=408f400000000000 power=405901bad3a604bc lat_cyc=402745d1745d1746 lat_ns=402745d1745d1746 pkt_cyc=3f826e978d4fdf3b pkt_us=4022000000000000 imbalance=3ff6db6db6db6db7 switches=4 nis=15",
    "pip winner=0",
    "h263enc mesh3x2 area=3ff77217cc65cd95 fabric=3fe9f0b82f1e077e fmax=408f400000000000 power=40624db3552c8260 lat_cyc=402704d4873ecadf lat_ns=402704d4873ecadf pkt_cyc=3f970a3d70a3d70a pkt_us=4036800000000000 imbalance=4014198abd3e1d06 switches=6 nis=21",
    "h263enc torus3x2 area=3ff9216d1a1ca5c8 fabric=3fed4f62ca8bb7e3 fmax=408f400000000000 power=40638d69d1c051b0 lat_cyc=402704d4873ecadf lat_ns=402704d4873ecadf pkt_cyc=3f970a3d70a3d70a pkt_us=4036800000000000 imbalance=4014198abd3e1d06 switches=6 nis=21",
    "h263enc mesh4x2 area=3ff9a03594bacae4 fabric=3fee4cf3bfc8021c fmax=408f400000000000 power=4063fd5d11be6e81 lat_cyc=402704d4873ecadf lat_ns=402704d4873ecadf pkt_cyc=3f970a3d70a3d70a pkt_us=4036800000000000 imbalance=4014198abd3e1d06 switches=8 nis=21",
    "h263enc torus4x2 area=3ffb1f9aad82e86c fabric=3ff0a5def8ac1e96 fmax=4084d55555555555 power=40652629e54137fc lat_cyc=402704d4873ecadf lat_ns=4031439f656f1827 pkt_cyc=3f970a3d70a3d70a pkt_us=402dffffffffffff imbalance=4014198abd3e1d06 switches=8 nis=21",
    "h263enc custom area=3ff728a4730040ad fabric=3fe95dd17c52edae fmax=408f400000000000 power=4061f1174cb83f61 lat_cyc=4026304d4873ecaf lat_ns=4026304d4873ecaf pkt_cyc=3f970a3d70a3d70a pkt_us=4036800000000000 imbalance=4015f48081dc273a switches=5 nis=21",
    "h263enc winner=4",
    "d26 mesh4x3 area=3ffbffe9f11597e5 fabric=3ff2c70e87205158 fmax=408f400000000000 power=40660aa4c7cb0594 lat_cyc=4027e50d79435e51 lat_ns=4027e50d79435e51 pkt_cyc=3fadf3b645a1cac1 pkt_us=404d400000000000 imbalance=4017dfe5a8bef898 switches=12 nis=19",
    "d26 torus4x3 area=4000c9bfa8400703 fabric=3ff85aa3e68ac776 fmax=4084d55555555555 power=406a418359bc344c lat_cyc=4027e50d79435e51 lat_ns=4031ebca1af286bd pkt_cyc=3fadf3b645a1cac1 pkt_us=4043800000000000 imbalance=4017dfe5a8bef898 switches=12 nis=19",
    "d26 mesh5x2 area=3ff91bd4c188abb2 fabric=3fefc5f2af26ca4a fmax=408f400000000000 power=4063cac65691068e lat_cyc=40288a9622a588ab lat_ns=40288a9622a588ab pkt_cyc=3fadf3b645a1cac1 pkt_us=404d400000000000 imbalance=40165559b47c6363 switches=10 nis=19",
    "d26 torus5x2 area=3ffacb3434a12bf8 fabric=3ff19258caabe56b fmax=407f400000000000 power=406507e95c4f8c70 lat_cyc=40288a9622a588ab lat_ns=40388a9622a588ab pkt_cyc=3fadf3b645a1cac1 pkt_us=403d400000000000 imbalance=40165559b47c6363 switches=10 nis=19",
    "d26 custom area=3ff8aa5e2825f8e1 fabric=3feee3057c6164a8 fmax=408f400000000000 power=406360b002fd0ab6 lat_cyc=4026db6db6db6db7 lat_ns=4026db6db6db6db7 pkt_cyc=3fadf3b645a1cac1 pkt_us=404d400000000000 imbalance=40182317549ce49a switches=9 nis=19",
    "d26 winner=4",
];
