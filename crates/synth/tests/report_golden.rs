//! Pins every `SynthReport` field, bit for bit, for the components the
//! paper prices: the (4,4), (6,4) and (5,5) switches and both NIs at 32-
//! and 128-bit flits, each through `synthesize_or_best` at 500 MHz,
//! 1 GHz and 100 GHz (out of reach, so it takes the max-speed fallback).
//!
//! Floats are pinned through `f64::to_bits` and the area breakdown is
//! listed in key order. A change to the timing or sizing code that moves
//! any of these bits changes a synthesis result the flow prints.

use xpipes::config::{NiConfig, SwitchConfig};
use xpipes_synth::components::{initiator_ni_netlist, switch_netlist, target_ni_netlist};
use xpipes_synth::report::{synthesize_or_best, SynthReport};
use xpipes_synth::Netlist;

const TARGETS_MHZ: [f64; 3] = [500.0, 1000.0, 100_000.0];

fn components() -> Vec<(String, Netlist)> {
    let mut out = Vec::new();
    for width in [32u32, 128] {
        for (inputs, outputs) in [(4usize, 4usize), (6, 4), (5, 5)] {
            out.push((
                format!("sw{inputs}x{outputs}w{width}"),
                switch_netlist(&SwitchConfig::new(inputs, outputs, width)),
            ));
        }
        out.push((
            format!("ni_init_w{width}"),
            initiator_ni_netlist(&NiConfig::new(width)),
        ));
        out.push((
            format!("ni_tgt_w{width}"),
            target_ni_netlist(&NiConfig::new(width)),
        ));
    }
    out
}

fn render(case: &str, target_mhz: f64, r: &SynthReport) -> String {
    let mut keys: Vec<&String> = r.area_breakdown_um2.keys().collect();
    keys.sort();
    let breakdown: Vec<String> = keys
        .iter()
        .map(|k| format!("{k}={:016x}", r.area_breakdown_um2[*k].to_bits()))
        .collect();
    format!(
        "{case}@{target_mhz} {} area={:016x} fmax={:016x} power={:016x} dynamic={:016x} \
         gates={} dffs={} depth={} [{}]",
        r.name,
        r.area_mm2.to_bits(),
        r.fmax_mhz.to_bits(),
        r.power_mw.to_bits(),
        r.dynamic_mw.to_bits(),
        r.gate_count,
        r.dff_count,
        r.critical_depth,
        breakdown.join(" ")
    )
}

#[test]
fn synthesis_reports_are_pinned_bit_for_bit() {
    let mut actual = Vec::new();
    for (case, netlist) in components() {
        for target in TARGETS_MHZ {
            let r = synthesize_or_best(&netlist, target).expect("component synthesizes");
            actual.push(render(&case, target, &r));
        }
    }
    assert_eq!(actual, GOLDEN);
}

const GOLDEN: &[&str] = &[
    "sw4x4w32@500 switch_4x4_w32 area=3fb40dbb6e446ff1 fmax=4089583d74e462d4 power=4010d2283b886c54 dynamic=4010b78811b1d934 gates=4336 dffs=1752 depth=3 [allocator=4096719999999998 crossbar=40a7966666666697 flow_ctrl=40d735e6666666d6 input_regs=40b2a5999999998d out_queue=40dc041999999a6a output_regs=40ad6e6666666652 routing=408d266666666658]",
    "sw4x4w32@1000 switch_4x4_w32 area=3fb5c6c4c0a6dcde fmax=40910a0cd7852a28 power=4021505227eb00f1 dynamic=402140535c9e66e4 gates=4336 dffs=1752 depth=7 [allocator=40997ffffffffffd crossbar=40a7966666666697 flow_ctrl=40d9ced1eb851efd input_regs=40b32a8f5c28f5b2 out_queue=40dea3051eb8527f output_regs=40ad6e6666666652 routing=408e1ffffffffff0]",
    "sw4x4w32@100000 switch_4x4_w32 area=3fc17fa379415f35 fmax=4097e5608e82aacc power=4030434029895153 dynamic=403031f8964cc90c gates=4336 dffs=1752 depth=13 [allocator=40b0008f5c28f5bd crossbar=40b8b28f5c28f5bf flow_ctrl=40e8fcc51eb85203 input_regs=40c03ccccccccccc out_queue=40e378c51eb8521e output_regs=40ad6e6666666652 routing=40a1fb851eb851e9]",
    "sw6x4w32@500 switch_6x4_w32 area=3fb6211d536f5f86 fmax=4089583d74e462d4 power=4012569fb465cdb3 dynamic=4012389b52007dcc gates=5080 dffs=1844 depth=3 [allocator=40a1a4ccccccccc9 crossbar=40b3a7fffffffff4 flow_ctrl=40d85dc00000006f input_regs=40bbf86666666631 out_queue=40dc041999999a6a output_regs=40ad6e6666666652 routing=4095dcccccccccd6]",
    "sw6x4w32@1000 switch_6x4_w32 area=3fb7ff15bff2d793 fmax=4090eb591f2f8a77 power=4022dc4eb56fb932 dynamic=4022ca6b93ccd13a gates=5080 dffs=1844 depth=17 [allocator=40a59ee147ae1482 crossbar=40b3a7fffffffff4 flow_ctrl=40daf6ab851eb89d input_regs=40bd0251eb851e81 out_queue=40dea3051eb8527f output_regs=40ad6e6666666652 routing=4096d66666666672]",
    "sw6x4w32@100000 switch_6x4_w32 area=3fbeb052334cb36f fmax=4094f10831106d1c power=402c1f30ba391d12 dynamic=402c034975f1c564 gates=5080 dffs=1844 depth=17 [allocator=40b829c28f5c28e5 crossbar=40bf73333333337d flow_ctrl=40e141bd70a3d75a input_regs=40c55a8a3d70a3f1 out_queue=40e0f54cccccccc7 output_regs=40ad6e6666666652 routing=40a42bd70a3d70a6]",
    "sw5x5w32@500 switch_5x5_w32 area=3fb9a4e8ad28157a fmax=4089583d74e462d4 power=401561f01b866e4c dynamic=40153f9a6b50b0fa gates=5690 dffs=2200 depth=3 [allocator=40a2df0000000003 crossbar=40b3a7fffffffff4 flow_ctrl=40dd0360000000af input_regs=40b74effffffffdf out_queue=40e1829000000083 output_regs=40b264ffffffffef routing=4092b9ffffffffff]",
    "sw5x5w32@1000 switch_5x5_w32 area=3fbcd1a46f57f117 fmax=40910a0cd7852a28 power=4026684717ec861e dynamic=402652272862f5e6 gates=5690 dffs=2200 depth=7 [allocator=40a6f399999999a4 crossbar=40bd5e666666668e flow_ctrl=40e0214333333362 input_regs=40b858eb851eb82e out_queue=40e325e33333330a output_regs=40b264ffffffffef routing=409b691eb851eb89]",
    "sw5x5w32@100000 switch_5x5_w32 area=3fc4a4983c81a3a4 fmax=409648198deb0248 power=40329045b5db1a48 dynamic=40327cb8c3efb001 gates=5690 dffs=2200 depth=14 [allocator=40b9abb33333332b crossbar=40c494cccccccced flow_ctrl=40eb69d9999999fc input_regs=40c224170a3d70a6 out_queue=40e6c33cccccccd1 output_regs=40b264ffffffffef routing=40a5e9c28f5c28ff]",
    "ni_init_w32@500 ni_initiator_w32 area=3fa11d7118e0bba1 fmax=408992a51487c050 power=3ffbb8f72cf2a792 dynamic=3ffb8c88a47ed02a gates=1789 dffs=792 depth=3 [depacketizer=40b27c4cccccccbe flow_ctrl=40b72f6666666647 header_reg=40a146999999999c lut=40a1dcccccccccca ocp_fsm=406ce66666666666 out_queue=40bb704ccccccc71 payload_reg=408bb33333333337 serializer=407604ccccccccc9 tag_table=40b23cfffffffff4]",
    "ni_init_w32@1000 ni_initiator_w32 area=3fa1f57590e56608 fmax=40923e2b56d3e9e2 power=400c29c57b9fb3ca dynamic=400c10e560418972 gates=1789 dffs=792 depth=31 [depacketizer=40b27c4cccccccbe flow_ctrl=40b9c851eb851ebb header_reg=40a146999999999c lut=40a1dcccccccccca ocp_fsm=406ce66666666666 out_queue=40be00d1eb851ea6 payload_reg=408bb33333333337 serializer=407604ccccccccc9 tag_table=40b2883d70a3d6f5]",
    "ni_init_w32@100000 ni_initiator_w32 area=3fa64c98d901179c fmax=409743b456b70df6 power=4016c084b5313b4e dynamic=4016ae204976d810 gates=1789 dffs=792 depth=31 [depacketizer=40b353a3d70a3d65 flow_ctrl=40c65b970a3d70b0 header_reg=40a146999999999c lut=40a1dcccccccccca ocp_fsm=406ce66666666666 out_queue=40c1df70a3d70a30 payload_reg=408bb33333333337 serializer=408093851eb851e7 tag_table=40b461fffffffff6]",
    "ni_tgt_w32@500 ni_target_w32 area=3f99efebe0b93dde fmax=408992a51487c050 power=3ff5ceb610c8a53e dynamic=3ff5ad288ce703ce gates=1311 dffs=600 depth=3 [depacketizer=40a71efffffffffc flow_ctrl=40b72f6666666647 header_reg=40a146999999999c lut=4088600000000000 ocp_fsm=406ce66666666666 out_queue=40bb704ccccccc71 payload_reg=408bb33333333337 resp_sched=4090f46666666667 serializer=407604ccccccccc9]",
    "ni_tgt_w32@1000 ni_target_w32 area=3f9b88aeacff91ca fmax=40934739a4b7d3c8 power=40064014a82db134 dynamic=40062ccd530489f3 gates=1311 dffs=600 depth=3 [depacketizer=40a71efffffffffc flow_ctrl=40b9c851eb851ebb header_reg=40a146999999999c lut=4088600000000000 ocp_fsm=406ce66666666666 out_queue=40be00d1eb851ea6 payload_reg=408bb33333333337 resp_sched=4090f46666666667 serializer=407604ccccccccc9]",
    "ni_tgt_w32@100000 ni_target_w32 area=3fabb895023c37ca fmax=409abceb771a02bd power=4019260bcb3542f0 dynamic=40190c813da82713 gates=1311 dffs=600 depth=8 [depacketizer=40ac12147ae147a7 flow_ctrl=40d8b28147ae1467 header_reg=40a146999999999c lut=4088600000000000 ocp_fsm=406ce66666666666 out_queue=40c4ba07ae147af9 payload_reg=408bb33333333337 resp_sched=409aee7ae147ae14 serializer=40815f851eb851e7]",
    "sw4x4w128@500 switch_4x4_w128 area=3fd359c5908fd296 fmax=4080b18118118118 power=402f60c59aa96294 dynamic=402f27f498c3af4c gates=14320 dffs=6360 depth=3 [allocator=4096719999999998 crossbar=40c68bffffffff4a flow_ctrl=40f63bb333333108 input_regs=40d1d30000000026 out_queue=40fcf43ffffffc8f output_regs=40cc220000000045 routing=408d266666666658]",
    "sw4x4w128@1000 switch_4x4_w128 area=3fda2e7d53d941a3 fmax=408f9f86f7f81fec power=40420108caa9dc3a dynamic=4041e7f583a53ae9 gates=14320 dffs=6360 depth=3 [allocator=409fbb851eb851e9 crossbar=40d8cd33333332d1 flow_ctrl=40ff81f9999999e5 input_regs=40d8b7d70a3d7105 out_queue=4102408d70a3d713 output_regs=40cc220000000045 routing=408e1ffffffffff0]",
    "sw4x4w128@100000 switch_4x4_w128 area=3fe15e8d14803361 fmax=40936cce12b29f87 power=4049965ae46cd61b dynamic=404971697f3a4c5b gates=14320 dffs=6360 depth=10 [allocator=40a43851eb851eba crossbar=40df90cccccccd85 flow_ctrl=41083c8999999c54 input_regs=40dd8d570a3d709c out_queue=410603dc28f5c3be output_regs=40cc220000000045 routing=4097ceb851eb8518]",
    "sw6x4w128@500 switch_6x4_w128 area=3fd5a2b4c3932ab6 fmax=4080b18118118118 power=40313f3a0762ca4a dynamic=40311e0157eed3dc gates=16408 dffs=6644 depth=3 [allocator=40a2aeb851eb8520 crossbar=40dbcecccccccd75 flow_ctrl=40f6e943333330f6 input_regs=40dabc80000000c2 out_queue=40fcf43ffffffc8f output_regs=40cc220000000045 routing=4095dcccccccccd6]",
    "sw6x4w128@1000 switch_6x4_w128 area=3fdd2201cb70d45c fmax=408f9f86f7f81fec power=4043c8158c593f53 dynamic=4043ab8fffbce43c gates=16408 dffs=6644 depth=3 [allocator=40acbdeb851eb860 crossbar=40e4aaffffffff29 flow_ctrl=4100a1eb33333362 input_regs=40e29a800000003c out_queue=4102408d70a3d713 output_regs=40cc220000000045 routing=409714ccccccccda]",
    "sw6x4w128@100000 switch_6x4_w128 area=3fe3b3963b1a7aca fmax=40936cce12b29f87 power=404ca44ee764833d dynamic=404c793f50ee8a94 gates=16408 dffs=6644 depth=10 [allocator=40b87fae147ae144 crossbar=40eed0666666686b flow_ctrl=41097f88f5c29207 input_regs=40e69608f5c28ec8 out_queue=410603dc28f5c3be output_regs=40cc220000000045 routing=40a370a3d70a3d6f]",
    "sw5x5w128@500 switch_5x5_w128 area=3fd97c376f3e3ec0 fmax=4080b18118118118 power=40344908aac96c5a dynamic=403421ecfe9b7b8c gates=18650 dffs=7960 depth=3 [allocator=40a42b666666666a crossbar=40de10000000005f flow_ctrl=40fbca9ffffffcfc input_regs=40d647c000000074 out_queue=410218a7fffffe53 output_regs=40d195400000003c routing=4092b9ffffffffff]",
    "sw5x5w128@1000 switch_5x5_w128 area=3fe0d3e80548a706 fmax=408f9f86f7f81fec power=4046fde96f9ac24c dynamic=4046dd5e2046c720 gates=18650 dffs=7960 depth=3 [allocator=40ac253333333341 crossbar=40e4aaffffffff29 flow_ctrl=4103b13c00000139 input_regs=40defebae147aeb8 out_queue=4106d0b0ccccce44 output_regs=40d195400000003c routing=409b691eb851eb89]",
    "sw5x5w128@100000 switch_5x5_w128 area=3fe6c108abaf9e81 fmax=40936cce12b29f87 power=40509bc44f0c8b91 dynamic=40508328f076d406 gates=18650 dffs=7960 depth=10 [allocator=40b5038000000001 crossbar=40eff10000000257 flow_ctrl=410e4bac000003da input_regs=40e29dbb851eb812 out_queue=410b84d333333659 output_regs=40d195400000003c routing=40a00c333333332a]",
    "ni_init_w128@500 ni_initiator_w128 area=3fb4a5d26aa414fd fmax=4080be18d3380722 power=40103722b9686c7b dynamic=40101947cfa26aa4 gates=3805 dffs=1752 depth=3 [depacketizer=40b27c4cccccccbe flow_ctrl=40d63a1333333322 header_reg=40a146999999999c lut=40a1dcccccccccca ocp_fsm=406ce66666666666 out_queue=40dccbb3333333a1 payload_reg=408bb33333333337 serializer=409100ccccccccc6 tag_table=40b23cfffffffff4]",
    "ni_init_w128@1000 ni_initiator_w128 area=3fb98c6c1e3124df fmax=408fb1971b8573cd power=4021c6c848d98d95 dynamic=4021b008205ff1c8 gates=3805 dffs=1752 depth=3 [depacketizer=40b27c4cccccccbe flow_ctrl=40dd57c000000021 header_reg=40a146999999999c lut=40a1dcccccccccca ocp_fsm=406ce66666666666 out_queue=40e225a1eb851f1c payload_reg=408bb33333333337 serializer=40a1beeb851eb851 tag_table=40b2883d70a3d6f5]",
    "ni_init_w128@100000 ni_initiator_w128 area=3fc07182c3fd0b53 fmax=40936cce12b29f87 power=4028bbfdd27642ba dynamic=40289b466663cae8 gates=3805 dffs=1752 depth=10 [depacketizer=40b2b9eb851eb845 flow_ctrl=40e6634ae147aead header_reg=40a146999999999c lut=40a1dcccccccccca ocp_fsm=406ce66666666666 out_queue=40e5e4b7ae147b85 payload_reg=408bb33333333337 serializer=40a677ae147ae13b tag_table=40b31eb851eb850d]",
    "ni_tgt_w128@500 ni_target_w128 area=3fb29314d6620713 fmax=4080be18d3380722 power=400d7924e4bbd7f5 dynamic=400d42df9378ef42 gates=3327 dffs=1560 depth=3 [depacketizer=40a71efffffffffc flow_ctrl=40d63a1333333322 header_reg=40a146999999999c lut=4088600000000000 ocp_fsm=406ce66666666666 out_queue=40dccbb3333333a1 payload_reg=408bb33333333337 resp_sched=4090f46666666667 serializer=409100ccccccccc6]",
    "ni_tgt_w128@1000 ni_target_w128 area=3fb773dd00fe567b fmax=408fb1971b8573cd power=40204c5c13fd0d12 dynamic=402037021d10b20a gates=3327 dffs=1560 depth=3 [depacketizer=40a71efffffffffc flow_ctrl=40dd57c000000021 header_reg=40a146999999999c lut=4088600000000000 ocp_fsm=406ce66666666666 out_queue=40e225a1eb851f1c payload_reg=408bb33333333337 resp_sched=4090f46666666667 serializer=40a1beeb851eb851]",
    "ni_tgt_w128@100000 ni_target_w128 area=3fbec3973ed77430 fmax=40936cce12b29f87 power=4026e3eb6cd7ddac dynamic=4026c4a831efaa52 gates=3327 dffs=1560 depth=10 [depacketizer=40a79a3d70a3d709 flow_ctrl=40e6634ae147aead header_reg=40a146999999999c lut=4088600000000000 ocp_fsm=406ce66666666666 out_queue=40e5e4b7ae147b85 payload_reg=408bb33333333337 resp_sched=4091eae147ae147a serializer=40a677ae147ae13b]",
];
