//! Benchmark application task graphs.
//!
//! The communication graphs standard in the NoC-synthesis literature
//! (used by the xpipes/NetChip/SunMap line of work), with bandwidths in
//! MB/s, plus the "D26" media SoC matching the paper's mesh case study
//! (8 processors and 11 slaves on a 3x4 mesh).

use std::fmt;

use xpipes_topology::appgraph::{CoreId, TaskGraphError};
use xpipes_topology::{CoreKind, TaskGraph};

/// A benchmark graph builder rejected one of its own flows: names the
/// application and carries the underlying graph error, so a typo in a
/// bundled spec reports itself instead of panicking in library code.
#[derive(Debug, Clone, PartialEq)]
pub struct AppBuildError {
    /// Name of the benchmark application whose graph failed to build.
    pub app: String,
    /// The rejected flow or core, as diagnosed by the task graph.
    pub source: TaskGraphError,
}

impl fmt::Display for AppBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "benchmark graph {}: {}", self.app, self.source)
    }
}

impl std::error::Error for AppBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

fn flow(g: &mut TaskGraph, a: CoreId, b: CoreId, mbps: f64) -> Result<(), AppBuildError> {
    g.add_flow(a, b, mbps).map_err(|source| AppBuildError {
        app: g.name().to_string(),
        source,
    })
}

/// The MPEG-4 decoder core graph: SDRAM-centred communication with a mix
/// of light control flows and heavy media streams.
pub fn mpeg4_decoder() -> Result<TaskGraph, AppBuildError> {
    let mut g = TaskGraph::new("mpeg4");
    let vu = g.add_core("vu", CoreKind::Both);
    let au = g.add_core("au", CoreKind::Both);
    let med_cpu = g.add_core("med_cpu", CoreKind::Both);
    let sdram = g.add_core("sdram", CoreKind::Target);
    let sram1 = g.add_core("sram1", CoreKind::Target);
    let sram2 = g.add_core("sram2", CoreKind::Target);
    let rast = g.add_core("rast", CoreKind::Both);
    let adsp = g.add_core("adsp", CoreKind::Both);
    let up_samp = g.add_core("up_samp", CoreKind::Both);
    let idct = g.add_core("idct", CoreKind::Both);
    let risc = g.add_core("risc", CoreKind::Initiator);
    let bab = g.add_core("bab", CoreKind::Both);

    flow(&mut g, vu, sdram, 190.0)?;
    flow(&mut g, au, sdram, 0.5)?;
    flow(&mut g, med_cpu, sdram, 60.0)?;
    flow(&mut g, rast, sdram, 640.0)?;
    flow(&mut g, up_samp, sdram, 250.0)?;
    flow(&mut g, risc, sdram, 500.0)?;
    flow(&mut g, idct, sram1, 32.0)?;
    flow(&mut g, bab, sram1, 16.0)?;
    flow(&mut g, risc, sram2, 40.0)?;
    flow(&mut g, adsp, sram2, 0.5)?;
    flow(&mut g, med_cpu, sram2, 40.0)?;
    flow(&mut g, risc, au, 0.5)?;
    flow(&mut g, risc, vu, 0.5)?;
    flow(&mut g, risc, med_cpu, 0.5)?;
    flow(&mut g, risc, adsp, 0.5)?;
    flow(&mut g, risc, up_samp, 0.5)?;
    flow(&mut g, risc, bab, 0.5)?;
    flow(&mut g, risc, rast, 0.5)?;
    flow(&mut g, risc, idct, 0.5)?;
    Ok(g)
}

/// The Video Object Plane Decoder (VOPD) pipeline: 12 cores in a mostly
/// linear stream with published inter-stage bandwidths.
pub fn vopd() -> Result<TaskGraph, AppBuildError> {
    let mut g = TaskGraph::new("vopd");
    let vld = g.add_core("vld", CoreKind::Both);
    let run_le = g.add_core("run_le_dec", CoreKind::Both);
    let inv_scan = g.add_core("inv_scan", CoreKind::Both);
    let ac_dc = g.add_core("ac_dc_pred", CoreKind::Both);
    let stripe = g.add_core("stripe_mem", CoreKind::Both);
    let iquant = g.add_core("iquant", CoreKind::Both);
    let idct = g.add_core("idct", CoreKind::Both);
    let up_samp = g.add_core("up_samp", CoreKind::Both);
    let vop_rec = g.add_core("vop_rec", CoreKind::Both);
    let padding = g.add_core("padding", CoreKind::Both);
    let vop_mem = g.add_core("vop_mem", CoreKind::Both);
    let arm = g.add_core("arm", CoreKind::Both);

    flow(&mut g, vld, run_le, 70.0)?;
    flow(&mut g, run_le, inv_scan, 362.0)?;
    flow(&mut g, inv_scan, ac_dc, 362.0)?;
    flow(&mut g, ac_dc, stripe, 49.0)?;
    flow(&mut g, ac_dc, iquant, 357.0)?;
    flow(&mut g, stripe, iquant, 27.0)?;
    flow(&mut g, iquant, idct, 353.0)?;
    flow(&mut g, idct, up_samp, 300.0)?;
    flow(&mut g, up_samp, vop_rec, 313.0)?;
    flow(&mut g, vop_rec, padding, 313.0)?;
    flow(&mut g, padding, vop_mem, 313.0)?;
    flow(&mut g, vop_mem, vop_rec, 94.0)?;
    flow(&mut g, arm, idct, 16.0)?;
    flow(&mut g, arm, padding, 16.0)?;
    flow(&mut g, arm, vld, 16.0)?;
    Ok(g)
}

/// The Multi-Window Display (MWD) application: 12 cores with memory
/// staging between filter stages.
pub fn mwd() -> Result<TaskGraph, AppBuildError> {
    let mut g = TaskGraph::new("mwd");
    let in0 = g.add_core("in", CoreKind::Initiator);
    let nr = g.add_core("nr", CoreKind::Both);
    let mem1 = g.add_core("mem1", CoreKind::Both);
    let hs = g.add_core("hs", CoreKind::Both);
    let vs = g.add_core("vs", CoreKind::Both);
    let mem2 = g.add_core("mem2", CoreKind::Both);
    let hvs = g.add_core("hvs", CoreKind::Both);
    let jug1 = g.add_core("jug1", CoreKind::Both);
    let mem3 = g.add_core("mem3", CoreKind::Both);
    let jug2 = g.add_core("jug2", CoreKind::Both);
    let se = g.add_core("se", CoreKind::Both);
    let blend = g.add_core("blend", CoreKind::Target);

    flow(&mut g, in0, nr, 64.0)?;
    flow(&mut g, nr, mem1, 64.0)?;
    flow(&mut g, nr, mem2, 64.0)?;
    flow(&mut g, mem1, hs, 64.0)?;
    flow(&mut g, hs, vs, 128.0)?;
    flow(&mut g, vs, jug1, 64.0)?;
    flow(&mut g, mem2, hvs, 96.0)?;
    flow(&mut g, hvs, jug2, 96.0)?;
    flow(&mut g, jug1, mem3, 64.0)?;
    flow(&mut g, jug2, mem3, 96.0)?;
    flow(&mut g, mem3, se, 64.0)?;
    flow(&mut g, se, blend, 16.0)?;
    flow(&mut g, jug1, blend, 32.0)?;
    Ok(g)
}

/// The Picture-In-Picture (PIP) application: 8 cores, two parallel video
/// paths blended for display.
pub fn pip() -> Result<TaskGraph, AppBuildError> {
    let mut g = TaskGraph::new("pip");
    let inp_mem = g.add_core("inp_mem", CoreKind::Both);
    let hs = g.add_core("hs", CoreKind::Both);
    let vs = g.add_core("vs", CoreKind::Both);
    let jug = g.add_core("jug", CoreKind::Both);
    let mem = g.add_core("mem", CoreKind::Both);
    let hvs = g.add_core("hvs", CoreKind::Both);
    let jug2 = g.add_core("jug2", CoreKind::Both);
    let op_disp = g.add_core("op_disp", CoreKind::Target);

    flow(&mut g, inp_mem, hs, 128.0)?;
    flow(&mut g, hs, vs, 64.0)?;
    flow(&mut g, vs, jug, 64.0)?;
    flow(&mut g, inp_mem, hvs, 64.0)?;
    flow(&mut g, hvs, jug2, 64.0)?;
    flow(&mut g, jug, mem, 64.0)?;
    flow(&mut g, jug2, mem, 64.0)?;
    flow(&mut g, mem, op_disp, 64.0)?;
    Ok(g)
}

/// An H.263 encoder + MP3 decoder multimedia system: 12 cores with the
/// motion-estimation stream dominating.
pub fn h263_enc_mp3_dec() -> Result<TaskGraph, AppBuildError> {
    let mut g = TaskGraph::new("h263enc");
    let cam = g.add_core("cam", CoreKind::Initiator);
    let me = g.add_core("me", CoreKind::Both); // motion estimation
    let mc = g.add_core("mc", CoreKind::Both); // motion compensation
    let dct = g.add_core("dct", CoreKind::Both);
    let quant = g.add_core("quant", CoreKind::Both);
    let iquant = g.add_core("iquant", CoreKind::Both);
    let idct2 = g.add_core("idct", CoreKind::Both);
    let vlc = g.add_core("vlc", CoreKind::Both);
    let frame_mem = g.add_core("frame_mem", CoreKind::Both);
    let mp3_in = g.add_core("mp3_in", CoreKind::Initiator);
    let mp3_dec = g.add_core("mp3_dec", CoreKind::Both);
    let out = g.add_core("out", CoreKind::Target);

    flow(&mut g, cam, me, 304.0)?;
    flow(&mut g, frame_mem, me, 250.0)?;
    flow(&mut g, me, mc, 96.0)?;
    flow(&mut g, mc, dct, 96.0)?;
    flow(&mut g, dct, quant, 96.0)?;
    flow(&mut g, quant, iquant, 96.0)?;
    flow(&mut g, iquant, idct2, 96.0)?;
    flow(&mut g, idct2, frame_mem, 96.0)?;
    flow(&mut g, quant, vlc, 32.0)?;
    flow(&mut g, vlc, out, 16.0)?;
    flow(&mut g, mp3_in, mp3_dec, 8.0)?;
    flow(&mut g, mp3_dec, out, 4.0)?;
    Ok(g)
}

/// The "D26" media SoC of the paper's mesh case study: **8 processors and
/// 11 slaves**, mapped onto a 3x4 mesh in the paper. Processors stream to
/// shared SDRAMs and scratchpads; control traffic touches peripherals.
pub fn d26_media_soc() -> Result<TaskGraph, AppBuildError> {
    let mut g = TaskGraph::new("d26");
    // 8 processors.
    let mut procs: Vec<CoreId> = Vec::with_capacity(8);
    for i in 0..4 {
        procs.push(g.add_core(format!("arm{i}"), CoreKind::Initiator));
    }
    for i in 0..4 {
        procs.push(g.add_core(format!("dsp{i}"), CoreKind::Initiator));
    }
    // 11 slaves.
    let sdram: Vec<CoreId> = (0..3)
        .map(|i| g.add_core(format!("sdram{i}"), CoreKind::Target))
        .collect();
    let sram: Vec<CoreId> = (0..4)
        .map(|i| g.add_core(format!("sram{i}"), CoreKind::Target))
        .collect();
    let rom = g.add_core("rom", CoreKind::Target);
    let dma = g.add_core("dma_cfg", CoreKind::Target);
    let bridge = g.add_core("bridge", CoreKind::Target);
    let sem = g.add_core("sem", CoreKind::Target);

    for (i, &p) in procs.iter().enumerate() {
        // Heavy stream to "its" SDRAM bank, moderate to a scratchpad.
        flow(&mut g, p, sdram[i % 3], 200.0 + 25.0 * (i as f64))?;
        flow(&mut g, p, sram[i % 4], 80.0)?;
        // Light control traffic.
        flow(&mut g, p, sem, 2.0)?;
        flow(&mut g, p, bridge, 5.0)?;
    }
    // Boot/config traffic from the ARMs.
    for &p in &procs[..4] {
        flow(&mut g, p, rom, 1.0)?;
        flow(&mut g, p, dma, 4.0)?;
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpeg4_shape() {
        let g = mpeg4_decoder().expect("app builds");
        assert_eq!(g.core_count(), 12);
        assert_eq!(g.flows().len(), 19);
        assert!(g.total_bandwidth() > 1500.0);
        // SDRAM is the hotspot.
        let sdram = g
            .cores()
            .find(|&c| g.core_name(c) == Some("sdram"))
            .unwrap();
        let inbound: f64 = g.flows_to(sdram).map(|f| f.bandwidth_mbps).sum();
        assert!(inbound > 1000.0);
    }

    #[test]
    fn vopd_shape() {
        let g = vopd().expect("app builds");
        assert_eq!(g.core_count(), 12);
        assert_eq!(g.flows().len(), 15);
    }

    #[test]
    fn mwd_shape() {
        let g = mwd().expect("app builds");
        assert_eq!(g.core_count(), 12);
        assert_eq!(g.flows().len(), 13);
    }

    #[test]
    fn d26_matches_case_study() {
        let g = d26_media_soc().expect("app builds");
        // 8 processors + 11 slaves = 19 cores, as in the paper.
        assert_eq!(g.core_count(), 19);
        let initiators = g
            .cores()
            .filter(|&c| g.core_kind(c) == Some(CoreKind::Initiator))
            .count();
        let targets = g
            .cores()
            .filter(|&c| g.core_kind(c) == Some(CoreKind::Target))
            .count();
        assert_eq!(initiators, 8);
        assert_eq!(targets, 11);
        assert!(g.flows().len() >= 30);
    }

    #[test]
    fn pip_shape() {
        let g = pip().expect("app builds");
        assert_eq!(g.core_count(), 8);
        assert_eq!(g.flows().len(), 8);
    }

    #[test]
    fn h263_shape() {
        let g = h263_enc_mp3_dec().expect("app builds");
        assert_eq!(g.core_count(), 12);
        assert_eq!(g.flows().len(), 12);
        // Motion estimation dominates.
        let me = g.cores().find(|&c| g.core_name(c) == Some("me")).unwrap();
        let inbound: f64 = g.flows_to(me).map(|f| f.bandwidth_mbps).sum();
        assert!(inbound > 500.0);
    }

    #[test]
    fn every_app_maps_and_validates() {
        let builders = [
            mpeg4_decoder,
            vopd,
            mwd,
            pip,
            h263_enc_mp3_dec,
            d26_media_soc,
        ];
        let names = ["mpeg4", "vopd", "mwd", "pip", "h263enc", "d26"];
        for (build, name) in builders.into_iter().zip(names) {
            let g = build().expect("app builds");
            assert_eq!(g.name(), name);
            let cap = 2;
            let slots_needed = g.core_count().div_ceil(cap);
            let side = (slots_needed as f64).sqrt().ceil() as usize;
            let rows = slots_needed.div_ceil(side);
            let m = crate::mapping::map_to_mesh(&g, side, rows, cap, 3)
                .unwrap_or_else(|e| panic!("{}: {e}", g.name()));
            let spec = crate::mapping::build_spec(&g, &m, 32)
                .unwrap_or_else(|e| panic!("{}: {e}", g.name()));
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", g.name()));
        }
    }
}
