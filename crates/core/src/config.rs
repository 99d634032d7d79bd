//! Component parameterization: the knobs the paper's class templates
//! expose ("Component Optimizations: I/O Ports, Buffer Sizes").
//!
//! These configs are shared between the behavioural models (this crate)
//! and the synthesis-estimation netlist generators (`xpipes-synth`), so a
//! simulated component and its area/power/timing report always describe
//! the same hardware.

use xpipes_topology::spec::Arbitration;

use crate::error::XpipesError;

/// Validates a flit width against the supported range.
///
/// # Errors
///
/// [`XpipesError::BadFlitWidth`] outside `8..=128`.
pub(crate) fn check_flit_width(bits: u32) -> Result<u32, XpipesError> {
    if (8..=128).contains(&bits) {
        Ok(bits)
    } else {
        Err(XpipesError::BadFlitWidth(bits))
    }
}

/// Parameters of one switch instance.
///
/// # Examples
///
/// ```
/// use xpipes::SwitchConfig;
///
/// let cfg = SwitchConfig::new(4, 4, 32); // the paper's 1 GHz 4x4 switch
/// assert_eq!(cfg.inputs, 4);
/// assert_eq!(cfg.output_queue_depth, 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchConfig {
    /// Number of input ports.
    pub inputs: usize,
    /// Number of output ports.
    pub outputs: usize,
    /// Flit width in bits.
    pub flit_width: u32,
    /// Output queue depth in flits.
    pub output_queue_depth: usize,
    /// Arbitration policy.
    pub arbitration: Arbitration,
    /// Depth of the attached links' pipelines, which sizes the ACK/nACK
    /// retransmission buffers (2·depth + 2).
    pub link_pipeline: u32,
    /// ACK timeout in transmit cycles: with a non-empty window and a
    /// silent reverse channel for this long, the sender rewinds and
    /// resends the whole window. `None` disables the timeout (a lossless
    /// reverse channel never needs it).
    pub ack_timeout: Option<u64>,
}

impl SwitchConfig {
    /// Creates a switch config with paper-default buffering (6-flit output
    /// queues, round-robin arbitration, single-stage links).
    pub fn new(inputs: usize, outputs: usize, flit_width: u32) -> Self {
        SwitchConfig {
            inputs,
            outputs,
            flit_width,
            output_queue_depth: 6,
            arbitration: Arbitration::RoundRobin,
            link_pipeline: 1,
            ack_timeout: None,
        }
    }

    /// Retransmission buffer depth required by the ACK/nACK protocol to
    /// keep the link busy: one flit per in-flight slot on the forward and
    /// reverse pipes, plus two for the endpoint registers.
    pub fn retransmit_depth(&self) -> usize {
        (2 * self.link_pipeline + 2) as usize
    }
}

/// Parameters of one network interface instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NiConfig {
    /// Flit width in bits.
    pub flit_width: u32,
    /// OCP data width in bits (the payload register size).
    pub data_width: u32,
    /// Number of LUT entries (reachable destinations).
    pub lut_entries: usize,
    /// Maximum supported burst length in beats.
    pub max_burst: u32,
    /// Depth of the attached link's pipeline.
    pub link_pipeline: u32,
    /// ACK timeout in transmit cycles (see [`SwitchConfig::ack_timeout`]).
    pub ack_timeout: Option<u64>,
}

impl NiConfig {
    /// Creates an NI config with the paper's defaults: 32-bit OCP data,
    /// 8 LUT entries, bursts up to 255 beats.
    pub fn new(flit_width: u32) -> Self {
        NiConfig {
            flit_width,
            data_width: 32,
            lut_entries: 8,
            max_burst: 255,
            link_pipeline: 1,
            ack_timeout: None,
        }
    }

    /// Flits needed to carry one packet header.
    pub fn header_flits(&self) -> u32 {
        crate::header::Header::TOTAL_BITS.div_ceil(self.flit_width)
    }

    /// Flits needed to carry one payload beat.
    pub fn payload_flits_per_beat(&self) -> u32 {
        self.data_width.div_ceil(self.flit_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_width_bounds() {
        assert!(check_flit_width(8).is_ok());
        assert!(check_flit_width(128).is_ok());
        assert_eq!(check_flit_width(7), Err(XpipesError::BadFlitWidth(7)));
        assert_eq!(check_flit_width(129), Err(XpipesError::BadFlitWidth(129)));
    }

    #[test]
    fn switch_defaults() {
        let cfg = SwitchConfig::new(6, 4, 64);
        assert_eq!(cfg.output_queue_depth, 6);
        assert_eq!(cfg.arbitration, Arbitration::RoundRobin);
        assert_eq!(cfg.retransmit_depth(), 4); // 2*1+2
    }

    #[test]
    fn retransmit_depth_scales_with_pipeline() {
        let mut cfg = SwitchConfig::new(4, 4, 32);
        cfg.link_pipeline = 3;
        assert_eq!(cfg.retransmit_depth(), 8);
    }

    #[test]
    fn ni_flit_decomposition() {
        let ni16 = NiConfig::new(16);
        let ni32 = NiConfig::new(32);
        let ni128 = NiConfig::new(128);
        // 63-bit header (see header module): 4 / 2 / 1 flits.
        assert_eq!(ni16.header_flits(), 4);
        assert_eq!(ni32.header_flits(), 2);
        assert_eq!(ni128.header_flits(), 1);
        // 32-bit payload register: 2 / 1 / 1 flits per beat.
        assert_eq!(ni16.payload_flits_per_beat(), 2);
        assert_eq!(ni32.payload_flits_per_beat(), 1);
        assert_eq!(ni128.payload_flits_per_beat(), 1);
    }
}
