//! In-tree kernel self-profiler: scoped wall-clock timers per phase.
//!
//! [`KernelProfile`] accumulates wall-clock time spent in the coarse
//! phases of the cycle kernel — scheduling, channel pass, switch pass,
//! NI ticks (`wheel_service`), observer hooks — so a slow run can be
//! attributed to a kernel phase without an external profiler. It is opt-in
//! (`Noc::enable_profiling`): when disabled the kernel takes no
//! `Instant` timestamps at all, so the zero-cost contract of the fast
//! path holds.
//!
//! # Quarantine contract
//!
//! Profile data is wall-clock and therefore non-deterministic. It is
//! emitted **only** in report sections that are excluded from byte
//! comparison (like `elapsed_s`): the bench report's `kernel_profile`
//! section and the human-readable rendering. It never enters
//! checkpoints, work fingerprints, telemetry summaries, attribution
//! reports, or campaign reports.

use crate::json::Json;
use std::time::Duration;

/// A coarse kernel phase. Fine-grained sub-steps are folded into the
/// nearest phase: VCD tracing, monitors, telemetry epoch sampling, and
/// flight-recorder drains count as [`ObserverHooks`](KernelPhase::ObserverHooks);
/// NI housekeeping ticks count as [`WheelService`](KernelPhase::WheelService).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPhase {
    /// Rebuilding the SoA schedule, and re-deriving the activity and
    /// idle blockers of the switches and NIs a step touched.
    Scheduling,
    /// The two per-channel walks: link shift + transmit, then receive +
    /// the channel's own schedule and idle-blocker re-derive.
    ChannelPass,
    /// Switch crossbar arbitration and granted-tail bookkeeping.
    SwitchPass,
    /// NI housekeeping: the ticks of initiators with a backlog and of
    /// targets with a due response. The name and its `wheel_service`
    /// label date from the timer wheel that once filed the target
    /// wakes; reports and the repo benchmark key on them.
    WheelService,
    /// Tracing, monitors, telemetry sampling, and flight-recorder work.
    ObserverHooks,
}

impl KernelPhase {
    /// All phases, in report order.
    pub const ALL: [KernelPhase; 5] = [
        KernelPhase::Scheduling,
        KernelPhase::ChannelPass,
        KernelPhase::SwitchPass,
        KernelPhase::WheelService,
        KernelPhase::ObserverHooks,
    ];

    /// Stable snake_case label used in JSON reports and renderings.
    pub fn label(self) -> &'static str {
        match self {
            KernelPhase::Scheduling => "scheduling",
            KernelPhase::ChannelPass => "channel_pass",
            KernelPhase::SwitchPass => "switch_pass",
            KernelPhase::WheelService => "wheel_service",
            KernelPhase::ObserverHooks => "observer_hooks",
        }
    }

    fn index(self) -> usize {
        match self {
            KernelPhase::Scheduling => 0,
            KernelPhase::ChannelPass => 1,
            KernelPhase::SwitchPass => 2,
            KernelPhase::WheelService => 3,
            KernelPhase::ObserverHooks => 4,
        }
    }
}

/// Accumulated wall-clock time and timed-segment counts per kernel
/// phase. See the module docs for the quarantine contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelProfile {
    nanos: [u64; 5],
    segments: [u64; 5],
}

impl KernelProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one timed segment to a phase.
    pub fn note(&mut self, phase: KernelPhase, elapsed: Duration) {
        let i = phase.index();
        self.nanos[i] += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.segments[i] += 1;
    }

    /// Accumulated nanoseconds for a phase.
    pub fn nanos(&self, phase: KernelPhase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Timed segments recorded for a phase.
    pub(crate) fn segments(&self, phase: KernelPhase) -> u64 {
        self.segments[phase.index()]
    }

    /// Total accumulated nanoseconds across all phases.
    pub(crate) fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// The profile as a JSON object. **Wall-clock data** — only for
    /// report sections excluded from byte comparison.
    pub fn to_json(&self) -> Json {
        let mut phases = Json::object();
        for phase in KernelPhase::ALL {
            phases = phases.field(
                phase.label(),
                Json::object()
                    .field("nanos", Json::UInt(self.nanos(phase)))
                    .field("segments", Json::UInt(self.segments(phase)))
                    .build(),
            );
        }
        Json::object()
            .field("total_nanos", Json::UInt(self.total_nanos()))
            .field("phases", phases.build())
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_independently() {
        let mut p = KernelProfile::new();
        p.note(KernelPhase::ChannelPass, Duration::from_nanos(100));
        p.note(KernelPhase::ChannelPass, Duration::from_nanos(50));
        p.note(KernelPhase::Scheduling, Duration::from_nanos(7));
        assert_eq!(p.nanos(KernelPhase::ChannelPass), 150);
        assert_eq!(p.segments(KernelPhase::ChannelPass), 2);
        assert_eq!(p.nanos(KernelPhase::Scheduling), 7);
        assert_eq!(p.total_nanos(), 157);
    }

    #[test]
    fn json_names_every_phase() {
        let mut p = KernelProfile::new();
        p.note(KernelPhase::WheelService, Duration::from_nanos(9));
        let rendered = p.to_json().render();
        for phase in KernelPhase::ALL {
            assert!(
                rendered.contains(phase.label()),
                "missing {}",
                phase.label()
            );
        }
        let parsed = Json::parse(&rendered).expect("profile JSON parses");
        assert_eq!(parsed.get("total_nanos").and_then(Json::as_u64), Some(9));
    }
}
