//! Kernel-health introspection: deterministic per-run kernel counters.
//!
//! The cycle kernel walks a structure-of-arrays schedule and jumps time
//! across idle gaps, which makes it fast but opaque. [`KernelHealth`] is
//! a plain-counter observer the `Noc` updates on every step:
//!
//! * **step counts** — event-kernel steps, plus steps of the full-scan
//!   test oracle (`fallback_steps`; the oracle is not compiled into a
//!   production build, so a production run always reports zero),
//! * **active-set occupancy** — scheduled channels/switches per event
//!   step (last and peak),
//! * **pending target wakes** — how many target NIs hold a response in
//!   their latency queue, and the earliest cycle one comes due (the
//!   `wheel` depth/horizon keys of the JSON, named for the timer wheel
//!   that once held these wakes),
//! * **time jumping** — jump count, cycles skipped, and synthetic
//!   telemetry samples emitted across jumped gaps.
//!
//! Every counter is a pure function of the simulated schedule, so the
//! whole struct is deterministic: byte-identical across repeated runs
//! and across `--jobs` worker counts.
//!
//! # Quarantine contract
//!
//! `KernelHealth` is *introspection*, not simulation state. It is never
//! serialized into checkpoints, never folded into
//! [`TelemetrySummary`](crate::telemetry::TelemetrySummary), and never
//! rendered into campaign or attribution reports — all the byte-compared
//! artifacts are unchanged whether or not anyone looks at it. It appears
//! only in the bench telemetry JSON report (`kernel_health` section), the
//! `--explain-kernel` rendering, progress heartbeat lines, and Perfetto
//! counter tracks.

use crate::json::Json;

/// One epoch-cadenced snapshot of the health counters, taken at the same
/// cycle boundaries as telemetry sampling so the series lines up with
/// congestion timelines in a Perfetto view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HealthSample {
    /// Cycle at which the sample was taken.
    pub cycle: u64,
    /// Cumulative event-kernel steps.
    pub event_steps: u64,
    /// Cumulative cycles skipped by time jumps.
    pub cycles_skipped: u64,
    /// Scheduled channels at the most recent event step.
    pub sched_channels: u64,
    /// Pending target wakes: target NIs with a queued response.
    pub wheel_depth: u64,
}

/// Deterministic per-run kernel counters. See the module docs
/// for the full taxonomy and the quarantine contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelHealth {
    event_steps: u64,
    fallback_steps: u64,
    schedule_rebuilds: u64,
    time_jumps: u64,
    cycles_skipped: u64,
    synthetic_samples: u64,
    sched_channels_last: u64,
    sched_channels_peak: u64,
    sched_switches_last: u64,
    sched_switches_peak: u64,
    wheel_depth_last: u64,
    wheel_depth_peak: u64,
    wheel_horizon: Option<u64>,
    samples: Vec<HealthSample>,
}

impl KernelHealth {
    /// A zeroed observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event-kernel step with its schedule occupancy, the
    /// number of pending target wakes (`wheel_depth`) and the earliest
    /// of them (`wheel_horizon`).
    pub fn note_event_step(
        &mut self,
        sched_channels: u64,
        sched_switches: u64,
        wheel_depth: u64,
        wheel_horizon: Option<u64>,
    ) {
        self.event_steps += 1;
        self.sched_channels_last = sched_channels;
        self.sched_channels_peak = self.sched_channels_peak.max(sched_channels);
        self.sched_switches_last = sched_switches;
        self.sched_switches_peak = self.sched_switches_peak.max(sched_switches);
        self.wheel_depth_last = wheel_depth;
        self.wheel_depth_peak = self.wheel_depth_peak.max(wheel_depth);
        self.wheel_horizon = wheel_horizon;
    }

    /// Records one step of the full-scan test oracle.
    pub fn note_fallback_step(&mut self) {
        self.fallback_steps += 1;
    }

    /// Records one rebuild of an invalidated schedule.
    pub fn note_rebuild(&mut self) {
        self.schedule_rebuilds += 1;
    }

    /// Records one time jump over `skipped` provably-idle cycles.
    pub fn note_jump(&mut self, skipped: u64) {
        self.time_jumps += 1;
        self.cycles_skipped += skipped;
    }

    /// Records one telemetry epoch sample synthesized inside a jumped
    /// gap (rather than reached by stepping).
    pub fn note_synthetic_sample(&mut self) {
        self.synthetic_samples += 1;
    }

    /// Pushes an epoch snapshot of the cumulative counters; called at
    /// the same boundaries as telemetry sampling.
    pub fn sample(&mut self, cycle: u64) {
        self.samples.push(HealthSample {
            cycle,
            event_steps: self.event_steps,
            cycles_skipped: self.cycles_skipped,
            sched_channels: self.sched_channels_last,
            wheel_depth: self.wheel_depth_last,
        });
    }

    /// Total steps executed (event kernel + test oracle).
    pub fn steps(&self) -> u64 {
        self.event_steps + self.fallback_steps
    }

    /// Event-kernel steps executed.
    pub fn event_steps(&self) -> u64 {
        self.event_steps
    }

    /// Steps the full-scan test oracle executed; zero in every
    /// production run.
    pub fn fallback_steps(&self) -> u64 {
        self.fallback_steps
    }

    /// Time jumps taken.
    pub fn time_jumps(&self) -> u64 {
        self.time_jumps
    }

    /// Total cycles skipped by time jumps.
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    /// Telemetry epoch samples synthesized across jumped gaps.
    pub fn synthetic_samples(&self) -> u64 {
        self.synthetic_samples
    }

    /// The health counters as a JSON object (deterministic rendering;
    /// contains no wall-clock data).
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("steps", Json::UInt(self.steps()))
            .field("event_steps", Json::UInt(self.event_steps))
            .field("fallback_steps", Json::UInt(self.fallback_steps))
            .field("schedule_rebuilds", Json::UInt(self.schedule_rebuilds))
            .field("time_jumps", Json::UInt(self.time_jumps))
            .field("cycles_skipped", Json::UInt(self.cycles_skipped))
            .field("synthetic_samples", Json::UInt(self.synthetic_samples))
            .field(
                "active_set",
                Json::object()
                    .field("channels_last", Json::UInt(self.sched_channels_last))
                    .field("channels_peak", Json::UInt(self.sched_channels_peak))
                    .field("switches_last", Json::UInt(self.sched_switches_last))
                    .field("switches_peak", Json::UInt(self.sched_switches_peak))
                    .build(),
            )
            .field(
                "wheel",
                Json::object()
                    .field("depth_last", Json::UInt(self.wheel_depth_last))
                    .field("depth_peak", Json::UInt(self.wheel_depth_peak))
                    .field(
                        "horizon",
                        match self.wheel_horizon {
                            Some(c) => Json::UInt(c),
                            None => Json::Null,
                        },
                    )
                    .build(),
            )
            .build()
    }

    /// Human-readable kernel report for `cycle_engine --explain-kernel`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "kernel steps: {} event, {} fallback (test oracle)\n",
            self.event_steps, self.fallback_steps,
        ));
        out.push_str(&format!(
            "time jumping: {} jumps, {} cycles skipped, {} synthetic telemetry samples\n",
            self.time_jumps, self.cycles_skipped, self.synthetic_samples,
        ));
        out.push_str(&format!(
            "schedule: {} rebuilds; active channels last {} / peak {}; active switches last {} / peak {}\n",
            self.schedule_rebuilds,
            self.sched_channels_last,
            self.sched_channels_peak,
            self.sched_switches_last,
            self.sched_switches_peak,
        ));
        out.push_str(&format!(
            "target wakes: pending last {} / peak {}; earliest {}\n",
            self.wheel_depth_last,
            self.wheel_depth_peak,
            match self.wheel_horizon {
                Some(c) => c.to_string(),
                None => "-".to_string(),
            },
        ));
        out
    }

    /// Chrome/Perfetto counter-track events (`"ph": "C"`, pid 2) for the
    /// epoch sample series, appended to the flit/attribution trace by
    /// the Perfetto exporter.
    pub fn perfetto_counter_events(&self) -> Vec<Json> {
        let mut events = Vec::new();
        if self.samples.is_empty() {
            return events;
        }
        events.push(
            Json::object()
                .field("name", Json::str("process_name"))
                .field("ph", Json::str("M"))
                .field("pid", Json::UInt(2))
                .field(
                    "args",
                    Json::object()
                        .field("name", Json::str("kernel health"))
                        .build(),
                )
                .build(),
        );
        let counter = |name: &str, ts: u64, value: u64| {
            Json::object()
                .field("name", Json::str(name))
                .field("ph", Json::str("C"))
                .field("ts", Json::UInt(ts))
                .field("pid", Json::UInt(2))
                .field("tid", Json::UInt(0))
                .field(
                    "args",
                    Json::object().field("value", Json::UInt(value)).build(),
                )
                .build()
        };
        for s in &self.samples {
            events.push(counter("event_steps", s.cycle, s.event_steps));
            events.push(counter("cycles_skipped", s.cycle, s.cycles_skipped));
            events.push(counter("sched_channels", s.cycle, s.sched_channels));
            events.push(counter("wheel_depth", s.cycle, s.wheel_depth));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counts_accumulate() {
        let mut h = KernelHealth::new();
        h.note_event_step(3, 2, 5, Some(40));
        h.note_event_step(7, 1, 4, None);
        h.note_fallback_step();
        assert_eq!(h.steps(), 3);
        assert_eq!(h.event_steps(), 2);
        assert_eq!(h.fallback_steps(), 1);
        assert!(h
            .render()
            .starts_with("kernel steps: 2 event, 1 fallback (test oracle)\n"));
    }

    #[test]
    fn occupancy_tracks_last_and_peak() {
        let mut h = KernelHealth::new();
        h.note_event_step(10, 4, 8, Some(12));
        h.note_event_step(3, 6, 2, Some(20));
        let json = h.to_json().render();
        assert!(json.contains("\"channels_last\": 3"));
        assert!(json.contains("\"channels_peak\": 10"));
        assert!(json.contains("\"switches_peak\": 6"));
        assert!(json.contains("\"depth_peak\": 8"));
        assert!(json.contains("\"horizon\": 20"));
    }

    #[test]
    fn jumps_and_samples_round_trip_through_json() {
        let mut h = KernelHealth::new();
        h.note_event_step(1, 1, 1, None);
        h.note_jump(100);
        h.note_synthetic_sample();
        h.sample(63);
        assert_eq!(h.time_jumps(), 1);
        assert_eq!(h.cycles_skipped(), 100);
        assert_eq!(h.samples.len(), 1);
        let rendered = h.to_json().render();
        let parsed = Json::parse(&rendered).expect("health JSON parses");
        assert_eq!(parsed.get("time_jumps").and_then(Json::as_u64), Some(1));
        assert_eq!(
            parsed.get("cycles_skipped").and_then(Json::as_u64),
            Some(100)
        );
        assert_eq!(
            parsed.get("synthetic_samples").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn perfetto_counters_follow_samples() {
        let mut h = KernelHealth::new();
        assert!(h.perfetto_counter_events().is_empty());
        h.note_event_step(2, 1, 3, None);
        h.sample(63);
        h.sample(127);
        let events = h.perfetto_counter_events();
        // One metadata event plus four counters per sample.
        assert_eq!(events.len(), 1 + 2 * 4);
        let rendered = Json::Array(events).render();
        assert!(rendered.contains("\"ph\": \"C\""));
        assert!(rendered.contains("\"pid\": 2"));
    }
}
