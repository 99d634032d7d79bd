//! A hierarchical timer wheel for event-driven simulation stepping.
//!
//! The event-driven NoC kernel keeps almost all of its wake-up state in
//! activity bitmaps ([`crate::active::ActiveSet`]) that are recomputed
//! incrementally each cycle. The one source of *future* work is a
//! latency queue (e.g. a target NI memory model that answers `L` cycles
//! after accepting a request): nothing in the fabric moves until the
//! scheduled cycle arrives. [`EventWheel`] stores those wake-ups and
//! answers "what is the next cycle with scheduled work?" exactly, so the
//! simulator can advance time directly to it instead of stepping idle
//! cycles one by one.
//!
//! # Invariants
//!
//! * **Never into the past** — [`EventWheel::schedule`] clamps a cycle
//!   earlier than the wheel's current cycle up to the current cycle, so
//!   an event is always delivered at or after the cycle it was filed.
//! * **No lost or reordered events** — [`EventWheel::advance_to`] drains
//!   every live event with `cycle ≤ target` in (cycle, schedule-order):
//!   earlier cycles first, FIFO within a cycle.
//! * **Exact horizon** — [`EventWheel::next_event_cycle`] returns the
//!   exact cycle of the earliest live event (not an approximation), by
//!   scanning a 256-slot occupancy bitmap for near events and the
//!   overflow map's first key for far ones.
//!
//! These invariants are pinned by the proptest suite at the bottom of
//! this file, which checks every operation against a naive sorted-`Vec`
//! oracle (the same debug-asserted-oracle pattern the NoC uses for its
//! `is_idle` cache).

use std::collections::BTreeMap;

/// Slots in the near ring: events within `HORIZON` cycles of the
/// wheel's current cycle index directly into a slot.
const HORIZON: u64 = 256;
/// Occupancy bitmap words (`HORIZON / 64`).
const WORDS: usize = 4;

#[derive(Debug, Clone)]
struct Entry<T> {
    cycle: u64,
    payload: T,
}

/// A timer wheel: near events in a 256-slot ring with an occupancy
/// bitmap, far events in a sorted overflow map. `schedule` is O(1)
/// amortized; `advance_to` costs O(drained events); `next_event_cycle`
/// is O(1) bitmap scans; and an empty wheel answers both without
/// looking at the ring or the map.
#[derive(Debug, Clone)]
pub struct EventWheel<T> {
    /// The wheel's current cycle: events fire at cycles `≥ now`.
    now: u64,
    /// Slot `c % HORIZON` holds the events of exactly one live cycle
    /// `c ∈ [now, now + HORIZON)` (distinct live cycles in one slot
    /// would have to differ by ≥ HORIZON, which the window excludes).
    ring: Vec<Vec<Entry<T>>>,
    /// Bit `s` set ⇔ `ring[s]` is non-empty.
    occupancy: [u64; WORDS],
    /// Events at `cycle ≥ now + HORIZON`, keyed by cycle, FIFO per key.
    overflow: BTreeMap<u64, Vec<Entry<T>>>,
    /// Live (scheduled, not yet fired) events.
    len: usize,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::starting_at(0)
    }
}

impl<T> EventWheel<T> {
    /// An empty wheel whose current cycle is 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty wheel whose current cycle is `now`.
    #[must_use]
    pub fn starting_at(now: u64) -> Self {
        EventWheel {
            now,
            ring: (0..HORIZON).map(|_| Vec::new()).collect(),
            occupancy: [0; WORDS],
            overflow: BTreeMap::new(),
            len: 0,
        }
    }

    /// The wheel's current cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Live (scheduled, not yet fired) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` to fire at `cycle`, clamped up to the current
    /// cycle — never into the past.
    pub fn schedule(&mut self, cycle: u64, payload: T) {
        let cycle = cycle.max(self.now);
        let entry = Entry { cycle, payload };
        if cycle - self.now < HORIZON {
            let slot = (cycle % HORIZON) as usize;
            self.ring[slot].push(entry);
            self.occupancy[slot / 64] |= 1u64 << (slot % 64);
        } else {
            self.overflow.entry(cycle).or_default().push(entry);
        }
        self.len += 1;
    }

    /// Exact cycle of the earliest live event, if any.
    #[must_use]
    pub fn next_event_cycle(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let near = self.nearest_occupied_slot().map(|slot| {
            debug_assert!(!self.ring[slot].is_empty());
            self.ring[slot][0].cycle
        });
        let far = self.overflow.keys().next().copied();
        match (near, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Scans the occupancy bitmap for the occupied slot closest to (and
    /// at or after, in ring distance) `now % HORIZON`.
    fn nearest_occupied_slot(&self) -> Option<usize> {
        let start = (self.now % HORIZON) as usize;
        let mut best: Option<(u64, usize)> = None;
        for w in 0..WORDS {
            let mut bits = self.occupancy[w];
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let dist = ((slot + HORIZON as usize - start) % HORIZON as usize) as u64;
                if best.is_none_or(|(d, _)| dist < d) {
                    best = Some((dist, slot));
                }
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// Fires every live event with `cycle ≤ target`, appending
    /// `(cycle, payload)` pairs to `out` in (cycle, FIFO) order, then
    /// advances the wheel's current cycle to `target + 1`. Advancing to
    /// a cycle before `now` is a no-op.
    pub fn advance_to(&mut self, target: u64, out: &mut Vec<(u64, T)>) {
        if self.len == 0 {
            // Nothing to fire or migrate: only the clock moves.
            self.now = self.now.max(target + 1);
            return;
        }
        while let Some(cycle) = self.next_event_cycle() {
            if cycle > target {
                break;
            }
            let bucket = if cycle - self.now < HORIZON {
                let slot = (cycle % HORIZON) as usize;
                self.occupancy[slot / 64] &= !(1u64 << (slot % 64));
                std::mem::take(&mut self.ring[slot])
            } else {
                // Reachable only when the overflow's first key is ≤
                // target while the ring is empty far past `now`.
                self.overflow.remove(&cycle).unwrap_or_default()
            };
            self.len -= bucket.len();
            for e in bucket {
                debug_assert_eq!(e.cycle, cycle);
                out.push((cycle, e.payload));
            }
            // Nothing remains at cycles ≤ `cycle`, so the window may
            // slide; this keeps `overflow` keys migrating correctly
            // into ring range as time advances.
            self.now = self.now.max(cycle);
            self.migrate_overflow();
        }
        if target >= self.now {
            self.now = target + 1;
            self.migrate_overflow();
        }
    }

    /// Moves overflow events whose cycle fell inside the (shifted) ring
    /// window into the ring.
    fn migrate_overflow(&mut self) {
        while let Some((&cycle, _)) = self.overflow.iter().next() {
            if cycle - self.now >= HORIZON {
                break;
            }
            let mut bucket = self.overflow.remove(&cycle).unwrap_or_default();
            let slot = (cycle % HORIZON) as usize;
            // The slot may already hold entries for this same cycle,
            // scheduled later (once it came inside the horizon); an
            // overflow entry is always older than any ring entry for
            // the same cycle, so the migrated bucket goes in front.
            bucket.append(&mut self.ring[slot]);
            self.ring[slot] = bucket;
            self.occupancy[slot / 64] |= 1u64 << (slot % 64);
        }
    }

    /// Drops every live event and restarts the wheel at `now` (used when
    /// a checkpoint restore rebuilds the schedule from component state).
    pub fn reset(&mut self, now: u64) {
        for slot in 0..HORIZON as usize {
            self.ring[slot].clear();
        }
        self.occupancy = [0; WORDS];
        self.overflow.clear();
        self.len = 0;
        self.now = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fires_in_cycle_then_fifo_order() {
        let mut w = EventWheel::starting_at(10);
        w.schedule(20, "b");
        w.schedule(15, "a");
        w.schedule(20, "c");
        assert_eq!(w.next_event_cycle(), Some(15));
        assert_eq!(w.len(), 3);
        let mut out = Vec::new();
        w.advance_to(20, &mut out);
        assert_eq!(out, vec![(15, "a"), (20, "b"), (20, "c")]);
        assert!(w.is_empty());
        assert_eq!(w.now(), 21);
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut w = EventWheel::starting_at(100);
        w.schedule(3, "late");
        assert_eq!(w.next_event_cycle(), Some(100));
        let mut out = Vec::new();
        w.advance_to(100, &mut out);
        assert_eq!(out, vec![(100, "late")]);
    }

    #[test]
    fn far_events_survive_window_slides() {
        let mut w = EventWheel::starting_at(0);
        w.schedule(5_000, "far");
        w.schedule(2, "near");
        let mut out = Vec::new();
        w.advance_to(3_000, &mut out);
        assert_eq!(out, vec![(2, "near")]);
        assert_eq!(w.next_event_cycle(), Some(5_000));
        out.clear();
        w.advance_to(5_000, &mut out);
        assert_eq!(out, vec![(5_000, "far")]);
    }

    #[test]
    fn reset_drops_everything() {
        let mut w = EventWheel::starting_at(7);
        w.schedule(9, 1u32);
        w.schedule(900, 2);
        w.reset(42);
        assert!(w.is_empty());
        assert_eq!(w.now(), 42);
        assert_eq!(w.next_event_cycle(), None);
    }

    /// Naive oracle: a `Vec` of live events, fully rescanned for every
    /// query — unarguably correct, hopelessly slow.
    #[derive(Default)]
    struct Oracle {
        now: u64,
        next_seq: u64,
        live: Vec<(u64, u64, u32)>, // (cycle, seq, payload)
    }

    impl Oracle {
        fn schedule(&mut self, cycle: u64, payload: u32) {
            self.live
                .push((cycle.max(self.now), self.next_seq, payload));
            self.next_seq += 1;
        }
        fn next_event_cycle(&self) -> Option<u64> {
            self.live.iter().map(|&(c, _, _)| c).min()
        }
        fn advance_to(&mut self, target: u64) -> Vec<(u64, u32)> {
            let mut due: Vec<_> = self
                .live
                .iter()
                .copied()
                .filter(|&(c, _, _)| c <= target)
                .collect();
            due.sort_by_key(|&(c, s, _)| (c, s));
            self.live.retain(|&(c, _, _)| c > target);
            if target >= self.now {
                self.now = target + 1;
            }
            due.into_iter().map(|(c, _, p)| (c, p)).collect()
        }
    }

    /// One scripted operation against both implementations.
    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule at `now + delta` (also exercises the past-clamp via
        /// deltas "behind" cycles already advanced past).
        Schedule { delta: u64 },
        /// Advance by `delta` cycles and compare the drained streams.
        Advance { delta: u64 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..700).prop_map(|delta| Op::Schedule { delta }).boxed(),
            (0u64..600).prop_map(|delta| Op::Advance { delta }).boxed(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The wheel agrees with the full-scan oracle on every drained
        /// event (cycle and order), every `next_event_cycle` answer, and
        /// every live count, across arbitrary schedule/advance scripts — and never delivers an event before the cycle the
        /// wheel stood at when it was scheduled.
        #[test]
        fn wheel_matches_full_scan_oracle(ops in prop::collection::vec(op_strategy(), 1..60)) {
            let mut wheel = EventWheel::starting_at(0);
            let mut oracle = Oracle::default();
            let mut payload = 0u32;

            for op in ops {
                match op {
                    Op::Schedule { delta } => {
                        // Half the deltas aim behind `now` once time has
                        // advanced, exercising the clamp.
                        let cycle = (wheel.now() + delta).saturating_sub(300);
                        let filed_at = wheel.now();
                        wheel.schedule(cycle, payload);
                        oracle.schedule(cycle, payload);
                        prop_assert!(
                            wheel.next_event_cycle().unwrap() >= filed_at,
                            "scheduled into the past"
                        );
                        payload += 1;
                    }
                    Op::Advance { delta } => {
                        let target = wheel.now() + delta;
                        let filed_at = wheel.now();
                        let mut got = Vec::new();
                        wheel.advance_to(target, &mut got);
                        let want = oracle.advance_to(target);
                        prop_assert_eq!(&got, &want, "drain mismatch");
                        prop_assert!(
                            got.iter().all(|&(c, _)| c >= filed_at && c <= target),
                            "event outside the advanced span"
                        );
                        prop_assert_eq!(wheel.now(), target + 1);
                    }
                }
                prop_assert_eq!(wheel.next_event_cycle(), oracle.next_event_cycle());
                prop_assert_eq!(wheel.len(), oracle.live.len());
            }

            // Final full drain: nothing may be lost.
            let mut got = Vec::new();
            let end = oracle
                .live
                .iter()
                .map(|&(c, _, _)| c)
                .max()
                .unwrap_or(wheel.now());
            wheel.advance_to(end, &mut got);
            let want = oracle.advance_to(end);
            prop_assert_eq!(got, want);
            prop_assert!(wheel.is_empty());
        }
    }
}
