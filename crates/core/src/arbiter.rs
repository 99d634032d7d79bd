//! Switch arbitration: fixed-priority and round-robin grant logic.
//!
//! Each switch output port owns one arbiter that picks among the input
//! ports requesting it ("Arbitration: Fixed / RR" in the paper). The
//! round-robin variant rotates priority past the last grant, giving
//! starvation freedom; the fixed variant is smaller and faster but unfair.

use xpipes_sim::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use xpipes_topology::spec::Arbitration;

/// A single-output arbiter over `n` ≤ 64 requesters, whose request
/// lines arrive as a bitmask (bit `i` set ⇔ input `i` requests).
///
/// # Examples
///
/// ```
/// use xpipes::Arbiter;
/// use xpipes_topology::spec::Arbitration;
///
/// let mut arb = Arbiter::new(Arbitration::RoundRobin, 3);
/// assert_eq!(arb.grant(0b011), Some(0));
/// // Priority rotates past the last winner.
/// assert_eq!(arb.grant(0b011), Some(1));
/// assert_eq!(arb.grant(0b011), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arbiter {
    policy: Arbitration,
    inputs: usize,
    /// Index granted most recently (round-robin pointer).
    last: usize,
}

impl Arbiter {
    /// Creates an arbiter over `inputs` requesters.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` is zero or above 64 (the width of a request
    /// mask).
    pub fn new(policy: Arbitration, inputs: usize) -> Self {
        assert!(inputs > 0, "arbiter needs at least one input");
        assert!(inputs <= 64, "arbiter takes at most 64 inputs");
        Arbiter {
            policy,
            inputs,
            last: inputs - 1,
        }
    }

    /// Grants one of the asserted request lines (bit `i` of `requests`
    /// for input `i`), updating internal priority state. Returns `None`
    /// when no request is asserted. Fixed priority takes the lowest
    /// line; round robin the first line above the last winner, wrapping
    /// to the lowest.
    ///
    /// # Panics
    ///
    /// Panics when a line at or above the configured input count is set.
    pub fn grant(&mut self, requests: u64) -> Option<usize> {
        assert!(
            requests.checked_shr(self.inputs as u32).unwrap_or(0) == 0,
            "request mask wider than {} inputs",
            self.inputs
        );
        if requests == 0 {
            return None;
        }
        let pick = match self.policy {
            Arbitration::Fixed => requests,
            Arbitration::RoundRobin => match requests & ((u64::MAX << self.last) << 1) {
                0 => requests,
                above => above,
            },
        };
        self.last = pick.trailing_zeros() as usize;
        Some(self.last)
    }
}

impl Snapshot for Arbiter {
    /// Only the round-robin pointer is mutable; policy and width are
    /// structural.
    fn save_state(&self, w: &mut SnapshotWriter) {
        w.len(self.last);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let last = r.len()?;
        if last >= self.inputs {
            return Err(SnapshotError::Malformed(format!(
                "arbiter pointer {last} outside {} inputs",
                self.inputs
            )));
        }
        self.last = last;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_always_prefers_lowest() {
        let mut arb = Arbiter::new(Arbitration::Fixed, 4);
        for _ in 0..5 {
            assert_eq!(arb.grant(0b0110), Some(1));
        }
        assert_eq!(arb.grant(0b1111), Some(0));
    }

    #[test]
    fn round_robin_rotates() {
        let mut arb = Arbiter::new(Arbitration::RoundRobin, 3);
        let seq: Vec<_> = (0..6).map(|_| arb.grant(0b111).unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_idle() {
        let mut arb = Arbiter::new(Arbitration::RoundRobin, 4);
        assert_eq!(arb.grant(0b0100), Some(2));
        // Next in rotation after 2 is 3, which is idle → wraps to 0.
        assert_eq!(arb.grant(0b0001), Some(0));
    }

    #[test]
    fn no_request_no_grant() {
        let mut arb = Arbiter::new(Arbitration::RoundRobin, 2);
        assert_eq!(arb.grant(0), None);
        // Pointer must not move on empty grants.
        assert_eq!(arb.grant(0b11), Some(0));
    }

    #[test]
    fn round_robin_is_starvation_free() {
        let mut arb = Arbiter::new(Arbitration::RoundRobin, 4);
        let mut grants = [0u32; 4];
        for _ in 0..400 {
            let w = arb.grant(0b1111).unwrap();
            grants[w] += 1;
        }
        assert_eq!(grants, [100; 4]);
    }

    #[test]
    fn fixed_starves_low_priority() {
        let mut arb = Arbiter::new(Arbitration::Fixed, 2);
        let mut low = 0;
        for _ in 0..100 {
            if arb.grant(0b11) == Some(1) {
                low += 1;
            }
        }
        assert_eq!(low, 0);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_inputs_panics() {
        Arbiter::new(Arbitration::Fixed, 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 inputs")]
    fn more_than_64_inputs_panics() {
        Arbiter::new(Arbitration::Fixed, 65);
    }

    #[test]
    #[should_panic(expected = "wider than 2 inputs")]
    fn request_beyond_the_inputs_panics() {
        Arbiter::new(Arbitration::Fixed, 2).grant(0b100);
    }

    #[test]
    fn sixty_four_inputs_wrap() {
        let mut arb = Arbiter::new(Arbitration::RoundRobin, 64);
        let ends = 1 | (1 << 63);
        assert_eq!(arb.grant(ends), Some(0));
        assert_eq!(arb.grant(ends), Some(63));
        // `last` = 63: nothing lies above it, so the grant wraps.
        assert_eq!(arb.grant(ends), Some(0));
    }

    /// The slice scan the mask arbiter replaced: fixed priority takes
    /// the first asserted line, round robin scans `last + 1, …, last`
    /// modulo `n`.
    fn scan_grant(policy: Arbitration, last: usize, requests: &[bool]) -> Option<usize> {
        let n = requests.len();
        match policy {
            Arbitration::Fixed => requests.iter().position(|&r| r),
            Arbitration::RoundRobin => (1..=n).map(|k| (last + k) % n).find(|&i| requests[i]),
        }
    }

    /// Every width 1..=8, every request mask, every round-robin pointer,
    /// both policies: the mask grant returns what the slice scan did and
    /// leaves the pointer where the scan left it.
    #[test]
    fn mask_grant_matches_the_slice_scan_exhaustively() {
        for policy in [Arbitration::Fixed, Arbitration::RoundRobin] {
            for n in 1..=8usize {
                for last in 0..n {
                    for mask in 0u64..1 << n {
                        let lines: Vec<bool> = (0..n).map(|i| (mask >> i) & 1 == 1).collect();
                        let mut arb = Arbiter::new(policy, n);
                        arb.last = last;
                        let want = scan_grant(policy, last, &lines);
                        assert_eq!(
                            arb.grant(mask),
                            want,
                            "{policy:?} n={n} last={last} mask={mask:#b}"
                        );
                        assert_eq!(arb.last, want.unwrap_or(last));
                    }
                }
            }
        }
    }
}
