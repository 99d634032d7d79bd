//! Switch arbitration: fixed-priority and round-robin grant logic.
//!
//! Each switch output port owns one arbiter that picks among the input
//! ports requesting it ("Arbitration: Fixed / RR" in the paper). The
//! round-robin variant rotates priority past the last grant, giving
//! starvation freedom; the fixed variant is smaller and faster but unfair.

use xpipes_sim::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use xpipes_topology::spec::Arbitration;

/// A single-output arbiter over `n` requesters.
///
/// # Examples
///
/// ```
/// use xpipes::Arbiter;
/// use xpipes_topology::spec::Arbitration;
///
/// let mut arb = Arbiter::new(Arbitration::RoundRobin, 3);
/// assert_eq!(arb.grant(&[true, true, false]), Some(0));
/// // Priority rotates past the last winner.
/// assert_eq!(arb.grant(&[true, true, false]), Some(1));
/// assert_eq!(arb.grant(&[true, true, false]), Some(0));
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
    /// Panics when `inputs` is zero.
    pub fn new(policy: Arbitration, inputs: usize) -> Self {
        assert!(inputs > 0, "arbiter needs at least one input");
        Arbiter {
            policy,
            inputs,
            last: inputs - 1,
        }
    }

    /// Grants one of the asserted requests, updating internal priority
    /// state. Returns `None` when no request is asserted.
    ///
    /// # Panics
    ///
    /// Panics when `requests.len()` differs from the configured input
    /// count.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.inputs, "request vector width mismatch");
        let winner = match self.policy {
            Arbitration::Fixed => requests.iter().position(|&r| r),
            Arbitration::RoundRobin => (1..=self.inputs)
                .map(|offset| (self.last + offset) % self.inputs)
                .find(|&i| requests[i]),
        };
        if let Some(w) = winner {
            self.last = w;
        }
        winner
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
            assert_eq!(arb.grant(&[false, true, true, false]), Some(1));
        }
        assert_eq!(arb.grant(&[true, true, true, true]), Some(0));
    }

    #[test]
    fn round_robin_rotates() {
        let mut arb = Arbiter::new(Arbitration::RoundRobin, 3);
        let all = [true, true, true];
        let seq: Vec<_> = (0..6).map(|_| arb.grant(&all).unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_idle() {
        let mut arb = Arbiter::new(Arbitration::RoundRobin, 4);
        assert_eq!(arb.grant(&[false, false, true, false]), Some(2));
        // Next in rotation after 2 is 3, which is idle → wraps to 0.
        assert_eq!(arb.grant(&[true, false, false, false]), Some(0));
    }

    #[test]
    fn no_request_no_grant() {
        let mut arb = Arbiter::new(Arbitration::RoundRobin, 2);
        assert_eq!(arb.grant(&[false, false]), None);
        // Pointer must not move on empty grants.
        assert_eq!(arb.grant(&[true, true]), Some(0));
    }

    #[test]
    fn round_robin_is_starvation_free() {
        let mut arb = Arbiter::new(Arbitration::RoundRobin, 4);
        let mut grants = [0u32; 4];
        for _ in 0..400 {
            let w = arb.grant(&[true, true, true, true]).unwrap();
            grants[w] += 1;
        }
        assert_eq!(grants, [100; 4]);
    }

    #[test]
    fn fixed_starves_low_priority() {
        let mut arb = Arbiter::new(Arbitration::Fixed, 2);
        let mut low = 0;
        for _ in 0..100 {
            if arb.grant(&[true, true]) == Some(1) {
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
    #[should_panic(expected = "width mismatch")]
    fn wrong_vector_width_panics() {
        Arbiter::new(Arbitration::Fixed, 2).grant(&[true]);
    }
}
