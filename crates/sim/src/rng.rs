//! Deterministic randomness for reproducible simulations.
//!
//! Every stochastic element of the reproduction (traffic injection, link
//! error injection, mapping annealers) draws from a [`SimRng`] seeded
//! explicitly, so a run is a pure function of its configuration.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic random number generator for simulations.
///
/// Thin wrapper over ChaCha8 with convenience draws used throughout the
/// workspace. Two `SimRng`s created with the same seed yield identical
/// streams on every platform.
///
/// # Examples
///
/// ```
/// use xpipes_sim::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

/// The exact keystream position of a [`SimRng`], exported for
/// checkpointing. The generator's entire future is a pure function of
/// this value: `(key, stream, counter)` select a ChaCha block and
/// `word_index` is the next unread 32-bit word inside it. Restoring via
/// [`SimRng::from_state`] reproduces every subsequent draw bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngState {
    /// 256-bit ChaCha key as eight little-endian words.
    pub key: [u32; 8],
    /// Keystream (nonce) id selected by [`SimRng::child`].
    pub stream: u64,
    /// Next block counter.
    pub counter: u64,
    /// Next unread 32-bit word of the current block (16 = block spent).
    pub word_index: u8,
}

impl SimRng {
    /// Exports the exact keystream position for checkpointing.
    pub fn state(&self) -> RngState {
        let (key, stream, counter, idx) = self.inner.state();
        RngState {
            key,
            stream,
            counter,
            word_index: idx as u8,
        }
    }

    /// Rebuilds a generator at a position exported by [`state`](Self::state);
    /// the restored generator's draws continue where the original's would.
    pub fn from_state(state: RngState) -> Self {
        SimRng {
            inner: ChaCha8Rng::from_state(
                state.key,
                state.stream,
                state.counter,
                state.word_index as usize,
            ),
        }
    }

    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; children with distinct
    /// `stream` values never correlate, letting per-node RNGs be split off
    /// one master seed.
    #[must_use]
    pub fn child(&self, stream: u64) -> Self {
        let mut inner = self.inner.clone();
        inner.set_stream(stream);
        SimRng { inner }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.inner.gen::<f64>() < p
    }

    /// Uniform draw in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below() requires a positive bound");
        self.inner.gen_range(0..bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_differs() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "seeds 1 and 2 should not track each other");
    }

    #[test]
    fn children_are_independent() {
        let master = SimRng::seed(99);
        let mut c1 = master.child(1);
        let mut c2 = master.child(2);
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn state_roundtrip_resumes_stream() {
        let mut rng = SimRng::seed(42).child(9);
        for _ in 0..13 {
            let _ = rng.next_u64();
        }
        let _ = rng.chance(0.5); // leave the block mid-word
        let saved = rng.state();
        let mut restored = SimRng::from_state(saved);
        for _ in 0..200 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
        assert_eq!(restored.state(), rng.state());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(0);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_rate_roughly_matches() {
        let mut rng = SimRng::seed(3);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SimRng::seed(5);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        SimRng::seed(0).below(0);
    }
}
