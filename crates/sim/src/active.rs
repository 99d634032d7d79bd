//! Dense active-component sets for the event-driven NoC kernel.
//!
//! An [`ActiveSet`] is a fixed-capacity set of small integers (dense
//! component ids: channel indices, switch indices, NI indices) backed by
//! a two-level bitmap. Level 0 is one bit per member; level 1 is one bit
//! per level-0 word, so iteration and emptiness checks skip empty
//! 4096-member spans without scanning them. All mutating operations are
//! O(1); iteration is ascending and costs O(populated words).
//!
//! Ascending iteration order matters: the kernel processes scheduled
//! components in dense-id order, which is exactly the order the
//! reference (process-everything) step visits them, so observer event
//! streams (attribution, flight recorder) are byte-identical between the
//! two kernels.

/// A fixed-capacity set of `usize` ids with O(1) insert/remove
/// and ascending iteration.
#[derive(Debug, Clone, Default)]
pub struct ActiveSet {
    /// Level 0: bit `i % 64` of `words[i / 64]` ⇔ `i` is a member.
    words: Vec<u64>,
    /// Level 1: bit `w % 64` of `summary[w / 64]` ⇔ `words[w] != 0`.
    summary: Vec<u64>,
    capacity: usize,
    len: usize,
}

impl ActiveSet {
    /// An empty set holding ids in `0..capacity`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let nwords = capacity.div_ceil(64);
        ActiveSet {
            words: vec![0; nwords],
            summary: vec![0; nwords.div_ceil(64)],
            capacity,
            len: 0,
        }
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no ids are members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `id`; returns true when it was not already a member.
    pub fn insert(&mut self, id: usize) -> bool {
        debug_assert!(
            id < self.capacity,
            "id {id} out of capacity {}",
            self.capacity
        );
        let w = id / 64;
        let bit = 1u64 << (id % 64);
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.summary[w / 64] |= 1u64 << (w % 64);
        self.len += 1;
        true
    }

    /// Removes `id`; returns true when it was a member.
    pub(crate) fn remove(&mut self, id: usize) -> bool {
        debug_assert!(
            id < self.capacity,
            "id {id} out of capacity {}",
            self.capacity
        );
        let w = id / 64;
        let bit = 1u64 << (id % 64);
        if self.words[w] & bit == 0 {
            return false;
        }
        self.words[w] &= !bit;
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
        self.len -= 1;
        true
    }

    /// Inserts or removes `id` according to `member`.
    pub fn set(&mut self, id: usize, member: bool) {
        if member {
            self.insert(id);
        } else {
            self.remove(id);
        }
    }

    /// Empties the set. Costs O(populated words), not O(capacity).
    pub fn clear(&mut self) {
        for si in 0..self.summary.len() {
            let mut s = self.summary[si];
            while s != 0 {
                let w = si * 64 + s.trailing_zeros() as usize;
                self.words[w] = 0;
                s &= s - 1;
            }
            self.summary[si] = 0;
        }
        self.len = 0;
    }

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> Iter<'_> {
        // A set's union with itself is the set: one iterator body
        // serves both walks for one redundant OR per populated word.
        Iter::new(self, self)
    }

    /// Iterates the members of `self ∪ other` in ascending id order,
    /// word by word, without materialising the union. Both sets must
    /// have the same capacity.
    pub fn union<'a>(&'a self, other: &'a ActiveSet) -> Iter<'a> {
        debug_assert_eq!(self.capacity, other.capacity, "union of unlike sets");
        Iter::new(self, other)
    }
}

/// Ascending iterator over one [`ActiveSet`] or the union of two: a
/// cursor over the level-1 summary words, then over the level-0 words
/// they mark populated.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    a: &'a ActiveSet,
    b: &'a ActiveSet,
    /// Unvisited populated-word bits of summary word `si`.
    summary: u64,
    si: usize,
    /// Unvisited member bits of level-0 word `word`.
    bits: u64,
    word: usize,
}

impl<'a> Iter<'a> {
    fn new(a: &'a ActiveSet, b: &'a ActiveSet) -> Self {
        let first = |s: &ActiveSet| s.summary.first().copied().unwrap_or(0);
        Iter {
            a,
            b,
            summary: first(a) | first(b),
            si: 0,
            bits: 0,
            word: 0,
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            while self.summary == 0 {
                self.si += 1;
                if self.si >= self.a.summary.len() {
                    return None;
                }
                self.summary = self.a.summary[self.si] | self.b.summary[self.si];
            }
            self.word = self.si * 64 + self.summary.trailing_zeros() as usize;
            self.summary &= self.summary - 1;
            self.bits = self.a.words[self.word] | self.b.words[self.word];
        }
        let id = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_remove_iterate() {
        let mut s = ActiveSet::new(300);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(299));
        assert!(!s.insert(64), "double insert reports absent");
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 299]);
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 299]);
    }

    #[test]
    fn iteration_is_ascending_and_complete() {
        let mut s = ActiveSet::new(10_000);
        let ids = [9_999, 0, 4_096, 127, 128, 5_000, 65];
        for &i in &ids {
            s.insert(i);
        }
        let mut expect: Vec<usize> = ids.to_vec();
        expect.sort_unstable();
        assert_eq!(s.iter().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = ActiveSet::new(8_192);
        for i in (0..8_192).step_by(7) {
            s.insert(i);
        }
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(s.insert(8_191));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![8_191]);
    }

    #[test]
    fn set_matches_insert_remove() {
        let mut s = ActiveSet::new(64);
        s.set(5, true);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5]);
        s.set(5, false);
        assert!(s.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `iter` and `union` agree with a `BTreeSet` oracle — same
        /// members, ascending — after every operation of a random
        /// insert/remove/clear script on two sets, at capacities on both
        /// sides of the one-word, one-summary-word and multi-summary-word
        /// boundaries.
        #[test]
        fn iterators_match_btreeset_oracle(
            cap_idx in 0usize..5,
            ops in prop::collection::vec((0u8..16, any::<bool>(), any::<u64>()), 1..120),
        ) {
            let capacity = [1, 64, 65, 4_097, 20_000][cap_idx];
            let mut sets = [ActiveSet::new(capacity), ActiveSet::new(capacity)];
            let mut oracles = [BTreeSet::new(), BTreeSet::new()];
            for (kind, which, raw) in ops {
                let (set, oracle) = (&mut sets[which as usize], &mut oracles[which as usize]);
                // Half the ids land in the last word, where a partial
                // word and the end of the summary level meet.
                let id = if raw & 1 == 0 {
                    (raw >> 1) as usize % capacity
                } else {
                    capacity - 1 - (raw >> 1) as usize % capacity.min(64)
                };
                match kind {
                    0 => {
                        set.clear();
                        oracle.clear();
                    }
                    1..=5 => prop_assert_eq!(set.remove(id), oracle.remove(&id)),
                    _ => prop_assert_eq!(set.insert(id), oracle.insert(id)),
                }
                let [a, b] = &sets;
                let [oa, ob] = &oracles;
                prop_assert_eq!(a.len(), oa.len());
                prop_assert_eq!(a.iter().collect::<Vec<_>>(), oa.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(b.iter().collect::<Vec<_>>(), ob.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(
                    a.union(b).collect::<Vec<_>>(),
                    oa.union(ob).copied().collect::<Vec<_>>()
                );
            }
        }
    }
}
