//! Synthetic destination patterns.
//!
//! A pattern maps a source index to a destination index among the target
//! NIs, in the standard NoC-evaluation taxonomy.

use xpipes_sim::SimRng;

/// A synthetic traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Uniform random destination.
    Uniform,
    /// Destination = transpose of the source index (bit-reversal analogue
    /// for non-power-of-two sets: reversed index).
    Transpose,
    /// Destination = bitwise complement of the source index.
    BitComplement,
    /// A fraction of traffic targets a single hotspot; the rest uniform.
    Hotspot {
        /// Index of the hotspot target.
        target: usize,
        /// Fraction of packets sent to the hotspot (0..=1).
        fraction: f64,
    },
    /// Destination = (source + 1) mod targets.
    Neighbor,
    /// Tile-local uniform: source `s` owns the `targets_per_tile`
    /// consecutive targets starting at `s * targets_per_tile` and picks
    /// uniformly among them. The large-fabric pattern: keeps every route
    /// inside the source's tile (and inside the 7-hop source-route
    /// budget) however big the mesh grows.
    TileUniform {
        /// Tile-local targets owned by each source.
        targets_per_tile: usize,
    },
}

impl Pattern {
    /// Picks the destination target index for a packet from initiator
    /// `src` among `targets` destinations.
    ///
    /// # Panics
    ///
    /// Panics when `targets` is zero.
    pub(crate) fn destination(&self, src: usize, targets: usize, rng: &mut SimRng) -> usize {
        assert!(targets > 0, "pattern needs at least one target");
        match *self {
            Pattern::Uniform => rng.below(targets),
            Pattern::Transpose => {
                // Reverse the index within the target count.
                (targets - 1).saturating_sub(src % targets)
            }
            Pattern::BitComplement => {
                let bits = usize::BITS - (targets.max(2) - 1).leading_zeros();
                let complemented = !src & ((1usize << bits) - 1);
                complemented % targets
            }
            Pattern::Hotspot { target, fraction } => {
                if rng.chance(fraction) {
                    target % targets
                } else {
                    rng.below(targets)
                }
            }
            Pattern::Neighbor => (src + 1) % targets,
            Pattern::TileUniform { targets_per_tile } => {
                let (base, span) = tile_window(src, targets_per_tile, targets);
                base + rng.below(span)
            }
        }
    }

    /// Human-readable name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::Uniform => "uniform",
            Pattern::Transpose => "transpose",
            Pattern::BitComplement => "bit-complement",
            Pattern::Hotspot { .. } => "hotspot",
            Pattern::Neighbor => "neighbor",
            Pattern::TileUniform { .. } => "tile-uniform",
        }
    }
}

/// The `(base, span)` slice of the target set owned by tile-local
/// source `src`: `targets_per_tile` consecutive targets starting at
/// `src * targets_per_tile`, clipped to the target count so a
/// mis-sized mapping degrades to in-range destinations instead of
/// panicking.
fn tile_window(src: usize, targets_per_tile: usize, targets: usize) -> (usize, usize) {
    let tpt = targets_per_tile.max(1);
    let base = (src * tpt) % targets;
    (base, tpt.min(targets - base))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_all_targets() {
        let mut rng = SimRng::seed(1);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[Pattern::Uniform.destination(0, 8, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn transpose_is_deterministic_and_reversing() {
        let mut rng = SimRng::seed(1);
        assert_eq!(Pattern::Transpose.destination(0, 8, &mut rng), 7);
        assert_eq!(Pattern::Transpose.destination(7, 8, &mut rng), 0);
        assert_eq!(Pattern::Transpose.destination(3, 8, &mut rng), 4);
    }

    #[test]
    fn bit_complement_in_range() {
        let mut rng = SimRng::seed(1);
        for src in 0..16 {
            let d = Pattern::BitComplement.destination(src, 10, &mut rng);
            assert!(d < 10);
        }
        // Power-of-two case is an exact complement.
        assert_eq!(
            Pattern::BitComplement.destination(0b0101, 16, &mut rng),
            0b1010
        );
    }

    #[test]
    fn hotspot_concentrates() {
        let mut rng = SimRng::seed(2);
        let p = Pattern::Hotspot {
            target: 3,
            fraction: 0.8,
        };
        let hits = (0..1000)
            .filter(|_| p.destination(0, 8, &mut rng) == 3)
            .count();
        assert!(hits > 700, "hotspot hits {hits}");
    }

    #[test]
    fn hotspot_zero_fraction_is_uniform() {
        let mut rng = SimRng::seed(3);
        let p = Pattern::Hotspot {
            target: 0,
            fraction: 0.0,
        };
        let hits = (0..1000)
            .filter(|_| p.destination(0, 8, &mut rng) == 0)
            .count();
        assert!(hits < 250, "{hits}");
    }

    #[test]
    fn neighbor_wraps() {
        let mut rng = SimRng::seed(1);
        assert_eq!(Pattern::Neighbor.destination(7, 8, &mut rng), 0);
        assert_eq!(Pattern::Neighbor.destination(2, 8, &mut rng), 3);
    }

    #[test]
    fn names() {
        assert_eq!(Pattern::Uniform.name(), "uniform");
        assert_eq!(
            Pattern::Hotspot {
                target: 0,
                fraction: 0.5
            }
            .name(),
            "hotspot"
        );
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn zero_targets_panics() {
        Pattern::Uniform.destination(0, 0, &mut SimRng::seed(0));
    }

    #[test]
    fn tile_uniform_stays_in_tile_and_covers_it() {
        let mut rng = SimRng::seed(5);
        let p = Pattern::TileUniform {
            targets_per_tile: 4,
        };
        for src in 0..4 {
            let mut seen = [false; 4];
            for _ in 0..200 {
                let d = p.destination(src, 16, &mut rng);
                assert!(
                    (src * 4..src * 4 + 4).contains(&d),
                    "src {src} escaped its tile: {d}"
                );
                seen[d - src * 4] = true;
            }
            assert!(seen.iter().all(|&s| s), "src {src} missed a tile target");
        }
    }

    #[test]
    fn tile_window_clips_at_the_target_count() {
        let mut rng = SimRng::seed(7);
        let p = Pattern::TileUniform {
            targets_per_tile: 4,
        };
        for _ in 0..100 {
            // 2 targets per tile short: the window clips in range.
            let d = p.destination(3, 14, &mut rng);
            assert!(d < 14);
        }
    }
}
