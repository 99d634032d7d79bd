//! Pins the ChaCha8 keystream this shim produces. Every link fault
//! draw, stall draw and traffic draw in the workspace comes from it, and
//! checkpoints store only its position, so any change to block
//! generation — a faster refill included — must reproduce these words
//! exactly.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: &[u32]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn words(rng: &mut ChaCha8Rng, n: usize) -> Vec<u32> {
    (0..n).map(|_| rng.next_u32()).collect()
}

fn stream(seed: u64, stream: u64) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    rng.set_stream(stream);
    rng
}

/// `(seed, stream, first word, last word, FNV-1a of the first 64 words)`.
const GOLDEN: [(u64, u64, u32, u32, u64); 6] = [
    (0, 0, 0x2d8e_e5e8, 0x3fc0_3cba, 0x0dff_02dd_8bfb_3694),
    (0, 1, 0xab9f_594a, 0x2c45_d1b3, 0x95e9_bd06_8f4b_6df6),
    (7, 0, 0x5082_5212, 0x0ccc_26eb, 0x34c3_e3ae_aa2d_6684),
    (7, 1, 0xc6e0_587f, 0xc418_14bd, 0x283c_0744_c300_daec),
    (0xC0FFEE, 0, 0xa7aa_4cdb, 0x1fa4_69bf, 0x8cc7_e94e_306e_4c21),
    (0xC0FFEE, 1, 0x4e26_9601, 0xef19_8b28, 0xf821_bedb_a82f_f3ea),
];

#[test]
fn first_64_words_of_three_seeds_and_two_streams_are_pinned() {
    for (seed, s, first, last, hash) in GOLDEN {
        let w = words(&mut stream(seed, s), 64);
        assert_eq!(
            (w[0], w[63], fnv(&w)),
            (first, last, hash),
            "seed {seed:#x} stream {s}"
        );
    }
}

/// `from_state` at a literal position rebuilds the pinned keystream:
/// mid-block (block 2, word 5 → stream words 37..) and on a block
/// boundary (block 3 spent → stream words 64..).
#[test]
fn from_state_mid_block_and_at_a_boundary_is_pinned() {
    let all = words(&mut stream(7, 1), 128);
    let (key, _, _, _) = stream(7, 1).state();
    for (counter, idx, offset, hash) in [
        (3, 5, 37, 0x6a42_c5be_514d_dbe9_u64),
        (4, 16, 64, 0x0fab_d3f6_af6d_0b90),
    ] {
        let mut rng = ChaCha8Rng::from_state(key, 1, counter, idx);
        let w = words(&mut rng, 64);
        assert_eq!(w, all[offset..offset + 64], "counter {counter} idx {idx}");
        assert_eq!(fnv(&w), hash, "counter {counter} idx {idx}");
    }
}
