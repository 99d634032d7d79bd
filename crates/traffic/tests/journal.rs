//! The journal directory contract: pinned `meta.json` bytes and
//! mismatch messages, the damaged-entry policy (discard and recompute,
//! never fatal), the run-ledger marker, I/O errors that stay errors,
//! and a `meta.json` of arbitrary bytes that is an error, not a panic.

use std::path::PathBuf;

use proptest::prelude::*;
use xpipes_sim::FaultKind;
use xpipes_traffic::faultcampaign::{
    campaign_spec, config_fingerprint, grid_size, run_campaign_streaming, run_campaign_warm,
    run_grid_point, CampaignConfig,
};
use xpipes_traffic::journal::Journal;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xpipes_journal_ut_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn meta_json_bytes_are_pinned_and_mismatches_name_the_field() {
    let dir = temp_dir("meta");
    Journal::open(&dir, 0x0123_4567_89ab_cdef, 16, 0).unwrap();
    // Golden bytes: a journal written by any earlier build resumes.
    assert_eq!(
        std::fs::read_to_string(dir.join("meta.json")).unwrap(),
        "{\n  \"campaign\": \"faultcampaign\",\n  \"fingerprint\": \"0123456789abcdef\",\n  \
         \"grid\": 16,\n  \"warm_cycles\": 0\n}\n"
    );
    assert!(!dir.join("meta.json.tmp").exists());
    Journal::open(&dir, 0x0123_4567_89ab_cdef, 16, 0).expect("same campaign reopens");
    for (fingerprint, grid, warm, needle) in [
        (1, 16, 0, "different campaign configuration"),
        (0x0123_4567_89ab_cdef, 4, 0, "journal grid size 16 != 4"),
        (0x0123_4567_89ab_cdef, 16, 300, "journal warm-up 0 cycles"),
    ] {
        let err = Journal::open(&dir, fingerprint, grid, warm).unwrap_err();
        assert!(err.contains(needle), "{err}");
        assert!(err.contains("use a fresh --resume directory"), "{err}");
        assert!(!err.contains('\n'), "{err}");
    }
    std::fs::write(dir.join("meta.json"), "{\"grid\": 16}").unwrap();
    let err = Journal::open(&dir, 1, 16, 0).unwrap_err();
    assert_eq!(err, "meta.json missing 'fingerprint'");
    std::fs::write(dir.join("meta.json"), "{\"gri").unwrap();
    let err = Journal::open(&dir, 1, 16, 0).unwrap_err();
    assert!(err.starts_with("malformed meta.json: "), "{err}");
}

#[test]
fn damaged_entries_are_discarded_and_recomputed() {
    let dir = temp_dir("damaged");
    let spec = campaign_spec();
    let faults = [FaultKind::FlitCorruption];
    let mut cfg = CampaignConfig::new(23, 300);
    cfg.error_rates = vec![0.02, 0.04];
    let grid = grid_size(&faults, &cfg);
    let open = || Journal::open(&dir, config_fingerprint(&spec, &faults, &cfg), grid, 200);

    let journal = open().unwrap();
    let warm = journal.warm(&spec, &cfg).unwrap().expect("warm campaign");
    for index in 0..grid {
        let point = run_grid_point(&spec, &faults, &cfg, index, Some(&warm)).unwrap();
        journal.record(&point).unwrap();
    }
    assert_eq!(journal.load_points().unwrap().len() as u64, grid);

    // Bit-flipped warm.bin, point 1 holding point 2's bytes, point 2
    // truncated: all three are recomputable, none is fatal.
    let mut bytes = std::fs::read(dir.join("warm.bin")).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(dir.join("warm.bin"), &bytes).unwrap();
    let two = std::fs::read(dir.join("point-2.bin")).unwrap();
    std::fs::write(dir.join("point-1.bin"), &two).unwrap();
    std::fs::write(dir.join("point-2.bin"), &two[..two.len() - 5]).unwrap();

    let journal = open().unwrap();
    assert_eq!(journal.warm(&spec, &cfg).unwrap().as_ref(), Some(&warm));
    assert_eq!(
        std::fs::read(dir.join("warm.bin")).unwrap(),
        warm.to_bytes(),
        "recomputed checkpoint is journaled again"
    );
    let held = journal.load_points().unwrap();
    assert_eq!(held.iter().map(|p| p.index).collect::<Vec<_>>(), vec![0]);
    // Resuming through the one runner refills the journal and merges
    // to the uninterrupted warm report.
    let (resumed, pool) = run_campaign_streaming::<Box<dyn std::error::Error>>(
        &spec,
        &faults,
        &cfg,
        Some(&warm),
        2,
        0,
        held,
        &mut |point| Ok(journal.record(point)?),
    )
    .unwrap();
    assert_eq!(pool.items, grid - 1, "only the missing points ran");
    assert_eq!(
        resumed.to_json(),
        run_campaign_warm(&spec, &faults, &cfg, &warm)
            .unwrap()
            .to_json()
    );
    assert_eq!(journal.load_points().unwrap().len() as u64, grid);
}

#[test]
fn ledger_marker_is_keyed_by_fingerprint() {
    let dir = temp_dir("marker");
    let journal = Journal::open(&dir, 7, 3, 0).unwrap();
    assert!(!journal.ledger_recorded());
    journal.mark_ledger_recorded().unwrap();
    assert!(journal.ledger_recorded());
    assert_eq!(
        std::fs::read_to_string(dir.join("ledger-appended")).unwrap(),
        "0000000000000007\n"
    );
    // A marker left by another configuration does not count.
    std::fs::write(dir.join("ledger-appended"), "0000000000000008\n").unwrap();
    assert!(!journal.ledger_recorded());
}

#[test]
fn unreadable_entries_are_errors_not_recomputes() {
    let dir = temp_dir("unreadable");
    let journal = Journal::open(&dir, 7, 3, 0).unwrap();
    // A directory where a point file belongs: not not-found.
    std::fs::create_dir(dir.join("point-1.bin")).unwrap();
    let err = journal.load_points().unwrap_err();
    assert!(err.starts_with("cannot read "), "{err}");
    assert!(!err.contains('\n'), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever a crash, a disk or an operator left in `meta.json`,
    /// opening the journal is a one-line error or a journal that pins
    /// exactly what was asked for.
    #[test]
    fn meta_json_of_arbitrary_bytes_is_an_error_or_this_campaign(
        noise in prop::collection::vec(any::<u8>(), 0..80),
        // Cut point and overwritten byte of a mutated valid meta.json.
        cut in 0usize..96,
        flip in any::<u8>(),
        mutate in any::<bool>(),
    ) {
        const FINGERPRINT: u64 = 0x0123_4567_89ab_cdef;
        let dir = temp_dir("fuzz");
        Journal::open(&dir, FINGERPRINT, 16, 0).expect("fresh journal");
        let meta = dir.join("meta.json");
        let bytes = if mutate {
            let mut valid = std::fs::read(&meta).expect("meta.json written");
            let at = cut % valid.len();
            valid[at] = flip;
            valid.truncate(valid.len() - cut % 7);
            valid
        } else {
            noise
        };
        std::fs::write(&meta, &bytes).expect("overwrite meta.json");
        match Journal::open(&dir, FINGERPRINT, 16, 0) {
            // Accepted only when the damage left the three pinned
            // fields intact.
            Ok(_) => prop_assert!(mutate, "noise accepted: {:?}", bytes),
            Err(e) => prop_assert!(!e.is_empty() && !e.contains('\n'), "{}", e),
        }
    }
}
