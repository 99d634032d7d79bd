//! `faultcampaign --resume` survives its own torn writes, end to end
//! through the binary.
//!
//! A process killed while writing a journal file leaves a `<name>.tmp`
//! beside the old file (or none); older builds, which wrote in place,
//! could also leave a truncated file. Neither may brick the journal: the
//! resumed run recomputes whatever does not load and produces a report
//! byte-identical to the uninterrupted run. A journal that belongs to a
//! different campaign is the one thing a resume refuses.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xpipes_resume_it_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A warm-started four-point campaign against journal `dir`.
fn campaign(seed: &str, journal: Option<&Path>, out: &Path) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_faultcampaign"));
    cmd.args(["--faults", "flit-corruption", "--rates", "0.01,0.02,0.04"])
        .args(["--cycles", "400", "--warm-start", "300", "--seed", seed])
        .args(["--out", out.to_str().unwrap()]);
    if let Some(dir) = journal {
        cmd.args(["--resume", dir.to_str().unwrap()]);
    }
    cmd.output().expect("spawn faultcampaign")
}

#[test]
fn resume_recomputes_torn_and_damaged_entries_byte_identically() {
    let dir = temp_dir("torn");
    let journal = dir.join("journal");
    let reference = dir.join("reference.json");
    assert!(campaign("19", None, &reference).status.success());
    let journaled = dir.join("journaled.json");
    assert!(campaign("19", Some(&journal), &journaled).status.success());

    // Killed while first writing meta.json: garbage under the temporary
    // name, nothing under the real one.
    std::fs::remove_file(journal.join("meta.json")).unwrap();
    std::fs::write(journal.join("meta.json.tmp"), b"{\"campaign\": \"faultcam").unwrap();
    // Killed between writing point 1's temporary file and renaming it.
    let whole = std::fs::read(journal.join("point-1.bin")).unwrap();
    std::fs::remove_file(journal.join("point-1.bin")).unwrap();
    std::fs::write(journal.join("point-1.bin.tmp"), &whole[..whole.len() / 2]).unwrap();
    // A point file torn in place, and a bit-flipped warm checkpoint.
    let whole = std::fs::read(journal.join("point-2.bin")).unwrap();
    std::fs::write(journal.join("point-2.bin"), &whole[..whole.len() - 7]).unwrap();
    let mut warm = std::fs::read(journal.join("warm.bin")).unwrap();
    let mid = warm.len() / 2;
    warm[mid] ^= 0x04;
    std::fs::write(journal.join("warm.bin"), &warm).unwrap();

    let resumed = dir.join("resumed.json");
    let out = campaign("19", Some(&journal), &resumed);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("resuming with 2/4 grid points already complete"),
        "{stderr}"
    );
    for name in ["warm.bin", "point-2.bin"] {
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("note: discarding journal entry") && l.contains(name)),
            "no discard note for {name}: {stderr}"
        );
    }
    let want = std::fs::read(&reference).unwrap();
    assert_eq!(std::fs::read(&journaled).unwrap(), want);
    assert_eq!(std::fs::read(&resumed).unwrap(), want);
    // The journal healed: nothing temporary left, everything loads.
    for name in ["meta.json.tmp", "point-1.bin.tmp"] {
        assert!(!journal.join(name).exists(), "{name} left behind");
    }
    let again = campaign("19", Some(&journal), &resumed);
    assert!(String::from_utf8_lossy(&again.stderr)
        .contains("resuming with 4/4 grid points already complete"));
    assert_eq!(std::fs::read(&resumed).unwrap(), want);
}

#[test]
fn resume_refuses_another_campaigns_journal_with_one_line() {
    let dir = temp_dir("mismatch");
    let journal = dir.join("journal");
    let out_path = dir.join("report.json");
    assert!(campaign("19", Some(&journal), &out_path).status.success());
    let out = campaign("20", Some(&journal), &out_path);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("error: journal was created with a different campaign configuration")
    );
    assert!(
        stderr
            .trim_end()
            .ends_with("use a fresh --resume directory"),
        "{stderr}"
    );
}
