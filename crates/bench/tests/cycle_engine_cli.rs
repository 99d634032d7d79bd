//! `cycle_engine --diff` through the real binary: the baseline it
//! compares against must survive the run.
//!
//! The fresh attribution document is written to `--attribution-out`
//! before `--diff` is read, so naming one file twice would compare a run
//! with itself and overwrite the baseline. The binary refuses that
//! before simulating anything.

use std::process::Command;

#[test]
fn diff_against_the_attribution_out_file_is_refused() {
    let dir = std::env::temp_dir().join("xpipes_cycle_engine_cli_diff");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.json");
    let recorded = b"{\"bench\": \"recorded elsewhere\"}\n";
    std::fs::write(&baseline, recorded).unwrap();
    let report = dir.join("report.json");
    let run = |attribution_out: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_cycle_engine"))
            .args(["--workload", "uniform_random_4x4", "--cycles", "300"])
            .arg("--out")
            .arg(&report)
            .arg("--attribution")
            .arg("--attribution-out")
            .arg(attribution_out)
            .arg("--diff")
            .arg(&baseline)
            .output()
            .unwrap()
    };
    // The same path, and the same file spelled another way.
    for out_path in [baseline.clone(), dir.join(".").join("baseline.json")] {
        let out = run(&out_path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{out_path:?}: {stderr}");
        assert!(stderr.starts_with("error: --diff "), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert_eq!(
            std::fs::read(&baseline).unwrap(),
            recorded,
            "baseline clobbered"
        );
        assert!(!report.exists(), "refused before running");
    }
}
