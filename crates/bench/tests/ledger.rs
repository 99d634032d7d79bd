//! Run-ledger integration contract, end to end through the binaries.
//!
//! The ledger's promises are cross-process by nature — records written
//! by one invocation must be readable (and comparable) by the next —
//! so this suite drives the real `cycle_engine`, `faultcampaign`, and
//! `xpipesobs` executables:
//!
//! * deterministic record fields are byte-identical across `--jobs`;
//! * `--ledger` appends across processes instead of truncating, and
//!   `xpipesobs` reads the accumulated history back;
//! * arming `--ledger` leaves the work fingerprint untouched;
//! * the sentinel passes a flat history and fails an injected
//!   throughput regression with exit code 2;
//! * corrupted and future-schema lines are rejected with exit code 2;
//! * a missing or empty ledger is an empty `list` (exit 0) but a
//!   one-line exit-2 error for `trend`/`check`;
//! * a campaign resumed from its journal appends exactly one ledger
//!   record across however many runs it takes;
//! * `parse_ledger` turns arbitrary and damaged lines into a one-line
//!   error or a list of usable entries, never a panic, and whatever it
//!   accepts the sentinel, `trend` and `list` digest;
//! * a metric literal beyond `f64` is a one-line exit-2 error.

use std::path::PathBuf;
use std::process::{Command, Output};

use proptest::prelude::*;
use xpipes_bench::ledger::{
    check, deterministic_view, parse_ledger, render_checks, render_list, render_trend, trend,
    CheckConfig, RecordBuilder,
};
use xpipes_sim::FaultKind;
use xpipes_traffic::faultcampaign::{campaign_spec, config_fingerprint, grid_size, CampaignConfig};
use xpipes_traffic::journal::Journal;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xpipes_ledger_it_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"))
}

fn run_ok(bin: &str, args: &[&str]) -> Output {
    let out = run(bin, args);
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    out
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("process exited")
}

#[test]
fn campaign_ledger_deterministic_fields_are_byte_identical_across_jobs() {
    let dir = temp_dir("jobs");
    let ledger_for = |jobs: &str| {
        let path = dir.join(format!("ledger-j{jobs}.ndjson"));
        let path_str = path.to_str().unwrap().to_string();
        run_ok(
            env!("CARGO_BIN_EXE_faultcampaign"),
            &[
                "--faults",
                "ack-loss,flit-corruption",
                "--cycles",
                "1500",
                "--rates",
                "0.02",
                "--jobs",
                jobs,
                "--ledger",
                &path_str,
                "--out",
                dir.join(format!("report-j{jobs}.json")).to_str().unwrap(),
            ],
        );
        std::fs::read_to_string(&path).expect("ledger written")
    };
    let serial = ledger_for("1");
    let parallel = ledger_for("4");
    let views = |text: &str| -> Vec<String> {
        parse_ledger(text, "test")
            .expect("ledger validates")
            .iter()
            .map(|e| deterministic_view(&e.json).render_compact())
            .collect()
    };
    assert_eq!(
        views(&serial),
        views(&parallel),
        "deterministic ledger fields depend on --jobs"
    );
    // The quarantined wall section is the only difference allowed — and
    // it must be present (elapsed, throughput, pool utilization).
    let entries = parse_ledger(&serial, "test").unwrap();
    assert_eq!(entries.len(), 1, "one campaign, one record");
    let wall = entries[0].json.get("wall").expect("wall section recorded");
    assert!(wall.get("pool").is_some(), "pool utilization recorded");
    assert!(entries[0].metric("cycles_per_sec").is_some());
}

#[test]
fn ledger_appends_across_processes_and_xpipesobs_reads_it_back() {
    let dir = temp_dir("append");
    let ledger = dir.join("ledger.ndjson");
    let ledger_str = ledger.to_str().unwrap();
    for i in 0..2 {
        run_ok(
            env!("CARGO_BIN_EXE_cycle_engine"),
            &[
                "--cycles",
                "2000",
                "--ledger",
                ledger_str,
                "--out",
                dir.join(format!("report-{i}.json")).to_str().unwrap(),
            ],
        );
    }
    let text = std::fs::read_to_string(&ledger).unwrap();
    let entries = parse_ledger(&text, "test").expect("ledger validates");
    assert_eq!(
        entries.len(),
        4,
        "two runs x two default workloads append, never truncate"
    );
    // Identical seeded work: the deterministic views of run 1 and run 2
    // agree per workload, across separate processes.
    assert_eq!(
        deterministic_view(&entries[0].json).render_compact(),
        deterministic_view(&entries[2].json).render_compact()
    );
    let list = run_ok(
        env!("CARGO_BIN_EXE_xpipesobs"),
        &["--ledger", ledger_str, "list"],
    );
    let stdout = String::from_utf8_lossy(&list.stdout).to_string();
    assert!(stdout.contains("uniform_random_4x4"), "{stdout}");
    assert!(stdout.contains("hotspot_4x4"), "{stdout}");
    let trend = run_ok(
        env!("CARGO_BIN_EXE_xpipesobs"),
        &["--ledger", ledger_str, "trend", "cycles"],
    );
    let stdout = String::from_utf8_lossy(&trend.stdout).to_string();
    assert!(stdout.contains("2 runs"), "{stdout}");
}

#[test]
fn arming_the_ledger_leaves_the_work_fingerprint_unchanged() {
    let dir = temp_dir("fingerprint");
    let fp_for = |armed: bool| {
        let fp = dir.join(format!("fp-{armed}.json"));
        let mut args = vec![
            "--workload".to_string(),
            "uniform_random_4x4".to_string(),
            "--cycles".to_string(),
            "2000".to_string(),
            "--out".to_string(),
            dir.join(format!("report-{armed}.json"))
                .to_str()
                .unwrap()
                .to_string(),
            "--fingerprint-out".to_string(),
            fp.to_str().unwrap().to_string(),
        ];
        if armed {
            args.push("--ledger".to_string());
            args.push(dir.join("ledger.ndjson").to_str().unwrap().to_string());
        }
        let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
        run_ok(env!("CARGO_BIN_EXE_cycle_engine"), &arg_refs);
        std::fs::read(&fp).expect("fingerprint written")
    };
    assert_eq!(
        fp_for(false),
        fp_for(true),
        "arming --ledger must not perturb the work fingerprint"
    );
}

/// Synthesizes a ledger with the library builder (the same code the
/// binaries run) so the sentinel contract is pinned without depending
/// on real wall-clock noise.
fn synthetic_history(cps_latest: f64) -> String {
    let record = |cps: f64| {
        RecordBuilder::new("cycle_engine", "uniform_random_4x4", 42, 0xFEED)
            .work_u64("cycles", 50_000)
            .work_u64("packets_delivered", 15_000)
            .work_u64("retransmissions", 0)
            .wall_fixed("elapsed_s", 0.2, 4)
            .wall_fixed("cycles_per_sec", cps, 0)
            .build()
            .render_compact()
    };
    let mut text = String::new();
    for i in 0..6 {
        text.push_str(&record(300_000.0 + f64::from(i) * 2_000.0));
        text.push('\n');
    }
    text.push_str(&record(cps_latest));
    text.push('\n');
    text
}

#[test]
fn sentinel_passes_flat_history_and_fails_injected_regression_with_exit_2() {
    let dir = temp_dir("sentinel");
    let flat = dir.join("flat.ndjson");
    std::fs::write(&flat, synthetic_history(304_000.0)).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_xpipesobs"),
        &["--ledger", flat.to_str().unwrap(), "check"],
    );
    assert_eq!(
        exit_code(&out),
        0,
        "flat history must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("within tolerance"));

    // A 20% throughput drop against the same history must fail with the
    // one-line error + exit-2 contract at default tolerances.
    let regressed = dir.join("regressed.ndjson");
    std::fs::write(&regressed, synthetic_history(305_000.0 * 0.8)).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_xpipesobs"),
        &["--ledger", regressed.to_str().unwrap(), "check"],
    );
    assert_eq!(exit_code(&out), 2, "regression must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.lines().any(|l| l.starts_with("error: ")),
        "one-line error contract: {stderr}"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("FAIL"));
}

#[test]
fn corrupted_and_future_schema_ledgers_are_rejected_with_exit_2() {
    let dir = temp_dir("reject");
    let future = dir.join("future.ndjson");
    let line = synthetic_history(300_000.0)
        .lines()
        .next()
        .unwrap()
        .replace("\"schema\":1", "\"schema\":99");
    std::fs::write(&future, format!("{line}\n")).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_xpipesobs"),
        &["--ledger", future.to_str().unwrap(), "list"],
    );
    assert_eq!(exit_code(&out), 2);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("schema version 99"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let corrupt = dir.join("corrupt.ndjson");
    let whole = synthetic_history(300_000.0);
    std::fs::write(&corrupt, &whole[..whole.len() / 3]).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_xpipesobs"),
        &["--ledger", corrupt.to_str().unwrap(), "check"],
    );
    assert_eq!(exit_code(&out), 2);
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with("error: "),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn out_of_range_metrics_are_rejected_with_exit_2() {
    let dir = temp_dir("out_of_range");
    let ledger = dir.join("inf.ndjson");
    let history = synthetic_history(300_000.0);
    let mut lines: Vec<String> = history.lines().take(3).map(str::to_owned).collect();
    lines[0] = lines[0].replacen("\"cycles_per_sec\":300000", "\"cycles_per_sec\":1e999", 1);
    assert!(lines[0].contains("1e999"));
    std::fs::write(&ledger, lines.join("\n") + "\n").unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_xpipesobs"),
        &["--ledger", ledger.to_str().unwrap(), "check"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(exit_code(&out), 2, "{stderr}");
    assert!(
        stderr.starts_with("error: ")
            && stderr.contains("line 1")
            && stderr.contains("number out of range"),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

#[test]
fn missing_or_empty_ledgers_follow_the_exit_code_contract() {
    let dir = temp_dir("absent");
    let missing = dir.join("never-written.ndjson");
    let missing_path = missing.to_str().unwrap();

    // `list` on a ledger that does not exist yet is an empty answer,
    // not an error: exit 0 with a one-line explanation.
    let out = run(
        env!("CARGO_BIN_EXE_xpipesobs"),
        &["--ledger", missing_path, "list"],
    );
    assert_eq!(exit_code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("holds no records"), "{stdout}");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");

    // `trend` and `check` need history to say anything, so the same
    // absence is a one-line error with exit code 2.
    for cmd in [
        vec!["--ledger", missing_path, "trend", "cycle-engine"],
        vec!["--ledger", missing_path, "check"],
    ] {
        let out = run(env!("CARGO_BIN_EXE_xpipesobs"), &cmd);
        assert_eq!(exit_code(&out), 2, "{cmd:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{cmd:?}: {stderr}");
        assert!(stderr.contains("holds no records"), "{cmd:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{cmd:?}: {stderr}");
    }

    // A ledger file that exists but holds zero records behaves the same
    // as a missing one.
    let empty = dir.join("empty.ndjson");
    std::fs::write(&empty, "").unwrap();
    let empty_path = empty.to_str().unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_xpipesobs"),
        &["--ledger", empty_path, "list"],
    );
    assert_eq!(exit_code(&out), 0);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("holds no records"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let out = run(
        env!("CARGO_BIN_EXE_xpipesobs"),
        &["--ledger", empty_path, "check"],
    );
    assert_eq!(exit_code(&out), 2);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("holds no records"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn resumed_campaign_appends_exactly_one_ledger_record() {
    let dir = temp_dir("resume_once");
    let journal = dir.join("journal");
    let ledger = dir.join("ledger.ndjson");
    let base_args = [
        "--faults",
        "flit-corruption",
        "--cycles",
        "400",
        "--rates",
        "0.02",
        "--seed",
        "13",
        "--resume",
        journal.to_str().unwrap(),
        "--ledger",
        ledger.to_str().unwrap(),
    ];

    // First run completes the campaign and appends its record.
    run_ok(env!("CARGO_BIN_EXE_faultcampaign"), &base_args);
    let first = std::fs::read_to_string(&ledger).unwrap();
    assert_eq!(first.lines().count(), 1);
    // The marker the binary left is the journal module's marker.
    let mut cfg = CampaignConfig::new(13, 400);
    cfg.error_rates = vec![0.02];
    let faults = [FaultKind::FlitCorruption];
    let fingerprint = config_fingerprint(&campaign_spec(), &faults, &cfg);
    let reopened = Journal::open(&journal, fingerprint, grid_size(&faults, &cfg), 0)
        .expect("the library reopens the binary's journal");
    assert!(reopened.ledger_recorded());

    // A rerun against the same journal — the recovery path after a
    // kill-and-resume — replays the journaled points but must not
    // append a second record for the same campaign.
    let out = run_ok(env!("CARGO_BIN_EXE_faultcampaign"), &base_args);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("already appended"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let second = std::fs::read_to_string(&ledger).unwrap();
    assert_eq!(second, first, "resume appended a duplicate record");

    // A *different* campaign against a fresh journal still appends, so
    // the guard is keyed by configuration, not by ledger presence.
    let journal2 = dir.join("journal2");
    run_ok(
        env!("CARGO_BIN_EXE_faultcampaign"),
        &[
            "--faults",
            "ack-loss",
            "--cycles",
            "400",
            "--rates",
            "0.02",
            "--seed",
            "13",
            "--resume",
            journal2.to_str().unwrap(),
            "--ledger",
            ledger.to_str().unwrap(),
        ],
    );
    let third = std::fs::read_to_string(&ledger).unwrap();
    assert_eq!(third.lines().count(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text, a valid history with one byte overwritten and the
    /// tail cut (a torn append), and the first `keep` records of a valid
    /// history whose first throughput is a `1eN` literal: an `Err`
    /// naming the line, or entries that every reader digests.
    #[test]
    fn parse_ledger_is_total(
        noise in ".{0,200}",
        at in 0usize..4096,
        byte in 0x20u8..0x7f,
        cut in 0usize..300,
        exponent in 0u32..1000,
        keep in 1usize..8,
        mode in 0u8..3,
    ) {
        let text = match mode {
            0 => noise,
            1 => {
                let mut bytes = synthetic_history(300_000.0).into_bytes();
                let at = at % bytes.len();
                bytes[at] = byte;
                bytes.truncate(bytes.len() - cut);
                String::from_utf8(bytes).expect("ASCII history, ASCII edit")
            }
            _ => synthetic_history(300_000.0)
                .replacen(
                    "\"cycles_per_sec\":300000",
                    &format!("\"cycles_per_sec\":1e{exponent}"),
                    1,
                )
                .split_inclusive('\n')
                .take(keep)
                .collect(),
        };
        match parse_ledger(&text, "fuzz.ndjson") {
            Ok(entries) => {
                prop_assert!(entries.len() <= text.lines().count());
                for e in &entries {
                    let _ = (e.source(), e.workload(), e.seed(), e.pass(), e.short_config());
                    let _ = (e.group_key(), e.metric("cycles"), deterministic_view(&e.json));
                }
                let _ = render_checks(&check(&entries, &CheckConfig::default()));
                let _ = render_trend(&trend(&entries, "cycles_per_sec"), "cycles_per_sec");
                let _ = render_list(&entries);
            }
            Err(e) => {
                prop_assert!(e.starts_with("fuzz.ndjson line "), "{}", e);
                prop_assert!(!e.contains('\n'), "{}", e);
            }
        }
    }
}
