//! Campaign-service integration contract.
//!
//! The service's promises are distribution-shaped, so this suite runs
//! real servers and real workers (in-process threads over real TCP,
//! plus one test through the actual `xpipesd`/`xpipesadm` binaries):
//!
//! * a campaign sharded across two workers merges to a report
//!   byte-identical to the serial one-shot run — including with a
//!   warm-start `XPSN` checkpoint shipped once per worker connection
//!   (and again on every campaign switch or reject);
//! * a worker killed mid-point gets its shard reassigned and the
//!   report is unchanged;
//! * a truncated or bit-flipped `XPSN` container at the distribution
//!   boundary is rejected with a one-line error (no panic) and the
//!   point is rescheduled — checked against the real worker loop too,
//!   with the test playing the server;
//! * two concurrent campaigns share the pool fairly and produce
//!   correct, non-interleaved reports;
//! * pause/resume/cancel steer scheduling; resubmitting a finished
//!   campaign resumes from its journal — torn files ignored and
//!   recomputed — and appends exactly one ledger record; a journal the
//!   one-shot CLI path left half-done is finished by the daemon and the
//!   reverse, byte-identically;
//! * sockets carry `TCP_NODELAY`, so a point costs its work and not a
//!   delayed-ACK timer;
//! * a frame of a million `[` closes its connection, not the daemon.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;

use xpipes_service::client;
use xpipes_service::proto;
use xpipes_service::spec::CampaignSpec;
use xpipes_service::worker::{execute, run_worker, Assignment};
use xpipes_service::{Server, ServerConfig};
use xpipes_sim::Json;
use xpipes_traffic::faultcampaign::{
    campaign_spec, run_campaign, run_campaign_streaming, run_campaign_warm, warm_checkpoint,
    CompletedPoint,
};
use xpipes_traffic::journal::Journal;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xpipes_service_it_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Starts an in-process server with its state under a fresh temp dir.
fn start_server(name: &str, ledger: Option<&str>) -> (Server, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut cfg = ServerConfig::new(temp_dir(name).join("state"));
    cfg.ledger = ledger.map(String::from);
    let server = Server::start(listener, cfg).expect("server starts");
    let addr = server.addr().to_string();
    (server, addr)
}

fn spawn_worker(addr: &str) -> JoinHandle<Result<(), String>> {
    let addr = addr.to_string();
    std::thread::spawn(move || run_worker(&addr))
}

/// A small two-fault campaign: grid of 3 points (baseline + 2).
fn small_spec(name: &str, seed: u64) -> Json {
    Json::parse(&format!(
        r#"{{"name":"{name}","faults":["flit-corruption","ack-loss"],
            "cycles":500,"seed":{seed},"rates":[0.02]}}"#
    ))
    .expect("valid spec")
}

/// The serial one-shot report for a spec — the byte-identity reference.
fn reference_report(spec_json: &Json) -> String {
    let spec = CampaignSpec::from_json(spec_json).expect("valid spec");
    let cfg = spec.config();
    if spec.warm_start > 0 {
        let warm = warm_checkpoint(&campaign_spec(), &cfg, spec.warm_start).expect("warm-up");
        run_campaign_warm(&campaign_spec(), &spec.faults, &cfg, &warm)
            .expect("reference campaign")
            .to_json()
    } else {
        run_campaign(&campaign_spec(), &spec.faults, &cfg)
            .expect("reference campaign")
            .to_json()
    }
}

fn submit_id(addr: &str, spec: &Json) -> u64 {
    let reply = client::submit(addr, spec).expect("submit accepted");
    reply.get("id").and_then(Json::as_u64).expect("reply id")
}

/// Watches a campaign to completion; returns (done message, progress lines).
fn watch_done(addr: &str, id: u64) -> (Json, Vec<Json>) {
    let mut lines = Vec::new();
    let done = client::watch(addr, id, &mut |line| lines.push(line.clone())).expect("watch");
    (done, lines)
}

#[test]
fn sharded_campaign_is_byte_identical_to_one_shot() {
    let (server, addr) = start_server("shard", None);
    let workers = [spawn_worker(&addr), spawn_worker(&addr)];
    let spec = small_spec("shard", 11);
    let id = submit_id(&addr, &spec);

    let (done, lines) = watch_done(&addr, id);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    assert!(
        matches!(done.get("pass"), Some(Json::Bool(true))),
        "{done:?}"
    );
    // The watch stream is the deterministic ascending-order journal.
    let points: Vec<u64> = lines
        .iter()
        .map(|l| l.get("point").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(points, vec![0, 1, 2]);

    let (pass, bytes) = client::fetch_report(&addr, id).expect("report");
    assert!(pass);
    assert_eq!(String::from_utf8(bytes).unwrap(), reference_report(&spec));

    server.shutdown();
    for w in workers {
        w.join().unwrap().expect("worker exits cleanly");
    }
}

#[test]
fn warm_start_checkpoint_ships_to_workers_byte_identically() {
    let (server, addr) = start_server("warm", None);
    let workers = [spawn_worker(&addr), spawn_worker(&addr)];
    let spec = Json::parse(
        r#"{"name":"warm","faults":["flit-corruption"],"cycles":400,
            "seed":31,"rates":[0.02],"warm_start":300}"#,
    )
    .unwrap();
    let id = submit_id(&addr, &spec);
    let (done, _) = watch_done(&addr, id);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    let (_, bytes) = client::fetch_report(&addr, id).expect("report");
    assert_eq!(String::from_utf8(bytes).unwrap(), reference_report(&spec));
    server.shutdown();
    for w in workers {
        w.join().unwrap().expect("worker exits cleanly");
    }
}

#[test]
fn two_concurrent_campaigns_merge_without_interleaving() {
    let (server, addr) = start_server("tenants", None);
    let workers = [spawn_worker(&addr), spawn_worker(&addr)];
    let spec_a = small_spec("tenant-a", 11);
    let spec_b = Json::parse(
        r#"{"name":"tenant-b","faults":["ack-corruption","output-stall"],
            "cycles":500,"seed":23,"rates":[0.01]}"#,
    )
    .unwrap();
    let id_a = submit_id(&addr, &spec_a);
    let id_b = submit_id(&addr, &spec_b);
    assert_ne!(id_a, id_b);

    let (done_a, _) = watch_done(&addr, id_a);
    let (done_b, _) = watch_done(&addr, id_b);
    assert_eq!(done_a.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(done_b.get("state").and_then(Json::as_str), Some("done"));

    let (_, bytes_a) = client::fetch_report(&addr, id_a).expect("report a");
    let (_, bytes_b) = client::fetch_report(&addr, id_b).expect("report b");
    let (report_a, report_b) = (
        String::from_utf8(bytes_a).unwrap(),
        String::from_utf8(bytes_b).unwrap(),
    );
    assert_eq!(report_a, reference_report(&spec_a));
    assert_eq!(report_b, reference_report(&spec_b));
    assert_ne!(report_a, report_b);

    server.shutdown();
    for w in workers {
        w.join().unwrap().expect("worker exits cleanly");
    }
}

/// A hand-driven worker connection for failure injection.
struct ManualWorker {
    stream: TcpStream,
    /// `warm` messages read so far.
    warm_seen: usize,
}

impl ManualWorker {
    fn connect(addr: &str) -> Self {
        let mut stream = TcpStream::connect(addr).expect("connect");
        proto::write_json(&mut stream, &proto::msg("worker").build()).unwrap();
        let hello = proto::read_json(&mut stream).unwrap();
        assert_eq!(proto::msg_type(&hello), "ok");
        ManualWorker {
            stream,
            warm_seen: 0,
        }
    }

    /// Polls and returns the `work` message, reading past a `warm`
    /// message and its blob (counted in `warm_seen`).
    fn take_work(&mut self) -> Json {
        proto::write_json(&mut self.stream, &proto::msg("poll").build()).unwrap();
        let mut work = proto::read_json(&mut self.stream).unwrap();
        if proto::msg_type(&work) == "warm" {
            proto::read_blob(&mut self.stream).unwrap();
            self.warm_seen += 1;
            work = proto::read_json(&mut self.stream).unwrap();
        }
        assert_eq!(proto::msg_type(&work), "work", "{work:?}");
        work
    }

    fn send_result_blob(&mut self, work: &Json, blob: &[u8]) {
        let reply = proto::msg("result")
            .field("campaign", work.get("campaign").unwrap().clone())
            .field("point", work.get("point").unwrap().clone())
            .build();
        proto::write_json(&mut self.stream, &reply).unwrap();
        proto::write_blob(&mut self.stream, blob).unwrap();
    }

    fn send_reject(&mut self, work: &Json, reason: &str) {
        let reply = proto::msg("reject")
            .field("campaign", work.get("campaign").unwrap().clone())
            .field("point", work.get("point").unwrap().clone())
            .field("reason", Json::str(reason))
            .build();
        proto::write_json(&mut self.stream, &reply).unwrap();
    }
}

#[test]
fn killed_worker_shard_is_reassigned() {
    let (server, addr) = start_server("kill", None);
    let spec = small_spec("kill", 17);
    let id = submit_id(&addr, &spec);

    // A worker takes a point, then its connection dies mid-compute.
    let mut doomed = ManualWorker::connect(&addr);
    let work = doomed.take_work();
    let taken = work.get("point").and_then(Json::as_u64).expect("point");
    drop(doomed);

    // A healthy worker joins afterwards and must recompute the lost
    // shard too — the report stays byte-identical.
    let worker = spawn_worker(&addr);
    let (done, lines) = watch_done(&addr, id);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    assert!(
        lines
            .iter()
            .any(|l| l.get("point").and_then(Json::as_u64) == Some(taken)),
        "reassigned point {taken} never completed"
    );
    let (_, bytes) = client::fetch_report(&addr, id).expect("report");
    assert_eq!(String::from_utf8(bytes).unwrap(), reference_report(&spec));

    server.shutdown();
    worker.join().unwrap().expect("worker exits cleanly");
}

#[test]
fn damaged_xpsn_containers_bounce_cleanly_at_the_boundary() {
    // Worker side: a truncated or bit-flipped warm checkpoint is a
    // one-line rejection, never a panic.
    let spec = CampaignSpec::from_json(
        &Json::parse(
            r#"{"faults":["flit-corruption"],"cycles":300,"rates":[0.02],"warm_start":200}"#,
        )
        .unwrap(),
    )
    .unwrap();
    let warm = warm_checkpoint(&campaign_spec(), &spec.config(), 200)
        .expect("warm-up")
        .to_bytes();
    let assignment = |warm: Option<Vec<u8>>, point: u64| Assignment {
        campaign: 1,
        point,
        spec: spec.clone(),
        warm,
    };
    let truncated = warm[..warm.len() - 7].to_vec();
    let err = execute(&assignment(Some(truncated), 1)).unwrap_err();
    assert!(err.contains("damaged warm checkpoint"), "{err}");
    assert!(!err.contains('\n'), "{err}");
    let mut flipped = warm.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    let err = execute(&assignment(Some(flipped), 1)).unwrap_err();
    assert!(err.contains("damaged warm checkpoint"), "{err}");
    let err = execute(&assignment(None, 99)).unwrap_err();
    assert!(err.contains("out of range"), "{err}");

    // Server side: a reject and a corrupt result container both
    // reschedule the point, and the campaign still merges correctly.
    let (server, addr) = start_server("bounce", None);
    let spec_json = small_spec("bounce", 41);
    let id = submit_id(&addr, &spec_json);
    let mut saboteur = ManualWorker::connect(&addr);
    let work = saboteur.take_work();
    saboteur.send_reject(&work, "damaged warm checkpoint: integrity mismatch");
    let work = saboteur.take_work();
    saboteur.send_result_blob(&work, b"XPSNnot really a container");
    drop(saboteur);

    let worker = spawn_worker(&addr);
    let (done, _) = watch_done(&addr, id);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    let (_, bytes) = client::fetch_report(&addr, id).expect("report");
    assert_eq!(
        String::from_utf8(bytes).unwrap(),
        reference_report(&spec_json)
    );

    server.shutdown();
    worker.join().unwrap().expect("worker exits cleanly");
}

/// A warm-started campaign of `1 + rates` grid points, 300 cycles each.
fn warm_spec(name: &str, seed: u64, rates: usize) -> Json {
    let rates: Vec<String> = (1..=rates)
        .map(|i| format!("{}", 0.01 * i as f64))
        .collect();
    Json::parse(&format!(
        r#"{{"name":"{name}","faults":["flit-corruption"],"cycles":300,
            "seed":{seed},"rates":[{}],"warm_start":300}}"#,
        rates.join(",")
    ))
    .expect("valid spec")
}

#[test]
fn warm_checkpoint_travels_once_per_connection_and_again_after_a_reject() {
    let (server, addr) = start_server("warm_once", None);
    let spec = warm_spec("warm-once", 37, 4);
    let id = submit_id(&addr, &spec);

    let mut manual = ManualWorker::connect(&addr);
    let first = manual.take_work();
    assert!(matches!(first.get("warm"), Some(Json::Bool(true))));
    assert_eq!(
        manual.warm_seen, 1,
        "one warm message ahead of the first work"
    );
    let mut last = first;
    for _ in 1..5 {
        last = manual.take_work();
    }
    assert_eq!(manual.warm_seen, 1, "none ahead of the next four");

    manual.send_reject(&last, "damaged warm checkpoint: integrity mismatch");
    let again = manual.take_work();
    assert_eq!(again.get("point"), last.get("point"));
    assert_eq!(manual.warm_seen, 2, "a reject makes the server resend");
    drop(manual);

    // All five points were in flight on the dropped connection; a real
    // worker (a new connection, so a fresh warm message) finishes them.
    let worker = spawn_worker(&addr);
    let (done, _) = watch_done(&addr, id);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    let (_, bytes) = client::fetch_report(&addr, id).expect("report");
    assert_eq!(String::from_utf8(bytes).unwrap(), reference_report(&spec));
    server.shutdown();
    worker.join().unwrap().expect("worker exits cleanly");
}

#[test]
fn interleaved_warm_tenants_on_one_worker_never_fork_from_the_wrong_state() {
    let (server, addr) = start_server("warm_tenants", None);
    let spec_a = warm_spec("warm-a", 41, 3);
    let spec_b = warm_spec("warm-b", 43, 3);
    // Both queued before the only worker joins: round-robin hands it
    // a, b, a, b, … so its held warm state is replaced at every point.
    let id_a = submit_id(&addr, &spec_a);
    let id_b = submit_id(&addr, &spec_b);
    let worker = spawn_worker(&addr);
    for (id, spec) in [(id_a, &spec_a), (id_b, &spec_b)] {
        let (done, _) = watch_done(&addr, id);
        assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
        let (_, bytes) = client::fetch_report(&addr, id).expect("report");
        assert_eq!(String::from_utf8(bytes).unwrap(), reference_report(spec));
    }
    server.shutdown();
    worker.join().unwrap().expect("worker exits cleanly");
}

#[test]
fn real_worker_rejects_damaged_or_missing_warm_state_and_accepts_a_good_one() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let worker = spawn_worker(&listener.local_addr().unwrap().to_string());
    let (mut stream, _) = listener.accept().expect("worker connects");
    let hello = proto::read_json(&mut stream).unwrap();
    assert_eq!(proto::msg_type(&hello), "worker");
    proto::write_json(&mut stream, &proto::msg("ok").build()).unwrap();

    let spec = CampaignSpec::from_json(&warm_spec("played", 47, 1)).unwrap();
    let good = warm_checkpoint(&campaign_spec(), &spec.config(), spec.warm_start)
        .expect("warm-up")
        .to_bytes();
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;

    // Answers the worker's next poll with an optional `warm` message
    // for campaign 1 and a warm `work` for `campaign`; returns its reply.
    let mut serve = |warm: Option<&[u8]>, campaign: u64| {
        let poll = proto::read_json(&mut stream).unwrap();
        assert_eq!(proto::msg_type(&poll), "poll");
        if let Some(blob) = warm {
            let msg = proto::msg("warm").field("campaign", Json::UInt(1)).build();
            proto::write_json(&mut stream, &msg).unwrap();
            proto::write_blob(&mut stream, blob).unwrap();
        }
        let work = proto::msg("work")
            .field("campaign", Json::UInt(campaign))
            .field("point", Json::UInt(1))
            .field("spec", spec.to_json())
            .field("warm", Json::Bool(true))
            .build();
        proto::write_json(&mut stream, &work).unwrap();
        let reply = proto::read_json(&mut stream).unwrap();
        let blob =
            (proto::msg_type(&reply) == "result").then(|| proto::read_blob(&mut stream).unwrap());
        (reply, blob)
    };
    let reason = |reply: &Json| {
        assert_eq!(proto::msg_type(reply), "reject", "{reply:?}");
        reply
            .get("reason")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };

    // No warm message yet: rejected, never computed cold.
    let (reply, _) = serve(None, 1);
    assert!(reason(&reply).contains("no warm checkpoint held"));
    // One flipped bit.
    let (reply, _) = serve(Some(&flipped), 1);
    let why = reason(&reply);
    assert!(why.contains("damaged warm checkpoint"), "{why}");
    assert!(!why.contains('\n'), "{why}");
    // The damaged blob stays the held state until replaced.
    let (reply, _) = serve(None, 1);
    assert!(reason(&reply).contains("damaged warm checkpoint"));
    // A good checkpoint replaces it; another campaign's point still
    // has nothing to fork from.
    let (reply, blob) = serve(Some(&good), 1);
    assert_eq!(proto::msg_type(&reply), "result", "{reply:?}");
    let point = CompletedPoint::from_bytes(&blob.unwrap()).expect("result container decodes");
    assert_eq!(point.index, 1);
    let (reply, _) = serve(None, 2);
    assert!(reason(&reply).contains("no warm checkpoint held"));

    let poll = proto::read_json(&mut stream).unwrap();
    assert_eq!(proto::msg_type(&poll), "poll");
    proto::write_json(&mut stream, &proto::msg("shutdown").build()).unwrap();
    worker.join().unwrap().expect("worker exits cleanly");
}

#[test]
fn a_megabyte_of_open_brackets_does_not_take_the_daemon_down() {
    use std::io::Write;
    let (server, addr) = start_server("deepjson", None);

    // A JSON frame (kind byte 0) of 1 MB of '['. An unbounded recursive
    // parse overflows the connection thread's stack, which aborts the
    // whole process, not just the connection.
    let payload = vec![b'['; 1 << 20];
    let mut frame = vec![0u8];
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let mut stream = proto::connect(&addr).expect("connect");
    stream.write_all(&frame).expect("frame sent");
    // An error reply or a closed connection are both fine.
    if let Ok(reply) = proto::read_json(&mut stream) {
        assert_eq!(proto::msg_type(&reply), "error", "{reply:?}");
    }

    let status = client::request(&addr, &proto::msg("status").build()).expect("still serving");
    assert_eq!(proto::msg_type(&status), "ok", "{status:?}");
    server.shutdown();
}

#[test]
fn a_point_costs_its_work_not_a_delayed_ack() {
    let (server, addr) = start_server("nodelay", None);
    assert!(proto::connect(&addr).expect("connect").nodelay().unwrap());

    // 20 points of well under a millisecond each. Without TCP_NODELAY
    // on both ends every point waits one ~40 ms delayed ACK (>= 800 ms).
    let worker = spawn_worker(&addr);
    let spec = warm_spec("nodelay", 53, 19);
    let id = submit_id(&addr, &spec);
    let started = std::time::Instant::now();
    let (done, lines) = watch_done(&addr, id);
    let elapsed = started.elapsed();
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(lines.len(), 20);
    assert!(
        elapsed < std::time::Duration::from_millis(400),
        "20 short points took {elapsed:?}"
    );
    server.shutdown();
    worker.join().unwrap().expect("worker exits cleanly");
}

#[test]
fn pause_resume_and_cancel_steer_scheduling() {
    let (server, addr) = start_server("steer", None);
    let spec = small_spec("steer", 53);
    let id = submit_id(&addr, &spec);

    // Paused campaigns hand out no work, so a worker joining now idles.
    let reply = client::request(
        &addr,
        &proto::msg("pause").field("id", Json::UInt(id)).build(),
    )
    .expect("pause");
    assert_eq!(reply.get("state").and_then(Json::as_str), Some("paused"));
    // A paused campaign is still active: an identical concurrent
    // submission is refused rather than double-journaled.
    let err = client::submit(&addr, &spec).unwrap_err();
    assert!(err.contains("already active"), "{err}");
    let worker = spawn_worker(&addr);
    std::thread::sleep(std::time::Duration::from_millis(100));
    let status = client::request(&addr, &proto::msg("status").build()).expect("status");
    let row = &status.get("campaigns").and_then(Json::as_array).unwrap()[0];
    assert_eq!(row.get("state").and_then(Json::as_str), Some("paused"));
    assert_eq!(row.get("completed").and_then(Json::as_u64), Some(0));

    let reply = client::request(
        &addr,
        &proto::msg("resume").field("id", Json::UInt(id)).build(),
    )
    .expect("resume");
    assert_eq!(reply.get("state").and_then(Json::as_str), Some("running"));
    let (done, _) = watch_done(&addr, id);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));

    // Cancel a second campaign; its report is refused with one line.
    let id2 = submit_id(&addr, &small_spec("steer-2", 59));
    let reply = client::request(
        &addr,
        &proto::msg("cancel").field("id", Json::UInt(id2)).build(),
    )
    .expect("cancel");
    assert_eq!(reply.get("state").and_then(Json::as_str), Some("canceled"));
    let (done2, _) = watch_done(&addr, id2);
    assert_eq!(done2.get("state").and_then(Json::as_str), Some("canceled"));
    let err = client::fetch_report(&addr, id2).unwrap_err();
    assert!(err.contains("canceled"), "{err}");
    assert!(!err.contains('\n'), "{err}");

    // Terminal campaigns refuse further transitions.
    let err = client::request(
        &addr,
        &proto::msg("pause").field("id", Json::UInt(id)).build(),
    )
    .unwrap_err();
    assert!(err.contains("cannot pause"), "{err}");

    server.shutdown();
    worker.join().unwrap().expect("worker exits cleanly");
}

#[test]
fn resubmit_resumes_from_journal_with_one_ledger_record() {
    let dir = temp_dir("ledger");
    let ledger_path = dir.join("ledger.ndjson");
    let ledger_str = ledger_path.to_str().unwrap().to_string();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut cfg = ServerConfig::new(dir.join("state"));
    cfg.ledger = Some(ledger_str.clone());
    let server = Server::start(listener, cfg).expect("server starts");
    let addr = server.addr().to_string();
    let worker = spawn_worker(&addr);

    // Five grid points, so there is a point 3 and a point 4 to tear.
    let spec = Json::parse(
        r#"{"name":"ledgered","faults":["flit-corruption","ack-loss"],
            "cycles":500,"seed":67,"rates":[0.02,0.04]}"#,
    )
    .unwrap();
    let id = submit_id(&addr, &spec);
    let (done, _) = watch_done(&addr, id);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    let (_, first) = client::fetch_report(&addr, id).expect("report");

    // Resubmitting the same spec resumes fully from the journal (no
    // recompute) and the marker guard keeps the ledger at one record.
    let reply = client::submit(&addr, &spec).expect("resubmit");
    let id2 = reply.get("id").and_then(Json::as_u64).unwrap();
    let grid = reply.get("grid").and_then(Json::as_u64).unwrap();
    assert_ne!(id2, id);
    assert_eq!(reply.get("resumed").and_then(Json::as_u64), Some(grid));
    let (done2, lines2) = watch_done(&addr, id2);
    assert_eq!(done2.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(
        lines2.len() as u64,
        grid,
        "full journal replays to watchers"
    );
    let (_, second) = client::fetch_report(&addr, id2).expect("report");
    assert_eq!(first, second, "journal resume is byte-identical");

    // A daemon killed between writing `point-3.bin.tmp` and renaming
    // it, and a `point-4.bin` torn by a writer that did not rename:
    // neither loads, both points are recomputed, same report.
    let journal = std::fs::read_dir(dir.join("state"))
        .expect("state dir")
        .next()
        .expect("one campaign directory")
        .unwrap()
        .path();
    let whole = std::fs::read(journal.join("point-3.bin")).unwrap();
    std::fs::remove_file(journal.join("point-3.bin")).unwrap();
    std::fs::write(journal.join("point-3.bin.tmp"), &whole[..whole.len() / 2]).unwrap();
    let whole = std::fs::read(journal.join("point-4.bin")).unwrap();
    std::fs::write(journal.join("point-4.bin"), &whole[..whole.len() - 9]).unwrap();
    let reply = client::submit(&addr, &spec).expect("resubmit over a torn journal");
    let id3 = reply.get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(reply.get("resumed").and_then(Json::as_u64), Some(grid - 2));
    let (done3, _) = watch_done(&addr, id3);
    assert_eq!(done3.get("state").and_then(Json::as_str), Some("done"));
    let (_, third) = client::fetch_report(&addr, id3).expect("report");
    assert_eq!(
        first, third,
        "recomputed torn points merge byte-identically"
    );
    assert!(!journal.join("point-3.bin.tmp").exists());

    let entries = xpipes_bench::ledger::read_ledger(&ledger_str).expect("ledger validates");
    assert_eq!(entries.len(), 1, "exactly one record despite three submits");
    assert_eq!(entries[0].workload(), "fault-campaign");

    server.shutdown();
    worker.join().unwrap().expect("worker exits cleanly");
}

/// The library path `faultcampaign --resume` runs: open the journal,
/// load what it holds, run the rest through the one runner with the
/// journal as the per-point hook. Returns (points held, report).
fn cli_resume(dir: &std::path::Path, spec: &CampaignSpec, stop_after: usize) -> (usize, String) {
    let cfg = spec.config();
    let journal =
        Journal::open(dir, spec.fingerprint(), spec.grid(), spec.warm_start).expect("opens");
    let warm = journal.warm(&campaign_spec(), &cfg).expect("warm-up");
    let held = journal.load_points().expect("loads");
    let resumed = held.len();
    let mut fresh = 0;
    let run = run_campaign_streaming::<Box<dyn std::error::Error>>(
        &campaign_spec(),
        &spec.faults,
        &cfg,
        warm.as_ref(),
        1,
        1,
        held,
        &mut |point| {
            // A "kill": the process stops before journaling this point.
            if fresh == stop_after {
                return Err("killed".into());
            }
            fresh += 1;
            Ok(journal.record(point)?)
        },
    );
    (
        resumed,
        run.map_or_else(|e| e.to_string(), |(r, _)| r.to_json()),
    )
}

/// docs/checkpointing.md and docs/campaign-service.md: journals
/// interoperate between the one-shot CLI and the daemon in both
/// directions, because both keep them through the one `Journal`.
#[test]
fn journals_interoperate_between_cli_and_daemon_in_both_directions() {
    let dir = temp_dir("interop");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server =
        Server::start(listener, ServerConfig::new(dir.join("state"))).expect("server starts");
    let addr = server.addr().to_string();
    let worker = spawn_worker(&addr);

    // CLI → daemon: a warm campaign the CLI path left half-done (three
    // of six points) sits where the daemon will look for it.
    let spec_json = warm_spec("interop-warm", 71, 5);
    let spec = CampaignSpec::from_json(&spec_json).unwrap();
    let daemon_dir = |spec: &CampaignSpec| {
        dir.join("state")
            .join(format!("c{:016x}-w{}", spec.fingerprint(), spec.warm_start))
    };
    let (held, killed) = cli_resume(&daemon_dir(&spec), &spec, 3);
    assert_eq!((held, killed.as_str()), (0, "killed"));
    // On-disk contract: these exact bytes are what every build since the
    // journal was introduced has written, so old journals still resume.
    assert_eq!(
        std::fs::read_to_string(daemon_dir(&spec).join("meta.json")).unwrap(),
        format!(
            "{{\n  \"campaign\": \"faultcampaign\",\n  \"fingerprint\": \"{:016x}\",\n  \
             \"grid\": 6,\n  \"warm_cycles\": 300\n}}\n",
            spec.fingerprint()
        )
    );
    let reply = client::submit(&addr, &spec_json).expect("submit over a CLI journal");
    assert_eq!(reply.get("resumed").and_then(Json::as_u64), Some(3));
    let id = reply.get("id").and_then(Json::as_u64).unwrap();
    let (done, _) = watch_done(&addr, id);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    let (_, served) = client::fetch_report(&addr, id).expect("report");
    assert_eq!(
        String::from_utf8(served).unwrap(),
        reference_report(&spec_json),
        "daemon finished the CLI's journal byte-identically"
    );

    // Daemon → CLI: a directory the daemon wrote, two points lost, is
    // finished by the CLI path.
    let spec_json = small_spec("interop-cold", 73);
    let spec = CampaignSpec::from_json(&spec_json).unwrap();
    let id = submit_id(&addr, &spec_json);
    let (done, _) = watch_done(&addr, id);
    assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    for lost in ["point-0.bin", "point-2.bin"] {
        std::fs::remove_file(daemon_dir(&spec).join(lost)).unwrap();
    }
    let (held, report) = cli_resume(&daemon_dir(&spec), &spec, usize::MAX);
    assert_eq!(held as u64, spec.grid() - 2);
    assert_eq!(report, reference_report(&spec_json));

    server.shutdown();
    worker.join().unwrap().expect("worker exits cleanly");
}

#[test]
fn binaries_shard_kill_and_merge_byte_identically() {
    let dir = temp_dir("bins");
    let port_file = dir.join("xpipesd.port");
    let spec_path = dir.join("campaign.json");
    // Big enough that the kill below lands mid-campaign.
    let spec =
        Json::parse(r#"{"name":"bins","faults":"all","cycles":6000,"seed":7,"rates":[0.02,0.05]}"#)
            .unwrap();
    std::fs::write(&spec_path, spec.render_compact()).unwrap();

    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_xpipesd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--state-dir",
            dir.join("state").to_str().unwrap(),
        ])
        .spawn()
        .expect("spawn xpipesd");
    let addr = {
        let mut tries = 0;
        loop {
            match std::fs::read_to_string(&port_file) {
                Ok(text) if text.trim().contains(':') => break text.trim().to_string(),
                _ => {
                    tries += 1;
                    assert!(tries < 100, "xpipesd never wrote its port file");
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
            }
        }
    };

    let spawn_worker_proc = || {
        std::process::Command::new(env!("CARGO_BIN_EXE_xpipesd"))
            .args(["--worker", "--connect", &addr])
            .spawn()
            .expect("spawn worker")
    };
    let mut victim = spawn_worker_proc();
    let mut survivor = spawn_worker_proc();

    let adm = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_xpipesadm"))
            .args(["--connect", &addr])
            .args(args)
            .output()
            .expect("run xpipesadm")
    };
    let submit = adm(&["submit", spec_path.to_str().unwrap()]);
    assert!(
        submit.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&submit.stderr)
    );

    // Kill one worker mid-campaign; its shard must be reassigned.
    std::thread::sleep(std::time::Duration::from_millis(400));
    victim.kill().expect("kill worker");
    let _ = victim.wait();

    let watch = adm(&["watch", "1"]);
    assert!(
        watch.status.success(),
        "watch failed: {}",
        String::from_utf8_lossy(&watch.stderr)
    );
    let report_path = dir.join("service-report.json");
    let report = adm(&["report", "1", "--out", report_path.to_str().unwrap()]);
    assert!(
        report.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    let served = std::fs::read_to_string(&report_path).unwrap();
    assert_eq!(served, reference_report(&spec), "byte-identity across kill");

    let shutdown = adm(&["shutdown"]);
    assert!(shutdown.status.success());
    let _ = daemon.wait();
    let _ = survivor.wait();
}
