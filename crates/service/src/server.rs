//! The `xpipesd` campaign server.
//!
//! One listener thread accepts TCP connections; each connection gets a
//! handler thread. A connection is either a **worker** (it announces
//! itself with a `worker` message, then polls for grid points) or an
//! **operator** (it issues `submit`/`status`/`watch`/`pause`/`resume`/
//! `cancel`/`report`/`shutdown` commands — the `xpipesadm` verbs).
//!
//! # Shard lifecycle
//!
//! A submitted campaign is normalized to a [`CampaignSpec`], its grid
//! points become the pending queue, and workers pull one point at a
//! time: the unit of distribution is `(spec, point index)` plus — for
//! warm-started campaigns — the shared `XPSN` warm checkpoint blob,
//! sent in a `warm` message once per worker connection and campaign
//! switch (a connection holds at most one campaign's warm state).
//! Every completed point comes back as an `XPSN` `CompletedPoint`
//! container, is integrity-checked, journaled to the campaign's state
//! directory (an `xpipes_traffic::journal::Journal`, the same one
//! `faultcampaign --resume` keeps), and folded into the report once the
//! grid is complete. Because every point is a pure function of (seed,
//! index), the merged report is byte-identical to the one-shot run no
//! matter how the grid was sharded, reassigned, or resumed.
//!
//! # Failure and reassignment
//!
//! A worker that disconnects mid-point (killed, crashed, unplugged)
//! releases its in-flight points back to the front of the pending
//! queue; a worker that rejects a point (bad warm blob, decode error)
//! or returns a corrupt result container does the same, and a reject
//! also makes the server resend the warm checkpoint on that connection.
//! Each bounce burns one of the point's attempts; a point that keeps
//! bouncing fails the campaign instead of looping forever.
//!
//! # Multi-tenant scheduling
//!
//! One worker pool serves every campaign. Work is handed out fair
//! round-robin: each assignment starts scanning from the campaign
//! after the one that was served last, so two concurrent campaigns
//! interleave their grids instead of running strictly in submission
//! order. Paused campaigns are skipped (their in-flight points still
//! complete); canceled campaigns drop their queue.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use xpipes_bench::ledger;
use xpipes_sim::Json;
use xpipes_traffic::faultcampaign::{
    assemble_report, campaign_spec, progress_line, CampaignConfig, CompletedPoint,
};
use xpipes_traffic::journal::Journal;

use crate::proto::{self, ProtoError};
use crate::spec::CampaignSpec;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Root of the per-campaign journal directories.
    pub state_dir: PathBuf,
    /// Run ledger completed campaigns append their summed record to.
    pub ledger: Option<String>,
    /// How many times one grid point may bounce (worker loss, reject,
    /// corrupt result) before the campaign is declared failed.
    pub max_point_attempts: u32,
}

impl ServerConfig {
    /// Defaults: no ledger, five attempts per point.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            state_dir: state_dir.into(),
            ledger: None,
            max_point_attempts: 5,
        }
    }
}

/// Campaign lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    Paused,
    Done,
    Canceled,
    Failed,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Running => "running",
            Phase::Paused => "paused",
            Phase::Done => "done",
            Phase::Canceled => "canceled",
            Phase::Failed => "failed",
        }
    }

    fn terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Canceled | Phase::Failed)
    }
}

struct Campaign {
    id: u64,
    spec: CampaignSpec,
    /// Cached canonical wire form, relayed verbatim to workers so the
    /// grid they compute is bit-identical to the one submitted.
    spec_wire: Json,
    fingerprint: u64,
    grid: u64,
    cfg: CampaignConfig,
    journal: Journal,
    /// Shared warm checkpoint blob, shipped to a worker connection
    /// ahead of its first assignment from this campaign.
    warm: Option<Arc<Vec<u8>>>,
    pending: VecDeque<u64>,
    /// point -> connection currently computing it.
    in_flight: HashMap<u64, u64>,
    attempts: HashMap<u64, u32>,
    completed: BTreeMap<u64, CompletedPoint>,
    /// Progress lines in ascending grid order; `watch` streams go
    /// through here, so every watcher sees the same deterministic
    /// NDJSON regardless of completion order.
    log: Vec<Json>,
    next_emit: u64,
    phase: Phase,
    error: Option<String>,
    pass: bool,
    /// Exact bytes of the merged report (the byte-identity artifact).
    report: Option<Arc<Vec<u8>>>,
    started: Instant,
}

struct State {
    campaigns: Vec<Campaign>,
    next_id: u64,
    /// Round-robin cursor: index of the campaign to scan first.
    rr: usize,
    workers: usize,
    shutdown: bool,
}

struct Shared {
    cfg: ServerConfig,
    state: Mutex<State>,
    /// Rung on every state change; workers and watchers wait on it.
    bell: Condvar,
    addr: SocketAddr,
}

/// One grid point handed to a worker.
struct Assignment {
    campaign: u64,
    point: u64,
    spec_wire: Json,
    warm: Option<Arc<Vec<u8>>>,
}

/// A running `xpipesd` server.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts serving on `listener`; returns once the accept thread is
    /// up. Journal directories live under the config's `state_dir`.
    ///
    /// # Errors
    ///
    /// Propagates state-directory creation and listener failures.
    pub fn start(listener: TcpListener, cfg: ServerConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(State {
                campaigns: Vec::new(),
                next_id: 1,
                rr: 0,
                workers: 0,
                shutdown: false,
            }),
            bell: Condvar::new(),
            addr,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("xpipesd-accept".into())
            .spawn(move || {
                let mut next_conn = 0u64;
                while let Ok((stream, _)) = listener.accept() {
                    if accept_shared.state.lock().unwrap().shutdown {
                        break;
                    }
                    if let Err(e) = stream.set_nodelay(true) {
                        eprintln!("xpipesd: cannot set TCP_NODELAY on a connection: {e}");
                    }
                    next_conn += 1;
                    let conn = next_conn;
                    let conn_shared = Arc::clone(&accept_shared);
                    let _ = std::thread::Builder::new()
                        .name(format!("xpipesd-conn-{conn}"))
                        .spawn(move || handle_conn(&conn_shared, stream, conn));
                }
            })?;
        Ok(Server {
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port-0 listeners).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Stops accepting, wakes every blocked worker and watcher with the
    /// shutdown flag, and waits for the accept thread to exit.
    pub fn shutdown(mut self) {
        request_shutdown(&self.shared);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Blocks until a `shutdown` command arrives over the wire (the
    /// `xpipesd` main loop).
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn request_shutdown(shared: &Shared) {
    {
        let mut st = shared.state.lock().unwrap();
        st.shutdown = true;
    }
    shared.bell.notify_all();
    // The accept loop blocks in accept(); a throwaway connection makes
    // it observe the flag.
    let _ = TcpStream::connect(shared.addr);
}

fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream, conn: u64) {
    let mut registered = false;
    let _ = serve_conn(shared, &mut stream, conn, &mut registered);
    if registered {
        let mut st = shared.state.lock().unwrap();
        st.workers -= 1;
        release_worker_points(&mut st, conn, shared.cfg.max_point_attempts);
        drop(st);
        shared.bell.notify_all();
    }
}

fn serve_conn(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    conn: u64,
    registered: &mut bool,
) -> Result<(), ProtoError> {
    // The campaign whose warm checkpoint this connection's worker
    // holds: the last `warm` message sent on it.
    let mut warm_sent: Option<u64> = None;
    loop {
        let msg = match proto::read_json(stream) {
            Ok(msg) => msg,
            Err(ProtoError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        match proto::msg_type(&msg) {
            "worker" => {
                if !*registered {
                    *registered = true;
                    shared.state.lock().unwrap().workers += 1;
                }
                proto::write_json(stream, &proto::msg("ok").build()).map_err(ProtoError::Io)?;
            }
            "poll" => {
                if !*registered {
                    reply_error(stream, "poll from an unregistered connection")?;
                    continue;
                }
                if !send_next_work(shared, stream, conn, &mut warm_sent)? {
                    return Ok(());
                }
            }
            "result" => {
                let point = field_u64(&msg, "point")?;
                let campaign = field_u64(&msg, "campaign")?;
                let blob = proto::read_blob(stream)?;
                match CompletedPoint::from_bytes(&blob) {
                    Ok(cp) if cp.index == point => {
                        complete_point(shared, campaign, cp);
                    }
                    Ok(cp) => reschedule(
                        shared,
                        campaign,
                        point,
                        &format!(
                            "result container holds grid point {}, expected {point}",
                            cp.index
                        ),
                    ),
                    // A damaged container is indistinguishable from a
                    // worker bug: bounce the point like a reject.
                    Err(e) => reschedule(
                        shared,
                        campaign,
                        point,
                        &format!("corrupt result container: {e}"),
                    ),
                }
            }
            "reject" => {
                let point = field_u64(&msg, "point")?;
                let campaign = field_u64(&msg, "campaign")?;
                let reason = msg
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("worker rejected the point");
                // Whatever the worker holds may be what it rejected.
                warm_sent = None;
                reschedule(shared, campaign, point, reason);
            }
            "submit" => match handle_submit(shared, &msg) {
                Ok(reply) => proto::write_json(stream, &reply).map_err(ProtoError::Io)?,
                Err(e) => reply_error(stream, &e)?,
            },
            "status" => {
                let reply = status_reply(shared);
                proto::write_json(stream, &reply).map_err(ProtoError::Io)?;
            }
            "watch" => {
                let id = field_u64(&msg, "id")?;
                watch(shared, stream, id)?;
            }
            "report" => {
                let id = field_u64(&msg, "id")?;
                match fetch_report(shared, id) {
                    Ok((pass, bytes)) => {
                        let reply = proto::msg("ok").field("pass", Json::Bool(pass)).build();
                        proto::write_json(stream, &reply).map_err(ProtoError::Io)?;
                        proto::write_blob(stream, &bytes).map_err(ProtoError::Io)?;
                    }
                    Err(e) => reply_error(stream, &e)?,
                }
            }
            "pause" | "resume" | "cancel" => {
                let id = field_u64(&msg, "id")?;
                match transition(shared, id, proto::msg_type(&msg)) {
                    Ok(state) => {
                        let reply = proto::msg("ok").field("state", Json::str(state)).build();
                        proto::write_json(stream, &reply).map_err(ProtoError::Io)?;
                    }
                    Err(e) => reply_error(stream, &e)?,
                }
            }
            "shutdown" => {
                proto::write_json(stream, &proto::msg("ok").build()).map_err(ProtoError::Io)?;
                request_shutdown(shared);
                return Ok(());
            }
            other => reply_error(stream, &format!("unknown message type '{other}'"))?,
        }
    }
}

fn reply_error(stream: &mut TcpStream, message: &str) -> Result<(), ProtoError> {
    proto::write_json(stream, &proto::error_msg(message)).map_err(ProtoError::Io)
}

fn field_u64(msg: &Json, key: &str) -> Result<u64, ProtoError> {
    msg.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtoError::BadJson(format!("message carries no numeric '{key}'")))
}

/// Blocks until work, shutdown, or a lost connection; returns `false`
/// when the worker should wind down.
fn send_next_work(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    conn: u64,
    warm_sent: &mut Option<u64>,
) -> Result<bool, ProtoError> {
    let assignment = {
        let mut st = shared.state.lock().unwrap();
        loop {
            if st.shutdown {
                drop(st);
                proto::write_json(stream, &proto::msg("shutdown").build())
                    .map_err(ProtoError::Io)?;
                return Ok(false);
            }
            if let Some(a) = take_work(&mut st, conn) {
                break a;
            }
            st = shared.bell.wait(st).unwrap();
        }
    };
    if let Some(warm) = &assignment.warm {
        if *warm_sent != Some(assignment.campaign) {
            let msg = proto::msg("warm")
                .field("campaign", Json::UInt(assignment.campaign))
                .build();
            proto::write_json(stream, &msg).map_err(ProtoError::Io)?;
            proto::write_blob(stream, warm).map_err(ProtoError::Io)?;
            *warm_sent = Some(assignment.campaign);
        }
    }
    let work = proto::msg("work")
        .field("campaign", Json::UInt(assignment.campaign))
        .field("point", Json::UInt(assignment.point))
        .field("spec", assignment.spec_wire)
        .field("warm", Json::Bool(assignment.warm.is_some()))
        .build();
    proto::write_json(stream, &work).map_err(ProtoError::Io)?;
    Ok(true)
}

/// Fair round-robin: scan campaigns starting after the last one served;
/// the first running campaign with pending work wins.
fn take_work(st: &mut State, conn: u64) -> Option<Assignment> {
    let n = st.campaigns.len();
    for i in 0..n {
        let idx = (st.rr + i) % n;
        let c = &mut st.campaigns[idx];
        if c.phase != Phase::Running {
            continue;
        }
        if let Some(point) = c.pending.pop_front() {
            c.in_flight.insert(point, conn);
            st.rr = (idx + 1) % n;
            return Some(Assignment {
                campaign: c.id,
                point,
                spec_wire: c.spec_wire.clone(),
                warm: c.warm.clone(),
            });
        }
    }
    None
}

/// Puts every point the lost connection was computing back at the front
/// of its queue. The bounce burns an attempt so a point that keeps
/// killing workers eventually fails the campaign instead of cycling.
fn release_worker_points(st: &mut State, conn: u64, max_attempts: u32) {
    for idx in 0..st.campaigns.len() {
        let c = &mut st.campaigns[idx];
        if c.phase.terminal() {
            continue;
        }
        let lost: Vec<u64> = c
            .in_flight
            .iter()
            .filter(|&(_, &owner)| owner == conn)
            .map(|(&point, _)| point)
            .collect();
        for point in lost {
            bounce_point(c, point, "worker connection lost", max_attempts);
        }
    }
}

fn reschedule(shared: &Arc<Shared>, campaign: u64, point: u64, reason: &str) {
    let mut st = shared.state.lock().unwrap();
    if let Some(c) = st.campaigns.iter_mut().find(|c| c.id == campaign) {
        if !c.phase.terminal() {
            bounce_point(c, point, reason, shared.cfg.max_point_attempts);
        } else {
            c.in_flight.remove(&point);
        }
    }
    drop(st);
    shared.bell.notify_all();
}

fn bounce_point(c: &mut Campaign, point: u64, reason: &str, max_attempts: u32) {
    c.in_flight.remove(&point);
    if c.completed.contains_key(&point) || point >= c.grid {
        return;
    }
    let tries = c.attempts.entry(point).or_insert(0);
    *tries += 1;
    if *tries >= max_attempts {
        c.phase = Phase::Failed;
        c.error = Some(format!(
            "grid point {point} bounced {tries} times; last: {reason}"
        ));
        c.pending.clear();
        c.in_flight.clear();
    } else {
        c.pending.push_front(point);
    }
}

fn complete_point(shared: &Arc<Shared>, campaign: u64, cp: CompletedPoint) {
    let mut st = shared.state.lock().unwrap();
    if let Some(c) = st.campaigns.iter_mut().find(|c| c.id == campaign) {
        c.in_flight.remove(&cp.index);
        if !c.phase.terminal() && cp.index < c.grid && !c.completed.contains_key(&cp.index) {
            // Journal first: a server crash after this write resumes
            // with the point already done.
            if let Err(e) = c.journal.record(&cp) {
                eprintln!(
                    "xpipesd: cannot journal point {} of campaign {}: {e}",
                    cp.index, c.id
                );
            }
            record_point(c, cp);
            if c.completed.len() as u64 == c.grid {
                finalize(&shared.cfg, c);
            }
        }
    }
    drop(st);
    shared.bell.notify_all();
}

/// Folds one completed point in and emits every progress line that is
/// now contiguous from the front of the grid — watchers see the same
/// ascending, deterministic NDJSON the one-shot `--progress` stream
/// produces, regardless of shard completion order.
fn record_point(c: &mut Campaign, cp: CompletedPoint) {
    c.completed.insert(cp.index, cp);
    while let Some(p) = c.completed.get(&c.next_emit) {
        c.log.push(progress_line(&c.spec.faults, &c.cfg, p));
        c.next_emit += 1;
    }
}

/// Assembles the byte-identity report, journals it, appends the ledger
/// record (exactly once per journal, marker-guarded), and marks the
/// campaign done.
fn finalize(cfg: &ServerConfig, c: &mut Campaign) {
    let points: Vec<CompletedPoint> = c.completed.values().cloned().collect();
    let report = assemble_report(&campaign_spec(), &c.spec.faults, &c.cfg, points);
    let bytes = report.to_json().into_bytes();
    if let Err(e) = c.journal.write_report(&bytes) {
        eprintln!("xpipesd: cannot journal report for campaign {}: {e}", c.id);
    }
    if let Some(path) = &cfg.ledger {
        match ledger::append_campaign_once(
            path,
            Some(&c.journal),
            &report,
            c.fingerprint,
            c.started.elapsed().as_secs_f64(),
            None,
        ) {
            Ok(true) => {}
            Ok(false) => eprintln!(
                "xpipesd: campaign {} already has its ledger record; skipping append",
                c.id
            ),
            Err(e) => eprintln!("xpipesd: {e}"),
        }
    }
    c.pass = report.pass;
    c.report = Some(Arc::new(bytes));
    c.phase = Phase::Done;
}

/// Refuses a submission while shutting down or while a campaign with the
/// same journal directory is still active. Checked before the journal
/// is touched and again, under the same lock, when the campaign is added.
fn may_submit(st: &State, dir: &Path) -> Result<(), String> {
    if st.shutdown {
        return Err("server is shutting down".into());
    }
    match st
        .campaigns
        .iter()
        .find(|c| c.journal.dir() == dir && !c.phase.terminal())
    {
        Some(active) => Err(format!(
            "an identical campaign is already active (id {})",
            active.id
        )),
        None => Ok(()),
    }
}

fn handle_submit(shared: &Arc<Shared>, msg: &Json) -> Result<Json, String> {
    let spec_json = msg.get("spec").ok_or("submit carries no 'spec'")?;
    let spec = CampaignSpec::from_json(spec_json)?;
    let cfg = spec.config();
    let fingerprint = spec.fingerprint();
    let grid = spec.grid();
    // Keyed by fingerprint *and* warm-up: the fingerprint pins what the
    // results are a function of per measurement protocol, the warm-up
    // length selects the protocol.
    let dir = shared
        .cfg
        .state_dir
        .join(format!("c{fingerprint:016x}-w{}", spec.warm_start));
    may_submit(&shared.state.lock().unwrap(), &dir)?;
    // Filesystem work (warm-up compute, journal load) happens outside
    // the lock; workers keep draining other campaigns meanwhile.
    let journal = Journal::open(&dir, fingerprint, grid, spec.warm_start)?;
    let warm = journal.warm(&campaign_spec(), &cfg)?;
    let completed = journal.load_points()?;
    let resumed = completed.len() as u64;
    let pending = (0..grid)
        .filter(|index| completed.iter().all(|p| p.index != *index))
        .collect();
    let spec_wire = spec.to_json();

    let mut st = shared.state.lock().unwrap();
    may_submit(&st, &dir)?;
    let id = st.next_id;
    st.next_id += 1;
    let mut campaign = Campaign {
        id,
        spec,
        spec_wire,
        fingerprint,
        grid,
        cfg,
        journal,
        // The bytes `warm.bin` holds, shipped as they are.
        warm: warm.map(|w| Arc::new(w.into_bytes())),
        pending,
        in_flight: HashMap::new(),
        attempts: HashMap::new(),
        completed: BTreeMap::new(),
        log: Vec::new(),
        next_emit: 0,
        phase: Phase::Running,
        error: None,
        pass: false,
        report: None,
        started: Instant::now(),
    };
    // Journal-loaded points emit their progress lines too, so watchers
    // of a resumed campaign see the full deterministic journal.
    for point in completed {
        record_point(&mut campaign, point);
    }
    if campaign.completed.len() as u64 == grid {
        finalize(&shared.cfg, &mut campaign);
    }
    st.campaigns.push(campaign);
    drop(st);
    shared.bell.notify_all();
    Ok(proto::msg("ok")
        .field("id", Json::UInt(id))
        .field("grid", Json::UInt(grid))
        .field("fingerprint", Json::str(format!("{fingerprint:016x}")))
        .field("resumed", Json::UInt(resumed))
        .build())
}

fn status_reply(shared: &Arc<Shared>) -> Json {
    let st = shared.state.lock().unwrap();
    let campaigns = st
        .campaigns
        .iter()
        .map(|c| {
            let mut b = Json::object()
                .field("id", Json::UInt(c.id))
                .field("name", Json::str(&c.spec.name))
                .field("state", Json::str(c.phase.name()))
                .field("grid", Json::UInt(c.grid))
                .field("completed", Json::UInt(c.completed.len() as u64))
                .field("pending", Json::UInt(c.pending.len() as u64))
                .field("in_flight", Json::UInt(c.in_flight.len() as u64))
                .field("fingerprint", Json::str(format!("{:016x}", c.fingerprint)));
            if c.phase == Phase::Done {
                b = b.field("pass", Json::Bool(c.pass));
            }
            if let Some(error) = &c.error {
                b = b.field("error", Json::str(error));
            }
            b.build()
        })
        .collect();
    proto::msg("ok")
        .field("workers", Json::UInt(st.workers as u64))
        .field("campaigns", Json::Array(campaigns))
        .build()
}

fn fetch_report(shared: &Arc<Shared>, id: u64) -> Result<(bool, Arc<Vec<u8>>), String> {
    let st = shared.state.lock().unwrap();
    let c = st
        .campaigns
        .iter()
        .find(|c| c.id == id)
        .ok_or_else(|| format!("no campaign with id {id}"))?;
    match (&c.report, c.phase) {
        (Some(report), _) => Ok((c.pass, Arc::clone(report))),
        (None, Phase::Canceled) => Err(format!("campaign {id} was canceled")),
        (None, Phase::Failed) => Err(format!(
            "campaign {id} failed: {}",
            c.error.as_deref().unwrap_or("unknown cause")
        )),
        (None, _) => Err(format!(
            "campaign {id} is still {} ({}/{} points complete)",
            c.phase.name(),
            c.completed.len(),
            c.grid
        )),
    }
}

fn transition(shared: &Arc<Shared>, id: u64, verb: &str) -> Result<&'static str, String> {
    let mut st = shared.state.lock().unwrap();
    let c = st
        .campaigns
        .iter_mut()
        .find(|c| c.id == id)
        .ok_or_else(|| format!("no campaign with id {id}"))?;
    let state = match (verb, c.phase) {
        ("pause", Phase::Running) => {
            c.phase = Phase::Paused;
            "paused"
        }
        ("resume", Phase::Paused) => {
            c.phase = Phase::Running;
            "running"
        }
        ("cancel", Phase::Running | Phase::Paused) => {
            c.phase = Phase::Canceled;
            c.pending.clear();
            c.in_flight.clear();
            "canceled"
        }
        (_, phase) => {
            return Err(format!(
                "cannot {verb} campaign {id}: it is {}",
                phase.name()
            ))
        }
    };
    drop(st);
    shared.bell.notify_all();
    Ok(state)
}

/// Streams a campaign's progress lines, then the terminal `done`
/// message. Replays the whole deterministic log from the start, so a
/// late watcher sees the same NDJSON as one attached at submit.
fn watch(shared: &Arc<Shared>, stream: &mut TcpStream, id: u64) -> Result<(), ProtoError> {
    let mut sent = 0usize;
    loop {
        let (lines, done) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    drop(st);
                    return reply_error(stream, "server is shutting down");
                }
                let Some(c) = st.campaigns.iter().find(|c| c.id == id) else {
                    drop(st);
                    return reply_error(stream, &format!("no campaign with id {id}"));
                };
                if c.log.len() > sent || c.phase.terminal() {
                    let lines: Vec<Json> = c.log[sent..].to_vec();
                    let done = c.phase.terminal().then(|| {
                        let mut b = proto::msg("done")
                            .field("id", Json::UInt(c.id))
                            .field("state", Json::str(c.phase.name()))
                            .field("pass", Json::Bool(c.pass));
                        if let Some(error) = &c.error {
                            b = b.field("error", Json::str(error));
                        }
                        b.build()
                    });
                    break (lines, done);
                }
                st = shared.bell.wait(st).unwrap();
            }
        };
        sent += lines.len();
        for line in lines {
            let msg = proto::msg("progress").field("line", line).build();
            proto::write_json(stream, &msg).map_err(ProtoError::Io)?;
        }
        if let Some(done) = done {
            proto::write_json(stream, &done).map_err(ProtoError::Io)?;
            return Ok(());
        }
    }
}
