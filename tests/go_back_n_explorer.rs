//! Go-back-N checked over every fault schedule, not by sampling.
//!
//! One real `LinkTx` → `Link` → `LinkRx` pair runs under an adversarial
//! environment that, every cycle, chooses any combination of:
//!
//! * offer the next flit to the sender, or not;
//! * corrupt the flit entering the forward pipe;
//! * lose the ACK/nACK entering the reverse pipe (a corrupted control
//!   message is a detected drop at the sender: the link's control CRC
//!   turns both faults into the same silence);
//! * stall the receiver, which then nACKs the arriving flit.
//!
//! A breadth-first search enumerates these schedules to [`DEPTH`]
//! cycles over window capacities 2–4, link stages 1–3 and the ACK
//! timeout on and off, deduplicating states by the components'
//! `Snapshot` bytes with their statistics counters left out (they never
//! steer the protocol). Every reachable state must satisfy:
//!
//! 1. the delivered stream is an exact in-order prefix of the offered
//!    one: no loss, duplicate or reorder;
//! 2. the retransmission window never holds one sequence number twice;
//! 3. once the faults stop (no fault, no stall, no new offer), every
//!    offered flit arrives within [`drain_bound`] cycles.
//!
//! With the timeout off the reverse channel must be reliable (that is
//! what the timeout is for), so those configurations never lose a
//! control message. The timeout that is on is shorter than a round trip,
//! so it also fires spuriously: the harshest setting the sender admits.
//!
//! Each `FlowSabotage` mode and a planted off-by-one in cumulative-ACK
//! pruning must each yield a counterexample, printed as the shortest
//! fault schedule. [`Pair`] is the only code that knows how the sender
//! takes flits; the properties never do.

use std::collections::HashMap;

use xpipes::flow_control::{AckNack, FlowSabotage, LinkFlit, LinkRx, LinkTx};
use xpipes::link::Link;
use xpipes::{Flit, FlitKind, FlitMeta};
use xpipes_sim::{
    Cycle, FaultPlan, SimRng, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};

/// Cycles of fault schedule enumerated from the start state.
const DEPTH: usize = 8;

/// Sequence numbers are modulo 64 in the link layer.
const SEQ_MOD: u64 = 64;

/// Flits pushed through the pair before the search starts, so the
/// explored windows straddle the 63 → 0 sequence wrap.
const PRIMED: u64 = SEQ_MOD - 2;

// The environment's choices for one cycle, as bits.
const OFFER: u8 = 1;
const CORRUPT: u8 = 2;
const LOSE: u8 = 4;
const STALL: u8 = 8;

fn render(choice: u8) -> String {
    let names = [
        (OFFER, "offer"),
        (CORRUPT, "corrupt"),
        (LOSE, "lose-reply"),
        (STALL, "stall"),
    ];
    let picked: Vec<&str> = names
        .iter()
        .filter(|(bit, _)| choice & bit != 0)
        .map(|(_, name)| *name)
        .collect();
    if picked.is_empty() {
        "idle".to_string()
    } else {
        picked.join("+")
    }
}

/// One explored configuration of the pair.
#[derive(Debug, Clone, Copy)]
struct Config {
    capacity: usize,
    stages: u32,
    timeout: Option<u64>,
    sabotage: Option<FlowSabotage>,
    /// Planted defect: every ACK reaches the sender naming the sequence
    /// number after the acknowledged one, so its cumulative pruning
    /// drops one flit too many.
    prune_one_more: bool,
}

impl Config {
    fn new(capacity: usize, stages: u32, timeout: bool) -> Self {
        Config {
            capacity,
            stages,
            timeout: timeout.then_some(u64::from(stages) + 1),
            sabotage: None,
            prune_one_more: false,
        }
    }

    /// Fault bits the environment may set: a control message may be
    /// lost only when the timeout can recover from it.
    fn faults(&self) -> u8 {
        if self.timeout.is_some() {
            CORRUPT | LOSE | STALL
        } else {
            CORRUPT | STALL
        }
    }
}

/// Property 3's bound: after the last fault, stale control messages
/// leave the pipes within a round trip, a silent window times out
/// within the timeout, the rewind re-sends at most `capacity` flits,
/// and the last of them is delivered and acknowledged a round trip
/// later.
fn drain_bound(cfg: &Config) -> u64 {
    let round_trip = 2 * u64::from(cfg.stages) + 2;
    2 * round_trip + cfg.timeout.unwrap_or(0) + cfg.capacity as u64
}

fn flit(id: u64) -> Flit {
    Flit::new(
        FlitKind::Single,
        u128::from(id),
        FlitMeta::new(id, Cycle::ZERO, 0),
    )
}

/// The local adapter driving the pair for one cycle at a time. The
/// sender holds at most one offered flit it has not sent yet.
#[derive(Clone)]
struct Pair {
    tx: LinkTx,
    link: Link,
    rx: LinkRx,
    /// Control message that left the reverse pipe last cycle; the
    /// sender consumes it this cycle.
    arrived: Option<AckNack>,
    /// The receiver's reply of last cycle; it enters the reverse pipe
    /// this cycle.
    reply: Option<AckNack>,
    offered: u64,
    delivered: u64,
    prune_one_more: bool,
}

impl Pair {
    fn new(cfg: &Config) -> Self {
        Pair {
            tx: LinkTx::new(cfg.capacity, cfg.timeout),
            link: Link::new(cfg.stages, SimRng::seed(0), FaultPlan::none()),
            rx: LinkRx::new(),
            arrived: None,
            reply: None,
            offered: 0,
            delivered: 0,
            prune_one_more: false,
        }
    }

    /// Offered flits the sender has not sent yet.
    fn queued(&self) -> usize {
        self.tx.queued()
    }

    /// Hands the sender this cycle's reverse arrival and takes the flit
    /// it drives onto the forward pipe.
    fn send(&mut self, offer: bool) -> Option<LinkFlit> {
        if offer {
            self.tx.push(flit(self.offered));
            self.offered += 1;
        }
        let mut rev = self.arrived.take();
        if self.prune_one_more {
            rev = rev.map(|an| AckNack {
                seq: if an.ack {
                    ((u64::from(an.seq) + 1) % SEQ_MOD) as u8
                } else {
                    an.seq
                },
                ..an
            });
        }
        self.tx.transmit(rev).map(|(lf, _)| lf)
    }

    /// Runs one cycle under `choice`. Returns the choice bits that had
    /// an effect (a bit without one duplicates a sibling schedule), or
    /// the property 1/2 violation the cycle produced.
    fn step(&mut self, choice: u8) -> Result<u8, String> {
        let mut used = 0;
        let offer = choice & OFFER != 0 && self.queued() == 0;
        if offer {
            used |= OFFER;
        }
        let mut fwd = self.send(offer);
        if let Some(lf) = fwd.as_mut().filter(|_| choice & CORRUPT != 0) {
            lf.corrupted = true;
            used |= CORRUPT;
        }
        let mut reply = self.reply.take();
        if reply.is_some() && choice & LOSE != 0 {
            reply = None;
            used |= LOSE;
        }
        let (arrival, back) = self.link.shift(fwd, reply);
        self.arrived = back;
        if let Some(arrival) = arrival {
            let stall = choice & STALL != 0;
            if stall {
                used |= STALL;
            }
            let (delivered, reply) = self.rx.receive(arrival, !stall);
            self.reply = Some(reply);
            if let Some(f) = delivered {
                if f.meta.packet_id != self.delivered {
                    return Err(format!(
                        "delivered flit {} where flit {} was due",
                        f.meta.packet_id, self.delivered
                    ));
                }
                self.delivered += 1;
            }
        }
        Ok(used)
    }

    /// The state's identity: the components' snapshot bytes without
    /// their statistics, plus the environment's counters. Also checks
    /// property 2 on the window the sender's snapshot holds.
    fn key(&self, cfg: &Config) -> Result<Vec<u8>, String> {
        let mut key = Vec::with_capacity(256);
        key.extend_from_slice(&self.offered.to_le_bytes());
        key.extend_from_slice(&self.delivered.to_le_bytes());
        key.push(self.queued() as u8);
        key.extend(self.arrived.iter().flat_map(|a| [a.seq, u8::from(a.ack)]));
        key.push(0xff);
        key.extend(self.reply.iter().flat_map(|a| [a.seq, u8::from(a.ack)]));
        key.push(0xff);
        let mut w = SnapshotWriter::new();
        self.tx.save_state(&mut w);
        self.link.save_state(&mut w);
        self.rx.save_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).map_err(|e| e.to_string())?;
        let seqs = tx_key(&mut key, &mut r, cfg.timeout.is_some())
            .and_then(|seqs| link_key(&mut key, &mut r).map(|()| seqs))
            .and_then(|seqs| rx_key(&mut key, &mut r).map(|()| seqs))
            .and_then(|seqs| r.finish().map(|()| seqs))
            .map_err(|e| format!("pair snapshot: {e}"))?;
        for (i, s) in seqs.iter().enumerate() {
            if seqs[..i].contains(s) {
                return Err(format!("window aliases sequence {s}: {seqs:?}"));
            }
        }
        Ok(key)
    }
}

/// Appends a flit's identity (its id) to the key.
fn flit_key(key: &mut Vec<u8>, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
    r.u8()?; // kind
    r.u128()?; // bits (equal to the id)
    if r.bool()? {
        r.u64()?; // header
    }
    key.extend_from_slice(&r.u64()?.to_le_bytes()); // packet id
    r.u64()?; // injection cycle
    r.u8()?; // source NI
    Ok(())
}

/// The sender's window, sequence counter, rewind pointer and (with the
/// timeout on) silence counter; returns the window's sequence numbers.
fn tx_key(
    key: &mut Vec<u8>,
    r: &mut SnapshotReader<'_>,
    timeout: bool,
) -> Result<Vec<u8>, SnapshotError> {
    let n = r.len()?;
    let mut seqs = Vec::with_capacity(n);
    key.push(n as u8);
    for _ in 0..n {
        let seq = r.u8()?;
        seqs.push(seq);
        key.push(seq);
        flit_key(key, r)?;
    }
    key.push(r.u8()?); // next sequence number
    key.push(if r.bool()? { r.len()? as u8 } else { 0xff });
    let _retransmissions = r.u64()?;
    let _sent = r.u64()?;
    let idle = r.u64()?;
    if timeout {
        key.extend_from_slice(&idle.to_le_bytes());
    }
    let _timeouts = r.u64()?;
    Ok(seqs)
}

/// Both pipes of the link and its burst countdown.
fn link_key(key: &mut Vec<u8>, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
    let interior = r.len()?;
    for _ in 0..interior {
        if r.bool()? {
            key.push(1);
            flit_key(key, r)?;
            key.push(r.u8()?); // seq
            key.push(u8::from(r.bool()?)); // corrupted
        } else {
            key.push(0);
        }
    }
    for _ in 0..interior {
        if r.bool()? {
            key.push(r.u8()?);
            key.push(u8::from(r.bool()?));
        } else {
            key.push(0xff);
        }
    }
    r.rng()?; // never drawn: the link's own fault plan is empty
    for _counter in 0..4 {
        r.u64()?;
    }
    key.extend_from_slice(&r.u32()?.to_le_bytes());
    Ok(())
}

/// The receiver's expected sequence number.
fn rx_key(key: &mut Vec<u8>, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
    key.push(r.u8()?);
    r.u64()?; // accepted
    r.u64()?; // rejected
    Ok(())
}

/// A property violation and the shortest fault schedule reaching it.
#[derive(Debug)]
struct Counterexample {
    schedule: Vec<u8>,
    violation: String,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let steps: Vec<String> = self.schedule.iter().map(|&c| render(c)).collect();
        write!(f, "[{}] -> {}", steps.join(", "), self.violation)
    }
}

/// What a search covered.
#[derive(Debug, Default)]
struct Coverage {
    states: usize,
    transitions: usize,
    /// Longest fault-free drain seen, in cycles.
    max_drain: u64,
}

/// The search: breadth-first over fault schedules with a drain-time
/// memo shared by every state's fault-free continuation.
struct Explorer {
    cfg: Config,
    bound: u64,
    /// Cycles the fault-free continuation from a state needs to deliver
    /// every offered flit.
    drain: HashMap<Vec<u8>, u64>,
}

impl Explorer {
    fn new(cfg: Config) -> Self {
        Explorer {
            cfg,
            bound: drain_bound(&cfg),
            drain: HashMap::new(),
        }
    }

    /// Property 3 from `pair`: runs the fault-free continuation until
    /// every offered flit is delivered, reusing and filling the memo.
    /// Returns the cycles it took.
    fn check_drain(&mut self, pair: &Pair, key: Vec<u8>) -> Result<u64, String> {
        if let Some(&d) = self.drain.get(&key) {
            return Ok(d);
        }
        let mut pair = pair.clone();
        let mut path = vec![key];
        // Cycles the last state on `path` needs.
        let mut base = 0;
        while pair.delivered < pair.offered && path.len() as u64 <= self.bound {
            pair.step(0)?;
            let key = pair.key(&self.cfg)?;
            if let Some(&d) = self.drain.get(&key) {
                base = d + 1;
                break;
            }
            path.push(key);
        }
        let total = base + path.len() as u64 - 1;
        if total > self.bound || pair.delivered < pair.offered && base == 0 {
            return Err(format!(
                "{} of {} offered flits still undelivered {} fault-free cycles later",
                pair.offered - pair.delivered,
                pair.offered,
                self.bound
            ));
        }
        for (i, k) in path.into_iter().rev().enumerate() {
            self.drain.insert(k, base + i as u64);
        }
        Ok(total)
    }

    fn run(&mut self, depth: usize) -> Result<Coverage, Counterexample> {
        // Prime the pair fault-free across most of the sequence space,
        // then let it settle: the search starts from a quiet link.
        let mut start = Pair::new(&self.cfg);
        for _ in 0..PRIMED * 16 {
            let offer = if start.offered < PRIMED { OFFER } else { 0 };
            start.step(offer).expect("fault-free priming is clean");
        }
        assert_eq!(start.delivered, PRIMED, "priming delivers every flit");
        // The defects are armed on the primed pair.
        if let Some(mode) = self.cfg.sabotage {
            start.tx.sabotage(mode);
        }
        start.prune_one_more = self.cfg.prune_one_more;
        // Parent links reconstruct the schedule of any state.
        let mut nodes: Vec<(usize, u8)> = vec![(usize::MAX, 0)];
        let fail = |nodes: &[(usize, u8)], mut at: usize, choice: u8, violation: String| {
            let mut schedule = vec![choice];
            while at != 0 {
                schedule.push(nodes[at].1);
                at = nodes[at].0;
            }
            schedule.reverse();
            Counterexample {
                schedule,
                violation,
            }
        };
        let start_key = start.key(&self.cfg).expect("start state is clean");
        let mut cov = Coverage {
            states: 1,
            ..Coverage::default()
        };
        let mut seen = std::collections::HashSet::new();
        seen.insert(start_key.clone());
        self.check_drain(&start, start_key)
            .map_err(|v| fail(&nodes, 0, 0, v))?;
        let mut frontier = vec![(0usize, start)];
        let faults = self.cfg.faults();
        for _ in 0..depth {
            let mut next = Vec::new();
            for (node, pair) in &frontier {
                let offers: &[u8] = if pair.queued() == 0 {
                    &[0, OFFER]
                } else {
                    &[0]
                };
                for &offer in offers {
                    // A probe requesting every fault learns which ones
                    // this cycle can apply at all: only their subsets
                    // lead to distinct states. The probe is the largest.
                    let mut probe = pair.clone();
                    let probed = probe.step(offer | faults);
                    let consulted = probed.as_ref().map_or(faults, |used| used & faults);
                    let mut probe = probed.is_ok().then_some(probe);
                    // Ascending order reports the fewest faults first.
                    for sub in (0..=consulted).filter(|s| s & !consulted == 0) {
                        let choice = offer | sub;
                        let child = match probe.take_if(|_| sub == consulted) {
                            Some(probe) => probe,
                            None => {
                                let mut child = pair.clone();
                                let used = child
                                    .step(choice)
                                    .map_err(|v| fail(&nodes, *node, choice, v))?;
                                if used != choice {
                                    continue; // the same schedule without the idle bits
                                }
                                child
                            }
                        };
                        cov.transitions += 1;
                        let key = child
                            .key(&self.cfg)
                            .map_err(|v| fail(&nodes, *node, choice, v))?;
                        if !seen.insert(key.clone()) {
                            continue;
                        }
                        let drain = self
                            .check_drain(&child, key)
                            .map_err(|v| fail(&nodes, *node, choice, v))?;
                        cov.max_drain = cov.max_drain.max(drain);
                        nodes.push((*node, choice));
                        next.push((nodes.len() - 1, child));
                    }
                }
            }
            cov.states += next.len();
            frontier = next;
        }
        Ok(cov)
    }
}

fn explore(cfg: Config, depth: usize) -> Result<Coverage, Counterexample> {
    Explorer::new(cfg).run(depth)
}

/// Explores every capacity and timeout setting of `stages`-deep links
/// to [`DEPTH`] and returns the summed coverage, which pins how many
/// distinct states the fault schedules reach.
fn check_links_of(stages: u32) -> (usize, usize) {
    let (mut states, mut transitions) = (0, 0);
    for capacity in 2..=4 {
        for timeout in [false, true] {
            let cfg = Config::new(capacity, stages, timeout);
            let cov = explore(cfg, DEPTH).unwrap_or_else(|cx| panic!("{cfg:?}: {cx}"));
            assert!(cov.max_drain <= drain_bound(&cfg), "{cfg:?}: {cov:?}");
            states += cov.states;
            transitions += cov.transitions;
        }
    }
    (states, transitions)
}

#[test]
fn go_back_n_holds_over_one_stage_links() {
    assert_eq!(check_links_of(1), (4823, 39412));
}

#[test]
fn go_back_n_holds_over_two_stage_links() {
    assert_eq!(check_links_of(2), (23320, 116957));
}

#[test]
fn go_back_n_holds_over_three_stage_links() {
    assert_eq!(check_links_of(3), (22037, 88169));
}

/// Each sabotage mode and the planted pruning defect is caught, with
/// the shortest schedule that exposes it.
#[test]
fn every_planted_defect_yields_a_shortest_counterexample() {
    let base = Config::new(2, 1, true);
    let sabotaged = |mode| Config {
        sabotage: Some(mode),
        ..base
    };
    let cases = [
        (
            sabotaged(FlowSabotage::SkipRetransmission),
            "[offer+corrupt] -> 1 of 63 offered flits still undelivered 12 fault-free cycles later",
        ),
        (
            sabotaged(FlowSabotage::ReuseSequence),
            "[offer, offer] -> window aliases sequence 62: [62, 62]",
        ),
        (
            sabotaged(FlowSabotage::DropOnNack),
            "[offer+corrupt] -> 1 of 63 offered flits still undelivered 12 fault-free cycles later",
        ),
        (
            Config {
                prune_one_more: true,
                ..base
            },
            "[offer, offer+corrupt] -> 1 of 64 offered flits still undelivered 12 fault-free cycles later",
        ),
    ];
    for (cfg, expected) in cases {
        let cx = explore(cfg, DEPTH).expect_err("a planted defect is caught");
        eprintln!("{cfg:?}: {cx}");
        assert_eq!(cx.to_string(), expected, "{cfg:?}");
    }
}
