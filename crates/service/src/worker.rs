//! The worker side of the campaign service: pull a grid point, compute
//! it, ship the result back as an `XPSN` container.
//!
//! A cold point needs nothing but its `work` message (the canonical
//! spec wire form). A warm-started point forks from its campaign's
//! shared `XPSN` warm checkpoint, which the server sends in a `warm`
//! message ahead of the first such point; the worker decodes it once
//! and keeps that one campaign's state until the next `warm` message
//! replaces it. The state belongs to the connection, so a new
//! connection starts empty and reassignment after a kill stays
//! trivial: any worker can recompute any point and produce
//! byte-identical results.
//!
//! The distribution boundary is defensive: a truncated or bit-flipped
//! warm checkpoint, a warm point whose campaign's state the worker does
//! not hold, an out-of-range point index, or a malformed spec is
//! rejected with a one-line reason (never a panic), and the server
//! reschedules the point elsewhere.

use xpipes_sim::Json;
use xpipes_traffic::faultcampaign::{campaign_spec, run_grid_point, CompletedPoint, WarmStart};

use crate::proto::{self, ProtoError};
use crate::spec::CampaignSpec;

/// One self-contained unit of distributed work: everything a grid
/// point's result is a function of.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Server-side campaign id (echoed back with the result).
    pub campaign: u64,
    /// Grid point index to compute.
    pub point: u64,
    /// The campaign this point belongs to.
    pub spec: CampaignSpec,
    /// Warm checkpoint container for warm-started campaigns.
    pub warm: Option<Vec<u8>>,
}

/// Computes one assignment. This is the exact function a killed
/// worker's replacement re-executes — a pure function of the
/// assignment, so reassignment cannot perturb the merged report.
///
/// # Errors
///
/// One line describing why the assignment is unusable: a damaged warm
/// checkpoint (integrity hash, truncation, trailing bytes — all caught
/// by the `XPSN` reader), an out-of-range point, or a failed run.
pub fn execute(assignment: &Assignment) -> Result<CompletedPoint, String> {
    let warm = assignment.warm.clone().map(decode_warm).transpose()?;
    compute(&assignment.spec, assignment.point, warm.as_ref())
}

fn decode_warm(bytes: Vec<u8>) -> Result<WarmStart, String> {
    WarmStart::from_bytes(bytes).map_err(|e| format!("damaged warm checkpoint: {e}"))
}

fn compute(
    spec: &CampaignSpec,
    point: u64,
    warm: Option<&WarmStart>,
) -> Result<CompletedPoint, String> {
    let grid = spec.grid();
    if point >= grid {
        return Err(format!("grid point {point} out of range ({grid} points)"));
    }
    run_grid_point(&campaign_spec(), &spec.faults, &spec.config(), point, warm)
        .map_err(|e| format!("grid point {point} failed: {e}"))
}

/// The one campaign's warm state a worker connection holds: what the
/// last `warm` message decoded to, or why it did not decode.
struct HeldWarm {
    campaign: u64,
    state: Result<WarmStart, String>,
}

/// Computes the point a `work` message names, forking from `held` when
/// the message says the campaign is warm-started.
fn execute_work(msg: &Json, held: Option<&HeldWarm>) -> Result<CompletedPoint, String> {
    let campaign = msg
        .get("campaign")
        .and_then(Json::as_u64)
        .ok_or("work message carries no campaign id")?;
    let point = msg
        .get("point")
        .and_then(Json::as_u64)
        .ok_or("work message carries no point index")?;
    let spec = CampaignSpec::from_json(msg.get("spec").ok_or("work message carries no spec")?)?;
    let warm = if matches!(msg.get("warm"), Some(Json::Bool(true))) {
        match held.filter(|h| h.campaign == campaign) {
            Some(h) => Some(h.state.as_ref().map_err(String::clone)?),
            // Never computed cold: the result would be a different,
            // valid-looking point.
            None => return Err(format!("no warm checkpoint held for campaign {campaign}")),
        }
    } else {
        None
    };
    compute(&spec, point, warm)
}

/// Runs the worker loop against a server: register, then poll/compute/
/// report until the server says shutdown or the connection closes.
///
/// # Errors
///
/// One line for connection or protocol failures; a server-initiated
/// shutdown or clean close is `Ok`.
pub fn run_worker(addr: &str) -> Result<(), String> {
    let mut stream = proto::connect(addr)?;
    proto::write_json(&mut stream, &proto::msg("worker").build()).map_err(|e| e.to_string())?;
    let hello = proto::read_json(&mut stream).map_err(|e| e.to_string())?;
    if proto::msg_type(&hello) != "ok" {
        return Err(format!(
            "server refused registration: {}",
            hello.render_compact()
        ));
    }
    let mut held: Option<HeldWarm> = None;
    loop {
        proto::write_json(&mut stream, &proto::msg("poll").build()).map_err(|e| e.to_string())?;
        // A `warm` message rides ahead of the `work` it serves; both
        // answer this one poll.
        let msg = loop {
            let msg = match proto::read_json(&mut stream) {
                Ok(msg) => msg,
                Err(ProtoError::Closed) => return Ok(()),
                Err(e) => return Err(e.to_string()),
            };
            if proto::msg_type(&msg) != "warm" {
                break msg;
            }
            let campaign = msg
                .get("campaign")
                .and_then(Json::as_u64)
                .ok_or("warm message carries no campaign id")?;
            let blob = proto::read_blob(&mut stream).map_err(|e| e.to_string())?;
            held = Some(HeldWarm {
                campaign,
                state: decode_warm(blob),
            });
        };
        match proto::msg_type(&msg) {
            "shutdown" => return Ok(()),
            "work" => {
                let (campaign, point) = (
                    msg.get("campaign").and_then(Json::as_u64).unwrap_or(0),
                    msg.get("point").and_then(Json::as_u64).unwrap_or(0),
                );
                match execute_work(&msg, held.as_ref()) {
                    Ok(done) => {
                        let reply = proto::msg("result")
                            .field("campaign", Json::UInt(campaign))
                            .field("point", Json::UInt(point))
                            .build();
                        proto::write_json(&mut stream, &reply).map_err(|e| e.to_string())?;
                        proto::write_blob(&mut stream, &done.to_bytes())
                            .map_err(|e| e.to_string())?;
                    }
                    Err(reason) => {
                        eprintln!("worker: rejecting point {point}: {reason}");
                        let reply = proto::msg("reject")
                            .field("campaign", Json::UInt(campaign))
                            .field("point", Json::UInt(point))
                            .field("reason", Json::str(reason))
                            .build();
                        proto::write_json(&mut stream, &reply).map_err(|e| e.to_string())?;
                    }
                }
            }
            other => return Err(format!("unexpected message '{other}' while polling")),
        }
    }
}
