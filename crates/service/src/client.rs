//! Operator-side client helpers: one connection per command, shared by
//! `xpipesadm` and the integration tests.

use xpipes_sim::Json;

use crate::proto::{self, connect, ProtoError};
use crate::spec::CampaignSpec;

/// Unwraps a reply: `error` messages become `Err` with the server's
/// one-line reason.
fn check_reply(reply: Json) -> Result<Json, String> {
    if proto::msg_type(&reply) == "error" {
        Err(reply
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("server error")
            .to_string())
    } else {
        Ok(reply)
    }
}

/// Sends one request and reads one JSON reply.
///
/// # Errors
///
/// Connection/protocol failures and server `error` replies, one line
/// each.
pub fn request(addr: &str, msg: &Json) -> Result<Json, String> {
    let mut stream = connect(addr)?;
    proto::write_json(&mut stream, msg).map_err(|e| e.to_string())?;
    let reply = proto::read_json(&mut stream).map_err(|e| e.to_string())?;
    check_reply(reply)
}

/// Submits a campaign spec; returns the server's `ok` reply (`id`,
/// `grid`, `fingerprint`, `resumed`).
///
/// # Errors
///
/// Spec validation errors (client-side, before any connection) plus
/// everything [`request`] reports.
pub fn submit(addr: &str, spec_json: &Json) -> Result<Json, String> {
    // Validate and normalize locally so the operator gets the parse
    // error directly, and the server receives the canonical wire form
    // (exact rate bit patterns included).
    let spec = CampaignSpec::from_json(spec_json)?;
    request(
        addr,
        &proto::msg("submit").field("spec", spec.to_json()).build(),
    )
}

/// Fetches a finished campaign's merged report: `(pass, exact report
/// bytes)` — the bytes the byte-identity contract is stated over.
///
/// # Errors
///
/// One line when the campaign is unknown, unfinished, canceled, or
/// failed, plus connection failures.
pub fn fetch_report(addr: &str, id: u64) -> Result<(bool, Vec<u8>), String> {
    let mut stream = connect(addr)?;
    let msg = proto::msg("report").field("id", Json::UInt(id)).build();
    proto::write_json(&mut stream, &msg).map_err(|e| e.to_string())?;
    let reply = check_reply(proto::read_json(&mut stream).map_err(|e| e.to_string())?)?;
    let pass = matches!(reply.get("pass"), Some(Json::Bool(true)));
    let bytes = proto::read_blob(&mut stream).map_err(|e| e.to_string())?;
    Ok((pass, bytes))
}

/// Watches a campaign: `on_line` is called with every deterministic
/// progress line (ascending grid order), and the terminal `done`
/// message is returned.
///
/// # Errors
///
/// One line for unknown campaigns, broken streams, or a server
/// shutdown mid-watch.
pub fn watch(addr: &str, id: u64, on_line: &mut dyn FnMut(&Json)) -> Result<Json, String> {
    let mut stream = connect(addr)?;
    let msg = proto::msg("watch").field("id", Json::UInt(id)).build();
    proto::write_json(&mut stream, &msg).map_err(|e| e.to_string())?;
    loop {
        let reply = match proto::read_json(&mut stream) {
            Ok(reply) => check_reply(reply)?,
            Err(ProtoError::Closed) => return Err("server closed the watch stream".into()),
            Err(e) => return Err(e.to_string()),
        };
        match proto::msg_type(&reply) {
            "progress" => {
                if let Some(line) = reply.get("line") {
                    on_line(line);
                }
            }
            "done" => return Ok(reply),
            other => return Err(format!("unexpected message '{other}' in watch stream")),
        }
    }
}
