//! Snapshot codecs for the wire-level value types shared by the
//! component [`Snapshot`](xpipes_sim::Snapshot) implementations: flits,
//! link flits, ACK/nACK messages, OCP transactions and the senders'
//! sequence numbers. Each codec writes exactly the bytes its loader
//! consumes, so component payloads compose without framing.

use xpipes_sim::{Cycle, SnapshotError, SnapshotReader, SnapshotWriter};

use xpipes_ocp::transaction::RequestBuilder;
use xpipes_ocp::{BurstSeq, MCmd, Request, Response, SResp, Sideband, ThreadId};

use crate::flit::{Flit, FlitKind, FlitMeta};
use crate::flow_control::{AckNack, LinkFlit};
use crate::header::Header;

const fn kind_tag(kind: FlitKind) -> u8 {
    match kind {
        FlitKind::Header => 0,
        FlitKind::Body => 1,
        FlitKind::Tail => 2,
        FlitKind::Single => 3,
    }
}

fn kind_from_tag(tag: u8) -> Result<FlitKind, SnapshotError> {
    match tag {
        0 => Ok(FlitKind::Header),
        1 => Ok(FlitKind::Body),
        2 => Ok(FlitKind::Tail),
        3 => Ok(FlitKind::Single),
        other => Err(SnapshotError::Malformed(format!(
            "bad flit kind tag {other}"
        ))),
    }
}

/// Writes every sender's next sequence number, in channel order. The
/// attribution and flight-recorder sections carry them so that a
/// restore can check each section against the restored senders.
pub(crate) fn save_seqs(w: &mut SnapshotWriter, seqs: &[u8]) {
    w.len(seqs.len());
    seqs.iter().for_each(|&s| w.u8(s));
}

/// Reads what [`save_seqs`] wrote and refuses a count or byte that
/// disagrees with the restored senders' `seqs`; `what` names the
/// section in the error.
pub(crate) fn check_seqs(
    r: &mut SnapshotReader<'_>,
    seqs: &[u8],
    what: &str,
) -> Result<(), SnapshotError> {
    let n = r.len()?;
    if n != seqs.len() {
        let msg = format!("{what} covers {n} channels, the network {}", seqs.len());
        return Err(SnapshotError::Malformed(msg));
    }
    for (i, &want) in seqs.iter().enumerate() {
        let got = r.u8()?;
        if got != want {
            let msg = format!("{what} gives channel {i} next seq {got}, its sender {want}");
            return Err(SnapshotError::Malformed(msg));
        }
    }
    Ok(())
}

pub(crate) fn save_flit(w: &mut SnapshotWriter, flit: &Flit) {
    w.u8(kind_tag(flit.kind));
    w.u128(flit.bits);
    match flit.header {
        Some(h) => {
            w.bool(true);
            w.u64(h.bits());
        }
        None => w.bool(false),
    }
    w.u64(flit.meta.packet_id);
    w.u64(flit.meta.injected_at.as_u64());
    w.u8(flit.meta.src_ni);
}

pub(crate) fn load_flit(r: &mut SnapshotReader<'_>) -> Result<Flit, SnapshotError> {
    let kind = kind_from_tag(r.u8()?)?;
    let bits = r.u128()?;
    let header = if r.bool()? {
        let image = r.u64()?;
        let h = Header::decode(image)
            .map_err(|e| SnapshotError::Malformed(format!("flit header: {e}")))?;
        Some(h.packed())
    } else {
        None
    };
    let packet_id = r.u64()?;
    let injected_at = Cycle::new(r.u64()?);
    let src_ni = r.u8()?;
    Ok(Flit {
        kind,
        bits,
        header,
        meta: FlitMeta::new(packet_id, injected_at, src_ni),
    })
}

pub(crate) fn save_link_flit(w: &mut SnapshotWriter, lf: &LinkFlit) {
    save_flit(w, &lf.flit);
    w.u8(lf.seq);
    w.bool(lf.corrupted);
}

pub(crate) fn load_link_flit(r: &mut SnapshotReader<'_>) -> Result<LinkFlit, SnapshotError> {
    let flit = load_flit(r)?;
    let seq = r.u8()?;
    let corrupted = r.bool()?;
    Ok(LinkFlit {
        flit,
        seq,
        corrupted,
    })
}

pub(crate) fn save_acknack(w: &mut SnapshotWriter, an: &AckNack) {
    w.u8(an.seq);
    w.bool(an.ack);
}

pub(crate) fn load_acknack(r: &mut SnapshotReader<'_>) -> Result<AckNack, SnapshotError> {
    let seq = r.u8()?;
    let ack = r.bool()?;
    Ok(AckNack { seq, ack })
}

pub(crate) fn save_opt_flit(w: &mut SnapshotWriter, slot: &Option<Flit>) {
    match slot {
        Some(f) => {
            w.bool(true);
            save_flit(w, f);
        }
        None => w.bool(false),
    }
}

pub(crate) fn load_opt_flit(r: &mut SnapshotReader<'_>) -> Result<Option<Flit>, SnapshotError> {
    Ok(if r.bool()? { Some(load_flit(r)?) } else { None })
}

pub(crate) fn save_opt_link_flit(w: &mut SnapshotWriter, slot: &Option<LinkFlit>) {
    match slot {
        Some(lf) => {
            w.bool(true);
            save_link_flit(w, lf);
        }
        None => w.bool(false),
    }
}

pub(crate) fn load_opt_link_flit(
    r: &mut SnapshotReader<'_>,
) -> Result<Option<LinkFlit>, SnapshotError> {
    Ok(if r.bool()? {
        Some(load_link_flit(r)?)
    } else {
        None
    })
}

pub(crate) fn save_opt_acknack(w: &mut SnapshotWriter, slot: &Option<AckNack>) {
    match slot {
        Some(an) => {
            w.bool(true);
            save_acknack(w, an);
        }
        None => w.bool(false),
    }
}

pub(crate) fn load_opt_acknack(
    r: &mut SnapshotReader<'_>,
) -> Result<Option<AckNack>, SnapshotError> {
    Ok(if r.bool()? {
        Some(load_acknack(r)?)
    } else {
        None
    })
}

pub(crate) fn save_request(w: &mut SnapshotWriter, req: &Request) {
    w.u8(req.cmd().encode());
    w.u64(req.addr());
    w.u32(req.burst_len());
    w.u8(req.burst_seq().encode());
    w.len(req.data().len());
    for &word in req.data() {
        w.u64(word);
    }
    w.u8(req.byte_en());
    w.u8(req.thread().0);
    w.u8(req.tag());
    w.u8(req.sideband().encode());
}

pub(crate) fn load_request(r: &mut SnapshotReader<'_>) -> Result<Request, SnapshotError> {
    let cmd = MCmd::decode(r.u8()?)
        .ok_or_else(|| SnapshotError::Malformed("bad OCP command tag".into()))?;
    let addr = r.u64()?;
    let burst_len = r.u32()?;
    let burst_seq = BurstSeq::decode(r.u8()?)
        .ok_or_else(|| SnapshotError::Malformed("bad OCP burst sequence tag".into()))?;
    let n = r.len()?;
    let mut data = Vec::new();
    for _ in 0..n {
        data.push(r.u64()?);
    }
    let byte_en = r.u8()?;
    let thread = ThreadId(r.u8()?);
    let tag = r.u8()?;
    let sideband = Sideband::decode(r.u8()?);
    let mut b = RequestBuilder::new(cmd, addr)
        .burst_seq(burst_seq)
        .byte_en(byte_en)
        .thread(thread)
        .tag(tag)
        .sideband(sideband);
    b = if cmd.carries_data() {
        b.data(data)
    } else {
        b.burst_len(burst_len)
    };
    b.build()
        .map_err(|e| SnapshotError::Malformed(format!("OCP request: {e}")))
}

pub(crate) fn save_response(w: &mut SnapshotWriter, resp: &Response) {
    w.u8(resp.resp().encode());
    w.len(resp.data().len());
    for &word in resp.data() {
        w.u64(word);
    }
    w.u8(resp.thread().0);
    w.u8(resp.tag());
}

pub(crate) fn load_response(r: &mut SnapshotReader<'_>) -> Result<Response, SnapshotError> {
    let resp = SResp::decode(r.u8()?);
    let n = r.len()?;
    let mut data = Vec::new();
    for _ in 0..n {
        data.push(r.u64()?);
    }
    let thread = ThreadId(r.u8()?);
    let tag = r.u8()?;
    Ok(Response::from_parts(resp, data, thread, tag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpipes_topology::route::SourceRoute;
    use xpipes_topology::PortId;

    #[test]
    fn flit_codec_roundtrips_head_and_plain() {
        let route = SourceRoute::new(vec![PortId(2), PortId(0)]).unwrap();
        let header =
            Header::request(&route, 0x2B, MCmd::Read, 4, ThreadId(1), 3, Sideband::NONE).unwrap();
        let head = Flit::head(
            FlitKind::Header,
            0x1234,
            header,
            FlitMeta::new(9, Cycle::new(41), 2),
        );
        let body = Flit::new(
            FlitKind::Body,
            u128::MAX - 5,
            FlitMeta::new(9, Cycle::new(41), 2),
        );
        let mut w = SnapshotWriter::new();
        save_flit(&mut w, &head);
        save_flit(&mut w, &body);
        save_opt_flit(&mut w, &None);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(load_flit(&mut r).unwrap(), head);
        assert_eq!(load_flit(&mut r).unwrap(), body);
        assert_eq!(load_opt_flit(&mut r).unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn link_layer_codecs_roundtrip() {
        let lf = LinkFlit {
            flit: Flit::new(FlitKind::Tail, 77, FlitMeta::new(3, Cycle::new(5), 1)),
            seq: 63,
            corrupted: true,
        };
        let an = AckNack {
            seq: 12,
            ack: false,
        };
        let mut w = SnapshotWriter::new();
        save_link_flit(&mut w, &lf);
        save_acknack(&mut w, &an);
        save_opt_link_flit(&mut w, &Some(lf));
        save_opt_acknack(&mut w, &None);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(load_link_flit(&mut r).unwrap(), lf);
        assert_eq!(load_acknack(&mut r).unwrap(), an);
        assert_eq!(load_opt_link_flit(&mut r).unwrap(), Some(lf));
        assert_eq!(load_opt_acknack(&mut r).unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn ocp_transaction_codecs_roundtrip() {
        let read = RequestBuilder::new(MCmd::Read, 0x1F0)
            .burst_len(4)
            .burst_seq(BurstSeq::Wrap)
            .thread(ThreadId(2))
            .tag(7)
            .build()
            .unwrap();
        let write = RequestBuilder::new(MCmd::WriteNonPost, 0x88)
            .data(vec![1, 2, 3])
            .byte_en(0x0F)
            .sideband(Sideband {
                interrupt: true,
                flags: 0b101,
            })
            .build()
            .unwrap();
        let resp = Response::for_request(&read, vec![10, 11, 12, 13]).unwrap();
        let mut w = SnapshotWriter::new();
        save_request(&mut w, &read);
        save_request(&mut w, &write);
        save_response(&mut w, &resp);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(load_request(&mut r).unwrap(), read);
        assert_eq!(load_request(&mut r).unwrap(), write);
        assert_eq!(load_response(&mut r).unwrap(), resp);
        r.finish().unwrap();
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut w = SnapshotWriter::new();
        w.u8(9); // no such flit kind
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            load_flit(&mut r),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
