//! Decoder totality at the service boundary: whatever bytes a client
//! sends, `proto::read_frame` and `CampaignSpec::from_json` return an
//! error or a valid value — never a panic.

use proptest::prelude::*;

use xpipes_service::proto::{self, Frame, ProtoError, MAX_FRAME};
use xpipes_service::spec::CampaignSpec;
use xpipes_sim::Json;

/// One frame on the wire: kind byte, little-endian length, payload.
fn wire(kind: u8, declared_len: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = vec![kind];
    bytes.extend_from_slice(&declared_len.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Bytes drawn from JSON's own alphabet get much deeper into the parser
/// than uniform noise does.
fn json_soup() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"[]{}\",:\\u0123456789abcdefDC-+.eE tnrl \xff\xc3";
    prop::collection::vec(0..ALPHABET.len(), 0..120)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Names a spec (or any JSON the service reads) is likely to contain.
const WORDS: &[&str] = &[
    "name",
    "faults",
    "cycles",
    "seed",
    "rates",
    "rates_bits",
    "warm_start",
    "flight_depth",
    "all",
    "ack-loss",
    "flit-corruption",
    "3f847ae147ae147b",
    "7ff8000000000000",
    "",
];

/// Builds a JSON tree from a tape of random words (the proptest shim
/// has no recursive strategies, so the tape is the strategy).
fn json_from_tape(tape: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
    let word = tape.next().unwrap_or(0);
    let (choice, rest) = (word % 8, word >> 3);
    let pick = |n: u64| WORDS[n as usize % WORDS.len()];
    match choice {
        0 => Json::Null,
        1 => Json::Bool(rest & 1 == 1),
        2 => Json::UInt(if rest & 1 == 1 { rest % 50_000 } else { rest }),
        3 => Json::Int(-((rest % 1000) as i64)),
        4 => Json::Fixed((rest % 2_000_000) as f64 / 1.0e6 - 0.5, 4),
        5 => Json::str(pick(rest)),
        6 if depth > 0 => Json::Array(
            (0..rest % 4)
                .map(|_| json_from_tape(tape, depth - 1))
                .collect(),
        ),
        7 if depth > 0 => Json::Object(
            (0..rest % 5)
                .map(|i| {
                    (
                        pick(rest / 5 + i).to_string(),
                        json_from_tape(tape, depth - 1),
                    )
                })
                .collect(),
        ),
        _ => Json::str(pick(rest)),
    }
}

fn valid_spec() -> Json {
    Json::parse(
        r#"{"name":"svc","faults":["flit-corruption","ack-loss"],"cycles":4000,"seed":11,
            "rates":[0.01,0.03],"warm_start":500,"flight_depth":64}"#,
    )
    .expect("valid spec")
}

/// An accepted spec is usable: its derived values compute and it
/// survives the wire form bit-exactly.
fn check_accepted(spec: &CampaignSpec) -> Result<(), String> {
    let _ = (spec.grid(), spec.fingerprint());
    let text = spec.to_json().render_compact();
    let relayed = CampaignSpec::from_json(&Json::parse(&text)?)?;
    if &relayed == spec {
        Ok(())
    } else {
        Err(format!("wire form changed the spec: {text}"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any kind byte, any length prefix (consistent, lying, or past
    /// `MAX_FRAME`), any payload — including a cut one.
    #[test]
    fn read_frame_is_total(
        kind in any::<u8>(),
        lie in prop_oneof![Just(None).boxed(), any::<u32>().prop_map(Some).boxed()],
        payload in prop_oneof![prop::collection::vec(any::<u8>(), 0..120).boxed(), json_soup().boxed()],
    ) {
        let declared = lie.unwrap_or(payload.len() as u32);
        let bytes = wire(kind, declared, &payload);
        match proto::read_frame(&mut bytes.as_slice()) {
            Ok(Frame::Blob(blob)) => prop_assert_eq!(blob.len(), declared as usize),
            Ok(Frame::Json(_)) => prop_assert!(declared as usize <= payload.len()),
            Err(ProtoError::TooLarge(n)) => prop_assert!(n > MAX_FRAME),
            Err(e) => prop_assert!(!e.to_string().contains('\n'), "{}", e),
        }
    }

    /// JSON frames of JSON-ish bytes: the parser under the frame reader.
    #[test]
    fn json_frames_of_soup_never_panic(payload in json_soup()) {
        let bytes = wire(0, payload.len() as u32, &payload);
        if let Err(e) = proto::read_frame(&mut bytes.as_slice()) {
            prop_assert!(matches!(e, ProtoError::BadJson(_)), "{}", e);
        }
    }

    /// Arbitrary JSON trees are rejected with one line or accepted as a
    /// usable spec.
    #[test]
    fn campaign_spec_from_arbitrary_json_is_total(
        tape in prop::collection::vec(any::<u64>(), 1..60),
    ) {
        let json = json_from_tape(&mut tape.into_iter(), 3);
        match CampaignSpec::from_json(&json) {
            Ok(spec) => prop_assert_eq!(check_accepted(&spec), Ok(())),
            Err(e) => prop_assert!(!e.is_empty() && !e.contains('\n'), "{}", e),
        }
    }

    /// A valid spec with one field replaced by an arbitrary value.
    #[test]
    fn mutated_valid_specs_are_total(
        field in 0usize..7,
        tape in prop::collection::vec(any::<u64>(), 1..30),
    ) {
        let Json::Object(mut fields) = valid_spec() else { unreachable!() };
        fields[field].1 = json_from_tape(&mut tape.into_iter(), 2);
        match CampaignSpec::from_json(&Json::Object(fields)) {
            Ok(spec) => prop_assert_eq!(check_accepted(&spec), Ok(())),
            Err(e) => prop_assert!(!e.is_empty() && !e.contains('\n'), "{}", e),
        }
    }
}
