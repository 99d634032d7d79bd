//! Parser robustness: arbitrary input must produce a clean error or a
//! valid specification — never a panic, and never an invalid spec.
//! Every parsed spec also elaborates exactly when it validates.

use proptest::prelude::*;

use xpipes::Elaboration;
use xpipes_compiler::{parse_spec, print_spec};
use xpipes_topology::NocSpec;

/// The elaboration refuses a spec exactly when validation does, with
/// the same error, and sizes one config per switch when it accepts.
fn elaborates_like_validate(spec: &NocSpec) {
    match (Elaboration::new(spec), spec.validate()) {
        (Ok(elab), Ok(_)) => assert_eq!(elab.switches.len(), spec.topology.switch_count()),
        (Err(e), Err(v)) => assert_eq!(e, v),
        (elab, validate) => panic!(
            "elaboration {:?} but validation {:?}",
            elab.err(),
            validate.err()
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text never panics the parser.
    #[test]
    fn arbitrary_text_never_panics(input in ".{0,400}") {
        if let Ok(spec) = parse_spec(&input) {
            elaborates_like_validate(&spec);
        }
    }

    /// Arbitrary token soup (closer to the grammar's alphabet) never
    /// panics and, when accepted, round-trips.
    #[test]
    fn token_soup_is_handled(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("noc".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just("switch".to_string()),
                Just("link".to_string()),
                Just("<->".to_string()),
                Just("initiator".to_string()),
                Just("target".to_string()),
                Just("@".to_string()),
                Just("base".to_string()),
                Just("size".to_string()),
                Just("s0.0".to_string()),
                Just("s0".to_string()),
                Just("0x10".to_string()),
                Just("7".to_string()),
                Just("\n".to_string()),
            ],
            0..40,
        ),
    ) {
        let input = tokens.join(" ");
        if let Ok(spec) = parse_spec(&input) {
            elaborates_like_validate(&spec);
            let printed = print_spec(&spec);
            let reparsed = parse_spec(&printed).expect("printer output must parse");
            prop_assert_eq!(print_spec(&reparsed), printed);
        }
    }

    /// Numeric fields survive extreme values without panicking.
    #[test]
    fn extreme_numbers_handled(width in any::<u64>(), depth in any::<u64>()) {
        let text = format!(
            "noc x {{\n  flit_width {width}\n  queue_depth {depth}\n  switch a\n}}"
        );
        if let Ok(spec) = parse_spec(&text) {
            // Out-of-range values must be caught by validation, not by
            // a panic downstream.
            elaborates_like_validate(&spec);
        }
    }
}

#[test]
fn deeply_malformed_inputs_error_cleanly() {
    for bad in [
        "noc",
        "noc {",
        "noc a { noc b {",
        "noc a {\n link x.0 <-> y.0\n}",
        "noc a {\n switch s\n initiator i @ s.99\n}",
        "noc a {\n switch s\n target t @ s.0 base zz size 1\n}",
        "}{",
        "noc a {}\nextra",
    ] {
        assert!(parse_spec(bad).is_err(), "should reject: {bad:?}");
    }
}

#[test]
fn shipped_specs_elaborate_like_they_validate() {
    for name in ["mesh4x4", "media3", "ring6"] {
        let path = format!("{}/../../specs/{name}.noc", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("shipped spec is readable");
        // The spec as shipped, then broken in ways validation names.
        let flit = text
            .lines()
            .find(|l| l.contains("flit_width"))
            .expect("sets a width");
        let queue = text
            .lines()
            .find(|l| l.contains("queue_depth"))
            .expect("sets a depth");
        let close = text.rfind('}').expect("closes its block");
        let island = format!("{}  switch island\n{}", &text[..close], &text[close..]);
        let mut variants = vec![
            text.clone(),
            text.replace(flit, "  flit_width 4"),
            text.replace(queue, "  queue_depth 1"),
            island,
        ];
        // A link deeper than the go-back-N window holds, or of no depth.
        if let Some(line) = text.lines().find(|l| l.contains(" stages ")) {
            let (link, _) = line.split_once(" stages ").expect("found");
            for stages in [15, 0] {
                variants.push(text.replace(line, &format!("{link} stages {stages}")));
            }
        }
        assert_eq!(
            variants.len() == 6,
            name == "media3",
            "{name} spells out stages"
        );
        for (i, variant) in variants.iter().enumerate() {
            let spec = parse_spec(variant).expect("variant parses");
            elaborates_like_validate(&spec);
            assert_eq!(
                Elaboration::new(&spec).is_ok(),
                i == 0,
                "{name} variant {i}"
            );
        }
    }
}
