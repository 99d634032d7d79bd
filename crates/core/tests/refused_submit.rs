//! What a refused or unroutable transaction leaves behind, and why a
//! fabric holds at most 64 NIs. The header's `src_ni` field is 6 bits
//! wide. A fabric with more than 64 NIs used to assemble and then
//! refuse part of its traffic at run time — requests from an initiator
//! past the field were rejected at submit, and a *target* past it
//! silently dropped its responses, which hung every drain. Such a
//! fabric is now refused at assembly; what is left to pin at run time
//! is that a refused submit leaves no idle blocker behind.

use xpipes::noc::Noc;
use xpipes::XpipesError;
use xpipes_ocp::Request;
use xpipes_topology::builders::mesh;
use xpipes_topology::spec::NocSpec;
use xpipes_topology::NiId;

/// A 9x9 mesh with one NI attached first (so it gets id 0) at the centre
/// switch, then `others` NIs of the other kind dealt round-robin over the
/// 5x5 block around it — every route at most four hops plus ejection, so
/// only the id can get a fabric or a transaction refused.
fn mesh9(target_first: bool, others: usize) -> (NocSpec, NiId, Vec<NiId>) {
    let mut b = mesh(9, 9).expect("builds");
    let centre = (4, 4);
    let attach = |b: &mut xpipes_topology::builders::GridBuilder, target: bool, name, at| {
        if target {
            b.attach_target(name, at).expect("attaches")
        } else {
            b.attach_initiator(name, at).expect("attaches")
        }
    };
    let first = attach(&mut b, target_first, "first".to_string(), centre);
    let rest: Vec<NiId> = (0..others)
        .map(|k| {
            let at = (2 + k % 5, 2 + (k / 5) % 5);
            attach(&mut b, !target_first, format!("ni{k}"), at)
        })
        .collect();
    let mut spec = NocSpec::new("mesh9", b.into_topology());
    let targets: Vec<NiId> = if target_first {
        vec![first]
    } else {
        rest.clone()
    };
    for (i, t) in targets.iter().enumerate() {
        spec.map_address(*t, (i as u64) << 20, 1 << 20)
            .expect("maps");
    }
    (spec, first, rest)
}

/// The one-line error a fabric with an NI id past the field gets.
fn assert_refused_at_assembly(spec: &NocSpec, first_bad_id: u64) {
    let err = Noc::new(spec).expect_err("an NI id past the 6-bit field must not assemble");
    let expected = XpipesError::FieldOverflow {
        field: "src_ni",
        value: first_bad_id,
        bits: 6,
    };
    assert_eq!(err, expected);
    assert_eq!(
        err.to_string(),
        format!("header field src_ni value {first_bad_id} exceeds 6 bits")
    );
}

/// Initiators past the field: the 71-NI fabric that used to assemble and
/// refuse NI ids 64..=70 at submit, and the smallest one over the limit.
/// Exactly 64 NIs (ids 0..=63) still assemble.
#[test]
fn initiators_past_the_src_ni_field_are_refused_at_assembly() {
    assert_refused_at_assembly(&mesh9(true, 70).0, 64);
    assert_refused_at_assembly(&mesh9(true, 64).0, 64);
    Noc::new(&mesh9(true, 63).0).expect("64 NIs fit the field");
}

/// A target past the field used to be worse: the request reached it (it
/// is named by route, not by id), `TargetNi::tick` dropped the response
/// when `Header::response` refused the id, the initiator's outstanding
/// entry never cleared and `run_until_idle` burnt its whole budget.
#[test]
fn target_past_the_src_ni_field_is_refused_at_assembly() {
    let (spec, _cpu, targets) = mesh9(false, 64);
    assert_eq!(targets[63].0, 64, "the last target's id is past the field");
    assert_refused_at_assembly(&spec, 64);
}

/// Refused submits — an unmapped address, an unknown NI — are rejected
/// before anything is queued: once the accepted traffic drains the
/// network reports idle (in a debug build `is_idle` also checks its
/// cached blocker count against the full scan), and a further refused
/// submit leaves it idle.
#[test]
fn refused_submits_leave_the_network_idle() {
    let (spec, _mem, initiators) = mesh9(true, 63);
    let mut noc = Noc::new(&spec).expect("a 64-NI fabric assembles");
    for (k, &ni) in initiators.iter().enumerate() {
        let write = Request::write(8 * k as u64, vec![k as u64]).expect("valid");
        noc.submit(ni, write).expect("every id fits the field");
    }
    assert!(noc.run_until_idle(2_000), "accepted traffic must drain");
    assert_eq!(noc.stats().packets_delivered, 63);

    let unmapped = noc.submit(initiators[0], Request::read(1 << 40, 1).expect("valid"));
    assert!(matches!(unmapped, Err(XpipesError::UnmappedAddress(_))));
    let unknown = noc.submit(NiId(64), Request::read(0, 1).expect("valid"));
    assert_eq!(unknown, Err(XpipesError::UnknownNi(NiId(64))));
    assert!(noc.is_idle(), "a refused submit left an idle blocker set");
    assert!(noc.run_until_idle(10), "and the drain returns at once");
}
