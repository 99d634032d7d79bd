//! What a refused or unroutable transaction leaves behind (ROADMAP item
//! 3). The header's `src_ni` field is 6 bits wide, so a fabric with more
//! than 64 NIs assembles and then refuses part of its traffic at run
//! time. Two questions about that: does a *refused submit* leave the
//! idle-blocker cache dirty (it does not), and what does hang a drain
//! (a *target* NI whose id does not fit the field).

use xpipes::noc::Noc;
use xpipes::XpipesError;
use xpipes_ocp::Request;
use xpipes_topology::builders::mesh;
use xpipes_topology::spec::NocSpec;
use xpipes_topology::NiId;

/// A 9x9 mesh with one NI attached first (so it gets id 0) at the centre
/// switch, then `others` NIs of the other kind dealt round-robin over the
/// 5x5 block around it — every route at most four hops plus ejection, so
/// only the id can get a transaction refused.
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

/// Refused submits — a source id past the 6-bit field, an unmapped
/// address — are rejected before anything is queued: once the accepted
/// traffic drains the network reports idle (in a debug build `is_idle`
/// also checks its cached blocker count against the full scan), and a
/// further refused submit leaves it idle.
#[test]
fn refused_submits_leave_the_network_idle() {
    let (spec, _mem, initiators) = mesh9(true, 70);
    let mut noc = Noc::new(&spec).expect("a 71-NI fabric assembles");
    let mut accepted = 0;
    for (k, &ni) in initiators.iter().enumerate() {
        let write = Request::write(8 * k as u64, vec![k as u64]).expect("valid");
        match noc.submit(ni, write) {
            Ok(()) => accepted += 1,
            Err(e) => assert!(
                ni.0 >= 64 && e.to_string().contains("6 bits"),
                "NI {} refused for another reason: {e}",
                ni.0
            ),
        }
    }
    assert_eq!(accepted, 63, "exactly NI ids 64..=70 are refused");
    assert!(noc.run_until_idle(2_000), "accepted traffic must drain");
    assert_eq!(noc.stats().packets_delivered, accepted);

    let unmapped = noc.submit(initiators[0], Request::read(1 << 40, 1).expect("valid"));
    assert!(matches!(unmapped, Err(XpipesError::UnmappedAddress(_))));
    let refused = noc.submit(initiators[69], Request::read(0, 1).expect("valid"));
    assert!(refused.is_err());
    assert!(noc.is_idle(), "a refused submit left an idle blocker set");
    assert!(noc.run_until_idle(10), "and the drain returns at once");
}

/// What does hang a drain: a **target** NI whose id does not fit the
/// 6-bit `src_ni` field. The request reaches it (it is named by route,
/// not by id), but `TargetNi::tick` drops the response when
/// `Header::response` refuses the id, so the initiator's outstanding
/// entry never clears and the network is never idle again.
///
/// This pins today's behaviour; ROADMAP item 3a (widen the field, or
/// reject such a fabric at assembly) owns the fix, and should turn the
/// final assertions around.
#[test]
fn target_past_the_src_ni_field_drops_its_response() {
    let (spec, cpu, targets) = mesh9(false, 64);
    assert_eq!(targets[63].0, 64, "the last target's id is past the field");
    let mut noc = Noc::new(&spec).expect("assembles");
    noc.submit(cpu, Request::read(63 << 20, 1).expect("valid"))
        .expect("the request itself is routable");
    assert!(
        !noc.run_until_idle(5_000),
        "item 3a fixed? then update this test"
    );
    assert_eq!(noc.stats().packets_delivered, 1, "only the request arrived");
    assert!(noc.take_response(cpu).expect("known NI").is_none());
}
