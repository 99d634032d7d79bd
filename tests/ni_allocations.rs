//! Heap allocations per delivered packet, counted exactly.
//!
//! A counting global allocator wraps `System` in this test binary only,
//! so the product stays allocator-agnostic. The binary holds one test:
//! a second one running in parallel would pollute the count.
//!
//! The run is the load–latency 4x4 of the sweep benchmark at rate 0.05,
//! counted after a 1 000-cycle warm-up. What a packet still allocates is
//! memory an OCP type owns: the write data the injector builds, the
//! payload the reassembled request or response carries, and the read
//! data the target memory returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xpipes::noc::Noc;
use xpipes_topology::spec::NocSpec;
use xpipes_traffic::generator::{Injector, InjectorConfig};
use xpipes_traffic::pattern::Pattern;

/// Counts every `alloc` and `realloc`; frees are not counted.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Four initiators along the top row of a 4x4 mesh, four targets along
/// the bottom row, 1 MiB per target.
fn mesh4_spec() -> NocSpec {
    let mut b = xpipes_topology::builders::mesh(4, 4).expect("builds");
    for i in 0..4 {
        b.attach_initiator(format!("cpu{i}"), (i, 0))
            .expect("attaches");
    }
    let targets: Vec<_> = (0..4)
        .map(|i| b.attach_target(format!("m{i}"), (i, 3)).expect("attaches"))
        .collect();
    let mut spec = NocSpec::new("sweep-mesh4", b.into_topology());
    for (i, t) in targets.into_iter().enumerate() {
        spec.map_address(t, (i as u64) << 20, 1 << 20)
            .expect("maps");
    }
    spec
}

#[test]
fn allocations_per_delivered_packet_are_bounded() {
    let spec = mesh4_spec();
    let mut noc = Noc::with_seed(&spec, 7).expect("assembles");
    let mut inj = Injector::new(
        &spec,
        InjectorConfig::new(0.05, Pattern::Uniform),
        7 ^ 0x9E37,
    )
    .expect("injector");
    inj.run(&mut noc, 1_000);
    inj.drain_responses(&mut noc);

    let delivered_before = noc.stats().packets_delivered;
    let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        inj.run(&mut noc, 1_000);
        inj.drain_responses(&mut noc);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
    let delivered = noc.stats().packets_delivered - delivered_before;

    assert!(delivered > 1_000, "only {delivered} packets delivered");
    let per_packet = allocations as f64 / delivered as f64;
    println!("{allocations} allocations for {delivered} delivered packets = {per_packet:.3} each");
    // Half the requests are 4-beat reads (two packets: the read data the
    // memory returns, the response payload the initiator reassembles),
    // half are 4-beat posted writes (one packet: the injector's write
    // data, the request payload the target reassembles): two allocations
    // per transaction, 4/3 per packet. Before the NI tables became arrays
    // and the packet path stopped copying, this read 7.97.
    assert!(
        per_packet <= 1.34,
        "{per_packet:.3} allocations per delivered packet"
    );
}
