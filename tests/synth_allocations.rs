//! Heap allocations of building and synthesizing a switch netlist,
//! counted exactly.
//!
//! A counting global allocator wraps `System` in this test binary only
//! (as in `ni_allocations.rs`). The binary holds one test: a second one
//! running in parallel would pollute the count.
//!
//! A gate keeps its input pins inline, so building a netlist allocates
//! only the builder's growing vectors and the generators' bus vectors,
//! and one synthesis run allocates one working copy, one timing graph
//! and the per-round buffers, whatever the gate count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xpipes::config::SwitchConfig;
use xpipes_synth::components::switch_netlist;
use xpipes_synth::report::synthesize_or_best;

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

/// Allocations one `synthesize_or_best` call may make, at any size.
const SYNTHESIS_BOUND: u64 = 80;

/// Allocations `f` makes, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn synthesis_allocations_do_not_grow_with_gate_count() {
    // The paper's 4x4 32-bit switch and the 6x4 128-bit one at almost
    // four times its gates. Both meet 1 GHz; 5 GHz is out of reach, so
    // that run also takes the max-speed probe and the refit.
    for config in [SwitchConfig::new(4, 4, 32), SwitchConfig::new(6, 4, 128)] {
        let (netlist, built) = counted(|| switch_netlist(&config));
        let (name, gates) = (netlist.name(), netlist.gate_count() as u64);
        println!("{name}: {gates} gates, {built} allocations to build");
        assert!(built * 8 < gates, "{name}: {built} allocations to build");
        for target_mhz in [1000.0, 5000.0] {
            let (report, synthesized) = counted(|| synthesize_or_best(&netlist, target_mhz));
            let fmax = report.expect("the switch synthesizes").fmax_mhz;
            println!("  at {target_mhz} MHz: {synthesized} allocations (fmax {fmax:.0} MHz)");
            assert!(
                synthesized < SYNTHESIS_BOUND,
                "{name} at {target_mhz} MHz: {synthesized} allocations"
            );
        }
    }
}
