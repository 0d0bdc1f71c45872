//! Zero-allocation steady state for the engine's event dispatch.
//!
//! A counting global allocator wraps the system allocator; after one
//! warm-up churn cycle has sized every reusable buffer (slab, queue,
//! solver scratch, per-link indexes), draining a second identical flow
//! population through [`NetSim::next_event`] must not touch the heap at
//! all. This is the allocation-free-dispatch mirror of the
//! `shrink_scratch` high-water regression tests: those bound how big the
//! scratch may stay, this proves the hot loop never grows it.
//!
//! The allocator lives here (an integration test is its own crate root)
//! because every library crate carries `#![forbid(unsafe_code)]` and a
//! `GlobalAlloc` impl is necessarily unsafe.

#![allow(
    unsafe_code,
    reason = "a counting GlobalAlloc is unsafe; outside library scope"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datagrid_simnet::prelude::*;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Per-thread, not global:
    /// the test harness runs tests on parallel threads, and each test
    /// must see only its own allocations. `const`-initialised with no
    /// destructor, so bumping it never allocates or registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// a -- hub -- b plus hub -- c, all 100 Mbps / 1 ms.
fn star() -> (Topology, NodeId, NodeId, NodeId) {
    let mut topo = Topology::new();
    let a = topo.add_node("a");
    let b = topo.add_node("b");
    let c = topo.add_node("c");
    let hub = topo.add_node("hub");
    let spec = || LinkSpec::new(Bandwidth::from_mbps(100.0), SimDuration::from_millis(1));
    topo.add_duplex_link(a, hub, spec());
    topo.add_duplex_link(b, hub, spec());
    topo.add_duplex_link(c, hub, spec());
    (topo, a, b, c)
}

fn churn_cycle(sim: &mut NetSim, a: NodeId, b: NodeId, c: NodeId, flows: usize) {
    for i in 0..flows {
        let (src, dst) = if i % 2 == 0 { (a, b) } else { (a, c) };
        sim.start_flow(FlowSpec::new(src, dst, 4_000_000 + (i as u64) * 37_000));
    }
    while sim.next_event().is_some() {}
    assert_eq!(sim.active_flow_count(), 0);
}

#[test]
fn warmed_event_drain_allocates_nothing() {
    let (topo, a, b, c) = star();
    let mut sim = NetSim::new(topo, 7);
    // Certificate checking builds diagnostic state per solve; this test is
    // about the dispatch path, so audit the allocation claim unclouded.
    sim.set_validation(false);
    // Auto-shrink would legitimately reallocate scratch mid-drain.
    sim.set_auto_shrink(false);

    const FLOWS: usize = 96;
    // Cycle 1 sizes every buffer; cycle 2 confirms the sizing is stable.
    churn_cycle(&mut sim, a, b, c, FLOWS);
    churn_cycle(&mut sim, a, b, c, FLOWS);

    // Measured cycle: identical population, buffers warm. Flow *starts*
    // are outside the claim (routes are Arc-shared but id bookkeeping may
    // rehash); the drained event loop itself must be allocation-free.
    for i in 0..FLOWS {
        let (src, dst) = if i % 2 == 0 { (a, b) } else { (a, c) };
        sim.start_flow(FlowSpec::new(src, dst, 4_000_000 + (i as u64) * 37_000));
    }
    let before = allocs();
    while sim.next_event().is_some() {}
    let after = allocs();
    assert_eq!(sim.active_flow_count(), 0);
    assert_eq!(
        after - before,
        0,
        "warmed event drain must not allocate (saw {} allocations)",
        after - before
    );
}

#[test]
fn warmed_drain_stays_allocation_free_with_batching_off() {
    // The per-event solve path (differential-testing mode) shares the
    // same reusable scratch; it must be equally allocation-free.
    let (topo, a, b, c) = star();
    let mut sim = NetSim::new(topo, 7);
    sim.set_validation(false);
    sim.set_auto_shrink(false);
    sim.set_event_batching(false);

    const FLOWS: usize = 64;
    churn_cycle(&mut sim, a, b, c, FLOWS);
    churn_cycle(&mut sim, a, b, c, FLOWS);

    for i in 0..FLOWS {
        let (src, dst) = if i % 2 == 0 { (a, b) } else { (a, c) };
        sim.start_flow(FlowSpec::new(src, dst, 4_000_000 + (i as u64) * 37_000));
    }
    let before = allocs();
    while sim.next_event().is_some() {}
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "per-event drain must not allocate (saw {} allocations)",
        after - before
    );
}
