//! Allocation regression tests for the interaction kernels.
//!
//! The far-field sweep visits one interaction list per occupied cell per
//! level per trial; an allocation in that loop makes the allocator the
//! hottest symbol. These tests pin the allocation-free contract: once the
//! `OwnerTree` is built, a full `ffi_acd_with_tree` evaluation performs
//! **zero** heap allocations on dense and fallback assignments alike,
//! rebuilding the tree at an unchanged grid order reuses its pyramid
//! tables, and the NFI row scan allocates nothing.
//!
//! The lib crates `forbid(unsafe_code)`; the counting allocator below needs
//! the (inherently unsafe) `GlobalAlloc` trait, which is why this lives in
//! an integration test with its own crate root.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Per thread, so tests running
    /// concurrently in this binary do not count each other's allocations.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter is a
// side effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

use sfc_core::assignment::Assignment;
use sfc_core::ffi::{ffi_acd_with_tree, OwnerTree};
use sfc_core::machine::Machine;
use sfc_core::nfi::nfi_acd;
use sfc_curves::point::Norm;
use sfc_curves::{CurveKind, Point2};
use sfc_topology::TopologyKind;

fn workload() -> Vec<Point2> {
    // A deterministic scatter over a 16x16 grid, dense enough that every
    // level of the tree and many interaction lists are populated.
    let mut pts = Vec::new();
    for x in 0..16u32 {
        for y in 0..16u32 {
            if (x * 13 + y * 7) % 3 != 0 {
                pts.push(Point2::new(x, y));
            }
        }
    }
    pts
}

/// The workspace pins a sequential rayon stand-in, so every kernel below
/// runs on the calling thread and the per-thread counter observes exactly
/// the kernel's own allocations.
#[test]
fn ffi_sweep_allocates_nothing_after_tree_build() {
    let particles = workload();
    let dense = Assignment::new(&particles, 4, CurveKind::Hilbert, 16);
    let sparse = Assignment::with_dense_grid(&particles, 4, CurveKind::Hilbert, 16, false);
    let machine = Machine::new(TopologyKind::Torus, 16, CurveKind::Hilbert);
    let mut expected = None;
    for asg in [&dense, &sparse] {
        let tree = OwnerTree::build(asg);
        // Warm-up call so lazily initialized state (oracle rows etc.) is built.
        let warm = ffi_acd_with_tree(asg, &machine, &tree).unwrap();
        let (allocs, got) = allocations_during(|| ffi_acd_with_tree(asg, &machine, &tree).unwrap());
        assert_eq!(got, warm);
        assert_eq!(
            *expected.get_or_insert(got),
            got,
            "dense and fallback disagree"
        );
        assert_eq!(
            allocs,
            0,
            "ffi_acd_with_tree must not allocate per call (dense grid: {})",
            asg.has_dense_grid()
        );
    }
}

#[test]
fn owner_tree_rebuild_reuses_the_pyramid() {
    let particles = workload();
    let first = Assignment::new(&particles, 4, CurveKind::Hilbert, 16);
    let second = Assignment::new(&particles, 4, CurveKind::RowMajor, 16);
    let mut tree = OwnerTree::build(&first);
    let (allocs, ()) = allocations_during(|| tree.rebuild(&second));
    assert_eq!(
        allocs, 0,
        "rebuild at an unchanged grid order must reuse its tables"
    );
    let machine = Machine::new(TopologyKind::Torus, 16, CurveKind::RowMajor);
    assert_eq!(
        ffi_acd_with_tree(&second, &machine, &tree).unwrap(),
        ffi_acd_with_tree(&second, &machine, &OwnerTree::build(&second)).unwrap()
    );
}

#[test]
fn nfi_row_scan_allocates_nothing() {
    let particles = workload();
    let asg = Assignment::new(&particles, 4, CurveKind::Hilbert, 16);
    let machine = Machine::new(TopologyKind::Torus, 16, CurveKind::Hilbert);
    let expected = nfi_acd(&asg, &machine, 2, Norm::Chebyshev).unwrap();
    let (allocs, got) = allocations_during(|| nfi_acd(&asg, &machine, 2, Norm::Chebyshev).unwrap());
    assert_eq!(got, expected);
    assert_eq!(
        allocs, 0,
        "the dense row-segment NFI scan must not allocate"
    );
}
