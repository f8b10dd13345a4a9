//! A policy program steps without allocating: 10,000 random hit/evict steps
//! of each program at 12 and 16 ways (victim probes and resets included)
//! make no heap allocation, and a clone allocates only its box and its ages.
//! A test binary of its own, because it replaces the global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use policies::{PolicyInput, PolicyKind};

thread_local! {
    /// Allocations made by this thread; the test harness's own threads do
    /// not disturb the count.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: the caller's guarantees about `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, since
        // `alloc` (and the default `realloc`, through it) forwards there.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn program_steps_allocate_nothing_and_clones_copy_only_the_ages() {
    let allocations = || ALLOCATIONS.with(Cell::get);
    for kind in PolicyKind::ALL_DETERMINISTIC {
        for assoc in [12, 16] {
            if kind.program(assoc).is_none() {
                continue;
            }
            let mut policy = kind.build_reference(assoc).unwrap();
            let mut x = 0x2545_f491_4f6c_dd1du64;
            let before = allocations();
            for step in 0..10_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let input = if x.is_multiple_of(3) {
                    PolicyInput::Evct
                } else {
                    PolicyInput::line((x >> 8) as usize % assoc)
                };
                black_box(policy.apply(input));
                if step.is_multiple_of(100) {
                    black_box(policy.victim());
                }
                if step % 1000 == 999 {
                    policy.reset();
                }
            }
            assert_eq!(allocations() - before, 0, "{kind}@{assoc} allocated");

            let before = allocations();
            let clone = black_box(policy.clone_box());
            // One box for the clone, one buffer for its ages.
            assert_eq!(allocations() - before, 2, "{kind}@{assoc} clone");
            drop(clone);
        }
    }
}
