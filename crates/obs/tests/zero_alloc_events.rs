//! The event layer's cost contract, proven with a counting allocator:
//!
//! - fully disabled (the default), a `span!` site allocates nothing —
//!   it is one relaxed atomic load;
//! - with spans enabled but event recording **disabled**, enter/exit
//!   still allocates nothing — the event hook is one more relaxed load;
//! - with the **flight recorder** active, steady-state recording (ring
//!   warm) allocates nothing either: the ring is pre-sized and
//!   overwrite-oldest.
//!
//! One sequential test: the span/event gates are process-global, so
//! phases must not interleave.

use qplacer_testalloc::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use qplacer_obs::{
    clear_events, event_snapshot, set_event_mode, set_flight_capacity, set_spans_enabled, EventMode,
};

#[test]
fn span_and_event_paths_hold_the_zero_allocation_contract() {
    // Phase 0: both gates off — the whole call site is one atomic load.
    let (allocs, ()) = allocations(|| {
        for _ in 0..10_000 {
            let _span = qplacer_obs::span!("zero_alloc_disabled_probe");
            std::hint::black_box(());
        }
    });
    assert_eq!(allocs, 0, "disabled span sites must not allocate");

    // Small ring so the flight warm-up fills it quickly.
    set_flight_capacity(64);
    clear_events();
    set_spans_enabled(true);
    set_event_mode(EventMode::Off);

    // Warm-up: claims the site's slot (one-time registry work is
    // allowed to allocate).
    for _ in 0..4 {
        let _span = qplacer_obs::span!("zero_alloc_probe");
    }

    // Phase 1: spans enabled, events disabled => still allocation-free.
    let (allocs, ()) = allocations(|| {
        for _ in 0..10_000 {
            let _span = qplacer_obs::span!("zero_alloc_probe");
            std::hint::black_box(());
        }
    });
    assert_eq!(
        allocs, 0,
        "span enter/exit with events disabled must not allocate"
    );

    // Phase 2: flight recorder warm => recording allocates nothing.
    set_event_mode(EventMode::Flight);
    // Warm-up: creates this thread's ring (pre-sized) and fills it so
    // every later record is an overwrite.
    for _ in 0..128 {
        let _span = qplacer_obs::span!("zero_alloc_probe");
    }
    let (allocs, ()) = allocations(|| {
        for _ in 0..10_000 {
            let _span = qplacer_obs::span!("zero_alloc_probe");
            std::hint::black_box(());
        }
    });
    assert_eq!(
        allocs, 0,
        "warm flight-recorder recording must not allocate"
    );

    // The ring actually recorded (overwrite-oldest, bounded).
    let snapshot = event_snapshot();
    assert!(snapshot.dropped > 0, "ring wrapped during the hot loop");
    assert!(
        snapshot.events.iter().all(|e| e.name == "zero_alloc_probe"),
        "ring holds the probe's events"
    );
    assert!(snapshot.events.len() <= 64, "ring stayed bounded");

    set_event_mode(EventMode::Off);
    set_spans_enabled(false);
    clear_events();
}
