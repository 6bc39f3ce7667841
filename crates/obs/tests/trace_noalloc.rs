//! The "zero-cost when disabled" contract of [`rll_obs::TraceCtx`], and the
//! allocation-free hit path of `MetricsRegistry` lookups that every served
//! request makes.
//!
//! Lives in its own integration-test binary because it installs a counting
//! `#[global_allocator]`. The count is per thread: the test harness runs the
//! other test and its own result reporting on other threads, and their
//! allocations must not land in the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use rll_obs::{Event, MemorySink, Phase, Recorder, TraceCtx};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a const-initialized `Cell` has no destructor, but never
        // panic inside the allocator.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_trace_span_path_is_allocation_free_and_silent() {
    // A recorder with a real sink: if the disabled path emitted anything,
    // the sink would see it.
    let sink = Arc::new(MemorySink::new());
    let recorder = Recorder::new("noalloc", vec![Box::new(sink.clone())]);

    // Warm up outside the measured window (lazy statics, the ctx itself).
    let ctx = TraceCtx::disabled(3, 7);
    let _ = ctx.id();

    let before = allocation_count();
    for _ in 0..100 {
        // The full per-request span path a disabled server walks: clone into
        // the engine, read the clock, record phases, finish.
        let engine_ctx = ctx.clone();
        let start = engine_ctx.now();
        engine_ctx.record(Phase::QueueWait, start, 0.0);
        engine_ctx.record(Phase::Forward, engine_ctx.now(), 0.0);
        ctx.record(Phase::Parse, 0.0, 0.0);
        if let Some(record) = ctx.finish("POST", "/embed", 200) {
            recorder.emit(rll_obs::EventKind::Trace(record));
        }
    }
    let after = allocation_count();

    assert_eq!(
        after - before,
        0,
        "disabled trace path allocated {} times",
        after - before
    );
    assert!(sink.is_empty(), "disabled tracing emitted events");
    assert_eq!(recorder.events_emitted(), 0);
}

#[test]
fn registry_lookup_of_an_existing_metric_is_allocation_free() {
    let recorder = Recorder::disabled();
    let metrics = recorder.metrics();
    // First lookups create the entries (and may allocate).
    metrics.counter("serve.http.requests").inc();
    metrics
        .latency_histogram("serve.handler.embed")
        .observe(1e-4);
    metrics
        .duration_histogram("span.serve.request")
        .observe(1e-4);
    metrics.gauge("serve.model.dim").set(4.0);

    let before = allocation_count();
    for _ in 0..100 {
        metrics.counter("serve.http.requests").inc();
        metrics
            .latency_histogram("serve.handler.embed")
            .observe(1e-4);
        metrics
            .duration_histogram("span.serve.request")
            .observe(1e-4);
        metrics.gauge("serve.model.dim").set(4.0);
    }
    let after = allocation_count();

    assert_eq!(
        after - before,
        0,
        "registry lookups on a hit allocated {} times",
        after - before
    );
    assert_eq!(metrics.counter("serve.http.requests").get(), 101);
    assert_eq!(
        metrics.latency_histogram("serve.handler.embed").count(),
        101
    );
}

#[test]
fn enabled_trace_records_and_emits() {
    // Sanity inverse: the same path with a recording ctx does produce one
    // event per request (so the zero above is meaningful).
    let sink = Arc::new(MemorySink::new());
    let recorder = Recorder::new("alloc-ok", vec![Box::new(sink.clone())]);
    let ctx = TraceCtx::recording(0, 0);
    ctx.record(Phase::Parse, ctx.now(), 0.0);
    let record = ctx.finish("GET", "/healthz", 200).expect("enabled trace");
    recorder.emit(rll_obs::EventKind::Trace(record));
    let events: Vec<Event> = sink.events();
    assert_eq!(events.len(), 1);
    assert!(matches!(events[0].kind, rll_obs::EventKind::Trace(_)));
}
