//! Spans around the benchmark's calls into each layer.
//!
//! A span names the layer a call enters. Spans nest per thread: a
//! span's *self* time is its duration minus the time its child spans
//! on the same thread covered. Totals are kept in memory and read once
//! when the run ends. With tracing off a span costs one atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layers spans are named after.
pub const LAYERS: [&str; 10] = [
    "workloads",
    "vm",
    "memsim",
    "gc",
    "jit",
    "hpm",
    "core",
    "telemetry",
    "profile",
    "serve",
];

/// Accumulated time of one layer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// A span recorder. The process-wide instance is [`TRACER`].
pub struct Tracer {
    enabled: AtomicBool,
    totals: Mutex<BTreeMap<&'static str, Totals>>,
}

/// The recorder the benchmark's spans report to.
pub static TRACER: Tracer = Tracer::new();

thread_local! {
    /// Per open span on this thread: nanoseconds covered by its
    /// closed children so far.
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// A recorder with tracing off.
    pub const fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            totals: Mutex::new(BTreeMap::new()),
        }
    }

    /// Turn recording on or off. Spans already open finish as opened.
    pub fn set_enabled(&self, on: bool) {
        // Relaxed: the flag publishes no other data.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Open a span for `layer`; it closes when the guard drops.
    pub fn span(&self, layer: &'static str) -> Span<'_> {
        if !self.enabled.load(Ordering::Relaxed) {
            return Span { open: None };
        }
        CHILD_NS.with(|s| s.borrow_mut().push(0));
        Span {
            open: Some((self, layer, Instant::now())),
        }
    }

    /// Totals per layer recorded so far.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        self.totals
            .lock()
            .expect("no span panics while holding the totals")
            .clone()
    }

    fn close(&self, layer: &'static str, start: Instant) {
        let total_ns = start.elapsed().as_nanos() as u64;
        let child_ns = CHILD_NS.with(|s| {
            let mut stack = s.borrow_mut();
            let child = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent += total_ns;
            }
            child
        });
        let mut totals = self
            .totals
            .lock()
            .expect("no span panics while holding the totals");
        let t = totals.entry(layer).or_default();
        t.count += 1;
        t.total_ns += total_ns;
        t.self_ns += total_ns.saturating_sub(child_ns);
    }
}

/// An open span; closing it (on drop) records its time.
pub struct Span<'t> {
    open: Option<(&'t Tracer, &'static str, Instant)>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((tracer, layer, start)) = self.open.take() {
            tracer.close(layer, start);
        }
    }
}

/// Open a span on the process-wide recorder.
pub fn span(layer: &'static str) -> Span<'static> {
    TRACER.span(layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_child_spans() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        {
            let _outer = tracer.span("core");
            std::thread::sleep(Duration::from_millis(5));
            for _ in 0..2 {
                let _inner = tracer.span("vm");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let t = tracer.totals();
        let (core, vm) = (t["core"], t["vm"]);
        assert_eq!((core.count, vm.count), (1, 2));
        assert_eq!(vm.self_ns, vm.total_ns, "leaf spans are all self time");
        assert_eq!(core.self_ns + vm.total_ns, core.total_ns);
        assert!(core.self_ns >= 5_000_000);
        assert!(vm.total_ns >= 10_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new();
        drop(tracer.span("vm"));
        assert!(tracer.totals().is_empty());
    }
}
