//! The traced run: span recording around measured operations, per-name
//! busy and self times, and how much of the traced wall time the spans
//! cover.
//!
//! Spans come from two places: the benchmark's own `bench.*` spans
//! around each call into a layer's public function, and the spans the
//! program already emits once `affidavit_obs::set_enabled(true)` is
//! called (`ingest.stream`, `search.expand`, `serve.search`, ...). Both
//! land in the same event stream. It is drained after every operation
//! (after every phase on `serve-mixed`), well below the recorder's cap.

use std::collections::BTreeMap;

use affidavit_obs::{Event, KIND_BEGIN, KIND_END, KIND_POINT};

/// The span each measured operation runs under, on the thread that
/// drives it.
pub const OP_SPAN: &str = "bench.op";

/// Total length of a set of intervals, counting overlaps once.
fn union_len(mut spans: Vec<(u64, u64)>) -> u64 {
    spans.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for (begin, end) in spans {
        let begin = begin.max(reach);
        if end > begin {
            total += end - begin;
            reach = end;
        }
    }
    total
}

/// Span totals accumulated over the traced operations of one phase.
#[derive(Default)]
pub struct SpanTotals {
    /// Sum of span durations per name, over all threads, in ms.
    pub busy_ms: BTreeMap<String, f64>,
    /// Closed spans per name.
    pub calls: BTreeMap<String, u64>,
    /// Self time (duration minus direct children) per name, on the
    /// threads that ran [`OP_SPAN`]s, in ms.
    pub self_ms: BTreeMap<String, f64>,
    /// Self time per name over all threads, in ms.
    self_all_ms: BTreeMap<String, f64>,
    /// Wall time inside operation spans, overlaps counted once, in µs.
    op_us: u64,
    /// The part of `op_us` during which some other span was open on
    /// any thread, in µs.
    covered_us: u64,
    /// Events recorded (begin, end and point).
    pub events: u64,
    /// Events lost at the recorder's buffer cap.
    pub dropped: u64,
}

impl SpanTotals {
    pub fn busy(&self, name: &str) -> f64 {
        self.busy_ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// Fold in one drained batch of events that holds whole operations.
    pub fn absorb(&mut self, events: &[Event], dropped: u64) {
        self.events += events.len() as u64;
        self.dropped += dropped;
        let op_threads: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == KIND_BEGIN && e.name == OP_SPAN)
            .map(|e| e.thread)
            .collect();
        // Children's durations per parent span id (a span's parent is
        // always on its own thread) and begin times per span id.
        let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
        let mut begins: BTreeMap<u64, u64> = BTreeMap::new();
        for e in events {
            match e.kind.as_str() {
                KIND_BEGIN => {
                    begins.insert(e.span, e.ts_micros);
                }
                KIND_END => {
                    if let Some(parent) = e.parent {
                        *child_us.entry(parent).or_default() += e.elapsed_micros.unwrap_or(0);
                    }
                }
                _ => {}
            }
        }
        let (mut ops, mut others) = (Vec::new(), Vec::new());
        for e in events {
            match e.kind.as_str() {
                KIND_END => {
                    let us = e.elapsed_micros.unwrap_or(0);
                    *self.busy_ms.entry(e.name.clone()).or_default() += us as f64 / 1000.0;
                    *self.calls.entry(e.name.clone()).or_default() += 1;
                    let own = us.saturating_sub(child_us.get(&e.span).copied().unwrap_or(0));
                    let own = own as f64 / 1000.0;
                    *self.self_all_ms.entry(e.name.clone()).or_default() += own;
                    if op_threads.contains(&e.thread) {
                        *self.self_ms.entry(e.name.clone()).or_default() += own;
                    }
                    if let Some(&begin) = begins.get(&e.span) {
                        let interval = (begin, e.ts_micros.max(begin));
                        if e.name == OP_SPAN {
                            ops.push(interval);
                        } else {
                            others.push(interval);
                        }
                    }
                }
                KIND_POINT => *self.calls.entry(e.name.clone()).or_default() += 1,
                _ => {}
            }
        }
        // |ops ∩ others| = |ops| + |others ∩ hull| − |ops ∪ (others ∩ hull)|,
        // with others clipped to the operations' hull first.
        let op_us = union_len(ops.clone());
        let (lo, hi) = ops
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &(b, e)| (lo.min(b), hi.max(e)));
        let clipped: Vec<(u64, u64)> = others
            .into_iter()
            .map(|(b, e)| (b.max(lo), e.min(hi)))
            .filter(|(b, e)| e > b)
            .collect();
        let both = union_len(ops.into_iter().chain(clipped.iter().copied()).collect());
        self.op_us += op_us;
        self.covered_us += op_us + union_len(clipped) - both;
    }

    /// Share of the operations' wall time during which no span other
    /// than the operation span itself was open, on any thread.
    pub fn unattributed_ratio(&self) -> f64 {
        1.0 - self.covered_us as f64 / self.op_us.max(1) as f64
    }

    /// Share of the search's busy time that only its coarse spans
    /// (`search.explain`, `search.expand`) cover, over all threads: the
    /// part of the search no finer span names yet.
    pub fn search_unnamed_ratio(&self) -> f64 {
        let coarse: f64 = ["search.explain", "search.expand"]
            .iter()
            .map(|n| self.self_all_ms.get(*n).copied().unwrap_or(0.0))
            .sum();
        coarse / self.busy("search.explain").max(1e-9)
    }

    /// The trace as log lines: self time per span on the threads that
    /// drove the operations (these add up to the traced wall time;
    /// `bench.op`'s share is time no finer span on that thread names),
    /// then busy time per span over all threads.
    pub fn report(&self, wall_ms: f64) -> Vec<String> {
        let sorted = |map: &BTreeMap<String, f64>| {
            let mut rows: Vec<(String, f64)> = map.iter().map(|(k, v)| (k.clone(), *v)).collect();
            rows.sort_by(|a, b| b.1.total_cmp(&a.1));
            rows
        };
        let mut out = Vec::new();
        // Clients of the daemon only wait; their threads carry no span
        // but the operation's own, so they get no self-time table.
        if self.self_ms.keys().any(|name| name != OP_SPAN) {
            out.push(format!(
                "self time per span on the driving threads ({wall_ms:.1} ms traced wall):"
            ));
            for (name, ms) in sorted(&self.self_ms) {
                out.push(format!(
                    "  {name:<28} self {ms:>10.1} ms  {:>5.1}%",
                    100.0 * ms / wall_ms.max(1e-9)
                ));
            }
        }
        if self.dropped > 0 {
            out.push(format!(
                "{} events were dropped at the recorder's cap; the trace is incomplete",
                self.dropped
            ));
        }
        out.push("busy time per span over all threads:".to_owned());
        for (name, ms) in sorted(&self.busy_ms) {
            out.push(format!(
                "  {name:<28} busy {ms:>10.1} ms  calls {}",
                self.calls(&name)
            ));
        }
        out
    }
}

/// Records spans for one phase of measured operations. When off, every
/// method is a no-op and the program runs exactly as untraced.
pub struct Tracer {
    on: bool,
    spans: SpanTotals,
    /// Summed wall time of the traced operations, in ms.
    wall_ms: f64,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            spans: SpanTotals::default(),
            wall_ms: 0.0,
        }
    }

    pub fn on() -> Tracer {
        affidavit_obs::drain();
        affidavit_obs::set_enabled(true);
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Account one finished operation and the events it emitted.
    pub fn after_op(&mut self, wall_ms: f64) {
        if self.on {
            let (events, dropped) = affidavit_obs::drain();
            self.spans.absorb(&events, dropped);
            self.wall_ms += wall_ms;
        }
    }

    /// Drop events emitted since the last operation (checks and other
    /// work outside the measured operations).
    pub fn discard(&mut self) {
        if self.on {
            affidavit_obs::drain();
        }
    }

    /// Stop recording, folding in what is still buffered; returns the
    /// totals and the traced wall time of [`Tracer::after_op`]'s
    /// operations.
    pub fn finish(mut self) -> (SpanTotals, f64) {
        if self.on {
            affidavit_obs::set_enabled(false);
            let (events, dropped) = affidavit_obs::drain();
            self.spans.absorb(&events, dropped);
        }
        (self.spans, self.wall_ms)
    }
}
