//! Drain-per-slice aggregation of the events the program already emits.
//!
//! The recorder keeps only the newest 64Ki events per thread, so a traced
//! run drains after every short slice ([`Agg::drain_slice`]) and resets
//! the rings at that quiescent point. Every per-unit figure is normalised
//! by the parent spans the aggregator actually saw complete (the *unit*
//! spans), never by the operations the benchmark sent: a wrapped ring then
//! shrinks numerator and denominator together.

use std::collections::BTreeMap;

use lowino_trace::EventKind;

/// Total duration and count of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
}

/// Count, sum and maximum of one instant's argument.
#[derive(Debug, Default, Clone, Copy)]
pub struct InstantTotal {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

/// Everything folded from the drained slices of one traced run.
#[derive(Debug, Default)]
pub struct Agg {
    /// Span name that delimits one unit of work (`bench/pass`,
    /// `bench/forward`, `serve/batch`): per-unit figures divide by its count.
    unit: &'static str,
    pub spans: BTreeMap<&'static str, SpanTotal>,
    pub counters: BTreeMap<&'static str, u64>,
    pub instants: BTreeMap<&'static str, InstantTotal>,
    /// `pool/phase` spans opened inside a unit span on the same thread.
    pub phases_in_units: u64,
    /// `graph/layer` time of ops that ran a pool job (convolutions).
    pub graph_conv_ns: u64,
    /// `graph/layer` time of ops that did not (pooling, GAP, linear).
    pub graph_glue_ns: u64,
    /// Every duration of the named spans, for medians.
    pub samples: BTreeMap<&'static str, Vec<u64>>,
    /// Events lost to ring wraparound.
    pub dropped: u64,
}

struct Open {
    name: &'static str,
    ts_ns: u64,
    /// A `pool/phase` began while this span was open.
    saw_phase: bool,
}

/// Span names whose individual durations are kept for medians.
const SAMPLED: &[&str] = &["serve/batch", "serve/request"];

impl Agg {
    pub fn new(unit: &'static str) -> Self {
        Self {
            unit,
            ..Self::default()
        }
    }

    /// Completed unit spans seen so far.
    pub fn units(&self) -> u64 {
        self.span(self.unit).count
    }

    pub fn span(&self, name: &str) -> SpanTotal {
        self.spans.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn instant(&self, name: &str) -> InstantTotal {
        self.instants.get(name).copied().unwrap_or_default()
    }

    /// Per-unit value of a nanosecond total, in milliseconds.
    pub fn per_unit_ms(&self, total_ns: u64) -> f64 {
        total_ns as f64 / 1e6 / self.units().max(1) as f64
    }

    /// Fold every retained event into the totals, then clear the rings.
    /// Call only when the traced threads are idle (between slices).
    pub fn drain_slice(&mut self) {
        for thread in lowino_trace::drain() {
            self.dropped += thread.dropped;
            self.fold_thread(&thread.events);
        }
        lowino_trace::reset();
    }

    /// Fold one thread's events, oldest first. An `End` whose `Begin` was
    /// lost to wraparound is ignored, as is a span still open at the drain.
    pub fn fold_thread(&mut self, events: &[lowino_trace::Event]) {
        let mut stack: Vec<Open> = Vec::new();
        for ev in events {
            match ev.kind {
                EventKind::Begin => {
                    if ev.name == "pool/phase" {
                        if stack.iter().any(|o| o.name == self.unit) {
                            self.phases_in_units += 1;
                        }
                        for open in stack.iter_mut() {
                            open.saw_phase = true;
                        }
                    }
                    stack.push(Open {
                        name: ev.name,
                        ts_ns: ev.ts_ns,
                        saw_phase: false,
                    });
                }
                EventKind::End => {
                    let Some(pos) = stack.iter().rposition(|o| o.name == ev.name) else {
                        continue;
                    };
                    let open = stack.remove(pos);
                    let dur = ev.ts_ns.saturating_sub(open.ts_ns);
                    let t = self.spans.entry(open.name).or_default();
                    t.count += 1;
                    t.total_ns += dur;
                    if open.name == "graph/layer" {
                        if open.saw_phase {
                            self.graph_conv_ns += dur;
                        } else {
                            self.graph_glue_ns += dur;
                        }
                    }
                    if SAMPLED.contains(&open.name) {
                        self.samples.entry(open.name).or_default().push(dur);
                    }
                }
                EventKind::Counter => *self.counters.entry(ev.name).or_default() += ev.arg,
                EventKind::Instant => {
                    let t = self.instants.entry(ev.name).or_default();
                    t.count += 1;
                    t.sum += ev.arg;
                    t.max = t.max.max(ev.arg);
                }
            }
        }
    }

    /// Median duration of a sampled span, in milliseconds (0 if unseen).
    pub fn median_ms(&self, name: &str) -> f64 {
        match self.samples.get(name) {
            Some(v) if !v.is_empty() => {
                let ms: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e6).collect();
                crate::stats::median(&ms)
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowino_trace::Event;

    fn ev(kind: EventKind, name: &'static str, ts_ns: u64) -> Event {
        Event {
            kind,
            name,
            arg: 0,
            ts_ns,
        }
    }

    #[test]
    fn splits_graph_layers_and_counts_phases_per_unit() {
        use EventKind::*;
        let events = [
            ev(End, "pool/phase", 1), // Begin lost to wraparound: ignored
            ev(Begin, "bench/forward", 10),
            ev(Begin, "graph/layer", 11),
            ev(Begin, "pool/phase", 12),
            ev(End, "pool/phase", 15),
            ev(Begin, "pool/phase", 15),
            ev(End, "pool/phase", 17),
            ev(End, "graph/layer", 20),
            ev(Begin, "graph/layer", 20),
            ev(End, "graph/layer", 24),
            ev(End, "bench/forward", 30),
            ev(Begin, "pool/phase", 40), // outside any unit
            ev(End, "pool/phase", 41),
        ];
        let mut agg = Agg::new("bench/forward");
        agg.fold_thread(&events);
        assert_eq!(agg.units(), 1);
        assert_eq!(agg.phases_in_units, 2);
        assert_eq!(agg.span("pool/phase").count, 3);
        assert_eq!(agg.graph_conv_ns, 9);
        assert_eq!(agg.graph_glue_ns, 4);
        assert_eq!(agg.span("bench/forward").total_ns, 20);
        assert_eq!(agg.median_ms("serve/batch"), 0.0);
    }

    #[test]
    fn medians_of_sampled_spans() {
        use EventKind::*;
        let mut agg = Agg::new("serve/batch");
        for (start, len) in [(0, 3_000_000), (10, 1_000_000), (20, 2_000_000)] {
            agg.fold_thread(&[
                ev(Begin, "serve/batch", start),
                ev(End, "serve/batch", start + len),
            ]);
        }
        assert_eq!(agg.units(), 3);
        assert_eq!(agg.median_ms("serve/batch"), 2.0);
        assert_eq!(agg.per_unit_ms(agg.span("serve/batch").total_ns), 2.0);
    }
}
