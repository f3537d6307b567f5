//! Spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end and the span that was open when it
//! began (its parent); a pass of a workload opens one root span, so all
//! spans of one pass share that root. Spans are kept in memory and written
//! out when the run ends. A layer's self time is its spans' duration minus
//! the part covered by their child spans.
//!
//! When tracing is off, [`Tracer::span`] calls the closure and records
//! nothing, so untraced passes run the same code with no timing calls.

use crate::common::insert_unique;
use jsonio::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64()
    }
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A tracer for another thread that shares this one's clock origin, so
    /// its spans can be merged back with [`Self::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name` (when tracing is on).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    /// Adds `value` to the counter `name` (when tracing is on), so counts
    /// are taken at the same boundaries as the spans.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += value;
        }
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// Merges a forked tracer's spans, parenting its roots under the span
    /// open here.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let parent = self.open.last().copied();
        for mut span in other.spans {
            span.parent = match span.parent {
                Some(p) => Some(p + offset),
                None => parent,
            };
            self.spans.push(span);
        }
        for (name, value) in other.counts {
            *self.counts.entry(name).or_default() += value;
        }
    }

    /// Calls, total duration and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_s[p] += span.secs();
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_s) {
            let entry = totals.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_s += span.secs();
            // Children on other threads may overlap their parent in time.
            entry.self_s += (span.secs() - children).max(0.0);
        }
        totals
    }

    /// Every span as JSON, for writing out at the end of a traced run.
    pub fn spans_json(&self) -> Result<Json, String> {
        let mut rows = Json::array();
        for (id, span) in self.spans.iter().enumerate() {
            let mut row = Json::object();
            insert_unique(&mut row, "id", id)?;
            insert_unique(&mut row, "name", span.name)?;
            insert_unique(
                &mut row,
                "parent",
                span.parent.map_or(Json::Null, Json::from),
            )?;
            insert_unique(&mut row, "start_s", span.start.as_secs_f64())?;
            insert_unique(&mut row, "end_s", span.end.as_secs_f64())?;
            rows.push(row);
        }
        let mut doc = Json::object();
        insert_unique(&mut doc, "spans", rows)?;
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("child", |_| std::thread::sleep(Duration::from_millis(20)));
            std::thread::sleep(Duration::from_millis(5));
        });
        let totals = t.totals();
        let root = totals["root"];
        let child = totals["child"];
        assert!(root.total_s >= child.total_s);
        assert!(root.self_s < root.total_s - 0.015);
        assert!((child.self_s - child.total_s).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.totals().is_empty());
    }
}
