//! In-memory host-time spans, recorded by the benchmark around its calls
//! into each layer of the library. Spans are kept until the run ends and
//! summarised into per-layer metrics; with tracing off nothing is kept.

use std::time::Instant;

/// One closed span: a named interval on the host clock, the span that
/// caused it, and the round it belongs to (spans of one round share it).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `query.trial`.
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Round identifier (set-up runs are numbered from [`SETUP_BASE`]).
    pub round: u32,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
}

impl Span {
    /// Host seconds the span lasted.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Round identifier of the first set-up; later set-ups count up from it.
pub const SETUP_BASE: u32 = 1 << 31;

/// Span recorder. Switched off, [`Tracer::span`] only runs its closure.
pub struct Tracer {
    on: bool,
    round: u32,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            round: SETUP_BASE,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off for the following spans.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tag the following spans with round `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Run `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            round: self.round,
            start,
            end: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.t0.elapsed().as_secs_f64();
        out
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans called `name`, per round that `keep`
    /// selects, in round order.
    pub fn secs_per_round(&self, name: &str, keep: impl Fn(u32) -> bool) -> Vec<f64> {
        let mut per: std::collections::BTreeMap<u32, f64> = Default::default();
        for s in self
            .spans
            .iter()
            .filter(|s| s.name == name && keep(s.round))
        {
            *per.entry(s.round).or_default() += s.secs();
        }
        per.into_values().collect()
    }
}

/// A span's self time: its duration minus its direct children's. Spans
/// nest as closures on one thread, so children neither overlap nor
/// outlive their parent.
pub fn self_time(spans: &[Span], idx: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(Span::secs)
        .sum();
    spans[idx].secs() - children
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            round: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            span("round", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 3.0),
            span("b", Some(0), 4.0, 5.0),
            // A grandchild is covered by its own parent, not by `round`.
            span("c", Some(1), 1.5, 2.5),
        ];
        assert!((self_time(&spans, 0) - 7.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 1.0).abs() < 1e-12);
        assert!((self_time(&spans, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_groups_by_round() {
        let mut tr = Tracer::new(true);
        tr.set_round(0);
        tr.span("outer", |tr| tr.span("inner", |_| ()));
        tr.set_round(1);
        tr.span("inner", |_| ());
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!(tr.secs_per_round("inner", |_| true).len(), 2);
        assert_eq!(tr.secs_per_round("inner", |r| r == 1).len(), 1);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
