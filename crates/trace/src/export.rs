//! Exporters: Chrome `trace_event` JSON, a CSV counter timeline, and
//! the `perf stat`-style Table III report. All output is deterministic
//! (integer timestamps in model cycles; fixed field order; fixed-point
//! ratio formatting).

use crate::artifact::Trace;
use nqp_sim::{Counters, TraceEvent, NO_TID};

impl Trace {
    /// Chrome `trace_event` JSON (the `{"traceEvents": [...]}` object
    /// form), loadable in `chrome://tracing` and Perfetto.
    ///
    /// Layout: one process per trace; track 0 is the simulator timeline
    /// (phase spans as `X` duration events, region/offline events),
    /// tracks `1..=threads` carry per-thread instants (faults,
    /// migrations, lock waits), and `C` counter events plot the epoch
    /// series (DRAM locality, TLB misses, migrations) over model time.
    /// Timestamps are model cycles reported in the `ts` microsecond
    /// field — absolute units don't matter to the viewers, ordering and
    /// durations do.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut ev: Vec<String> = Vec::new();
        let pname = format!(
            "{} · trial {} · machine {} · {} threads",
            self.meta.label, self.meta.trial, self.meta.machine, self.meta.threads
        );
        ev.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            esc_json(&pname)
        ));
        ev.push(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"simulator\"}}"
                .to_string(),
        );
        for t in 0..self.meta.threads {
            ev.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"thread {t}\"}}}}",
                t + 1
            ));
        }
        // Spans are recorded in close order; emit sorted by (begin,
        // -depth) so outer spans open before the phases they contain.
        let mut spans: Vec<_> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.begin_cycles, u32::MAX - s.depth, s.end_cycles));
        for s in spans {
            ev.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0}}",
                esc_json(&s.name),
                s.begin_cycles,
                s.end_cycles - s.begin_cycles
            ));
        }
        for r in &self.events {
            let tid = if r.tid == NO_TID { 0 } else { r.tid as u64 + 1 };
            let (name, args) = chrome_event(&r.event);
            ev.push(format!(
                "{{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{tid},\
                 \"s\":\"t\",\"args\":{{{args}}}}}",
                r.at
            ));
        }
        for s in &self.samples {
            let c = &s.counters;
            let ts = s.end_cycles;
            ev.push(format!(
                "{{\"name\":\"dram locality\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                 \"args\":{{\"local\":{},\"remote\":{}}}}}",
                c.local_accesses, c.remote_accesses
            ));
            ev.push(format!(
                "{{\"name\":\"tlb misses\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                 \"args\":{{\"4k\":{},\"2m\":{}}}}}",
                c.tlb_misses_4k, c.tlb_misses_2m
            ));
            ev.push(format!(
                "{{\"name\":\"migrations\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                 \"args\":{{\"thread\":{},\"page\":{}}}}}",
                c.thread_migrations, c.page_migrations
            ));
            ev.push(format!(
                "{{\"name\":\"cycles\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                 \"args\":{{\"compute\":{},\"dram\":{},\"kernel\":{},\"lock\":{}}}}}",
                c.compute_cycles, c.dram_cycles, c.kernel_cycles, c.lock_wait_cycles
            ));
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", ev.join(",\n"))
    }

    /// The epoch counter time-series as CSV: one row per sample, all
    /// counter fields in declaration order, node/link line vectors as
    /// `;`-joined columns.
    #[must_use]
    pub fn to_timeline_csv(&self) -> String {
        let mut out = String::from("epoch,start_cycles,end_cycles");
        for (name, _) in Counters::default().fields() {
            out.push(',');
            out.push_str(name);
        }
        out.push_str(",node_lines,link_lines\n");
        for s in &self.samples {
            out.push_str(&format!("{},{},{}", s.epoch, s.start_cycles, s.end_cycles));
            for (_, v) in s.counters.fields() {
                out.push_str(&format!(",{v}"));
            }
            out.push_str(&format!(
                ",{},{}\n",
                join_semi(&s.node_lines),
                join_semi(&s.link_lines)
            ));
        }
        out
    }

    /// The online-controller decision timeline as CSV: one row per
    /// `AdvisorDecision` instant event, in record order. Decision
    /// tokens are single words (no spaces or commas, by the trace
    /// format's convention), so no quoting is needed.
    #[must_use]
    pub fn to_decisions_csv(&self) -> String {
        let mut out = String::from("at_cycles,region,decision\n");
        for r in &self.events {
            if let TraceEvent::AdvisorDecision { region, decision } = &r.event {
                out.push_str(&format!("{},{region},{decision}\n", r.at));
            }
        }
        out
    }

    /// The `perf stat`-style report, computed **from the recorded
    /// time-series** (the telescoping sum of epoch samples), not from
    /// the stored totals — so the report proves the recording is
    /// complete. `tests/trace.rs` pins it byte-equal to
    /// [`counters_report`] over the live totals.
    #[must_use]
    pub fn perf_report(&self) -> String {
        let title = format!(
            "'{}' (trial {}, machine {}, {} threads)",
            self.meta.label, self.meta.trial, self.meta.machine, self.meta.threads
        );
        let mut out = counters_report(&title, self.end_cycles, &self.sampled_totals());
        if self.dropped > 0 {
            out.push_str(&format!(
                "\n        (event ring dropped {} oldest events)\n",
                self.dropped
            ));
        }
        out
    }
}

/// Format a `perf stat`-style counter report — the shape of the
/// paper's Table III — for any counter snapshot. Shared by
/// [`Trace::perf_report`] (recorded data) and callers holding live
/// `Metrics` totals, which is exactly what makes "replayed report ==
/// live report" a meaningful byte-equality test.
#[must_use]
pub fn counters_report(title: &str, elapsed_cycles: u64, c: &Counters) -> String {
    let mut out = format!("\n Performance counter stats for {title}:\n\n");
    let mut line = |v: u64, name: &str| {
        out.push_str(&format!("    {:>18}      {name}\n", thousands(v)));
    };
    line(elapsed_cycles, "cycles elapsed (model)");
    for (name, v) in c.fields() {
        line(v, &name.replace('_', "-"));
    }
    out.push_str(&format!(
        "\n    {:>18}      local-access-ratio\n",
        percent(c.local_access_ratio())
    ));
    out.push_str(&format!(
        "    {:>18}      llc-hit-ratio\n",
        percent(c.cache_hit_ratio())
    ));
    out.push_str(&format!(
        "    {:>18}      tlb-miss-ratio\n",
        percent(c.tlb_miss_ratio())
    ));
    out
}

/// `1234567` → `1,234,567` (deterministic, locale-free).
fn thousands(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// Fixed-point percentage, e.g. `87.32 %`.
fn percent(r: f64) -> String {
    format!("{:.2} %", r * 100.0)
}

/// Escape `s` for use inside a JSON string literal.
pub(crate) fn esc_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Chrome instant-event name and args body for one trace event.
fn chrome_event(e: &TraceEvent) -> (&'static str, String) {
    match e {
        TraceEvent::RegionBegin { region, threads } => {
            ("region begin", format!("\"region\":{region},\"threads\":{threads}"))
        }
        TraceEvent::RegionEnd { region, elapsed_cycles } => {
            ("region end", format!("\"region\":{region},\"elapsed\":{elapsed_cycles}"))
        }
        TraceEvent::PageFault { node, pages } => {
            ("page fault", format!("\"node\":{node},\"pages\":{pages}"))
        }
        TraceEvent::ThreadMigration { from_core, to_core } => {
            ("thread migration", format!("\"from_core\":{from_core},\"to_core\":{to_core}"))
        }
        TraceEvent::Preemption { core } => ("preemption", format!("\"core\":{core}")),
        TraceEvent::PageMigration { from_node, to_node, pages } => (
            "page migration",
            format!("\"from_node\":{from_node},\"to_node\":{to_node},\"pages\":{pages}"),
        ),
        TraceEvent::PageMigrationBlocked { node } => {
            ("page migration blocked", format!("\"node\":{node}"))
        }
        TraceEvent::AllocFaultInjected { region } => {
            ("alloc fault injected", format!("\"region\":{region}"))
        }
        TraceEvent::NodeOffline { node, evacuated_pages } => {
            ("node offline", format!("\"node\":{node},\"evacuated_pages\":{evacuated_pages}"))
        }
        TraceEvent::LockContention { wait_cycles } => {
            ("lock contention", format!("\"wait_cycles\":{wait_cycles}"))
        }
        TraceEvent::DeadlineAbandon { deadline_cycles, elapsed_cycles } => (
            "deadline abandon",
            format!("\"deadline_cycles\":{deadline_cycles},\"elapsed_cycles\":{elapsed_cycles}"),
        ),
        TraceEvent::AdvisorDecision { region, decision } => (
            "advisor decision",
            format!("\"region\":{region},\"decision\":\"{}\"", esc_json(decision)),
        ),
        TraceEvent::TierDecision { region, decision } => (
            "tier decision",
            format!("\"region\":{region},\"decision\":\"{}\"", esc_json(decision)),
        ),
    }
}

fn join_semi(v: &[u64]) -> String {
    v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(";")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Trace, TraceMeta};
    use nqp_sim::{EpochSample, PhaseSpan, TraceRecord};

    fn tiny() -> Trace {
        let mut c = Counters::default();
        c.local_accesses = 70;
        c.remote_accesses = 30;
        c.compute_cycles = 500;
        Trace {
            meta: TraceMeta { label: "t".into(), trial: 0, machine: "A".into(), threads: 2 },
            epoch_cycles: 100,
            end_cycles: 240,
            dropped: 0,
            totals: c,
            spans: vec![PhaseSpan {
                name: "build \"x\"".into(),
                begin_cycles: 0,
                end_cycles: 240,
                depth: 0,
            }],
            samples: vec![EpochSample {
                epoch: 2,
                start_cycles: 0,
                end_cycles: 240,
                counters: c,
                node_lines: vec![5, 6],
                link_lines: vec![2],
            }],
            events: vec![TraceRecord {
                at: 7,
                tid: 1,
                event: TraceEvent::PageFault { node: 0, pages: 3 },
            }],
        }
    }

    #[test]
    fn chrome_json_is_wellformed_enough() {
        let j = tiny().to_chrome_json();
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"X\""), "span duration event present");
        assert!(j.contains("\"ph\":\"C\""), "counter series present");
        assert!(j.contains("\\\"x\\\""), "quotes in span names escaped");
        // Balanced braces/brackets outside strings — a cheap structural
        // check that catches mismatched literal templates.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for ch in j.chars() {
            if esc {
                esc = false;
                continue;
            }
            match ch {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn csv_has_all_counter_columns() {
        let csv = tiny().to_timeline_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(
            header.split(',').count(),
            3 + Counters::FIELD_COUNT + 2,
            "epoch,start,end + counters + node/link lines"
        );
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), header.split(',').count());
        assert!(row.ends_with("5;6,2"));
    }

    #[test]
    fn report_formats_thousands_and_ratios() {
        let r = tiny().perf_report();
        assert!(r.contains("cycles elapsed"));
        assert!(r.contains("local-access-ratio"));
        assert!(r.contains("70.00 %"));
        assert_eq!(thousands(1_234_567), "1,234,567");
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1_000), "1,000");
    }
}
