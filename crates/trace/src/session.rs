//! Per-session trace export for serve runs: one Perfetto track per
//! service lane, one `X` duration event per session, plus a queue-depth
//! counter track.
//!
//! This module is deliberately engine- and serve-agnostic: callers map
//! their own session records into [`SessionSpan`]s, so `nqp-trace`
//! stays a leaf crate (it depends only on `nqp-sim`). Output follows
//! the same determinism discipline as [`crate::artifact::Trace`]:
//! integer model-cycle timestamps, fixed field order, stable sort keys.

use crate::export::esc_json;

/// One rendered session: a span on a lane track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpan {
    /// Service lane (track), or `usize::MAX` for sessions that never
    /// ran (sheds, queue-expired timeouts) — those render as instants
    /// on a dedicated "shed" track.
    pub lane: usize,
    /// Owning tenant.
    pub tenant: usize,
    /// Query-class label (e.g. `w1`).
    pub class: String,
    /// Arrival cycle (span start on the shed track; queue-wait start).
    pub arrival: u64,
    /// Dispatch cycle — span start on the lane track.
    pub start: u64,
    /// Resolution cycle — span end.
    pub end: u64,
    /// Outcome label (`completed`, `late`, `degraded`, `timeout`,
    /// `shed-*`).
    pub outcome: String,
    /// Engine cycles burned by a timed-out session.
    pub burned: u64,
}

/// Chrome `trace_event` JSON for a serve cell's sessions, loadable in
/// Perfetto. Track 0 carries shed/expired instants; tracks `1..=lanes`
/// carry session duration spans; a `C` counter track plots queue depth
/// from `depth_samples` (`(cycle, depth)` pairs, e.g. epoch gauges).
#[must_use]
pub fn sessions_to_chrome_json(
    title: &str,
    lanes: usize,
    spans: &[SessionSpan],
    depth_samples: &[(u64, u64)],
) -> String {
    let mut ev: Vec<String> = Vec::new();
    ev.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{{\"name\":\"{}\"}}}}",
        esc_json(title)
    ));
    ev.push(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"shed / expired\"}}"
            .to_string(),
    );
    for l in 0..lanes {
        ev.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":\"lane {l}\"}}}}",
            l + 1
        ));
    }
    let mut sorted: Vec<&SessionSpan> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start, s.end, s.tenant));
    for s in sorted {
        let name = format!("{} t{} {}", s.class, s.tenant, s.outcome);
        let args = format!(
            "\"tenant\":{},\"outcome\":\"{}\",\"queued_cycles\":{},\"burned\":{}",
            s.tenant,
            esc_json(&s.outcome),
            s.start.saturating_sub(s.arrival),
            s.burned
        );
        if s.lane == usize::MAX {
            ev.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":0,\
                 \"s\":\"t\",\"args\":{{{args}}}}}",
                esc_json(&name),
                s.end
            ));
        } else {
            ev.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\
                 \"tid\":{},\"args\":{{{args}}}}}",
                esc_json(&name),
                s.start,
                s.end.saturating_sub(s.start).max(1),
                s.lane + 1
            ));
        }
    }
    for &(t, depth) in depth_samples {
        ev.push(format!(
            "{{\"name\":\"queue depth\",\"ph\":\"C\",\"ts\":{t},\"pid\":0,\
             \"args\":{{\"depth\":{depth}}}}}"
        ));
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", ev.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans() -> Vec<SessionSpan> {
        vec![
            SessionSpan {
                lane: 0,
                tenant: 2,
                class: "w1".into(),
                arrival: 100,
                start: 150,
                end: 900,
                outcome: "completed".into(),
                burned: 0,
            },
            SessionSpan {
                lane: usize::MAX,
                tenant: 1,
                class: "w2".into(),
                arrival: 200,
                start: 200,
                end: 200,
                outcome: "shed-queue".into(),
                burned: 0,
            },
        ]
    }

    #[test]
    fn renders_lane_spans_and_shed_instants() {
        let json = sessions_to_chrome_json("serve · tuned", 2, &spans(), &[(500, 3)]);
        assert!(json.contains("\"name\":\"lane 0\""));
        assert!(json.contains("\"name\":\"w1 t2 completed\",\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"w2 t1 shed-queue\",\"ph\":\"i\""));
        assert!(json.contains("\"queued_cycles\":50"));
        assert!(json.contains("\"name\":\"queue depth\",\"ph\":\"C\",\"ts\":500"));
        // Deterministic: same input, same bytes.
        assert_eq!(json, sessions_to_chrome_json("serve · tuned", 2, &spans(), &[(500, 3)]));
    }

    #[test]
    fn output_is_structurally_balanced() {
        let json = sessions_to_chrome_json("t", 1, &spans(), &[]);
        let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
        for c in json.chars() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
