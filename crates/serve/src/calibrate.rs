//! Calibration: one real engine run per (configuration, query class,
//! health) captures the per-phase cycle costs the serve loop replays.

use crate::spec::{ClassProfile, OutageSpec};
use nqp_core::TuningConfig;
use nqp_query::plan::{PlanSpec, WorkloadPlan};
use nqp_sim::{FaultKind, FaultPlan, SimResult, TraceConfig, TraceLog};

/// Default serve input size (tuples, or build-side tuples for joins).
/// Serve sessions are interactive-sized queries, not batch scans: at
/// these sizes per-query service time (~1 Mcycle) sits sensibly under
/// the default 5 Mcycle deadline.
pub const SERVE_N: usize = 8_000;
/// Default serve group-key cardinality.
pub const SERVE_CARD: u64 = 2_000;

/// `spec` with its unset sizes defaulted to the serve sizes.
pub fn serve_sizes(spec: PlanSpec) -> PlanSpec {
    PlanSpec { n: spec.n.or(Some(SERVE_N)), card: spec.card.or(Some(SERVE_CARD)), ..spec }
}

/// A class's phase plan from one traced run: top-level spans except
/// `load` (serve sessions never pay it), each at least one cycle; else
/// one `run` phase of the run's total cycles.
pub fn profile_phases(trace: Option<TraceLog>, total_cycles: u64) -> Vec<(String, u64)> {
    let spans: Vec<(String, u64)> = trace
        .iter()
        .flat_map(TraceLog::spans)
        .filter(|s| s.depth == 0 && s.name != "load")
        .map(|s| (s.name.clone(), (s.end_cycles - s.begin_cycles).max(1)))
        .collect();
    if spans.is_empty() {
        return vec![("run".to_string(), total_cycles.max(1))];
    }
    spans
}

/// Calibrate every `(name, plan)` class under `cfg` on `threads`
/// workers: a traced healthy run and, with an `outage`, a traced run
/// with its node offline, which the serve loop replays inside the
/// window (without one, the degraded profile is the healthy one).
pub fn calibrate(
    cfg: &TuningConfig,
    classes: &[(String, WorkloadPlan)],
    threads: usize,
    outage: Option<OutageSpec>,
) -> SimResult<Vec<ClassProfile>> {
    let run = |plan: &WorkloadPlan, mut cfg: TuningConfig, label: String| {
        cfg.sim = cfg.sim.with_trace(TraceConfig::default().with_label(label));
        let out = plan.try_run(&cfg.env(threads))?;
        Ok((profile_phases(out.trace, out.cycles), out.counters.evacuated_pages))
    };
    classes
        .iter()
        .map(|(name, plan)| {
            let (healthy, _) = run(plan, cfg.clone(), format!("{} {name}", cfg.name))?;
            let (degraded, evacuated_pages) = match outage {
                // Region 2 is the first region where workload pages have
                // landed on remote nodes (0/1 are load/init), so the
                // outage actually evacuates something.
                Some(o) => {
                    let offline = FaultKind::NodeOffline { node: o.node };
                    let faults = FaultPlan::new(cfg.sim.seed).with_event(2, 2, offline);
                    let label = format!("{} {name} offline", cfg.name);
                    run(plan, cfg.clone().with_faults(faults), label)?
                }
                None => (healthy.clone(), 0),
            };
            Ok(ClassProfile { name: name.clone(), healthy, degraded, evacuated_pages })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(spans: &[(&str, u64, u64, bool)]) -> TraceLog {
        let mut log = TraceLog::new(TraceConfig::default());
        for &(name, begin, end, nested) in spans {
            log.phase_begin(name, begin);
            if nested {
                log.phase_begin("inner", begin);
                log.phase_end(end);
            }
            log.phase_end(end);
        }
        log
    }

    #[test]
    fn profile_drops_load_and_nested_spans() {
        let spans = [("load", 0, 50, false), ("build", 50, 80, true), ("probe", 80, 80, false)];
        let trace = log(&spans);
        assert_eq!(
            profile_phases(Some(trace), 999),
            vec![("build".to_string(), 30), ("probe".to_string(), 1)]
        );
    }

    #[test]
    fn profile_falls_back_to_one_run_phase() {
        let run = |c: u64| vec![("run".to_string(), c)];
        assert_eq!(profile_phases(None, 70), run(70));
        assert_eq!(profile_phases(None, 0), run(1));
        assert_eq!(profile_phases(Some(log(&[])), 0), run(1));
        assert_eq!(profile_phases(Some(log(&[("load", 0, 9, true)])), 12), run(12));
    }
}
