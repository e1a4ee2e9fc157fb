//! Workload plans: a standalone workload (W1–W4 or the phase shift)
//! with its input generated up front, so a sweep or a serve calibration
//! can replay the exact same work under many environments (and fault
//! attempts) without paying datagen per run.

use crate::{
    try_run_aggregation_on, try_run_hash_join_on, try_run_inl_join_on, try_run_phase_shift,
    AggConfig, PhaseShiftConfig, WorkloadEnv,
};
use nqp_datagen::{generate, JoinDataset, Record};
use nqp_indexes::IndexKind;
use nqp_sim::{Counters, SimResult, TraceLog};

/// The inputs a plan is generated from. Unset sizes take the
/// workload's default: n 300 000 and card 75 000 for W1/W2, n 30 000
/// for W3, 20 000 for W4, and [`PhaseShiftConfig::small`] for the
/// phase shift (where n sets the shared table, twice n the private
/// partitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSpec {
    /// Input tuples (W1/W2) or build-side tuples (W3/W4).
    pub n: Option<usize>,
    /// Group-key cardinality (W1/W2).
    pub card: Option<u64>,
    /// The index W4 probes.
    pub index: IndexKind,
    /// Datagen seed.
    pub seed: u64,
}

/// A workload with its input data pre-generated.
#[derive(Debug, Clone)]
pub struct WorkloadPlan(Plan);

#[derive(Debug, Clone)]
enum Plan {
    Agg(AggConfig, Vec<Record>),
    Hash(JoinDataset),
    Inl(IndexKind, JoinDataset),
    Shift(PhaseShiftConfig),
}

impl WorkloadPlan {
    /// Generate the input of workload `which` (`w1`..`w4`, `wshift`)
    /// from `spec`; `None` for an unknown workload.
    pub fn new(which: &str, spec: &PlanSpec) -> Option<WorkloadPlan> {
        let (n, seed) = (spec.n, spec.seed);
        let (agg_n, card) = (n.unwrap_or(300_000), spec.card.unwrap_or(75_000));
        let agg = |acfg: AggConfig| {
            let records = generate(acfg.dataset, agg_n, card, seed);
            Plan::Agg(acfg, records)
        };
        let join = |default| JoinDataset::generate(n.unwrap_or(default), seed);
        Some(WorkloadPlan(match which {
            "w1" => agg(AggConfig::w1(agg_n, card, seed)),
            "w2" => agg(AggConfig::w2(agg_n, card, seed)),
            "w3" => Plan::Hash(join(30_000)),
            "w4" => Plan::Inl(spec.index, join(20_000)),
            "wshift" => {
                // The build phase scans thread-private partitions; the
                // probe phase hammers one node's shared table — no
                // static placement wins both, which is the workload the
                // online advisor exists for.
                let mut cfg = PhaseShiftConfig::small(seed);
                if let Some(n) = n {
                    cfg.shared_n = n;
                    cfg.private_n = n * 2;
                }
                Plan::Shift(cfg)
            }
            _ => return None,
        }))
    }

    /// Run once under `env`, surfacing simulation faults (OOM under a
    /// strict bind, injected failures, budget timeouts) as errors.
    pub fn try_run(&self, env: &WorkloadEnv) -> SimResult<RunOut> {
        let (cycles, checksum, counters, trace) = match &self.0 {
            Plan::Agg(acfg, records) => {
                let o = try_run_aggregation_on(env, acfg, records)?;
                (o.exec_cycles, o.checksum, o.counters, o.trace)
            }
            Plan::Hash(data) => {
                let o = try_run_hash_join_on(env, data)?;
                (o.build_cycles + o.probe_cycles, o.checksum, o.counters, o.trace)
            }
            Plan::Inl(index, data) => {
                let o = try_run_inl_join_on(env, *index, data)?;
                (o.build_cycles + o.join_cycles, o.checksum, o.counters, o.trace)
            }
            Plan::Shift(cfg) => {
                let o = try_run_phase_shift(env, cfg)?;
                (o.exec_cycles, o.checksum, o.counters, o.trace)
            }
        };
        Ok(RunOut { cycles, checksum, counters, trace })
    }
}

/// One workload run's observables.
#[derive(Debug, Clone)]
pub struct RunOut {
    /// Query cycles (input loading excluded, as in the paper's timers).
    pub cycles: u64,
    /// Result checksum, identical on both engines.
    pub checksum: u64,
    /// Counters of the whole run.
    pub counters: Counters,
    /// The trace, when the environment enabled tracing.
    pub trace: Option<TraceLog>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_topology::machines;

    #[test]
    fn plans_run_their_workload_and_reject_unknown_names() {
        let spec = PlanSpec { n: Some(500), card: None, index: IndexKind::Art, seed: 9 };
        assert!(WorkloadPlan::new("w5", &spec).is_none());
        let env = WorkloadEnv::os_default(machines::machine_b()).with_threads(4);
        let data = JoinDataset::generate(500, 9);
        let out = WorkloadPlan::new("w4", &spec).unwrap().try_run(&env).unwrap();
        let direct = try_run_inl_join_on(&env, IndexKind::Art, &data).unwrap();
        assert_eq!(out.cycles, direct.build_cycles + direct.join_cycles);
        assert_eq!(out.checksum, direct.checksum);
        assert_eq!(out.counters, direct.counters);
    }
}
