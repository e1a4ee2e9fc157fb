//! The fallible, retrying trial harness and the sweep supervisor.
//!
//! Real NUMA experiments fail in mundane ways: `numactl --membind` dies
//! with ENOMEM when a node fills, a batch scheduler preempts the run, a
//! machine's interconnect throttles — or a whole node drops out. The
//! harness mirrors how the paper's measurement scripts cope: each
//! `(configuration, trial)` pair runs a fallible workload, *transient*
//! faults are retried with exponential backoff (the backoff cycles are
//! charged to the trial), and every other fault is recorded as the
//! trial's [`Outcome`] so a sweep always completes with a full per-trial
//! table instead of dying on its first unlucky configuration.
//!
//! On top of the per-trial harness sits a **supervisor**
//! ([`sweep_supervised`]): a watchdog budget for configurations that
//! forgot to set one, a global retry budget, a circuit breaker that
//! stops retrying a configuration after K consecutive faulted trials,
//! resume from a set of already-completed cells (the trial journal, see
//! [`crate::journal`]), and an interruption bound (`max_cells`) whose
//! partial report still renders — partial-result salvage.
//!
//! Trials are deterministic and independent, so the grid also runs in
//! parallel: [`crate::executor::sweep_parallel`] fans configurations
//! across a scoped worker pool and produces byte-identical
//! table/CSV/JSON output (see that module for the determinism
//! argument).

use crate::experiment::TuningConfig;
use crate::journal::JournalRecord;
use nqp_query::{plan::RunOut, WorkloadEnv};
use nqp_sim::{SimError, SimResult};

/// How one trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The workload completed (possibly after transient-fault retries).
    Ok,
    /// The workload completed, but on a degraded machine: a node went
    /// offline mid-trial and its pages were evacuated. The cycles are
    /// real but not comparable to healthy trials.
    Degraded,
    /// The trial exceeded its cycle budget.
    Timeout,
    /// A node or machine ran out of memory under a strict policy.
    Oom,
    /// Any other simulation fault (injected failure, invalid mapping,
    /// a strict `Bind` to an offline node).
    Faulted,
}

impl Outcome {
    /// Fixed-width label for result tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Degraded => "degraded",
            Outcome::Timeout => "timeout",
            Outcome::Oom => "oom",
            Outcome::Faulted => "faulted",
        }
    }

    /// Inverse of [`Outcome::label`] (journal decoding).
    #[must_use]
    pub fn parse(label: &str) -> Option<Outcome> {
        match label {
            "ok" => Some(Outcome::Ok),
            "degraded" => Some(Outcome::Degraded),
            "timeout" => Some(Outcome::Timeout),
            "oom" => Some(Outcome::Oom),
            "faulted" => Some(Outcome::Faulted),
            _ => None,
        }
    }

    /// Classify a terminal error.
    #[must_use]
    pub fn of_error(e: &SimError) -> Outcome {
        match e {
            SimError::Timeout { .. } | SimError::DeadlineExceeded { .. } => Outcome::Timeout,
            SimError::OutOfMemory { .. } => Outcome::Oom,
            _ => Outcome::Faulted,
        }
    }

    /// The trial produced cycles (healthy or degraded).
    #[must_use]
    pub fn completed(self) -> bool {
        matches!(self, Outcome::Ok | Outcome::Degraded)
    }
}

/// What a fallible workload closure hands back for one attempt.
///
/// Plain-`u64` closures convert via `From`, so most workloads just
/// return cycles; fault-aware ones also report degradation (node-offline
/// survival) and the evacuation traffic it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrialMeasurement {
    /// Workload execution cycles.
    pub cycles: u64,
    /// The trial survived a node outage (results are from a smaller
    /// machine than configured).
    pub degraded: bool,
    /// 4 KB pages evacuated off dying nodes during the trial.
    pub evacuated_pages: u64,
}

impl From<u64> for TrialMeasurement {
    fn from(cycles: u64) -> Self {
        TrialMeasurement { cycles, degraded: false, evacuated_pages: 0 }
    }
}

impl From<&RunOut> for TrialMeasurement {
    /// A run is degraded when it survived a node outage (a node went
    /// offline or pages were evacuated off one).
    fn from(out: &RunOut) -> Self {
        let c = &out.counters;
        TrialMeasurement {
            cycles: out.cycles,
            degraded: c.nodes_offlined > 0 || c.evacuated_pages > 0,
            evacuated_pages: c.evacuated_pages,
        }
    }
}

/// Bounded retry with exponential backoff for transient faults.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` attempts).
    pub max_retries: u32,
    /// Cycles charged before retry `k` (doubling per retry):
    /// `backoff_base_cycles << k`.
    pub backoff_base_cycles: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, backoff_base_cycles: 10_000 }
    }
}

impl RetryPolicy {
    /// A harness that never retries (every fault is terminal).
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, backoff_base_cycles: 0 }
    }

    /// Retries allowed after the first attempt.
    #[must_use]
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Base backoff charge (doubled per retry by
    /// [`RetryPolicy::backoff_cycles`]).
    #[must_use]
    pub fn backoff_base_cycles(&self) -> u64 {
        self.backoff_base_cycles
    }

    /// Backoff cycles charged before retry `attempt`, saturating at
    /// `u64::MAX` once the doubling schedule would overflow the shift.
    /// With `--retries 64`+ and a persistent transient fault, the naive
    /// `base << attempt` panics in debug builds and wraps to a
    /// near-zero backoff in release; saturation keeps the schedule
    /// monotone instead.
    #[must_use]
    pub fn backoff_cycles(&self, attempt: u32) -> u64 {
        let base = self.backoff_base_cycles;
        if base == 0 {
            return 0;
        }
        if attempt > base.leading_zeros() {
            u64::MAX
        } else {
            base << attempt
        }
    }
}

/// Sweep-level robustness knobs layered over the per-trial
/// [`RetryPolicy`] by [`sweep_supervised`].
#[derive(Debug, Clone, Default)]
pub struct SupervisorPolicy {
    /// Per-trial transient-fault retry policy.
    pub retry: RetryPolicy,
    /// Watchdog: a cycle budget applied to configurations that do not
    /// set `trial_budget_cycles` themselves, so no cell can hang the
    /// sweep. Deterministic (simulated cycles, not wall clock).
    pub watchdog_budget_cycles: Option<u64>,
    /// Total retries the whole sweep may consume; once spent, every
    /// remaining fault is terminal on its first attempt.
    pub global_retry_budget: Option<u32>,
    /// Circuit breaker: after this many *consecutive* `Faulted` trials
    /// of one configuration, its remaining trials run without retries
    /// (the configuration is systematically broken — stop paying for
    /// backoff).
    pub breaker_threshold: Option<u32>,
    /// Stop after running this many new cells (resumed cells are free).
    /// The report is marked interrupted; completed cells still render —
    /// this is also how tests and the smoke script simulate a crash.
    pub max_cells: Option<usize>,
}

/// The record of one `(configuration, trial)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// The configuration's display name.
    pub config: String,
    /// Trial index within the configuration.
    pub trial: usize,
    /// How the trial ended.
    pub outcome: Outcome,
    /// Workload cycles plus retry backoff, when the trial completed.
    pub cycles: Option<u64>,
    /// Attempts consumed (1 when no fault was retried).
    pub attempts: u32,
    /// 4 KB pages evacuated off dying nodes (degraded trials).
    pub evacuated_pages: u64,
    /// The terminal error of a failed trial.
    pub error: Option<SimError>,
}

impl TrialRecord {
    /// Did the trial end cleanly (no fault, no degradation)?
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.outcome == Outcome::Ok
    }

    /// Did the trial produce cycles (clean or degraded)?
    #[must_use]
    pub fn completed(&self) -> bool {
        self.outcome.completed()
    }
}

/// Every trial of every configuration in a sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// All trial records, grouped by configuration in sweep order.
    pub trials: Vec<TrialRecord>,
    /// The sweep stopped early (`max_cells`); the table covers only the
    /// cells that ran — salvage, not a full result.
    pub interrupted: bool,
}

impl SweepReport {
    /// Successful (clean) trials.
    #[must_use]
    pub fn succeeded(&self) -> usize {
        self.trials.iter().filter(|t| t.succeeded()).count()
    }

    /// Configuration names for which *every* trial failed to complete —
    /// the condition under which a sweep as a whole is considered failed
    /// (matching `nqp-cli`'s exit code). Degraded trials count as
    /// completed: a config that survives a node outage is not dead.
    #[must_use]
    pub fn failed_configs(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for t in &self.trials {
            if !names.contains(&t.config.as_str()) {
                names.push(&t.config);
            }
        }
        names
            .into_iter()
            .filter(|name| {
                self.trials
                    .iter()
                    .filter(|t| t.config == *name)
                    .all(|t| !t.completed())
            })
            .collect()
    }

    /// Mean cycles over a configuration's *clean* (`Ok`) trials, if any
    /// made it. `Degraded` trials ran on a smaller machine after a node
    /// evacuation — folding them in would skew config comparisons, so
    /// they are excluded here and reported separately by
    /// [`SweepReport::mean_cycles_degraded`].
    #[must_use]
    pub fn mean_cycles(&self, config: &str) -> Option<u64> {
        self.mean_of(config, Outcome::Ok)
    }

    /// Mean cycles over a configuration's `Degraded` trials — the
    /// salvage number for grids where a node outage left no clean
    /// trials. Real data, but from fewer nodes than configured; never
    /// mix it with [`SweepReport::mean_cycles`].
    #[must_use]
    pub fn mean_cycles_degraded(&self, config: &str) -> Option<u64> {
        self.mean_of(config, Outcome::Degraded)
    }

    fn mean_of(&self, config: &str, outcome: Outcome) -> Option<u64> {
        let ok: Vec<u64> = self
            .trials
            .iter()
            .filter(|t| t.config == config && t.outcome == outcome)
            .filter_map(|t| t.cycles)
            .collect();
        if ok.is_empty() {
            None
        } else {
            Some(ok.iter().sum::<u64>() / ok.len() as u64)
        }
    }

    /// Render the per-trial outcome table (the EXPERIMENTS.md format).
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::from("config                      trial outcome  attempts cycles\n");
        for t in &self.trials {
            let cycles = match t.cycles {
                Some(c) => c.to_string(),
                None => match &t.error {
                    Some(e) => format!("- ({e})"),
                    None => "-".into(),
                },
            };
            out.push_str(&format!(
                "{:<27} {:>5} {:<8} {:>8} {}\n",
                t.config, t.trial, t.outcome.label(), t.attempts, cycles
            ));
        }
        out
    }

    /// Render the sweep as CSV (header + one row per trial). Fields that
    /// may contain commas or quotes are quoted with doubled quotes.
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out =
            String::from("config,trial,outcome,attempts,cycles,evacuated_pages,error\n");
        for t in &self.trials {
            let cycles = t.cycles.map(|c| c.to_string()).unwrap_or_default();
            let error = t.error.as_ref().map(|e| e.to_string()).unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                field(&t.config),
                t.trial,
                t.outcome.label(),
                t.attempts,
                cycles,
                t.evacuated_pages,
                field(&error)
            ));
        }
        out
    }

    /// Render the sweep as a JSON array of trial objects (the same
    /// object shape the trial journal records, minus its envelope).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, t) in self.trials.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {");
            out.push_str(&t.fields_json());
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }
}

/// Run one fallible trial under `cfg`, retrying transient faults.
///
/// The workload closure receives the environment (with
/// `SimConfig::fault_attempt` set to the current attempt number, which
/// is how a deterministic [`nqp_sim::FaultPlan`] distinguishes a retry
/// from the original run) and the trial index, and returns a
/// [`TrialMeasurement`] (cycles, degradation flag, evacuation metrics).
/// Backoff cycles for retried attempts are added to the recorded total,
/// the way wall-clock timers in real harnesses keep counting across
/// `numactl` re-invocations. `watchdog_budget_cycles` applies when the
/// configuration sets no trial budget of its own.
pub fn run_trial_measured<F>(
    cfg: &TuningConfig,
    threads: usize,
    trial: usize,
    policy: &RetryPolicy,
    watchdog_budget_cycles: Option<u64>,
    workload: &mut F,
) -> TrialRecord
where
    F: FnMut(&WorkloadEnv, usize) -> SimResult<TrialMeasurement>,
{
    let mut attempt = 0u32;
    let mut backoff = 0u64;
    loop {
        let mut env = cfg.env(threads);
        env.sim = env.sim.with_fault_attempt(attempt);
        if env.sim.trial_budget_cycles.is_none() {
            if let Some(budget) = watchdog_budget_cycles {
                env.sim = env.sim.with_trial_budget(budget);
            }
        }
        match workload(&env, trial) {
            Ok(m) => {
                return TrialRecord {
                    config: cfg.name.clone(),
                    trial,
                    outcome: if m.degraded { Outcome::Degraded } else { Outcome::Ok },
                    cycles: Some(m.cycles.saturating_add(backoff)),
                    attempts: attempt + 1,
                    evacuated_pages: m.evacuated_pages,
                    error: None,
                }
            }
            Err(e) if e.is_transient() && attempt < policy.max_retries => {
                backoff = backoff.saturating_add(policy.backoff_cycles(attempt));
                attempt += 1;
            }
            Err(e) => {
                return TrialRecord {
                    config: cfg.name.clone(),
                    trial,
                    outcome: Outcome::of_error(&e),
                    cycles: None,
                    attempts: attempt + 1,
                    evacuated_pages: 0,
                    error: Some(e),
                }
            }
        }
    }
}

/// Sweep `trials` trials of each configuration, recording every
/// outcome. The sweep itself never fails: a configuration whose trials
/// all fault is reported by [`SweepReport::failed_configs`], and
/// degradation is graceful — later configurations still run.
///
/// Grid order is `configs × trials`, and for each cell, in order —
///
/// 1. a matching record in `resume` (same config name and trial index)
///    is adopted verbatim without re-running the workload; its retries
///    still count against the global budget and its outcome still feeds
///    the circuit breaker, so a resumed sweep and an uninterrupted one
///    make identical supervision decisions;
/// 2. otherwise the cell runs under the watchdog/retry policy and the
///    fresh record is handed to `sink` (the journal append hook) before
///    the sweep moves on;
/// 3. once `max_cells` *new* cells have run, the sweep stops and the
///    report is marked [`SweepReport::interrupted`].
///
/// Because trials are deterministic functions of `(config, trial,
/// attempt)`, the final table of killed-then-resumed and uninterrupted
/// sweeps is bit-identical — the property `tests/resume.rs` pins.
pub fn sweep_supervised<F>(
    configs: &[TuningConfig],
    threads: usize,
    trials: usize,
    policy: &SupervisorPolicy,
    resume: &[TrialRecord],
    sink: &mut dyn FnMut(&TrialRecord),
    mut workload: F,
) -> SweepReport
where
    F: FnMut(&WorkloadEnv, usize) -> SimResult<TrialMeasurement>,
{
    let mut report = SweepReport::default();
    let mut retries_left = policy.global_retry_budget;
    let mut cells_run = 0usize;
    'grid: for cfg in configs {
        let mut consecutive_faulted = 0u32;
        for trial in 0..trials {
            let resumed = resume
                .iter()
                .find(|r| r.config == cfg.name && r.trial == trial)
                .cloned();
            let record = match resumed {
                Some(r) => r,
                None => {
                    if policy.max_cells.is_some_and(|m| cells_run >= m) {
                        report.interrupted = true;
                        break 'grid;
                    }
                    cells_run += 1;
                    let breaker_open = policy
                        .breaker_threshold
                        .is_some_and(|k| consecutive_faulted >= k);
                    let mut retry = if breaker_open {
                        RetryPolicy::none()
                    } else {
                        policy.retry.clone()
                    };
                    if let Some(left) = retries_left {
                        retry.max_retries = retry.max_retries.min(left);
                    }
                    let r = run_trial_measured(
                        cfg,
                        threads,
                        trial,
                        &retry,
                        policy.watchdog_budget_cycles,
                        &mut workload,
                    );
                    sink(&r);
                    r
                }
            };
            if let Some(left) = retries_left.as_mut() {
                *left = left.saturating_sub(record.attempts.saturating_sub(1));
            }
            if record.outcome == Outcome::Faulted {
                consecutive_faulted += 1;
            } else {
                consecutive_faulted = 0;
            }
            report.trials.push(record);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_topology::machines;

    fn cfg() -> TuningConfig {
        TuningConfig::tuned(machines::machine_b())
    }

    #[test]
    fn transient_faults_retry_and_charge_backoff() {
        let policy = RetryPolicy { max_retries: 2, backoff_base_cycles: 100 };
        let mut calls = 0u32;
        let rec = run_trial_measured(&cfg(), 4, 0, &policy, None, &mut |env, _| {
            calls += 1;
            if env.sim.fault_attempt < 2 {
                Err(SimError::InjectedAllocFault { region: 1, attempt: env.sim.fault_attempt })
            } else {
                Ok(5_000.into())
            }
        });
        assert_eq!(calls, 3, "two transient faults then success");
        assert_eq!(rec.outcome, Outcome::Ok);
        assert_eq!(rec.attempts, 3);
        // 5_000 + backoff (100 << 0) + (100 << 1).
        assert_eq!(rec.cycles, Some(5_300));
    }

    #[test]
    fn terminal_faults_classify_without_retry() {
        let policy = RetryPolicy::default();
        for (err, want) in [
            (SimError::Timeout { budget_cycles: 10, elapsed_cycles: 20 }, Outcome::Timeout),
            (SimError::OutOfMemory { node: 1, requested_pages: 4 }, Outcome::Oom),
            (SimError::InvalidMapping { addr: 0 }, Outcome::Faulted),
            (SimError::NodeOffline { node: 2 }, Outcome::Faulted),
        ] {
            let mut calls = 0u32;
            let rec = run_trial_measured(&cfg(), 4, 0, &policy, None, &mut |_, _| {
                calls += 1;
                Err(err.clone())
            });
            assert_eq!(calls, 1, "{err:?} must not retry");
            assert_eq!(rec.outcome, want);
            assert!(rec.cycles.is_none());
        }
    }

    #[test]
    fn retries_are_bounded() {
        let policy = RetryPolicy { max_retries: 2, backoff_base_cycles: 1 };
        let mut calls = 0u32;
        let rec = run_trial_measured(&cfg(), 4, 0, &policy, None, &mut |_, _| {
            calls += 1;
            Err(SimError::InjectedAllocFault { region: 0, attempt: 0 })
        });
        assert_eq!(calls, 3, "initial + 2 retries");
        assert_eq!(rec.outcome, Outcome::Faulted);
        assert_eq!(rec.attempts, 3);
    }

    #[test]
    fn huge_retry_counts_saturate_backoff_instead_of_overflowing() {
        // `--retries 80` with a fault that never clears: the naive
        // `base << attempt` shifts by >= 64 and panics in debug builds.
        let policy = RetryPolicy { max_retries: 80, backoff_base_cycles: 10_000 };
        let mut calls = 0u32;
        let rec = run_trial_measured(&cfg(), 4, 0, &policy, None, &mut |_, _| {
            calls += 1;
            Err(SimError::InjectedAllocFault { region: 0, attempt: 0 })
        });
        assert_eq!(calls, 81, "initial attempt + 80 retries");
        assert_eq!(rec.attempts, 81);
        assert_eq!(rec.outcome, Outcome::Faulted);

        // When the fault eventually clears, the charged backoff is
        // saturated, not wrapped back down to a tiny number.
        let rec = run_trial_measured(&cfg(), 4, 0, &policy, None, &mut |env, _| {
            if env.sim.fault_attempt < 70 {
                Err(SimError::InjectedAllocFault { region: 0, attempt: env.sim.fault_attempt })
            } else {
                Ok(1_000.into())
            }
        });
        assert_eq!(rec.outcome, Outcome::Ok);
        assert_eq!(rec.attempts, 71);
        assert_eq!(rec.cycles, Some(u64::MAX), "backoff saturates at u64::MAX");
    }

    #[test]
    fn backoff_schedule_is_monotone_to_saturation() {
        let p = RetryPolicy { max_retries: 100, backoff_base_cycles: 1 };
        assert_eq!(p.backoff_cycles(0), 1);
        assert_eq!(p.backoff_cycles(63), 1 << 63);
        assert_eq!(p.backoff_cycles(64), u64::MAX);
        let p = RetryPolicy { max_retries: 100, backoff_base_cycles: 3 };
        assert_eq!(p.backoff_cycles(62), 3 << 62);
        assert_eq!(p.backoff_cycles(63), u64::MAX);
        let p = RetryPolicy { max_retries: 100, backoff_base_cycles: 0 };
        assert_eq!(p.backoff_cycles(99), 0, "zero base never charges backoff");
    }

    #[test]
    fn mean_cycles_excludes_degraded_trials() {
        let configs = vec![cfg().named("wounded")];
        let report = sweep_supervised(
            &configs,
            4,
            3,
            &SupervisorPolicy::default(),
            &[],
            &mut |_| {},
            |_, trial| {
                Ok(TrialMeasurement {
                    cycles: if trial == 2 { 1_000_000 } else { 1_000 },
                    degraded: trial == 2,
                    evacuated_pages: 0,
                })
            },
        );
        // The degraded trial ran on a smaller machine; its million
        // cycles must not pollute the clean mean.
        assert_eq!(report.mean_cycles("wounded"), Some(1_000));
        assert_eq!(report.mean_cycles_degraded("wounded"), Some(1_000_000));
        // A config with only degraded trials has no clean mean at all.
        let report = sweep_supervised(
            &configs,
            4,
            1,
            &SupervisorPolicy::default(),
            &[],
            &mut |_| {},
            |_, _| Ok(TrialMeasurement { cycles: 5, degraded: true, evacuated_pages: 1 }),
        );
        assert_eq!(report.mean_cycles("wounded"), None);
        assert_eq!(report.mean_cycles_degraded("wounded"), Some(5));
    }

    #[test]
    fn sweep_degrades_gracefully_and_flags_dead_configs() {
        let configs = vec![cfg().named("healthy"), cfg().named("doomed")];
        let policy = SupervisorPolicy { retry: RetryPolicy::none(), ..Default::default() };
        let report = sweep_supervised(&configs, 4, 3, &policy, &[], &mut |_| {}, |env, trial| {
            if env.sim.fault_plan.is_none() && trial == 1 {
                // One flaky trial in the healthy config.
                return Err(SimError::Timeout { budget_cycles: 1, elapsed_cycles: 2 });
            }
            Ok(1_000.into())
        });
        // "doomed" would need a fault plan to fail here; with this
        // workload only trial 1 of each config times out.
        assert_eq!(report.trials.len(), 6);
        assert_eq!(report.succeeded(), 4);
        assert!(!report.interrupted);
        assert!(report.failed_configs().is_empty());
        assert_eq!(report.mean_cycles("healthy"), Some(1_000));

        let report = sweep_supervised(&configs[1..], 4, 2, &policy, &[], &mut |_| {}, |_, _| {
            Err(SimError::OutOfMemory { node: 0, requested_pages: 1 })
        });
        assert_eq!(report.failed_configs(), vec!["doomed"]);
        assert_eq!(report.mean_cycles("doomed"), None);
        let table = report.table();
        assert!(table.contains("oom"), "table shows outcomes:\n{table}");
    }

    #[test]
    fn degraded_trials_complete_but_are_distinguishable() {
        let configs = vec![cfg().named("wounded")];
        let supervisor = SupervisorPolicy::default();
        let report =
            sweep_supervised(&configs, 4, 2, &supervisor, &[], &mut |_| {}, |_, trial| {
                Ok(TrialMeasurement {
                    cycles: 9_000,
                    degraded: trial == 1,
                    evacuated_pages: if trial == 1 { 128 } else { 0 },
                })
            });
        assert_eq!(report.trials[0].outcome, Outcome::Ok);
        assert_eq!(report.trials[1].outcome, Outcome::Degraded);
        assert!(report.trials[1].completed() && !report.trials[1].succeeded());
        assert_eq!(report.trials[1].evacuated_pages, 128);
        assert!(report.failed_configs().is_empty(), "degraded != dead");
        let table = report.table();
        assert!(table.contains("degraded"), "{table}");
        let csv = report.to_csv();
        assert!(csv.contains("wounded,1,degraded,1,9000,128,"), "{csv}");
        let json = report.to_json();
        assert!(json.contains("\"outcome\":\"degraded\""), "{json}");
        assert!(json.contains("\"evacuated_pages\":128"), "{json}");
    }

    #[test]
    fn watchdog_budget_applies_only_without_config_budget() {
        let supervisor = SupervisorPolicy {
            watchdog_budget_cycles: Some(42),
            ..Default::default()
        };
        let mut seen = Vec::new();
        sweep_supervised(
            &[cfg().named("nobudget"), cfg().named("budget").with_trial_budget(7)],
            4,
            1,
            &supervisor,
            &[],
            &mut |_| {},
            |env, _| {
                seen.push(env.sim.trial_budget_cycles);
                Ok(TrialMeasurement::from(1))
            },
        );
        assert_eq!(seen, vec![Some(42), Some(7)]);
    }

    #[test]
    fn circuit_breaker_stops_retrying_broken_configs() {
        let supervisor = SupervisorPolicy {
            retry: RetryPolicy { max_retries: 3, backoff_base_cycles: 1 },
            breaker_threshold: Some(2),
            ..Default::default()
        };
        let configs = vec![cfg().named("broken")];
        let report =
            sweep_supervised(&configs, 4, 4, &supervisor, &[], &mut |_| {}, |_, _| {
                // Transient error that never clears: each trial burns all
                // its retries until the breaker opens.
                Err(SimError::InjectedAllocFault { region: 0, attempt: 0 })
            });
        let attempts: Vec<u32> = report.trials.iter().map(|t| t.attempts).collect();
        assert_eq!(attempts, vec![4, 4, 1, 1], "breaker opens after 2 faulted trials");
    }

    #[test]
    fn global_retry_budget_is_shared_across_cells() {
        let supervisor = SupervisorPolicy {
            retry: RetryPolicy { max_retries: 5, backoff_base_cycles: 1 },
            global_retry_budget: Some(7),
            ..Default::default()
        };
        let configs = vec![cfg().named("flaky")];
        let report =
            sweep_supervised(&configs, 4, 3, &supervisor, &[], &mut |_| {}, |_, _| {
                Err(SimError::InjectedAllocFault { region: 0, attempt: 0 })
            });
        let attempts: Vec<u32> = report.trials.iter().map(|t| t.attempts).collect();
        // 5 retries, then 2 remaining, then none.
        assert_eq!(attempts, vec![6, 3, 1]);
    }

    #[test]
    fn max_cells_interrupts_and_resume_completes_identically() {
        let configs = vec![cfg().named("a"), cfg().named("b")];
        let run = |supervisor: &SupervisorPolicy, resume: &[TrialRecord]| {
            let mut journal = Vec::new();
            let report = sweep_supervised(
                &configs,
                4,
                2,
                supervisor,
                resume,
                &mut |r| journal.push(r.clone()),
                |env, trial| Ok(TrialMeasurement::from(env.sim.seed + trial as u64)),
            );
            (report, journal)
        };
        let full = run(&SupervisorPolicy::default(), &[]).0;
        assert!(!full.interrupted);

        let interrupted_policy =
            SupervisorPolicy { max_cells: Some(3), ..Default::default() };
        let (partial, journal) = run(&interrupted_policy, &[]);
        assert!(partial.interrupted);
        assert_eq!(partial.trials.len(), 3, "salvage covers completed cells");
        assert_eq!(journal.len(), 3);

        let (resumed, fresh) = run(&SupervisorPolicy::default(), &journal);
        assert_eq!(fresh.len(), 1, "only the missing cell re-runs");
        assert_eq!(resumed.table(), full.table(), "bit-identical final table");
    }
}
