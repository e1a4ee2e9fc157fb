//! The grid executor: one scoped worker pool with one journal-writer
//! thread ([`run_pool`]), shared by `sweep` ([`sweep_parallel`]) and
//! `nqp-serve`'s cell grid — with the same bytes out for every job
//! count.
//!
//! The paper's methodology is a large Cartesian sweep (allocator ×
//! placement × policy × THP) whose trials are deterministic and
//! independent, so the grid parallelises — but only if the supervision
//! semantics stay deterministic. Three decisions make that hold:
//!
//! * **Per-config worker affinity.** The unit of work handed to a
//!   worker is a whole configuration, not a cell: every trial of one
//!   configuration runs on one worker, in trial order. The circuit
//!   breaker and the `fault_attempt` retry loop are per-config state
//!   walked in trial order, so their decisions are identical to the
//!   serial path no matter how configs interleave across workers.
//! * **Deterministic retry quota.** `global_retry_budget` becomes a
//!   per-config quota of `ceil(budget / configs)` fixed before any
//!   worker starts. Admission decisions then depend only on the
//!   config's own trial history — never on scheduling order — so
//!   `sweep_parallel(jobs=k)` produces the same report for every `k`,
//!   including `k = 1`. (The reference
//!   [`crate::runner::sweep_supervised`] spends the budget in grid
//!   order instead; the two agree whenever the budget never binds.)
//! * **Write-ahead journal, grid-order report.** A single
//!   journal-writer thread receives finished records over a channel
//!   and hands them to the sink in completion order; the worker that
//!   emitted a record waits until the sink has run, so a cell is
//!   durable before its worker moves past it. Resume matching is by
//!   `(config, trial)`, so an out-of-order journal resumes correctly
//!   under any job count. The in-memory [`SweepReport`] is assembled in
//!   grid order from per-unit result slots, so
//!   `table()`/`to_csv()`/`to_json()` never depend on `jobs`.
//!
//! `max_cells` admission (which cells run, which are adopted from
//! `resume`, where the grid is truncated) is computed up front by
//! replaying the serial path's bookkeeping, so an interrupted parallel
//! run journals exactly the cells an interrupted serial run would.

use crate::experiment::TuningConfig;
use crate::runner::{
    run_trial_measured, Outcome, RetryPolicy, SupervisorPolicy, SweepReport,
    TrialMeasurement, TrialRecord,
};
use nqp_query::WorkloadEnv;
use nqp_sim::SimResult;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};

/// One cell of the admission plan: either adopt a journaled record
/// verbatim or run the workload.
#[derive(Debug)]
struct CellPlan {
    trial: usize,
    resumed: Option<TrialRecord>,
}

/// All admitted cells of one configuration, in trial order.
#[derive(Debug)]
struct ConfigPlan<'a> {
    cfg: &'a TuningConfig,
    cells: Vec<CellPlan>,
}

/// Replay the serial path's admission bookkeeping up front: resumed
/// cells are free, fresh cells count against `max_cells`, and the first
/// over-budget fresh cell truncates the grid (later cells — resumed or
/// not — are excluded from the report, exactly like the serial
/// `break 'grid`). Returns the per-config plans and the interrupted
/// flag.
fn admission_plan<'a>(
    configs: &'a [TuningConfig],
    trials: usize,
    policy: &SupervisorPolicy,
    resume: &[TrialRecord],
) -> (Vec<ConfigPlan<'a>>, bool) {
    let mut plans: Vec<ConfigPlan<'a>> = Vec::with_capacity(configs.len());
    let mut cells_run = 0usize;
    let mut interrupted = false;
    'grid: for cfg in configs {
        let mut cells = Vec::with_capacity(trials);
        for trial in 0..trials {
            let resumed = resume
                .iter()
                .find(|r| r.config == cfg.name && r.trial == trial)
                .cloned();
            if resumed.is_none() {
                if policy.max_cells.is_some_and(|m| cells_run >= m) {
                    interrupted = true;
                    if !cells.is_empty() {
                        plans.push(ConfigPlan { cfg, cells });
                    }
                    break 'grid;
                }
                cells_run += 1;
            }
            cells.push(CellPlan { trial, resumed });
        }
        plans.push(ConfigPlan { cfg, cells });
    }
    (plans, interrupted)
}

/// Run every admitted cell of one configuration, in trial order, with
/// the per-config supervision state (circuit breaker, retry quota).
/// Fresh records are emitted to the journal writer as they finish.
fn run_config<F>(
    plan: &ConfigPlan<'_>,
    threads: usize,
    policy: &SupervisorPolicy,
    quota: Option<u32>,
    workload: &F,
    emit: &dyn Fn(TrialRecord),
) -> Vec<TrialRecord>
where
    F: Fn(&WorkloadEnv, usize) -> SimResult<TrialMeasurement> + Sync,
{
    let mut out = Vec::with_capacity(plan.cells.len());
    let mut retries_left = quota;
    let mut consecutive_faulted = 0u32;
    for cell in &plan.cells {
        let record = match &cell.resumed {
            Some(r) => r.clone(),
            None => {
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
                    plan.cfg,
                    threads,
                    cell.trial,
                    &retry,
                    policy.watchdog_budget_cycles,
                    &mut |env, t| workload(env, t),
                );
                emit(r.clone());
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
        out.push(record);
    }
    out
}

/// The grid worker pool: run `work` over every unit on `jobs` scoped
/// workers (each claims the next unclaimed unit) and return the results
/// in unit order. `work` gets an `emit` hook; every emitted item is
/// handed to `sink` on the single journal-writer thread, in completion
/// order, and `emit` returns only once `sink` has run — so whatever the
/// sink writes is durable before the worker moves on.
///
/// `jobs == 0` is treated as 1; `jobs` above the unit count is clamped.
pub fn run_pool<U, R, J, W>(
    units: &[U],
    jobs: usize,
    sink: &mut (dyn FnMut(J) + Send),
    work: W,
) -> Vec<R>
where
    U: Sync,
    R: Send,
    J: Send,
    W: Fn(&U, &dyn Fn(J)) -> R + Sync,
{
    let jobs = jobs.clamp(1, units.len().max(1));
    // One result slot per unit: workers fill their claimed slots, the
    // results are read back in unit order below.
    let results: Vec<Mutex<Option<R>>> = units.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(J, mpsc::SyncSender<()>)>();
        // The single journal writer: completion-order appends, one
        // thread, so the sink needs Send but not Sync.
        s.spawn(move || {
            for (item, done) in rx {
                sink(item);
                let _ = done.send(());
            }
        });
        let (results, next, work) = (&results, &next, &work);
        for _ in 0..jobs {
            let tx = tx.clone();
            s.spawn(move || {
                let emit = |item: J| {
                    let (done_tx, done_rx) = mpsc::sync_channel(1);
                    // Both ends fail only if the writer thread died; its
                    // panic propagates when the scope joins.
                    if tx.send((item, done_tx)).is_ok() {
                        let _ = done_rx.recv();
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(unit) = units.get(i) else { break };
                    let r = work(unit, &emit);
                    *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                }
            });
        }
        // Drop the original sender so the writer thread's receive loop
        // ends once every worker has finished and dropped its clone.
        drop(tx);
    });

    // Every slot is filled: a worker that panicked re-raised its panic
    // when the scope joined.
    results
        .into_iter()
        .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// The supervised sweep grid ([`crate::runner::sweep_supervised`]'s
/// semantics, with the per-config retry quota) on [`run_pool`]. Each
/// configuration's trials stay on one worker in trial order; `sink`
/// (the journal append hook) observes fresh records in completion
/// order, each before its worker moves on; the returned report is in
/// grid order and byte-identical (table/CSV/JSON) for every `jobs` —
/// see the module docs for the determinism argument.
// Mirrors sweep_supervised's seven parameters plus `jobs`; grouping
// them would diverge the two call shapes for no clarity gain.
#[allow(clippy::too_many_arguments)]
pub fn sweep_parallel<F>(
    configs: &[TuningConfig],
    threads: usize,
    trials: usize,
    policy: &SupervisorPolicy,
    resume: &[TrialRecord],
    jobs: usize,
    sink: &mut (dyn FnMut(&TrialRecord) + Send),
    workload: F,
) -> SweepReport
where
    F: Fn(&WorkloadEnv, usize) -> SimResult<TrialMeasurement> + Sync,
{
    let (plans, interrupted) = admission_plan(configs, trials, policy, resume);
    let quota = policy
        .global_retry_budget
        .map(|b| b.div_ceil(configs.len().max(1) as u32));
    let per_config = run_pool(&plans, jobs, &mut |rec: TrialRecord| sink(&rec), |plan, emit| {
        run_config(plan, threads, policy, quota, &workload, emit)
    });
    SweepReport { trials: per_config.into_iter().flatten().collect(), interrupted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::sweep_supervised;
    use nqp_sim::SimError;
    use nqp_topology::machines;

    fn cfg(name: &str) -> TuningConfig {
        TuningConfig::tuned(machines::machine_b()).named(name)
    }

    fn grid(n: usize) -> Vec<TuningConfig> {
        (0..n).map(|i| cfg(&format!("cfg-{i}"))).collect()
    }

    /// Deterministic workload: cycles depend on (config seed, trial),
    /// with a transient fault on trial 1 that clears after one retry.
    fn workload(env: &WorkloadEnv, trial: usize) -> nqp_sim::SimResult<TrialMeasurement> {
        if trial == 1 && env.sim.fault_attempt == 0 {
            return Err(SimError::InjectedAllocFault { region: 0, attempt: 0 });
        }
        Ok(TrialMeasurement::from(env.sim.seed + 100 * trial as u64))
    }

    #[test]
    fn parallel_report_matches_serial_for_every_job_count() {
        let configs = grid(5);
        let policy = SupervisorPolicy {
            retry: RetryPolicy { max_retries: 2, backoff_base_cycles: 10 },
            ..Default::default()
        };
        let serial =
            sweep_supervised(&configs, 4, 3, &policy, &[], &mut |_| {}, workload);
        for jobs in [0, 1, 2, 7, 64] {
            let parallel = sweep_parallel(
                &configs,
                4,
                3,
                &policy,
                &[],
                jobs,
                &mut |_| {},
                workload,
            );
            assert_eq!(parallel.trials, serial.trials, "jobs={jobs}");
            assert_eq!(parallel.table(), serial.table());
            assert_eq!(parallel.to_csv(), serial.to_csv());
            assert_eq!(parallel.to_json(), serial.to_json());
        }
    }

    #[test]
    fn emit_returns_only_after_the_sink_ran() {
        let written = Mutex::new(Vec::new());
        let mut sink = |u: usize| written.lock().unwrap().push(u);
        let seen = run_pool(&[0usize, 1, 2], 1, &mut sink, |&u, emit| {
            let before = written.lock().unwrap().clone();
            emit(u);
            before
        });
        assert_eq!(seen, vec![vec![], vec![0], vec![0, 1]], "write-ahead, in unit order");
    }

    #[test]
    fn sink_sees_every_fresh_cell_exactly_once() {
        let configs = grid(3);
        let policy = SupervisorPolicy::default();
        let mut seen: Vec<(String, usize)> = Vec::new();
        let report = sweep_parallel(
            &configs,
            4,
            2,
            &policy,
            &[],
            3,
            &mut |r| seen.push((r.config.clone(), r.trial)),
            workload,
        );
        assert_eq!(report.trials.len(), 6);
        seen.sort();
        let mut want: Vec<(String, usize)> = report
            .trials
            .iter()
            .map(|t| (t.config.clone(), t.trial))
            .collect();
        want.sort();
        assert_eq!(seen, want, "completion-order journal covers the whole grid");
    }

    #[test]
    fn resumed_cells_are_adopted_not_rerun_and_not_journaled() {
        let configs = grid(2);
        let policy = SupervisorPolicy::default();
        let full = sweep_parallel(&configs, 4, 2, &policy, &[], 2, &mut |_| {}, workload);
        let resume: Vec<TrialRecord> = full.trials[..3].to_vec();
        let mut fresh = Vec::new();
        let resumed = sweep_parallel(
            &configs,
            4,
            2,
            &policy,
            &resume,
            2,
            &mut |r| fresh.push(r.clone()),
            workload,
        );
        assert_eq!(fresh.len(), 1, "only the missing cell re-runs");
        assert_eq!(resumed.trials, full.trials);
    }

    #[test]
    fn max_cells_truncates_exactly_like_the_serial_path() {
        let configs = grid(3);
        for max in 0..=6 {
            let policy = SupervisorPolicy { max_cells: Some(max), ..Default::default() };
            let serial =
                sweep_supervised(&configs, 4, 2, &policy, &[], &mut |_| {}, workload);
            let parallel = sweep_parallel(
                &configs,
                4,
                2,
                &policy,
                &[],
                2,
                &mut |_| {},
                workload,
            );
            assert_eq!(parallel.trials, serial.trials, "max_cells={max}");
            assert_eq!(parallel.interrupted, serial.interrupted);
        }
    }

    #[test]
    fn retry_quota_is_deterministic_across_job_counts() {
        // Budget 5 over 2 configs -> quota ceil(5/2) = 3 per config,
        // independent of which worker runs first.
        let configs = grid(2);
        let policy = SupervisorPolicy {
            retry: RetryPolicy { max_retries: 10, backoff_base_cycles: 1 },
            global_retry_budget: Some(5),
            ..Default::default()
        };
        let fail = |_: &WorkloadEnv, _: usize| -> nqp_sim::SimResult<TrialMeasurement> {
            Err(SimError::InjectedAllocFault { region: 0, attempt: 0 })
        };
        let reference =
            sweep_parallel(&configs, 4, 2, &policy, &[], 1, &mut |_| {}, fail);
        let attempts: Vec<u32> = reference.trials.iter().map(|t| t.attempts).collect();
        // Each config independently: 3 retries on trial 0, quota spent,
        // then first-attempt-only on trial 1.
        assert_eq!(attempts, vec![4, 1, 4, 1]);
        for jobs in [2, 7] {
            let r = sweep_parallel(&configs, 4, 2, &policy, &[], jobs, &mut |_| {}, fail);
            assert_eq!(r.trials, reference.trials, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_grid_yields_an_empty_report() {
        let report = sweep_parallel(
            &[],
            4,
            3,
            &SupervisorPolicy::default(),
            &[],
            4,
            &mut |_| {},
            workload,
        );
        assert!(report.trials.is_empty());
        assert!(!report.interrupted);
    }
}
