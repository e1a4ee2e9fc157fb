//! Property-style equivalence for the parallel sweep executor: for any
//! grid shape — config count, trial count, injected fault plan, and
//! mid-grid `max_cells` interrupt — `sweep_parallel(jobs=k)` for k in
//! {1, 2, 7} must emit the same `to_csv()` bytes (and table, and JSON)
//! as the serial `sweep_supervised` on the identical grid.
//!
//! This is the determinism contract the `--jobs` flag sells (DESIGN.md
//! §4c): parallelism changes wall-clock, never bytes. The last tests
//! drive the real `nqp-cli` binary: a grid where `--retry-budget` binds
//! is byte-identical at every `--jobs`, and a mistyped flag fails
//! before anything runs.

use nqp::core::executor::sweep_parallel;
use nqp::core::runner::{
    sweep_supervised, RetryPolicy, SupervisorPolicy, TrialMeasurement,
};
use nqp::core::TuningConfig;
use nqp::indexes::IndexKind;
use nqp::query::plan::{PlanSpec, WorkloadPlan};
use nqp::query::WorkloadEnv;
use nqp::sim::{FaultKind, FaultPlan, MemPolicy, SimResult};
use nqp::topology::machines;
use std::path::PathBuf;
use std::process::{Command, Output};

/// The fault dimension of the grid space: healthy, a transient
/// allocation fault that clears after one retry (exercises the backoff
/// path), and a sticky node outage (exercises degraded trials and
/// evacuation metering).
#[derive(Clone, Copy)]
enum Faults {
    None,
    TransientAlloc,
    NodeOffline,
}

impl Faults {
    fn plan(self) -> Option<FaultPlan> {
        match self {
            Faults::None => None,
            Faults::TransientAlloc => Some(FaultPlan::new(3).with_alloc_fail(2, 2, 1)),
            Faults::NodeOffline => {
                Some(FaultPlan::new(5).with_event(2, 2, FaultKind::NodeOffline { node: 1 }))
            }
        }
    }

    fn label(self) -> &'static str {
        match self {
            Faults::None => "healthy",
            Faults::TransientAlloc => "transient-alloc",
            Faults::NodeOffline => "node-offline",
        }
    }
}

/// Build a grid of `n` configurations with distinct names and policies,
/// all under the same fault dimension.
fn grid(n: usize, faults: Faults) -> Vec<TuningConfig> {
    (0..n)
        .map(|i| {
            let mut cfg = TuningConfig::os_default(machines::machine_b())
                .with_policy(if i % 2 == 0 {
                    MemPolicy::Interleave
                } else {
                    MemPolicy::FirstTouch
                })
                .named(format!("{}-{i}", faults.label()));
            if let Some(plan) = faults.plan() {
                cfg = cfg.with_faults(plan);
            }
            cfg
        })
        .collect()
}

fn workload() -> impl Fn(&WorkloadEnv, usize) -> SimResult<TrialMeasurement> + Sync {
    let spec = PlanSpec { n: Some(800), card: Some(80), index: IndexKind::BPlusTree, seed: 7 };
    let plan = WorkloadPlan::new("w2", &spec).expect("w2 is a workload");
    move |env: &WorkloadEnv, _trial: usize| Ok(TrialMeasurement::from(&plan.try_run(env)?))
}

#[test]
fn parallel_csv_bytes_equal_serial_for_any_grid() {
    let workload = workload();
    let mut cases = 0usize;
    for nconfigs in [1usize, 3] {
        for trials in [1usize, 2] {
            for faults in [Faults::None, Faults::TransientAlloc, Faults::NodeOffline] {
                let configs = grid(nconfigs, faults);
                let total = nconfigs * trials;
                // max_cells: uninterrupted, a mid-grid interrupt, and an
                // interrupt landing exactly on the grid boundary.
                for max_cells in [None, Some(1), Some(total)] {
                    let policy = SupervisorPolicy {
                        retry: RetryPolicy { max_retries: 2, backoff_base_cycles: 50 },
                        breaker_threshold: Some(2),
                        max_cells,
                        ..Default::default()
                    };
                    let serial = sweep_supervised(
                        &configs, 4, trials, &policy, &[], &mut |_| {}, &workload,
                    );
                    for jobs in [1usize, 2, 7] {
                        let parallel = sweep_parallel(
                            &configs, 4, trials, &policy, &[], jobs, &mut |_| {},
                            &workload,
                        );
                        let tag = format!(
                            "configs={nconfigs} trials={trials} faults={} \
                             max_cells={max_cells:?} jobs={jobs}",
                            faults.label()
                        );
                        assert_eq!(parallel.to_csv(), serial.to_csv(), "{tag}");
                        assert_eq!(parallel.table(), serial.table(), "{tag}");
                        assert_eq!(parallel.to_json(), serial.to_json(), "{tag}");
                        assert_eq!(parallel.interrupted, serial.interrupted, "{tag}");
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 108, "the grid space was fully swept");
}

/// The interrupt/resume loop in parallel: kill a parallel sweep
/// mid-grid under a fault plan, then finish it (parallel again) from
/// the records the first run produced — same bytes as never stopping.
#[test]
fn parallel_interrupt_then_parallel_resume_under_faults() {
    let workload = workload();
    let configs = grid(3, Faults::NodeOffline);
    let policy = |max_cells| SupervisorPolicy {
        retry: RetryPolicy { max_retries: 2, backoff_base_cycles: 50 },
        max_cells,
        ..Default::default()
    };
    let reference = sweep_supervised(
        &configs, 4, 2, &policy(None), &[], &mut |_| {}, &workload,
    );

    let mut journal = Vec::new();
    let partial = sweep_parallel(
        &configs, 4, 2, &policy(Some(3)), &[], 2,
        &mut |r| journal.push(r.clone()),
        &workload,
    );
    assert!(partial.interrupted);
    assert_eq!(journal.len(), 3, "exactly the admitted cells are journaled");

    let resumed = sweep_parallel(
        &configs, 4, 2, &policy(None), &journal, 7, &mut |_| {}, &workload,
    );
    assert_eq!(resumed.to_csv(), reference.to_csv());
    assert_eq!(resumed.trials, reference.trials);
}

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nqp-cli")).args(args).output().unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nqp-parallel-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Through the real binary: `--retry-budget 2` binds on this grid (every
/// trial faults three times before it could succeed), yet stdout, the
/// CSV and the exit code are identical at `--jobs 1`, `2` and `3` — the
/// budget is the same per-config quota at every job count.
#[test]
fn cli_retry_budget_grid_is_byte_identical_across_jobs() {
    let dir = temp_dir("retry-budget");
    let run = |jobs: &str| {
        let csv = dir.join(format!("jobs{jobs}.csv"));
        let out = cli(&[
            "sweep", "w1", "--machine", "B", "--threads", "4", "--n", "4000", "--card", "400",
            "--trials", "3", "--retries", "3", "--faults", "alloc@2:attempts=3",
            "--retry-budget", "2", "--jobs", jobs, "--csv", csv.to_str().unwrap(),
        ]);
        (out.status.code(), out.stdout, std::fs::read(&csv).unwrap())
    };
    let serial = run("1");
    let table = String::from_utf8_lossy(&serial.1);
    assert!(table.contains("faulted"), "the budget must bind: {table}");
    for jobs in ["2", "3"] {
        assert!(run(jobs) == serial, "--jobs {jobs} changed the output of {table}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every subcommand rejects a flag it never reads, naming it, before
/// running anything — a mistyped sweep flag neither runs with a default
/// nor lands in the journal's grid fingerprint.
#[test]
fn cli_rejects_unknown_flags_by_name() {
    let dir = temp_dir("unknown-flags");
    let journal = dir.join("j.jsonl");
    let cases: [(&[&str], &str); 5] = [
        (&["workload", "w1", "--machine", "B", "--thraeds", "2"], "--thraeds"),
        (
            &[
                "sweep", "w1", "--trials", "1", "--typo-flag", "3", "--journal",
                journal.to_str().unwrap(),
            ],
            "--typo-flag",
        ),
        (&["serve", "w1", "--machine", "B", "--trials", "2"], "--trials"),
        (&["tpch", "6", "--batch-size", "64"], "--batch-size"),
        (&["advise", "--managed", "--root"], "--root"),
    ];
    for (args, flag) in cases {
        let out = cli(args);
        assert!(!out.status.success(), "{args:?} must exit nonzero");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{args:?}: `{err}`");
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting: {out:?}");
    }
    assert!(!journal.exists(), "a rejected sweep must not create its journal");
    std::fs::remove_dir_all(&dir).ok();
}
