//! Integration tests for crash-safe resumable sweeps and node-offline
//! graceful degradation, end to end: real workloads, real journal files
//! on disk, real torn writes.
//!
//! The contract under test is the one EXPERIMENTS.md sells: kill a
//! sweep at any cell boundary (or mid-append), resume it from its
//! journal, and the final table is bit-identical to a run that was
//! never interrupted.

use nqp::core::executor::sweep_parallel;
use nqp::core::journal::{grid_fingerprint, read_journal, JournalWriter};
use nqp::core::runner::{
    sweep_supervised, Outcome, SupervisorPolicy, TrialMeasurement, TrialRecord,
};
use nqp::core::TuningConfig;
use nqp::datagen::generate;
use nqp::indexes::IndexKind;
use nqp::query::plan::{PlanSpec, WorkloadPlan};
use nqp::query::{try_run_aggregation_on, AggConfig, WorkloadEnv};
use nqp::sim::{FaultKind, FaultPlan, MemPolicy, SimError, SimResult};
use nqp::topology::machines;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_journal(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "nqp-resume-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

/// A small two-config grid whose second config degrades: node 1 goes
/// offline partway through the run.
fn grid() -> Vec<TuningConfig> {
    let outage = FaultPlan::new(5).with_event(2, 2, FaultKind::NodeOffline { node: 1 });
    vec![
        TuningConfig::os_default(machines::machine_b())
            .with_policy(MemPolicy::Interleave)
            .named("healthy"),
        TuningConfig::os_default(machines::machine_b())
            .with_policy(MemPolicy::Interleave)
            .with_faults(outage)
            .named("node-1-dies"),
    ]
}

// `Fn + Sync` (not just `FnMut`) so the same workload drives both the
// serial supervisor and the parallel executor.
fn workload() -> impl Fn(&WorkloadEnv, usize) -> SimResult<TrialMeasurement> + Sync {
    let spec = PlanSpec { n: Some(6_000), card: Some(600), index: IndexKind::BPlusTree, seed: 3 };
    let plan = WorkloadPlan::new("w2", &spec).expect("w2 is a workload");
    move |env: &WorkloadEnv, _trial: usize| Ok(TrialMeasurement::from(&plan.try_run(env)?))
}

fn run_sweep(
    resume: &[TrialRecord],
    max_cells: Option<usize>,
    sink: &mut dyn FnMut(&TrialRecord),
) -> nqp::core::SweepReport {
    let policy = SupervisorPolicy { max_cells, ..Default::default() };
    sweep_supervised(&grid(), 4, 2, &policy, resume, sink, workload())
}

fn run_sweep_parallel(
    resume: &[TrialRecord],
    max_cells: Option<usize>,
    jobs: usize,
    sink: &mut (dyn FnMut(&TrialRecord) + Send),
) -> nqp::core::SweepReport {
    let policy = SupervisorPolicy { max_cells, ..Default::default() };
    sweep_parallel(&grid(), 4, 2, &policy, resume, jobs, sink, workload())
}

/// Node outage mid-region: the engine evacuates the node's pages and
/// the trial completes `Degraded` with the evacuation metered — not a
/// panic, not a failure.
#[test]
fn node_offline_degrades_the_trial_with_metrics() {
    let report = run_sweep(&[], None, &mut |_| {});
    let wounded: Vec<&TrialRecord> =
        report.trials.iter().filter(|t| t.config == "node-1-dies").collect();
    assert_eq!(wounded.len(), 2);
    for t in &wounded {
        assert_eq!(t.outcome, Outcome::Degraded, "outage must degrade, not kill");
        assert!(t.evacuated_pages > 0, "evacuation must be metered");
        assert!(t.cycles.is_some(), "degraded trials still report cycles");
    }
    let healthy: Vec<&TrialRecord> =
        report.trials.iter().filter(|t| t.config == "healthy").collect();
    assert!(healthy.iter().all(|t| t.outcome == Outcome::Ok && t.evacuated_pages == 0));
    // Degraded configs are not "failed": the sweep-level verdict stays clean.
    assert!(report.failed_configs().is_empty());
}

/// Strict binding to a node that goes offline is unsatisfiable: the
/// fault surfaces as a typed `SimError::NodeOffline`, never a panic,
/// and the sweep records the cell as `Faulted`.
#[test]
fn strict_bind_to_offline_node_fails_typed() {
    let outage = FaultPlan::new(9).with_event(0, 0, FaultKind::NodeOffline { node: 1 });
    let cfg = TuningConfig::os_default(machines::machine_b())
        .with_policy(MemPolicy::Bind(1))
        .with_faults(outage)
        .named("bound-to-dead-node");
    let acfg = AggConfig::w2(2_000, 200, 3);
    let records = generate(acfg.dataset, 2_000, 200, 3);
    let err = try_run_aggregation_on(&cfg.env(4), &acfg, &records)
        .expect_err("binding to an offline node cannot succeed");
    assert_eq!(err, SimError::NodeOffline { node: 1 });

    let policy = SupervisorPolicy::default();
    let report = sweep_supervised(&[cfg], 4, 1, &policy, &[], &mut |_| {}, {
        move |env: &WorkloadEnv, _| {
            try_run_aggregation_on(env, &acfg, &records)
                .map(|o| TrialMeasurement::from(o.exec_cycles))
        }
    });
    assert_eq!(report.trials[0].outcome, Outcome::Faulted);
    assert_eq!(report.failed_configs(), vec!["bound-to-dead-node"]);
}

/// The headline guarantee, through real files: run the grid journaled
/// but interrupted after 1 cell, resume from the journal on disk, and
/// the final table is bit-identical to an uninterrupted run.
#[test]
fn interrupted_then_resumed_sweep_is_bit_identical() {
    let uninterrupted = run_sweep(&[], None, &mut |_| {});

    let path = temp_journal("resume");
    let fp = grid_fingerprint("resume-test-grid");
    let mut w = JournalWriter::create(&path, &fp, "resume-test-grid").unwrap();
    let partial = run_sweep(&[], Some(1), &mut |rec| w.record(rec).unwrap());
    drop(w);
    assert!(partial.interrupted);
    assert_eq!(partial.trials.len(), 1);

    let (mut w, contents) = JournalWriter::append_to::<TrialRecord>(&path).unwrap();
    assert_eq!(contents.fingerprint, fp);
    assert!(!contents.torn);
    assert_eq!(contents.records, partial.trials, "journal round-trips the records");
    let resumed = run_sweep(&contents.records, None, &mut |rec| w.record(rec).unwrap());
    drop(w);

    assert_eq!(resumed.table(), uninterrupted.table(), "tables must be bit-identical");
    assert_eq!(resumed.trials, uninterrupted.trials);
    assert_eq!(resumed.to_csv(), uninterrupted.to_csv());
    assert_eq!(resumed.to_json(), uninterrupted.to_json());

    // The journal now holds the full grid and replays to the same table.
    let full = read_journal::<TrialRecord>(&path).unwrap();
    assert_eq!(full.records, uninterrupted.trials);
    std::fs::remove_file(&path).ok();
}

/// Crash *mid-append*: tear the journal's last record in half. Resume
/// discards the torn cell, re-runs it deterministically, and still
/// converges to the uninterrupted table.
#[test]
fn torn_write_is_discarded_and_the_cell_reruns() {
    let uninterrupted = run_sweep(&[], None, &mut |_| {});

    let path = temp_journal("torn");
    let fp = grid_fingerprint("torn-test-grid");
    let mut w = JournalWriter::create(&path, &fp, "torn-test-grid").unwrap();
    let partial = run_sweep(&[], Some(3), &mut |rec| w.record(rec).unwrap());
    drop(w);
    assert_eq!(partial.trials.len(), 3);

    // Simulate the crash landing mid-write: chop the tail mid-line.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 17]).unwrap();

    let (mut w, contents) = JournalWriter::append_to::<TrialRecord>(&path).unwrap();
    assert!(contents.torn, "the torn tail must be detected");
    assert_eq!(contents.records.len(), 2, "only intact records survive");
    let resumed = run_sweep(&contents.records, None, &mut |rec| w.record(rec).unwrap());
    drop(w);

    assert_eq!(resumed.table(), uninterrupted.table());
    assert_eq!(resumed.trials, uninterrupted.trials);
    let full = read_journal::<TrialRecord>(&path).unwrap();
    assert!(!full.torn, "append after recovery restores a clean journal");
    assert_eq!(full.records, uninterrupted.trials);
    std::fs::remove_file(&path).ok();
}

/// The parallel executor is a drop-in for the serial supervisor: for
/// every worker count the report — table, CSV, JSON, the records
/// themselves — is byte-identical to `sweep_supervised` on the same
/// grid (which here includes a real node-outage fault plan).
#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let serial = run_sweep(&[], None, &mut |_| {});
    for jobs in [1, 2, 7] {
        let parallel = run_sweep_parallel(&[], None, jobs, &mut |_| {});
        assert_eq!(parallel.trials, serial.trials, "jobs={jobs}");
        assert_eq!(parallel.table(), serial.table(), "jobs={jobs}");
        assert_eq!(parallel.to_csv(), serial.to_csv(), "jobs={jobs}");
        assert_eq!(parallel.to_json(), serial.to_json(), "jobs={jobs}");
    }
}

/// Kill a *parallel* journaled run mid-grid, then resume — serially and
/// in parallel — from the journal it left behind. Both resumed runs
/// converge to the uninterrupted serial table, even though the journal
/// was written in completion order rather than grid order.
#[test]
fn killed_parallel_run_resumes_serial_or_parallel_to_identical_bytes() {
    let uninterrupted = run_sweep(&[], None, &mut |_| {});

    let path = temp_journal("parallel");
    let fp = grid_fingerprint("parallel-resume-grid");
    let mut w = JournalWriter::create(&path, &fp, "parallel-resume-grid").unwrap();
    let partial =
        run_sweep_parallel(&[], Some(2), 2, &mut |rec| w.record(rec).unwrap());
    drop(w);
    assert!(partial.interrupted);
    assert_eq!(partial.trials.len(), 2, "admission matches the serial cutoff");

    // Resume serially from the parallel run's journal.
    let (mut w, contents) = JournalWriter::append_to::<TrialRecord>(&path).unwrap();
    assert_eq!(contents.records.len(), 2);
    // Completion order may differ from grid order; resume matches by
    // (config, trial), so sorted sets must agree.
    let mut journaled = contents.records.clone();
    journaled.sort_by(|a, b| (&a.config, a.trial).cmp(&(&b.config, b.trial)));
    let mut partial_sorted = partial.trials.clone();
    partial_sorted.sort_by(|a, b| (&a.config, a.trial).cmp(&(&b.config, b.trial)));
    assert_eq!(journaled, partial_sorted);

    let resumed_serial =
        run_sweep(&contents.records, None, &mut |rec| w.record(rec).unwrap());
    drop(w);
    assert_eq!(resumed_serial.table(), uninterrupted.table());
    assert_eq!(resumed_serial.trials, uninterrupted.trials);
    assert_eq!(resumed_serial.to_csv(), uninterrupted.to_csv());

    // The journal now covers the full grid (in whatever append order);
    // a parallel resume from it adopts every cell and re-runs nothing.
    let full = read_journal::<TrialRecord>(&path).unwrap();
    let mut reran = 0usize;
    let resumed_parallel =
        run_sweep_parallel(&full.records, None, 7, &mut |_| reran += 1);
    assert_eq!(reran, 0, "a complete journal leaves nothing to re-run");
    assert_eq!(resumed_parallel.trials, uninterrupted.trials);
    assert_eq!(resumed_parallel.to_json(), uninterrupted.to_json());
    std::fs::remove_file(&path).ok();
}

/// Degraded outcomes survive the journal round trip exactly — outcome
/// label, evacuation count, cycles — so a resumed table renders
/// degraded rows identically to the original run.
#[test]
fn degraded_records_round_trip_through_the_journal() {
    let path = temp_journal("degraded");
    let fp = grid_fingerprint("degraded-grid");
    let mut w = JournalWriter::create(&path, &fp, "degraded-grid").unwrap();
    let report = run_sweep(&[], None, &mut |rec| w.record(rec).unwrap());
    drop(w);
    let back = read_journal::<TrialRecord>(&path).unwrap();
    assert_eq!(back.records, report.trials);
    assert!(
        back.records.iter().any(|t| t.outcome == Outcome::Degraded),
        "the grid must exercise a degraded cell"
    );
    std::fs::remove_file(&path).ok();
}

/// Regression for the `--retries 0` + `--trial-budget` conflation: a
/// blown budget is `Outcome::Timeout` with a structured timeout error,
/// a hard fault is `Outcome::Faulted` — and both must survive the
/// journal round trip *distinctly*, down to the CSV labels. Before the
/// fix, a timeout recorded in one worker could be re-labelled as the
/// faulting sibling's error on the way out.
#[test]
fn timeout_and_faulted_outcomes_round_trip_distinctly() {
    use nqp::core::runner::SweepReport;

    let trials = vec![
        TrialRecord {
            config: "budget-blown".into(),
            trial: 0,
            outcome: Outcome::Timeout,
            cycles: None,
            attempts: 1,
            evacuated_pages: 0,
            error: Some(SimError::Timeout { budget_cycles: 5_000_000, elapsed_cycles: 7_250_000 }),
        },
        TrialRecord {
            config: "deadline-blown".into(),
            trial: 0,
            outcome: Outcome::Timeout,
            cycles: None,
            attempts: 1,
            evacuated_pages: 0,
            error: Some(SimError::DeadlineExceeded {
                deadline_cycles: 4_000_000,
                elapsed_cycles: 4_900_000,
            }),
        },
        TrialRecord {
            config: "hard-fault".into(),
            trial: 0,
            outcome: Outcome::Faulted,
            cycles: None,
            attempts: 3,
            evacuated_pages: 0,
            error: Some(SimError::NodeOffline { node: 1 }),
        },
    ];

    let path = temp_journal("outcomes");
    let fp = grid_fingerprint("outcome-grid");
    let mut w = JournalWriter::create(&path, &fp, "outcome-grid").unwrap();
    for t in &trials {
        w.record(t).unwrap();
    }
    drop(w);

    let back = read_journal::<TrialRecord>(&path).unwrap();
    assert!(!back.torn);
    assert_eq!(back.records, trials, "records round-trip exactly");
    assert_eq!(back.records[0].outcome, Outcome::Timeout);
    assert_eq!(back.records[2].outcome, Outcome::Faulted);
    assert_ne!(
        back.records[0].error, back.records[2].error,
        "the timeout's structured error must not be replaced by the fault's"
    );

    // The rendered CSV keeps the outcomes distinguishable.
    let report = SweepReport { trials: back.records, interrupted: false };
    let csv = report.to_csv();
    assert!(csv.contains("budget-blown,0,timeout,"), "{csv}");
    assert!(csv.contains("deadline-blown,0,timeout,"), "{csv}");
    assert!(csv.contains("hard-fault,0,faulted,"), "{csv}");
    std::fs::remove_file(&path).ok();
}
