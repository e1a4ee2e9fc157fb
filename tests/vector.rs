//! Differential tests for the vectorized operator path (DESIGN.md §4j).
//!
//! The tuple-at-a-time engine is the oracle: for every workload, under
//! every configuration class (pinned/unpinned threads, THP, AutoNUMA,
//! both machines, an active fault plan, tracing), the vectorized path
//! must produce *identical query results* — checksums and group/match
//! counts. Simulated cycles and counters legitimately move (that is the
//! optimisation; EXPERIMENTS.md declares it), so the second property
//! pins the vectorized path against itself instead: byte-identical
//! cycles, counters, region stats, and trace logs across host shard
//! counts, the reference memory model, and reruns.
//! Finally, the real `nqp-cli` binary is driven through `--engine`
//! crossings: sweep/serve byte-diffs under `--jobs`/`--shards`,
//! journal interrupt + resume, typed rejection of malformed `--engine`
//! tokens, and rejection of the removed `--batch-size` flag.

use nqp::datagen::{generate, JoinDataset};
use nqp::indexes::IndexKind;
use nqp::query::{
    try_run_aggregation_on, try_run_hash_join_on, try_run_inl_join_on, AggConfig,
    EngineKind, WorkloadEnv,
};
use nqp::sim::{Counters, FaultKind, FaultPlan, SimConfig, ThreadPlacement, TraceConfig, TraceLog};
use nqp::topology::machines;
use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The four configuration classes of the hotpath differential, as
/// workload environments: B with pinned sparse threads and THP/AutoNUMA
/// off, A at OS defaults, B under an active (non-fatal) fault plan, and
/// B with tracing enabled.
fn env(cfg_idx: usize, threads: usize, engine: EngineKind) -> WorkloadEnv {
    let sim = match cfg_idx {
        0 => SimConfig::os_default(machines::machine_b())
            .with_threads(ThreadPlacement::Sparse)
            .with_autonuma(false)
            .with_thp(false),
        1 => SimConfig::os_default(machines::machine_a()),
        2 => SimConfig::os_default(machines::machine_b()).with_faults(
            FaultPlan::new(17)
                .with_event(
                    0,
                    u64::MAX,
                    FaultKind::LinkDegrade { link: 1, latency_x: 2.5, bandwidth_div: 2.0 },
                )
                .with_event(
                    0,
                    u64::MAX,
                    FaultKind::PreemptionStorm { period_cycles: 30_000 },
                ),
        ),
        _ => SimConfig::os_default(machines::machine_b())
            .with_trace(TraceConfig::default().with_epoch_cycles(25_000).with_label("vec")),
    };
    let mut e = WorkloadEnv::os_default(machines::machine_b());
    e.sim = sim;
    e.threads = threads;
    e.engine = engine;
    e
}

/// Everything observable from one workload run. The differential
/// property compares only `checksum`/`count` between engines; the
/// self-identity property compares the whole struct.
#[derive(Debug, Clone, PartialEq)]
struct Obs {
    checksum: u64,
    count: u64,
    cycles: Vec<u64>,
    counters: Counters,
    regions: Vec<(u64, Counters)>,
    trace: Option<TraceLog>,
}

fn observe(which: usize, env: &WorkloadEnv, n: usize, seed: u64) -> Obs {
    match which {
        0 | 1 => {
            let card = (n as u64 / 4).max(1);
            let acfg = if which == 0 {
                AggConfig::w1(n, card, seed)
            } else {
                AggConfig::w2(n, card, seed)
            };
            let records = generate(acfg.dataset, n, card, seed);
            let out = try_run_aggregation_on(env, &acfg, &records).expect("agg runs");
            Obs {
                checksum: out.checksum,
                count: out.groups,
                cycles: vec![out.exec_cycles, out.load_cycles],
                counters: out.counters,
                regions: out
                    .regions
                    .iter()
                    .map(|r| (r.elapsed_cycles, r.counters))
                    .collect(),
                trace: out.trace,
            }
        }
        2 => {
            let data = JoinDataset::generate(n / 4, seed);
            let out = try_run_hash_join_on(env, &data).expect("join runs");
            Obs {
                checksum: out.checksum,
                count: out.matches,
                cycles: vec![out.build_cycles, out.probe_cycles, out.load_cycles],
                counters: out.counters,
                regions: Vec::new(),
                trace: out.trace,
            }
        }
        _ => {
            let data = JoinDataset::generate(n / 4, seed);
            let kind = IndexKind::ALL[seed as usize % IndexKind::ALL.len()];
            let out = try_run_inl_join_on(env, kind, &data).expect("inl join runs");
            Obs {
                checksum: out.checksum,
                count: out.matches,
                cycles: vec![out.build_cycles, out.join_cycles],
                counters: out.counters,
                regions: Vec::new(),
                trace: out.trace,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// W1–W4 under every configuration class: the vectorized path's
    /// query results are byte-identical to the tuple oracle's.
    #[test]
    fn vectorized_results_equal_the_tuple_oracle(
        which in 0usize..4,
        cfg_idx in 0usize..4,
        threads in 1usize..5,
        n in 400usize..2400,
        seed in 0u64..1000,
    ) {
        let t = observe(which, &env(cfg_idx, threads, EngineKind::Tuple), n, seed);
        let v = observe(which, &env(cfg_idx, threads, EngineKind::Vectorized), n, seed);
        prop_assert_eq!(t.checksum, v.checksum, "result checksum diverges");
        prop_assert_eq!(t.count, v.count, "groups/matches diverge");
    }

    /// The vectorized path against itself: cycles, counters, region
    /// stats, and trace logs must not move with the host shard count
    /// or the reference memory model — the
    /// same invariants `--jobs`/`--shards` already carry for the
    /// tuple path.
    #[test]
    fn vectorized_path_is_self_identical(
        which in 0usize..4,
        cfg_idx in 0usize..4,
        threads in 1usize..5,
        n in 400usize..1600,
        seed in 0u64..1000,
        shards in 2usize..4,
    ) {
        let base = env(cfg_idx, threads, EngineKind::Vectorized);
        let one = observe(which, &base, n, seed);

        let mut sharded = base.clone();
        sharded.sim = sharded.sim.with_shards(shards);
        prop_assert_eq!(
            &one,
            &observe(which, &sharded, n, seed),
            "diverged under shards={}", shards
        );

        let mut reference = base.clone();
        reference.sim = reference.sim.with_reference_model(true);
        prop_assert_eq!(
            &one,
            &observe(which, &reference, n, seed),
            "diverged under the reference memory model"
        );
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("nqp-vector-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nqp-cli"))
}

/// Malformed `--engine` tokens exit nonzero with the typed BadSpec
/// message naming the offending token; the removed `--batch-size` flag
/// exits nonzero as an unknown flag, whatever its value.
#[test]
fn malformed_engine_and_batch_specs_are_rejected() {
    let reject = |args: &[&str], needle: &str| {
        let out = cli().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("malformed"), "{args:?}: no `malformed` in `{err}`");
        assert!(err.contains(needle), "{args:?}: no `{needle}` in `{err}`");
    };
    let w = ["workload", "w1", "--machine", "B", "--n", "500", "--card", "50"];
    reject(&[&w[..], &["--engine", "bogus"]].concat(), "`bogus`");
    for value in ["0", "999999999999", "many", "256"] {
        let out = cli().args(w).args(["--batch-size", value]).output().unwrap();
        assert!(!out.status.success(), "--batch-size {value} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag `--batch-size`"), "--batch-size {value}: `{err}`");
    }
    reject(
        &["sweep", "w1", "--trials", "1", "--engine", "tuple+nope"],
        "`nope`",
    );
}

/// Through the real binary: the `checksum:` line — the query result —
/// is identical under `--engine tuple` and `--engine vec` for every
/// workload.
#[test]
fn workload_checksums_match_across_engines() {
    for which in ["w1", "w2", "w3", "w4"] {
        let run = |extra: &[&str]| {
            let out = cli()
                .args([
                    "workload", which, "--machine", "B", "--threads", "4", "--n", "3000",
                    "--card", "300",
                ])
                .args(extra)
                .output()
                .unwrap();
            assert!(out.status.success(), "{which} {extra:?} failed: {out:?}");
            String::from_utf8(out.stdout).unwrap()
        };
        let checksum_of = |text: &str| {
            text.lines()
                .find(|l| l.trim_start().starts_with("checksum:"))
                .unwrap_or_else(|| panic!("no checksum line in `{text}`"))
                .trim()
                .to_string()
        };
        let tuple = run(&["--engine", "tuple"]);
        let vec_out = run(&["--engine", "vec"]);
        assert_eq!(
            checksum_of(&tuple),
            checksum_of(&vec_out),
            "{which}: engines disagree on the result checksum"
        );
    }
}

/// An `--engine tuple+vec` sweep is byte-identical run serially or under
/// `--jobs 2 --shards 2` — stdout and CSV — extending the executor
/// identity to the engine-crossed grid.
#[test]
fn engine_crossed_sweep_is_byte_identical_under_jobs_and_shards() {
    let run = |parallel: bool| {
        let dir = temp_dir(if parallel { "par" } else { "ser" });
        let csv = dir.join("sweep.csv");
        let mut cmd = cli();
        cmd.args([
            "sweep", "w3", "--machine", "B", "--threads", "4", "--n", "2000", "--trials",
            "2", "--engine", "tuple+vec",
        ]);
        cmd.arg("--csv").arg(&csv);
        if parallel {
            cmd.args(["--jobs", "2", "--shards", "2"]);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "sweep failed (parallel={parallel}): {out:?}");
        (out.stdout, std::fs::read(&csv).unwrap())
    };
    let serial = run(false);
    let parallel = run(true);
    assert_eq!(
        String::from_utf8_lossy(&serial.0),
        String::from_utf8_lossy(&parallel.0),
        "stdout diverges under --jobs/--shards"
    );
    assert_eq!(serial.1, parallel.1, "CSV diverges under --jobs/--shards");
}

/// `--engine tuple` is the default spelled out: stdout and CSV are
/// byte-identical to omitting the flag (the check.sh gate).
#[test]
fn engine_tuple_flag_is_byte_identical_to_default() {
    let run = |engine: Option<&str>| {
        let dir = temp_dir("dflt");
        let csv = dir.join("sweep.csv");
        let mut cmd = cli();
        cmd.args([
            "sweep", "w1", "--machine", "B", "--threads", "4", "--n", "2500", "--card",
            "250", "--trials", "2",
        ]);
        if let Some(e) = engine {
            cmd.args(["--engine", e]);
        }
        cmd.arg("--csv").arg(&csv);
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "sweep failed: {out:?}");
        (out.stdout, std::fs::read(&csv).unwrap())
    };
    assert_eq!(run(None), run(Some("tuple")), "--engine tuple moved sweep output");
}

/// Kill-and-resume on a vectorized sweep: interrupt after 2 journaled
/// cells, resume, and require the final CSV byte-identical to an
/// uninterrupted run of the same grid.
#[test]
fn vectorized_sweep_resumes_to_identical_results() {
    let dir = temp_dir("resume");
    let base: Vec<String> = [
        "sweep", "w1", "--machine", "B", "--threads", "4", "--n", "2000", "--card", "200",
        "--trials", "2", "--engine", "vec",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let full_csv = dir.join("full.csv");
    let out = cli().args(&base).arg("--csv").arg(&full_csv).output().unwrap();
    assert!(out.status.success(), "uninterrupted sweep failed: {out:?}");

    let journal = dir.join("sweep.journal");
    let out = cli()
        .args(&base)
        .arg("--journal")
        .arg(&journal)
        .args(["--max-cells", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "interrupted sweep failed: {out:?}");

    let resumed_csv = dir.join("resumed.csv");
    let out = cli()
        .args(&base)
        .arg("--resume")
        .arg(&journal)
        .arg("--csv")
        .arg(&resumed_csv)
        .output()
        .unwrap();
    assert!(out.status.success(), "resumed sweep failed: {out:?}");

    assert_eq!(
        std::fs::read(&full_csv).unwrap(),
        std::fs::read(&resumed_csv).unwrap(),
        "resumed vectorized sweep CSV diverges from the uninterrupted run"
    );
}

/// Serve under `--engine vec`: the calibrated profiles and the DES
/// replay are deterministic — byte-identical stdout serial vs --jobs 2.
#[test]
fn vectorized_serve_is_byte_identical_under_jobs() {
    let run = |jobs: Option<&str>| {
        let mut cmd = cli();
        cmd.args([
            "serve", "w1", "--machine", "B", "--threads", "4", "--tenants", "2",
            "--duration", "10", "--configs", "tuned", "--engine", "vec", "--n", "2000",
            "--card", "200",
        ]);
        if let Some(j) = jobs {
            cmd.args(["--jobs", j]);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "serve failed (jobs={jobs:?}): {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(run(None), run(Some("2")), "serve stdout diverges under --jobs");
}
