//! Differential tests for sharded trial execution (DESIGN.md's
//! sharded-determinism contract).
//!
//! `SimConfig::shards` / `--shards N` spreads the simulated workers of
//! one trial across N host threads. The contract: the shard count is
//! *invisible* — final clock, counters, per-region stats, trace logs,
//! merged memory state, and every CLI artifact are byte-identical for
//! any N, including N=1 (which runs the same worker-isolated semantics
//! inline without spawning). These tests drive identical programs at
//! shard counts {1, 2, 4, 7} and assert exact equality — first over
//! proptest-generated op programs through the library, then over the
//! W1–W4 workloads, then over real `nqp-cli` output: sweeps (traced,
//! faulted, with the online advisor), serve cells, and a killed-and-
//! resumed journaled sweep that mixes shard counts mid-grid.

use nqp::datagen::{generate, JoinDataset};
use nqp::indexes::IndexKind;
use nqp::query::{
    reference_checksum, reference_join, try_run_aggregation_on, try_run_hash_join_on,
    try_run_inl_join_on, AggConfig, WorkloadEnv,
};
use nqp::sim::{
    Access, Counters, FaultKind, FaultPlan, MemPolicy, NumaSim, SimConfig, SimError,
    ThreadPlacement, TraceConfig, TraceLog, Worker, SMALL_PAGE,
};
use nqp::topology::machines;
use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One interpreted step of the generated workload: an opcode plus two
/// operand words, decoded in `run_sharded_ops` below.
type Op = (u8, u64, u64);

/// Bytes of private arena each worker owns (writes stay disjoint, the
/// discipline every sharded phase follows).
const STRIDE: u64 = SMALL_PAGE * 4;
/// Bytes of the shared read-only arena all workers scan.
const SHARED_BYTES: u64 = SMALL_PAGE * 8;

/// The configurations under test: pinned/unpinned threads, THP,
/// AutoNUMA, both machines, an active fault plan (degraded link plus a
/// preemption storm), and a traced run — every serial-side subsystem a
/// shard merge has to reproduce exactly.
fn config(idx: usize) -> SimConfig {
    match idx {
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
            .with_trace(TraceConfig::default().with_epoch_cycles(25_000).with_label("shards")),
    }
}

/// Interpret the op program inside a sharded worker: ranged touches,
/// typed bulk reads, RMWs, and DMA on the worker's own arena slice,
/// plus read-only scans of the shared arena. No maps/unmaps — the
/// address space must settle in a serial region (that rule has its own
/// test below). Returns a value checksum so per-worker results flow
/// through the region's return channel too.
fn run_sharded_ops(w: &mut Worker<'_>, own_base: u64, shared_base: u64, ops: &[Op]) -> u64 {
    let own = own_base + w.tid() as u64 * STRIDE;
    let salt = (w.tid() as u64).wrapping_mul(0x9e37_79b9);
    // Keep 640 bytes of headroom so multi-word accesses stay in-slice.
    let own_off = |x: u64| x.wrapping_add(salt) % (STRIDE - 640);
    let sh_off = |x: u64| x % (SHARED_BYTES - 640);
    let mut sum = 0u64;
    for &(op, a, b) in ops {
        match op % 8 {
            0 => w.touch(own + own_off(a), b % 600 + 1, Access::Read),
            1 => w.touch(own + own_off(b), a % 600 + 1, Access::Write),
            2 => {
                let mut buf = [0u64; 16];
                let n = (a % 16 + 1) as usize;
                w.read_u64_run(own + (own_off(b) & !7), &mut buf[..n]);
                sum ^= buf[0].wrapping_add(n as u64);
            }
            3 => {
                sum = sum.wrapping_add(w.rmw_u64(own + (own_off(a) & !7), |v| {
                    v.wrapping_add(b | 1)
                }));
            }
            4 => w.touch(shared_base + sh_off(a), b % 600 + 1, Access::Read),
            5 => {
                let mut buf = [0u64; 8];
                w.read_u64_run(shared_base + (sh_off(b) & !7), &mut buf);
                sum ^= buf[7].rotate_left((a % 63) as u32);
            }
            6 => w.dma_lines(own + own_off(a), b % 32 + 1),
            _ => w.write_u64_run(own + (own_off(b) & !7), &[a, b, a ^ b ^ salt]),
        }
        if w.fault().is_some() {
            return sum;
        }
    }
    sum
}

/// Run the op program at one shard count and return everything
/// observable: final clock, machine-wide counters, per-region stats
/// (via their exact Debug rendering), the per-worker return values of
/// each region, a serial read-back checksum of the *merged* memory
/// state, and the trace log (when the config records one).
#[allow(clippy::type_complexity)]
fn observe(
    cfg: SimConfig,
    threads: usize,
    shards: usize,
    ops: &[Op],
) -> (u64, Counters, Vec<String>, Vec<Vec<u64>>, u64, Option<TraceLog>) {
    let mut sim = NumaSim::new(cfg.with_shards(shards));

    // Settle the address space in a serial region: a private arena per
    // worker plus a pre-filled shared arena.
    let mut arenas = (0u64, 0u64);
    sim.try_serial(&mut arenas, |w, arenas| {
        arenas.0 = w.map_pages(STRIDE * 8);
        arenas.1 = w.map_pages_shared(SHARED_BYTES);
        let pattern: Vec<u64> =
            (0..512u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        w.write_u64_run(arenas.1, &pattern);
    }).expect("fault-free region");
    let (own_base, shared_base) = arenas;

    let mut stats_text = Vec::new();
    let mut region_sums = Vec::new();
    for _ in 0..2 {
        let (stats, sums) = sim
            .try_parallel_sharded(threads, ops, |w, ops| {
                run_sharded_ops(w, own_base, shared_base, ops)
            })
            .expect("op program must not fault the sharded region");
        stats_text.push(format!("{stats:?}"));
        region_sums.push(sums);
    }

    // The merged-state proof: a serial read-back of both arenas after
    // the sharded regions sees exactly the state the merges produced —
    // data bytes *and* placement, since the read-back pays the cost
    // model (page locations feed the final clock and counters).
    let mut merged = 0u64;
    sim.try_serial(&mut merged, |w, merged| {
        let mut buf = [0u64; 64];
        for (base, bytes) in [(own_base, STRIDE * 8), (shared_base, SHARED_BYTES)] {
            let mut addr = base;
            while addr < base + bytes {
                w.read_u64_run(addr, &mut buf);
                for v in buf {
                    *merged = merged.rotate_left(7) ^ v;
                }
                addr += 64 * 8;
            }
        }
    }).expect("fault-free region");

    (sim.now_cycles(), sim.counters(), stats_text, region_sums, merged, sim.take_trace())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline differential property: arbitrary op programs under
    /// every configuration class must produce *identical* cycles,
    /// counters, per-region stats, per-worker returns, merged memory
    /// state, and trace logs at shard counts 1, 2, 4, and 7 (7 also
    /// exercises the clamp to the thread count).
    #[test]
    fn shard_count_is_invisible(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..60),
        cfg_idx in 0usize..4,
        threads in 1usize..8,
    ) {
        let base = observe(config(cfg_idx), threads, 1, &ops);
        for shards in [2usize, 4, 7] {
            let run = observe(config(cfg_idx), threads, shards, &ops);
            prop_assert_eq!(base.0, run.0, "final clock diverges at shards={}", shards);
            prop_assert_eq!(base.1, run.1, "counters diverge at shards={}", shards);
            prop_assert_eq!(&base.2, &run.2, "region stats diverge at shards={}", shards);
            prop_assert_eq!(&base.3, &run.3, "worker returns diverge at shards={}", shards);
            prop_assert_eq!(base.4, run.4, "merged memory diverges at shards={}", shards);
            prop_assert_eq!(&base.5, &run.5, "trace logs diverge at shards={}", shards);
        }
    }
}

/// Flatten a workload outcome's observables into one comparable blob.
fn digest(parts: &[String]) -> String {
    parts.join("\n")
}

/// W1 (traced, allocation-heavy) end to end: exec cycles, checksum,
/// counters, per-region stats, and the full trace log must not move at
/// any shard count — and the answers stay correct against the
/// host-side reference.
#[test]
fn w1_aggregation_is_identical_at_every_shard_count() {
    let acfg = AggConfig::w1(3_000, 150, 7);
    let records = generate(acfg.dataset, acfg.n, acfg.cardinality, acfg.seed);
    let (expect_checksum, expect_groups) = reference_checksum(&records, acfg.kind);
    let run = |shards: usize| {
        let mut env = WorkloadEnv::tuned(machines::machine_b()).with_threads(4);
        env.sim = env.sim.with_shards(shards).with_trace(
            TraceConfig::default().with_epoch_cycles(50_000).with_label("w1-shards"),
        );
        let out = try_run_aggregation_on(&env, &acfg, &records).expect("w1 runs clean");
        assert_eq!(out.checksum, expect_checksum, "shards={shards} wrong answer");
        assert_eq!(out.groups, expect_groups, "shards={shards} wrong group count");
        digest(&[
            format!("exec={} load={}", out.exec_cycles, out.load_cycles),
            format!("{:?}", out.counters),
            format!("{:?}", out.regions),
            format!("{:?}", out.trace.expect("trace was configured")),
        ])
    };
    let base = run(1);
    for shards in [2, 4, 7] {
        assert_eq!(run(shards), base, "W1 diverges at shards={shards}");
    }
}

/// W3 (hash join) and W4 (index join over ART): the sharded load and
/// probe phases reproduce the serial bytes at every shard count, with
/// answers pinned to the host-side reference join.
#[test]
fn joins_are_identical_at_every_shard_count() {
    let data = JoinDataset::generate(400, 11);
    let (expect_matches, expect_checksum) = reference_join(&data);
    let run = |shards: usize| {
        let mut env = WorkloadEnv::tuned(machines::machine_b()).with_threads(4);
        env.sim = env.sim.with_shards(shards);
        let w3 = try_run_hash_join_on(&env, &data).expect("w3 runs clean");
        assert_eq!(w3.matches, expect_matches, "shards={shards} W3 wrong matches");
        assert_eq!(w3.checksum, expect_checksum, "shards={shards} W3 wrong checksum");
        let w4 = try_run_inl_join_on(&env, IndexKind::Art, &data).expect("w4 runs clean");
        assert_eq!(w4.matches, expect_matches, "shards={shards} W4 wrong matches");
        assert_eq!(w4.checksum, expect_checksum, "shards={shards} W4 wrong checksum");
        digest(&[
            format!("w3 build={} probe={} load={}", w3.build_cycles, w3.probe_cycles, w3.load_cycles),
            format!("{:?}", w3.counters),
            format!("w4 build={} join={}", w4.build_cycles, w4.join_cycles),
            format!("{:?}", w4.counters),
        ])
    };
    let base = run(1);
    for shards in [2, 4, 7] {
        assert_eq!(run(shards), base, "joins diverge at shards={shards}");
    }
}

/// Chaos parity: a node dies mid-run and its pages evacuate. The
/// evacuation happens on the serial side of a region boundary, so the
/// degraded run — evacuated pages, rerouted accesses, final cycles —
/// must also be byte-identical at every shard count.
#[test]
fn node_outage_is_identical_at_every_shard_count() {
    let acfg = AggConfig::w2(4_000, 300, 5);
    let records = generate(acfg.dataset, acfg.n, acfg.cardinality, acfg.seed);
    let run = |shards: usize| {
        let outage = FaultPlan::new(5).with_event(2, 2, FaultKind::NodeOffline { node: 1 });
        let mut env = WorkloadEnv::os_default(machines::machine_b()).with_threads(4);
        env.sim = env
            .sim
            .with_policy(MemPolicy::Interleave)
            .with_faults(outage)
            .with_shards(shards);
        let out = try_run_aggregation_on(&env, &acfg, &records).expect("degrades, not dies");
        assert!(out.counters.evacuated_pages > 0, "shards={shards}: outage must evacuate");
        digest(&[
            format!("exec={} checksum={}", out.exec_cycles, out.checksum),
            format!("{:?}", out.counters),
            format!("{:?}", out.regions),
        ])
    };
    let base = run(1);
    for shards in [2, 4, 7] {
        assert_eq!(run(shards), base, "outage run diverges at shards={shards}");
    }
}

/// mmap/munmap inside a sharded region is a *typed* harness fault at
/// every shard count — including 1, so the rule can't hide until
/// someone passes `--shards 2`.
#[test]
fn map_inside_a_sharded_region_is_a_typed_fault() {
    for shards in [1usize, 4] {
        let mut sim =
            NumaSim::new(SimConfig::os_default(machines::machine_b()).with_shards(shards));
        let err = sim
            .try_parallel_sharded(4, &(), |w, ()| {
                w.map_pages(SMALL_PAGE);
            })
            .expect_err("mapping inside a sharded region must fault");
        match err {
            SimError::Harness { what } => assert!(
                what.contains("sharded"),
                "shards={shards}: fault must name the sharded-region rule: {what}"
            ),
            other => panic!("shards={shards}: expected a harness fault, got {other:?}"),
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("nqp-shards-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_artifacts(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Through the real binary: a traced sweep with the online advisor in
/// the grid writes byte-identical stdout, CSV, and `.trace` artifacts
/// at `--shards 1`, `2`, and `4` — advisor decisions included, since a
/// diverged decision would move the traced cycle numbers.
#[test]
fn cli_sweep_is_byte_identical_across_shards() {
    let run = |shards: &str| {
        let dir = temp_dir(&format!("sweep-s{shards}"));
        let csv = dir.join("sweep.csv");
        let trace_dir = dir.join("traces");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
        cmd.args([
            "sweep", "w1", "--machine", "B", "--threads", "4", "--n", "4000", "--card",
            "400", "--trials", "2", "--advisor", "online", "--shards", shards,
        ]);
        cmd.arg("--csv").arg(&csv);
        cmd.arg("--trace-dir").arg(&trace_dir);
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "sweep failed (shards={shards}): {out:?}");
        (out.stdout, std::fs::read(&csv).unwrap(), read_artifacts(&trace_dir))
    };
    let base = run("1");
    assert_eq!(base.2.len(), 6, "expected 3 configs x 2 trials of trace artifacts");
    for shards in ["2", "4"] {
        let other = run(shards);
        assert_eq!(
            String::from_utf8_lossy(&base.0),
            String::from_utf8_lossy(&other.0),
            "sweep stdout diverges at --shards {shards}"
        );
        assert_eq!(base.1, other.1, "sweep CSV diverges at --shards {shards}");
        assert_eq!(base.2, other.2, "trace artifacts diverge at --shards {shards}");
    }
}

/// Kill a journaled `--shards 4` sweep after one cell, resume it at
/// `--shards 2`, and compare with an uninterrupted `--shards 1` run:
/// the journal fingerprint must admit the mixed-shard resume (shard
/// count is not part of the grid) and the final table, stdout, and CSV
/// must be byte-identical to the run that was never interrupted.
#[test]
fn cli_killed_sweep_resumes_across_shard_counts() {
    let dir = temp_dir("resume");
    let args = |shards: &str| {
        vec![
            "sweep".to_string(), "w2".into(), "--machine".into(), "B".into(),
            "--threads".into(), "4".into(), "--n".into(), "3000".into(),
            "--card".into(), "300".into(), "--trials".into(), "2".into(),
            "--shards".into(), shards.into(),
        ]
    };

    let uninterrupted_csv = dir.join("full.csv");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
    cmd.args(args("1"));
    cmd.arg("--csv").arg(&uninterrupted_csv);
    let uninterrupted = cmd.output().unwrap();
    assert!(uninterrupted.status.success(), "uninterrupted sweep failed: {uninterrupted:?}");

    let journal = dir.join("sweep.jsonl");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
    cmd.args(args("4"));
    cmd.arg("--journal").arg(&journal);
    cmd.args(["--max-cells", "1"]);
    let killed = cmd.output().unwrap();
    assert!(killed.status.success(), "interrupted sweep must exit clean: {killed:?}");
    assert!(
        String::from_utf8_lossy(&killed.stderr).contains("interrupted"),
        "the partial run must say it was interrupted"
    );

    let resumed_csv = dir.join("resumed.csv");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
    cmd.args(args("2"));
    cmd.arg("--resume").arg(&journal);
    cmd.arg("--csv").arg(&resumed_csv);
    let resumed = cmd.output().unwrap();
    assert!(resumed.status.success(), "resumed sweep failed: {resumed:?}");

    assert_eq!(
        String::from_utf8_lossy(&uninterrupted.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "resumed stdout diverges from the uninterrupted run"
    );
    assert_eq!(
        std::fs::read(&uninterrupted_csv).unwrap(),
        std::fs::read(&resumed_csv).unwrap(),
        "resumed CSV diverges from the uninterrupted run"
    );
}

/// The serve path calibrates its class profiles by running the real
/// engine — through the sharded region code when `--shards` is set —
/// so serve reports must also be byte-identical at every shard count.
#[test]
fn cli_serve_is_byte_identical_across_shards() {
    let run = |shards: &str| {
        let dir = temp_dir(&format!("serve-s{shards}"));
        let csv = dir.join("serve.csv");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
        cmd.args([
            "serve", "w1", "--machine", "B", "--threads", "4", "--n", "3000", "--card",
            "300", "--tenants", "3", "--duration", "20", "--shards", shards,
        ]);
        cmd.arg("--csv").arg(&csv);
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "serve failed (shards={shards}): {out:?}");
        (out.stdout, std::fs::read(&csv).unwrap())
    };
    let base = run("1");
    for shards in ["2", "4"] {
        let other = run(shards);
        assert_eq!(
            String::from_utf8_lossy(&base.0),
            String::from_utf8_lossy(&other.0),
            "serve stdout diverges at --shards {shards}"
        );
        assert_eq!(base.1, other.1, "serve CSV diverges at --shards {shards}");
    }
}

/// `--shards` rejects zero and garbage with a typed CLI error, nonzero
/// exit, and no partial output.
#[test]
fn cli_rejects_bad_shard_counts() {
    for bad in ["0", "x", "-1"] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
        cmd.args([
            "sweep", "w1", "--machine", "B", "--threads", "4", "--n", "1000", "--card",
            "100", "--trials", "1", "--shards", bad,
        ]);
        let out = cmd.output().unwrap();
        assert!(!out.status.success(), "--shards {bad} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--shards"), "error must name the flag: {err}");
    }
}
