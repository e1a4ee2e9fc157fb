//! Integration tests for the tiered-memory subsystem (DESIGN.md §4i).
//!
//! Three contracts are enforced here:
//!
//! 1. **The daemon earns its keep**: on `machine_b_cxl` — where the
//!    tuned interleave placement strands one page in five on the CXL
//!    expander — `hot-watermark` tiering beats `--tier none` on W3 by
//!    a real margin, visibly moves pages (`promotions > 0`), and cuts
//!    the slow-tier demand-hit ratio, all without changing the answer.
//! 2. **Tiering is deterministic**: any policy is byte-identical
//!    serial vs `--jobs N` vs `--shards N` vs killed-and-resumed, both
//!    through the library (proptest over policy parameters × shard
//!    counts) and through real `nqp-cli` artifacts.
//! 3. **`--tier none` is free**: on an all-DRAM machine the flag's
//!    presence changes no CSV byte — the tier seam costs nothing when
//!    it is not in use.

use nqp::core::TuningConfig;
use nqp::datagen::JoinDataset;
use nqp::query::try_run_hash_join_on;
use nqp::tier::TierSpec;
use nqp::topology::machines;
use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

const SEED: u64 = 5;

/// Run W3 on the CXL machine under the tuned (interleaved) preset with
/// the given tiering policy, returning (exec_cycles, outcome).
fn w3_on_cxl(tier: TierSpec, data: &JoinDataset) -> (u64, nqp::query::JoinOutcome) {
    let cfg = TuningConfig::tuned(machines::machine_b_cxl()).with_tier(tier);
    let o = try_run_hash_join_on(&cfg.env(16), data).expect("fault-free run");
    (o.build_cycles + o.probe_cycles, o)
}

/// The headline acceptance claim: with one page in five interleaved
/// onto the CXL expander, the hot-watermark daemon promotes the hash
/// table's hot pages back to DRAM and beats the untreated run on W3.
#[test]
fn hot_watermark_beats_none_on_w3_on_the_cxl_machine() {
    let data = JoinDataset::generate(20_000, SEED);
    let (none_cycles, none) = w3_on_cxl(TierSpec::NONE, &data);
    let hw = TierSpec::parse("hot-watermark").unwrap();
    let (hw_cycles, tiered) = w3_on_cxl(hw, &data);

    assert_eq!(none.checksum, tiered.checksum, "tiering must not change the answer");
    assert_eq!(none.matches, tiered.matches);
    assert!(
        tiered.counters.promotions > 0,
        "the daemon must actually move pages up: {:?}",
        tiered.counters
    );
    let ratio = |c: &nqp::sim::Counters| {
        let total = c.local_accesses + c.remote_accesses;
        c.slow_tier_hits as f64 / total.max(1) as f64
    };
    assert!(
        ratio(&tiered.counters) < ratio(&none.counters),
        "promotion must cut the slow-tier demand-hit ratio: tiered {:.4} vs none {:.4}",
        ratio(&tiered.counters),
        ratio(&none.counters)
    );
    // Measured ~5% on this workload; pin a conservative 2% floor so the
    // test survives small model recalibrations without going soft.
    assert!(
        hw_cycles * 100 < none_cycles * 98,
        "hot-watermark must beat none by >=2% on W3/B_CXL: tiered {hw_cycles} vs none {none_cycles}"
    );
}

/// `--tier none` on an all-DRAM machine builds no daemon at all, so the
/// simulated run is bit-identical — not merely close — to the
/// pre-tiering model.
#[test]
fn tier_none_is_identical_to_no_tier_on_all_dram() {
    let data = JoinDataset::generate(8_000, SEED);
    let base = {
        let cfg = TuningConfig::tuned(machines::machine_b());
        try_run_hash_join_on(&cfg.env(8), &data).expect("fault-free run")
    };
    let with_flag = {
        let cfg = TuningConfig::tuned(machines::machine_b()).with_tier(TierSpec::NONE);
        try_run_hash_join_on(&cfg.env(8), &data).expect("fault-free run")
    };
    assert_eq!(base.build_cycles, with_flag.build_cycles);
    assert_eq!(base.probe_cycles, with_flag.probe_cycles);
    assert_eq!(base.checksum, with_flag.checksum);
    assert_eq!(base.counters, with_flag.counters);
    assert_eq!(with_flag.counters.promotions, 0);
    assert_eq!(with_flag.counters.demotions, 0);
}

/// Build a spec from raw drawn parameters, through the same grammar
/// the CLI accepts (the vendored proptest shim has no `prop_oneof`, so
/// the policy arm is drawn as an integer).
fn spec_from(kind: u8, a: u64, dwm: u64, budget: u64) -> TierSpec {
    let text = match kind % 3 {
        0 => "none".to_string(),
        1 => format!("lru-epoch:idle={a},budget={budget}"),
        _ => format!("hot-watermark:pwm={a},dwm={dwm},budget={budget}"),
    };
    TierSpec::parse(&text).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any tiering policy drawn from the grammar is byte-identical at
    /// every host shard count: the daemon only sees merged epoch state,
    /// so `--shards N` must be invisible to its decisions.
    #[test]
    fn any_policy_is_shard_count_invisible(
        kind in 0u8..3,
        a in 1u64..=6,
        dwm in 1u64..=256,
        budget in 16u64..=512,
        seed in 1u64..=400,
        shards in 2usize..=4,
    ) {
        let tier = spec_from(kind, a, dwm, budget);
        let data = JoinDataset::generate(3_000, seed);
        let run = |shard_count: usize| {
            let cfg = TuningConfig::tuned(machines::machine_b_cxl()).with_tier(tier);
            let mut env = cfg.env(8);
            env.sim = env.sim.with_shards(shard_count);
            try_run_hash_join_on(&env, &data).expect("fault-free run")
        };
        let serial = run(1);
        let sharded = run(shards);
        prop_assert_eq!(serial.build_cycles, sharded.build_cycles);
        prop_assert_eq!(serial.probe_cycles, sharded.probe_cycles);
        prop_assert_eq!(serial.checksum, sharded.checksum);
        prop_assert_eq!(serial.counters, sharded.counters);
    }

    /// The spec grammar round-trips: `parse(label(spec)) == spec`, so
    /// journals and config names can always be re-parsed.
    #[test]
    fn tier_labels_round_trip(
        kind in 0u8..3,
        a in 1u64..=6,
        dwm in 1u64..=256,
        budget in 16u64..=512,
    ) {
        let tier = spec_from(kind, a, dwm, budget);
        let reparsed = TierSpec::parse(&tier.label()).unwrap();
        prop_assert_eq!(reparsed, tier);
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("nqp-tier-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Through the real binary: a knobs × tiering-policies sweep on the
/// CXL machine writes byte-identical stdout and CSV serial, under
/// `--jobs 2`, and under `--shards 2` — the tier daemon's decisions
/// ride the deterministic epoch stream, not host scheduling.
#[test]
fn cli_tier_sweep_is_byte_identical_across_jobs_and_shards() {
    let run = |extra: &[&str]| {
        let dir = temp_dir("sweep");
        let csv = dir.join("sweep.csv");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
        cmd.args([
            "sweep", "w3", "--machine", "machine_b_cxl", "--threads", "4", "--n", "4000",
            "--trials", "2", "--tier", "none+hot-watermark:pwm=2",
        ]);
        cmd.args(extra);
        cmd.arg("--csv").arg(&csv);
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "tier sweep failed ({extra:?}): {out:?}");
        (out.stdout, std::fs::read(&csv).unwrap())
    };
    let base = run(&[]);
    for extra in [&["--jobs", "2"][..], &["--shards", "2"][..]] {
        let other = run(extra);
        assert_eq!(
            String::from_utf8_lossy(&base.0),
            String::from_utf8_lossy(&other.0),
            "tier sweep stdout diverges under {extra:?}"
        );
        assert_eq!(base.1, other.1, "tier sweep CSV diverges under {extra:?}");
    }
}

/// Kill a journaled tier sweep mid-grid, resume it, and compare with
/// an uninterrupted run: the tier policy is part of the journal's grid
/// fingerprint, so the resume must replay the exact same crossed cells.
#[test]
fn cli_killed_tier_sweep_resumes_byte_identically() {
    let dir = temp_dir("resume");
    let args = vec![
        "sweep", "w3", "--machine", "machine_b_cxl", "--threads", "4", "--n", "3000",
        "--trials", "2", "--tier", "none+lru-epoch",
    ];

    let full_csv = dir.join("full.csv");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
    cmd.args(&args);
    cmd.arg("--csv").arg(&full_csv);
    let uninterrupted = cmd.output().unwrap();
    assert!(uninterrupted.status.success(), "uninterrupted tier sweep failed: {uninterrupted:?}");

    let journal = dir.join("sweep.jsonl");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
    cmd.args(&args);
    cmd.arg("--journal").arg(&journal);
    cmd.args(["--max-cells", "2"]);
    let killed = cmd.output().unwrap();
    assert!(killed.status.success(), "interrupted tier sweep must exit clean: {killed:?}");
    assert!(
        String::from_utf8_lossy(&killed.stderr).contains("interrupted"),
        "the partial run must say it was interrupted"
    );

    let resumed_csv = dir.join("resumed.csv");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
    cmd.args(&args);
    cmd.arg("--resume").arg(&journal);
    cmd.arg("--csv").arg(&resumed_csv);
    let resumed = cmd.output().unwrap();
    assert!(resumed.status.success(), "resumed tier sweep failed: {resumed:?}");

    assert_eq!(
        String::from_utf8_lossy(&uninterrupted.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "resumed tier sweep stdout diverges from the uninterrupted run"
    );
    assert_eq!(
        std::fs::read(&full_csv).unwrap(),
        std::fs::read(&resumed_csv).unwrap(),
        "resumed tier sweep CSV diverges from the uninterrupted run"
    );
}

/// On an all-DRAM machine, passing `--tier none` must not perturb a
/// single CSV byte relative to omitting the flag entirely. (The CSVs
/// are compared, not journals — `--tier` legitimately enters the grid
/// fingerprint.)
#[test]
fn cli_tier_none_is_byte_identical_to_no_flag_on_all_dram() {
    let run = |tier_flag: &[&str]| {
        let dir = temp_dir("none");
        let csv = dir.join("sweep.csv");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
        cmd.args([
            "sweep", "w1", "--machine", "S", "--threads", "4", "--n", "3000", "--card",
            "300", "--trials", "2",
        ]);
        cmd.args(tier_flag);
        cmd.arg("--csv").arg(&csv);
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "sweep failed ({tier_flag:?}): {out:?}");
        (out.stdout, std::fs::read(&csv).unwrap())
    };
    let without = run(&[]);
    let with = run(&["--tier", "none"]);
    assert_eq!(
        String::from_utf8_lossy(&without.0),
        String::from_utf8_lossy(&with.0),
        "--tier none must not change sweep stdout on an all-DRAM machine"
    );
    assert_eq!(without.1, with.1, "--tier none must not change a CSV byte");
}

/// Malformed `--tier` specs die with a typed error naming the flag and
/// the offending token; nothing runs.
#[test]
fn cli_rejects_malformed_tier_specs() {
    for bad in ["bogus", "hot-watermark:pwm=", "lru-epoch:idle=x", "hot-watermark:zzz=3", ""] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
        cmd.args([
            "sweep", "w1", "--machine", "machine_b_cxl", "--threads", "4", "--n", "1000",
            "--card", "100", "--trials", "1", "--tier", bad,
        ]);
        let out = cmd.output().unwrap();
        assert!(!out.status.success(), "--tier {bad:?} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--tier"), "error must name the flag: {err}");
    }
}

/// An unknown machine name dies with a typed error that echoes the bad
/// token and lists every valid machine, including the tier presets.
#[test]
fn cli_rejects_unknown_machines_and_lists_the_valid_ones() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
    cmd.args([
        "sweep", "w1", "--machine", "machine_z", "--threads", "4", "--n", "1000", "--card",
        "100", "--trials", "1",
    ]);
    let out = cmd.output().unwrap();
    assert!(!out.status.success(), "unknown machine must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("machine_z"), "error must echo the bad token: {err}");
    for name in nqp::topology::machines::MACHINE_NAMES {
        assert!(err.contains(name), "error must list valid machine `{name}`: {err}");
    }
}
