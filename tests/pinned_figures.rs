//! Pinned model figures: the deterministic headline numbers of the
//! sweep, serve, online-advisor and tiering studies that EXPERIMENTS.md
//! quotes, plus a digest of every TPC-H query's cycles and counters.
//!
//! Every figure here is a model-cycle or model-counter value, a pure
//! function of the cost model, the presets and the seed — host speed,
//! `--jobs` and `--shards` never move them. The grids are the ones the
//! CLI commands in each test's doc comment run. Sweeps go through the
//! library, one trial per configuration (trials of a configuration are
//! bit-identical by design, so one trial is the sweep's mean); the
//! serve grid goes through the real `nqp-cli` binary, whose report is
//! the figure.
//!
//! These values move only with a declared model move. If a change moves
//! the model on purpose, declare the move and re-record the values from
//! this test's failure message.

use nqp::core::{advisor_contender, cross_grid, preset_configs, TuningConfig};
use nqp::datagen::tpch::TpchData;
use nqp::engines::{DbSystem, SystemKind, QUERY_COUNT};
use nqp::indexes::IndexKind;
use nqp::query::plan::{PlanSpec, WorkloadPlan};
use nqp::query::{EngineKind, WorkloadEnv};
use nqp::sim::{Counters, MemPolicy};
use nqp::tier::TierSpec;
use nqp::topology::{machines, MachineSpec};
use std::process::Command;

fn machine(name: &str) -> MachineSpec {
    machines::by_name(name).expect("a machine preset")
}

/// The CLI's plan for `--n`/`--card` at its default seed.
fn plan(which: &str, n: Option<usize>, card: Option<u64>) -> WorkloadPlan {
    let spec = PlanSpec { n, card, index: IndexKind::BPlusTree, seed: 42 };
    WorkloadPlan::new(which, &spec).expect("a known workload")
}

/// One trial of each configuration: (name, cycles, counters).
fn run(
    plan: &WorkloadPlan,
    configs: &[TuningConfig],
    threads: usize,
) -> Vec<(String, u64, Counters)> {
    configs
        .iter()
        .map(|cfg| {
            let out = plan.try_run(&cfg.env(threads)).expect("a fault-free trial");
            (cfg.name.clone(), out.cycles, out.counters)
        })
        .collect()
}

fn cycles(rows: Vec<(String, u64, Counters)>) -> Vec<(String, u64)> {
    rows.into_iter().map(|(name, cycles, _)| (name, cycles)).collect()
}

fn pinned(rows: &[(&str, u64)]) -> Vec<(String, u64)> {
    rows.iter().map(|&(name, v)| (name.to_string(), v)).collect()
}

/// `sweep w1 --machine B --threads 8 --n 20000 --card 2000 --trials 2`
#[test]
fn w1_sweep_means() {
    let configs = preset_configs(TuningConfig::os_default(machine("B")));
    let got = cycles(run(&plan("w1", Some(20_000), Some(2_000)), &configs, 8));
    let want = pinned(&[("os-default (+flags)", 2_526_078), ("tuned (+flags)", 1_479_474)]);
    assert_eq!(got, want, "w1 sweep means moved; got {got:?}");
}

/// `sweep wshift --machine S --threads 4 --trials 2 --advisor online,autonuma`
#[test]
fn phase_shift_advisor_means() {
    let mut configs = preset_configs(TuningConfig::os_default(machine("S")));
    for name in ["online", "autonuma"] {
        let contender = advisor_contender(&configs[1], name).expect("a known contender");
        configs.push(contender);
    }
    let got = cycles(run(&plan("wshift", None, None), &configs, 4));
    let want = pinned(&[
        ("os-default (+flags)", 24_292_077),
        ("tuned (+flags)", 19_334_165),
        ("online (+flags)", 18_100_125),
        ("autonuma (+flags)", 21_873_264),
    ]);
    assert_eq!(got, want, "phase-shift means moved; got {got:?}");
}

/// The tuned half of
/// `sweep w3 --machine machine_b_cxl --threads 8 --n 50000 --trials 2
/// --tier none+lru-epoch+hot-watermark`.
#[test]
fn tier_grid_tuned_means() {
    let tuned = preset_configs(TuningConfig::os_default(machine("machine_b_cxl"))).remove(1);
    let tiers: Vec<TierSpec> = ["none", "lru-epoch", "hot-watermark"]
        .into_iter()
        .map(|t| TierSpec::parse(t).expect("a tier spec"))
        .collect();
    let configs = cross_grid(vec![tuned], &tiers, &[EngineKind::Tuple]);
    let got = cycles(run(&plan("w3", Some(50_000), None), &configs, 8));
    let want = pinned(&[
        ("tuned (+flags)", 33_684_208),
        ("tuned (+flags) tier=lru-epoch:idle=2,budget=512", 32_254_271),
        ("tuned (+flags) tier=hot-watermark:dwm=128,pwm=4,budget=512", 29_976_867),
    ]);
    assert_eq!(got, want, "tier grid means moved; got {got:?}");
}

/// `workload w3 --machine machine_b_cxl --threads 8 --policy interleave
/// --tier none|hot-watermark`: slow-tier demand hits and the hit ratio
/// as the CLI prints it. The `none` row moved from 77 077 (14.6%) when
/// sharded AutoNUMA stopped migrating pages onto full DRAM nodes.
#[test]
fn slow_tier_hit_ratios() {
    let base =
        TuningConfig::os_default(machine("machine_b_cxl")).with_policy(MemPolicy::Interleave);
    let configs: Vec<TuningConfig> = ["none", "hot-watermark"]
        .into_iter()
        .map(|t| base.clone().with_tier(TierSpec::parse(t).expect("a tier spec")).named(t))
        .collect();
    let got: Vec<(String, u64, String)> = run(&plan("w3", None, None), &configs, 8)
        .into_iter()
        .map(|(name, _, c)| {
            let ratio = format!("{:.1}%", c.slow_tier_hit_ratio() * 100.0);
            (name, c.slow_tier_hits, ratio)
        })
        .collect();
    let want = [("none", 78_396, "14.8%"), ("hot-watermark", 7_044, "1.3%")]
        .map(|(name, hits, ratio)| (name.to_string(), hits, ratio.to_string()));
    assert_eq!(got, want, "slow-tier hit ratios moved; got {got:?}");
}

/// `serve w1,w3 --machine B --threads 8 --duration 40 --seed 7
/// --arrivals burst:rate=2.5,x=4`: each configuration's p99 latency
/// cycles, shed requests and arrivals from the report.
#[test]
fn serve_burst_tail_and_shed() {
    let out = Command::new(env!("CARGO_BIN_EXE_nqp-cli"))
        .args(["serve", "w1,w3", "--machine", "B", "--threads", "8", "--duration", "40"])
        .args(["--seed", "7", "--arrivals", "burst:rate=2.5,x=4"])
        .output()
        .expect("nqp-cli runs");
    assert!(out.status.success(), "serve failed: {out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 report");
    // Table rows: the config name, then p50 p95 p99 p99.9 slo shed t/o
    // degr maxq. Summary lines: `<config>: N arrivals, ...`.
    let arrivals = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(": ")?.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no arrivals line for `{name}` in\n{text}"))
    };
    let got: Vec<(String, u64, u64, u64)> = text
        .lines()
        .skip_while(|l| !l.starts_with("config "))
        .skip(1)
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .take_while(|cols| cols.len() > 9 && cols[cols.len() - 1].parse::<u64>().is_ok())
        .map(|cols| {
            let (name, nums) = cols.split_at(cols.len() - 9);
            let name = name.join(" ");
            let num = |i: usize| nums[i].parse::<u64>().expect("a numeric column");
            let arrivals = arrivals(&name);
            (name, num(2), num(5), arrivals)
        })
        .collect();
    let want = [("os-default (+flags)", 9_609_033, 4, 146), ("tuned (+flags)", 7_660_859, 1, 146)]
        .map(|(name, p99, shed, arrivals)| (name.to_string(), p99, shed, arrivals));
    assert_eq!(got, want, "serve p99/shed moved; got {got:?}\n{text}");
}

/// Q1–Q22 on all five engine profiles at SF 0.004, machine B OS
/// defaults, 4 threads: FNV-1a over the `Debug` rendering of each
/// system's per-query `(latency_cycles, cumulative counters)`. A plan
/// whose charges follow host map order (rather than a defined order)
/// moves this digest when the plans' hasher changes.
#[test]
fn tpch_queries_on_every_profile() {
    let fnv = |text: &str| {
        text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let data = TpchData::generate(0.004, 42);
    let env = WorkloadEnv::os_default(machine("B")).with_threads(4);
    let got: Vec<(SystemKind, u64)> = SystemKind::ALL
        .into_iter()
        .map(|system| {
            let mut db = DbSystem::boot(system, &env, &data);
            let runs: Vec<(u64, Counters)> = (1..=QUERY_COUNT)
                .map(|q| {
                    let out = db.try_run(q).expect("a fault-free query");
                    (out.latency_cycles, db.counters())
                })
                .collect();
            (system, fnv(&format!("{runs:?}")))
        })
        .collect();
    let want = [
        (SystemKind::MonetDbLike, 0xd825_2712_f08a_e227),
        (SystemKind::PostgresLike, 0x4bd8_9419_a4d3_73f5),
        (SystemKind::MySqlLike, 0xbc0d_8a3f_3b2e_41bb),
        (SystemKind::DbmsX, 0x870d_caa3_574a_84fe),
        (SystemKind::QuickstepLike, 0x1a11_0e08_2c84_f917),
    ];
    assert_eq!(got, want, "TPC-H cycles or counters moved; got {got:#x?}");
}
