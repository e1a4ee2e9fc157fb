//! `nqp-cli` — run the paper's experiments from the command line.
//!
//! ```text
//! nqp-cli machines
//! nqp-cli advise [--managed] [--cache-bound] [--no-root] [--placed]
//!                [--alloc-light] [--mem-tight]
//! nqp-cli workload w1|w2|w3|w4 [--machine A|B|C] [--threads N]
//!                [--alloc NAME] [--policy first-touch|interleave|localalloc|preferred|bind]
//!                [--placement sparse|dense|none] [--autonuma on|off]
//!                [--thp on|off] [--n N] [--card N] [--index NAME] [--seed N]
//!                [--faults SPEC] [--trial-budget CYCLES] [--tier SPEC]
//!                [--engine tuple|vec]
//! nqp-cli compare w1|w2|w3|w4 [--machine A|B|C]      # default vs tuned
//! nqp-cli sweep w1|w2|w3|w4|wshift [--trials N] [--retries N] [--faults SPEC]
//!                [--trial-budget CYCLES] [--machine A|B|C|S|machine_b_cxl] [--jobs N]
//!                [--shards N] [--advisor online[,autonuma]] [--tier SPEC[+SPEC..]]
//!                [--engine E[+E..]]
//!                [--journal PATH | --resume PATH] [--max-cells N]
//!                [--watchdog CYCLES] [--retry-budget N] [--breaker K]
//!                [--csv FILE] [--json FILE]
//!                [--trace-dir DIR] [--trace-epoch CYCLES]
//! nqp-cli serve w1|w2|w3|w4[,..] [--tenants N] [--duration MCYCLES] [--arrivals SPEC]
//!                [--configs both|os-default|tuned] [--tier SPEC] [--engine tuple|vec]
//!                [--jobs N] [--shards N] [--journal PATH | --resume PATH] [--max-cells N]
//!                [--csv FILE] [--json FILE] [--trace-dir DIR]   # full list: `help`
//! nqp-cli hotpath w1|w3 [--machine A|B|C] [--threads N] [--n N] [--card N] [--reps K]
//!                [--engine tuple|vec]
//! nqp-cli trace FILE [--chrome OUT] [--csv OUT] [--decisions OUT] [--report]
//! nqp-cli tpch QNUM [--system NAME] [--sf F] [--tuned] [--engine tuple|vec]
//! ```
//!
//! `--faults` takes the deterministic fault-plan grammar of
//! `FaultPlan::parse`, e.g. `alloc@2:attempts=1;link@0..9:link=1,lat=2.5`
//! or `offline@3:node=1` for a sticky node outage. `sweep` runs every
//! trial of every configuration to completion and exits nonzero only if
//! *every* trial of some configuration failed; trials that survive a
//! node outage by evacuating its memory are reported `degraded`.
//!
//! `--journal PATH` appends each finished `(config, trial)` cell to a
//! fsync'd write-ahead journal; after a crash or Ctrl-C, rerun the same
//! sweep with `--resume PATH` to skip the journaled cells and produce a
//! final table bit-identical to an uninterrupted run.
//!
//! `sweep` and `serve` share one grid harness: the worker pool of
//! `nqp_core::executor`, one journal reader, and one set of helpers for
//! presets, `--jobs`, `--trace-dir`, `--journal`/`--resume`, and
//! `--csv`/`--json`. `--jobs N` (default 1) fans sweep configurations or
//! serve cells across N workers; every output — table, CSV, JSON, trace
//! artifacts — is byte-identical for any N, and each finished cell is
//! journaled (fsync'd) before its worker moves on, so the journal stays
//! resumable under any job count. `--retry-budget` is a deterministic
//! per-config quota of `ceil(budget / configs)`, so admission never
//! depends on scheduling order.
//!
//! Every subcommand rejects a flag it does not read (nonzero exit,
//! naming the flag): a typo never runs silently with a default, and
//! never leaks into a sweep's grid fingerprint.
//!
//! `--shards N` (default 1) spreads the simulated workers of each
//! *single* trial across N host threads; like `--jobs`, every output is
//! byte-identical for any shard count, so the two compose freely and
//! neither enters the grid fingerprint.
//!
//! `--tier` installs the tiered-memory daemon on machines with a slow
//! tier (`machine_b_cxl`, `numa_small_nvm`): `none`,
//! `lru-epoch[:idle=N,budget=N]`, or
//! `hot-watermark[:dwm=N,pwm=N,budget=N]`. On `sweep` a `+`-separated
//! list crosses every contender with each policy (the knobs × tiering
//! study); unlike `--jobs`/`--shards` it changes what runs, so it
//! enters the grid fingerprint.
//!
//! `--engine tuple|vec` picks the operator path: the tuple-at-a-time
//! oracle or the batch-at-a-time vectorized path. Both compute
//! byte-identical query results (the `checksum:` line); only the
//! charged cycles move, so — like `--tier` — it enters the grid
//! fingerprint, and on `sweep` a `+` list (`--engine tuple+vec`)
//! crosses every contender with each path.

use nqp::advisor::{advise, ControllerConfig, WorkloadProfile};
use nqp::alloc::AllocatorKind;
use nqp::core::executor::sweep_parallel;
use nqp::core::journal::{grid_fingerprint, JournalRecord, JournalWriter};
use nqp::core::runner::{RetryPolicy, SupervisorPolicy, TrialMeasurement, TrialRecord};
use nqp::core::{AdvisorMode, TuningConfig};
use nqp::datagen::tpch::TpchData;
use nqp::datagen::{generate, JoinDataset};
use nqp::engines::{query_name, DbSystem, SystemKind};
use nqp::indexes::IndexKind;
use nqp::query::{
    try_run_aggregation_on, try_run_hash_join_on, try_run_inl_join_on, try_run_phase_shift,
    AggConfig, AggKind, EngineKind, PhaseShiftConfig, WorkloadEnv,
};
use nqp::sim::{
    Access, Counters, FaultPlan, MemPolicy, NumaSim, SimError, SimResult, ThreadPlacement,
    TraceConfig, TraceLog,
};
use nqp::serve::{
    arrival::parse_milli, run_cells, ArrivalSpec, CellInput, CellStats, ClassProfile,
    OutageSpec, ServeAdvisor, ServeSpec, Session,
};
use nqp::tier::TierSpec;
use nqp::topology::{machines, MachineSpec};
use nqp::trace::{artifact_name, sessions_to_chrome_json, slug, SessionSpan, Trace, TraceMeta};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "machines" => cmd_machines(),
        "advise" => cmd_advise(&args[1..]),
        "workload" => cmd_workload(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "hotpath" => cmd_hotpath(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "tpch" => cmd_tpch(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  nqp-cli machines
  nqp-cli advise [--managed] [--cache-bound] [--no-root] [--placed] [--alloc-light] [--mem-tight]
  nqp-cli workload <w1|w2|w3|w4> [options] [--faults SPEC] [--trial-budget CYCLES] [--tier SPEC]
                [--engine tuple|vec]
  nqp-cli compare <w1|w2|w3|w4> [--machine A|B|C]
  nqp-cli sweep <w1|w2|w3|w4|wshift> [--trials N] [--retries N] [--faults SPEC] [--trial-budget CYCLES]
                [--advisor online[,autonuma]] [--tier SPEC[+SPEC..]]
                [--engine tuple|vec|tuple+vec]
                [--jobs N] [--shards N] [--journal PATH | --resume PATH]
                [--max-cells N] [--watchdog CYCLES]
                [--retry-budget N] [--breaker K] [--csv FILE] [--json FILE]
                [--trace-dir DIR] [--trace-epoch CYCLES]
  nqp-cli serve <w1|w2|w3|w4[,..]> [--tenants N] [--duration MCYCLES] [--arrivals SPEC]
                [--lanes N] [--queue-cap N] [--tokens N] [--refill R] [--deadline MCYCLES]
                [--breaker K] [--epoch MCYCLES] [--outage T1..T2:node=N]
                [--advisor static|online[:rearm=N]] [--tier SPEC]
                [--configs both|os-default|tuned] [--engine tuple|vec] [--jobs N] [--shards N]
                [--journal PATH | --resume PATH] [--max-cells N]
                [--csv FILE] [--json FILE] [--trace-dir DIR]
                (arrivals: poisson:rate=R | burst:rate=R,x=M,on=A,off=B | diurnal:rate=R,x=M,period=P)
                (tier: none | lru-epoch[:idle=N,budget=N] | hot-watermark[:dwm=N,pwm=N,budget=N])
  nqp-cli hotpath <w1|w3> [--machine A|B|C] [--threads N] [--n N] [--card N] [--reps K]
                [--engine tuple|vec] [--policy ...] [--autonuma on|off] [--thp on|off]   # NQP_REFERENCE=1 for the oracle
  nqp-cli trace <FILE.trace> [--chrome OUT.json] [--csv OUT.csv] [--decisions OUT.csv] [--report]
  nqp-cli tpch <1..22> [--system monetdb|postgresql|mysql|dbmsx|quickstep] [--sf 0.005] [--tuned]
                [--engine tuple|vec]
  (every command rejects flags it does not read; see the README for the full option lists)";

/// Flags [`machine_arg`] and [`config_from_flags`] read.
const CONFIG_FLAGS: &[&str] = &[
    "machine", "placement", "policy", "autonuma", "thp", "alloc", "seed", "faults",
    "trial-budget", "shards",
];
/// Flags [`WorkloadPlan::parse`] reads.
const PLAN_FLAGS: &[&str] = &["n", "card", "index", "seed"];
/// Flags both grid commands (`sweep`, `serve`) read through the shared
/// grid helpers.
const GRID_FLAGS: &[&str] = &[
    "threads", "tier", "engine", "advisor", "breaker", "jobs", "max-cells", "journal",
    "resume", "csv", "json", "trace-dir",
];

/// Parse `--key value` / `--flag` argument lists, rejecting any flag
/// outside `known` (the union of the lists a command reads), so a typo
/// fails loudly instead of running with a default.
fn parse_flags(
    cmd: &str,
    args: &[String],
    known: &[&[&str]],
) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !known.iter().any(|list| list.contains(&name)) {
                return Err(format!(
                    "unknown flag `--{name}` for `{cmd}` (see `nqp-cli help`)"
                ));
            }
            let takes_value = it
                .peek()
                .is_some_and(|next| !next.starts_with("--"));
            if takes_value {
                flags.insert(name.to_string(), it.next().expect("peeked").clone());
            } else {
                flags.insert(name.to_string(), String::new());
            }
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

fn machine_arg(flags: &HashMap<String, String>) -> Result<MachineSpec, String> {
    let name = flags.get("machine").map(String::as_str).unwrap_or("A");
    nqp::sim::machine_by_name(name).map_err(|e| e.to_string())
}

/// Parse `--tier` as a `+`-separated list of tiering specs — commas
/// belong to each spec's knob grammar (`hot-watermark:dwm=64,pwm=4`),
/// so crossing several policies in one sweep uses `+`:
/// `--tier none+lru-epoch+hot-watermark:pwm=2`. Absent flag = `none`.
fn tier_arg(flags: &HashMap<String, String>) -> Result<Vec<TierSpec>, String> {
    let Some(list) = flags.get("tier") else {
        return Ok(vec![TierSpec::NONE]);
    };
    let specs: Vec<TierSpec> = list
        .split('+')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| TierSpec::parse(s).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    if specs.is_empty() {
        return Err("empty --tier list (none, lru-epoch, hot-watermark)".to_string());
    }
    Ok(specs)
}

/// The single-policy form of [`tier_arg`], for commands that run one
/// configuration rather than a sweep grid.
fn single_tier_arg(flags: &HashMap<String, String>) -> Result<TierSpec, String> {
    let specs = tier_arg(flags)?;
    match specs[..] {
        [one] => Ok(one),
        _ => Err("this command takes a single --tier policy (`+` lists are for sweep)"
            .to_string()),
    }
}

/// Parse `--engine` as a `+`-separated list of operator paths, the
/// [`tier_arg`] pattern: `tuple`, `vec`, or `tuple+vec` to cross both
/// in one sweep. Absent flag = `tuple` (the differential oracle).
fn engine_arg(flags: &HashMap<String, String>) -> Result<Vec<EngineKind>, String> {
    let Some(list) = flags.get("engine") else {
        return Ok(vec![EngineKind::Tuple]);
    };
    let kinds: Vec<EngineKind> = list
        .split('+')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| EngineKind::parse(s).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    if kinds.is_empty() {
        return Err("empty --engine list (tuple, vec)".to_string());
    }
    Ok(kinds)
}

/// The single-engine form of [`engine_arg`], for commands that run one
/// configuration rather than a sweep grid.
fn single_engine_arg(flags: &HashMap<String, String>) -> Result<EngineKind, String> {
    let kinds = engine_arg(flags)?;
    match kinds[..] {
        [one] => Ok(one),
        _ => Err("this command takes a single --engine (`+` lists are for sweep)"
            .to_string()),
    }
}

fn cmd_machines() -> Result<(), String> {
    for m in machines::paper_machines() {
        // Memory sizes in MB: the tiering machines carry deliberately
        // tiny DRAM nodes (a GB display would round them to 0).
        let mem: Vec<String> = (0..m.topology.num_nodes())
            .map(|n| {
                let mb = m.mem_bytes_of_node(n) >> 20;
                let tier = m.tier_of(n);
                if tier.is_slow() {
                    format!(
                        "{mb}MB slow(r×{} w×{} bw×{})",
                        tier.read_factor(),
                        tier.write_factor(),
                        tier.bandwidth_factor()
                    )
                } else {
                    format!("{mb}MB")
                }
            })
            .collect();
        println!(
            "Machine {}: {} — {} nodes ({}), {} cores / {} threads, LLC {} MB/node, mem/node [{}], latency tiers {:?}",
            m.name,
            m.cpu_model,
            m.topology.num_nodes(),
            m.topology.name(),
            m.total_cores(),
            m.total_hw_threads(),
            m.llc.size_bytes >> 20,
            mem.join(", "),
            m.topology.latency_tiers(),
        );
    }
    Ok(())
}

fn cmd_advise(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse_flags(
        "advise",
        args,
        &[&["managed", "cache-bound", "no-root", "placed", "alloc-light", "mem-tight"]],
    )?;
    let profile = WorkloadProfile {
        threads_managed: flags.contains_key("managed"),
        memory_bandwidth_bound: !flags.contains_key("cache-bound"),
        superuser: !flags.contains_key("no-root"),
        memory_placement_defined: flags.contains_key("placed"),
        allocation_heavy: !flags.contains_key("alloc-light"),
        free_memory_constrained: flags.contains_key("mem-tight"),
    };
    println!("{}", advise(&profile).describe());
    Ok(())
}

/// Build a TuningConfig from CLI flags over the OS default.
fn config_from_flags(
    machine: MachineSpec,
    flags: &HashMap<String, String>,
) -> Result<TuningConfig, String> {
    let mut cfg = TuningConfig::os_default(machine);
    if let Some(p) = flags.get("placement") {
        cfg = cfg.with_threads(match p.as_str() {
            "sparse" => ThreadPlacement::Sparse,
            "dense" => ThreadPlacement::Dense,
            "none" => ThreadPlacement::None,
            other => return Err(format!("unknown placement `{other}`")),
        });
    }
    if let Some(p) = flags.get("policy") {
        cfg = cfg.with_policy(match p.as_str() {
            "first-touch" => MemPolicy::FirstTouch,
            "interleave" => MemPolicy::Interleave,
            "localalloc" => MemPolicy::Localalloc,
            "preferred" => MemPolicy::Preferred(0),
            // Strict membind: allocations on a full node 0 fail with
            // OOM instead of spilling, like `numactl --membind=0`.
            "bind" => MemPolicy::Bind(0),
            other => return Err(format!("unknown policy `{other}`")),
        });
    }
    for (flag, setter) in [("autonuma", 0usize), ("thp", 1)] {
        if let Some(v) = flags.get(flag) {
            let on = match v.as_str() {
                "on" | "1" | "true" => true,
                "off" | "0" | "false" => false,
                other => return Err(format!("--{flag} takes on/off, got `{other}`")),
            };
            cfg = if setter == 0 { cfg.with_autonuma(on) } else { cfg.with_thp(on) };
        }
    }
    if let Some(a) = flags.get("alloc") {
        let kind = AllocatorKind::parse(a).ok_or_else(|| format!("unknown allocator `{a}`"))?;
        cfg = cfg.with_allocator(kind);
    }
    if let Some(s) = flags.get("seed") {
        let seed: u64 = s.parse().map_err(|_| format!("bad seed `{s}`"))?;
        cfg.sim = cfg.sim.with_seed(seed);
    }
    if let Some(spec) = flags.get("faults") {
        let plan = FaultPlan::parse(spec, cfg.sim.seed).map_err(|e| e.to_string())?;
        cfg = cfg.with_faults(plan);
    }
    if let Some(b) = flags.get("trial-budget") {
        let cycles: u64 = b.parse().map_err(|_| format!("bad --trial-budget `{b}`"))?;
        cfg = cfg.with_trial_budget(cycles);
    }
    // --shards N spreads one trial's simulated workers over N host
    // threads. Results are byte-identical for every shard count (the
    // check.sh gate), so — like --jobs — it is excluded from grid
    // fingerprints and never changes what a sweep reports.
    if let Some(s) = flags.get("shards") {
        let shards: usize = s
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad --shards `{s}` (want an integer >= 1)"))?;
        cfg.sim = cfg.sim.with_shards(shards);
    }
    // NQP_REFERENCE=1 runs the per-line reference model instead of the
    // page-granular fast path. Both produce bit-identical results (an
    // invariant scripts/check.sh pins), so this is an env var rather
    // than a grid flag: it must never change what a sweep reports.
    if std::env::var("NQP_REFERENCE").is_ok_and(|v| v != "0" && !v.is_empty()) {
        cfg.sim = cfg.sim.with_reference_model(true);
    }
    Ok(cfg)
}

fn counters_summary(c: &Counters) -> String {
    format!(
        "migrations={} page-migrations={} cache-misses={} LAR={:.0}% lock-waits={}",
        c.thread_migrations,
        c.page_migrations,
        c.cache_misses,
        c.local_access_ratio() * 100.0,
        c.lock_wait_cycles
    )
}

/// A workload with its input data pre-generated, so sweeps can replay
/// the exact same work under many environments (and fault attempts)
/// without paying datagen per trial.
enum WorkloadPlan {
    Agg { acfg: AggConfig, records: Vec<nqp::datagen::Record> },
    Hash { data: JoinDataset },
    Inl { index: IndexKind, data: JoinDataset },
    Shift { cfg: PhaseShiftConfig },
}

impl WorkloadPlan {
    fn parse(which: &str, flags: &HashMap<String, String>) -> Result<Self, String> {
        let seed: u64 = flags.get("seed").and_then(|s| s.parse().ok()).unwrap_or(42);
        match which {
            "w1" | "w2" => {
                let n: usize =
                    flags.get("n").and_then(|s| s.parse().ok()).unwrap_or(300_000);
                let card: u64 =
                    flags.get("card").and_then(|s| s.parse().ok()).unwrap_or(75_000);
                let mut acfg = if which == "w1" {
                    AggConfig::w1(n, card, seed)
                } else {
                    AggConfig::w2(n, card, seed)
                };
                if acfg.kind == AggKind::DistributiveCount {
                    acfg.cardinality = card;
                }
                let records = generate(acfg.dataset, n, card, seed);
                Ok(WorkloadPlan::Agg { acfg, records })
            }
            "w3" => {
                let r: usize =
                    flags.get("n").and_then(|s| s.parse().ok()).unwrap_or(30_000);
                Ok(WorkloadPlan::Hash { data: JoinDataset::generate(r, seed) })
            }
            "w4" => {
                let r: usize =
                    flags.get("n").and_then(|s| s.parse().ok()).unwrap_or(20_000);
                let index = match flags.get("index").map(String::as_str).unwrap_or("B+tree")
                {
                    "art" | "ART" => IndexKind::Art,
                    "masstree" | "Masstree" => IndexKind::Masstree,
                    "btree" | "B+tree" => IndexKind::BPlusTree,
                    "skiplist" | "Skip List" => IndexKind::SkipList,
                    other => return Err(format!("unknown index `{other}`")),
                };
                Ok(WorkloadPlan::Inl { index, data: JoinDataset::generate(r, seed) })
            }
            "wshift" => {
                // The build phase scans thread-private partitions; the
                // probe phase hammers one node's shared table — no
                // static placement wins both, which is the workload the
                // online advisor exists for.
                let mut cfg = PhaseShiftConfig::small(seed);
                if let Some(n) = flags.get("n").and_then(|s| s.parse().ok()) {
                    cfg.shared_n = n;
                    cfg.private_n = n * 2;
                }
                Ok(WorkloadPlan::Shift { cfg })
            }
            other => Err(format!("unknown workload `{other}` (w1, w2, w3, w4, wshift)")),
        }
    }

    /// Run once under `env`, surfacing simulation faults (OOM under a
    /// strict bind, injected failures, budget timeouts) as errors.
    fn try_run(&self, env: &WorkloadEnv) -> SimResult<RunOut> {
        match self {
            WorkloadPlan::Agg { acfg, records } => {
                let out = try_run_aggregation_on(env, acfg, records)?;
                Ok(RunOut {
                    cycles: out.exec_cycles,
                    checksum: out.checksum,
                    counters: out.counters,
                    trace: out.trace,
                })
            }
            WorkloadPlan::Hash { data } => {
                let out = try_run_hash_join_on(env, data)?;
                Ok(RunOut {
                    cycles: out.build_cycles + out.probe_cycles,
                    checksum: out.checksum,
                    counters: out.counters,
                    trace: out.trace,
                })
            }
            WorkloadPlan::Inl { index, data } => {
                let out = try_run_inl_join_on(env, *index, data)?;
                Ok(RunOut {
                    cycles: out.build_cycles + out.join_cycles,
                    checksum: out.checksum,
                    counters: out.counters,
                    trace: out.trace,
                })
            }
            WorkloadPlan::Shift { cfg } => {
                let out = try_run_phase_shift(env, cfg)?;
                Ok(RunOut {
                    cycles: out.exec_cycles,
                    checksum: out.checksum,
                    counters: out.counters,
                    trace: out.trace,
                })
            }
        }
    }
}

/// One workload run's observables: the simulated latency, the
/// result checksum (the engine-identity invariant `--engine` pins),
/// the counters, and the trace log when tracing was configured.
struct RunOut {
    cycles: u64,
    checksum: u64,
    counters: Counters,
    trace: Option<TraceLog>,
}

fn run_workload(
    which: &str,
    cfg: &TuningConfig,
    threads: usize,
    flags: &HashMap<String, String>,
) -> Result<RunOut, String> {
    let plan = WorkloadPlan::parse(which, flags)?;
    plan.try_run(&cfg.env(threads))
        .map_err(|e| format!("simulation fault: {e}"))
}

fn cmd_workload(args: &[String]) -> Result<(), String> {
    let (pos, flags) =
        parse_flags("workload", args, &[CONFIG_FLAGS, PLAN_FLAGS, &["threads", "tier", "engine"]])?;
    let which = pos.first().ok_or("workload needs w1|w2|w3|w4")?;
    let machine = machine_arg(&flags)?;
    let threads: usize = flags
        .get("threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or(machine.total_hw_threads());
    let cfg = config_from_flags(machine, &flags)?
        .with_tier(single_tier_arg(&flags)?)
        .with_engine(single_engine_arg(&flags)?);
    let out = run_workload(which, &cfg, threads, &flags)?;
    let (cycles, counters) = (out.cycles, out.counters);
    println!("{which} on machine {} with {} threads:", cfg.sim.machine.name, threads);
    println!(
        "  placement={} policy={} autonuma={} thp={} allocator={} tier={} engine={}",
        cfg.sim.thread_placement.label(),
        cfg.sim.mem_policy.label(),
        cfg.sim.autonuma,
        cfg.sim.thp,
        cfg.allocator.label(),
        cfg.tier.label(),
        cfg.engine.as_str()
    );
    println!("  cycles: {cycles}");
    // Machine-readable result checksum: scripts/check.sh diffs this
    // line between `--engine tuple` and `--engine vec` runs — the
    // vectorized path must compute byte-identical query results.
    println!("  checksum: 0x{:016x}", out.checksum);
    if cfg.sim.machine.has_slow_tier() {
        println!(
            "  promotions={} demotions={} slow-tier-hits={} slow-tier-hit-ratio={:.1}%",
            counters.promotions,
            counters.demotions,
            counters.slow_tier_hits,
            counters.slow_tier_hit_ratio() * 100.0
        );
    }
    println!("  {}", counters_summary(&counters));
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags("compare", args, &[&["machine"], PLAN_FLAGS])?;
    let which = pos.first().ok_or("compare needs w1|w2|w3|w4")?;
    let machine = machine_arg(&flags)?;
    let threads = machine.total_hw_threads();
    let default = TuningConfig::os_default(machine.clone());
    let tuned = TuningConfig::tuned(machine);
    let d = run_workload(which, &default, threads, &flags)?.cycles;
    let t = run_workload(which, &tuned, threads, &flags)?.cycles;
    println!("{which}: os-default {d} cycles, tuned {t} cycles -> {:.2}x", d as f64 / t as f64);
    Ok(())
}

/// `hotpath`: a microbenchmark of the simulator's memory-hierarchy hot
/// loop (`Worker::touch` and the page-granular fast path behind it),
/// replaying a deterministic access stream shaped like a workload's
/// inner loop — W1's scan + hash-scattered upserts, or W3's build +
/// probe — without the host-side operator logic (hash walks, sorts,
/// `Vec` traffic) that dilutes and noises full-workload timings.
///
/// The stream is identical regardless of `reference_model`, so running
/// it twice — plain and under `NQP_REFERENCE=1` — times the fast path
/// against the per-line oracle on the same simulated work; the final
/// `cycles=` value must match between the two (scripts/bench.sh checks
/// this). Prints wall-ns (best of `--reps`) plus a machine-readable
/// `hotpath_ns=` line.
fn cmd_hotpath(args: &[String]) -> Result<(), String> {
    let (pos, flags) =
        parse_flags("hotpath", args, &[CONFIG_FLAGS, &["threads", "reps", "engine", "n", "card"]])?;
    let which = pos.first().map(String::as_str).unwrap_or("w1");
    let machine = machine_arg(&flags)?;
    let threads: usize = flags.get("threads").and_then(|s| s.parse().ok()).unwrap_or(8);
    let reps: usize = flags.get("reps").and_then(|s| s.parse().ok()).unwrap_or(3).max(1);
    // `--engine vec` replays the vectorized operators' access stream:
    // direct perfect-hash slot updates and ranged column reads instead
    // of hash + directory walk + chain entries. Fewer simulator calls
    // per tuple is exactly where the vectorized path's host wall-time
    // win comes from, and this microbench isolates it
    // (scripts/bench.sh `vector_speedup` times both engines here).
    let engine = single_engine_arg(&flags)?;
    let cfg = config_from_flags(machine, &flags)?;
    let model = if cfg.sim.reference_model { "reference" } else { "fast" };
    let seed = cfg.sim.seed;

    // Partition `count` items across `threads` like TupleArray::partition.
    let slice = |count: u64, tid: usize| -> (u64, u64) {
        let t = threads as u64;
        (count * tid as u64 / t, count * (tid as u64 + 1) / t)
    };
    let lcg =
        |x: u64| x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let page_up = |b: u64| b.div_ceil(4096) * 4096;

    let mut sim = NumaSim::new(cfg.sim.clone());
    let (best_ns, lines_per_rep, label) = match which {
        "w1" => {
            let n: u64 = flags.get("n").and_then(|s| s.parse().ok()).unwrap_or(1_000_000);
            let card: u64 =
                flags.get("card").and_then(|s| s.parse().ok()).unwrap_or(n / 10).max(1);
            // Input tuples, hash directory, entry/chain heap — the three
            // address spaces W1's build loop bounces between.
            let mut bases = (0u64, 0u64, 0u64);
            sim.try_serial(&mut bases, |w, b| {
                b.0 = w.map_pages(page_up(n * 16));
                b.1 = w.map_pages(page_up(card * 2 * 8));
                b.2 = w.map_pages(page_up(n * 24));
            })
            .map_err(|e| e.to_string())?;
            let (input, dir, heap) = bases;
            let dir_slots = card * 2;
            let mut best = u64::MAX;
            for _ in 0..reps {
                let t = std::time::Instant::now();
                // Scan: the batched input read of the build loop
                // (32 tuples = 512 B per ranged touch).
                sim.try_parallel(threads, &mut (), |w, _| {
                    let (start, end) = slice(n, w.tid());
                    let mut i = start;
                    while i < end {
                        let k = (end - i).min(32);
                        w.touch(input + i * 16, k * 16, Access::Read);
                        i += k;
                    }
                })
                .map_err(|e| e.to_string())?;
                // Build. Tuple: per tuple one hash charge, one
                // directory read, one entry read, one entry write —
                // W1's upsert + chain push shape. Vec: one direct
                // perfect-hash slot update per tuple, nothing else.
                sim.try_parallel(threads, &mut (), |w, _| {
                    let (start, end) = slice(n, w.tid());
                    let mut x = seed ^ (0x9e37 + w.tid() as u64);
                    match engine {
                        EngineKind::Tuple => {
                            for _ in start..end {
                                x = lcg(x);
                                w.compute(6);
                                w.touch(dir + (x >> 33) % dir_slots * 8, 8, Access::Read);
                                x = lcg(x);
                                let e = heap + (x >> 33) % n * 24;
                                w.touch(e, 24, Access::Read);
                                w.touch(e + 8, 16, Access::Write);
                            }
                        }
                        EngineKind::Vectorized => {
                            for _ in start..end {
                                x = lcg(x);
                                w.touch(dir + (x >> 33) % dir_slots * 8, 8, Access::Write);
                            }
                        }
                    }
                })
                .map_err(|e| e.to_string())?;
                // Finalize. Tuple: sequential entry walk + one chain
                // hop each. Vec: ranged 32-word reads over the slot
                // array — the batched finalize scan.
                sim.try_parallel(threads, &mut (), |w, _| {
                    match engine {
                        EngineKind::Tuple => {
                            let (start, end) = slice(n, w.tid());
                            let mut x = seed ^ (0x51ed + w.tid() as u64);
                            for i in start..end {
                                w.touch(heap + i * 24, 24, Access::Read);
                                x = lcg(x);
                                w.touch(heap + (x >> 33) % n * 8, 8, Access::Read);
                            }
                        }
                        EngineKind::Vectorized => {
                            let (start, end) = slice(dir_slots, w.tid());
                            let mut i = start;
                            while i < end {
                                let k = (end - i).min(32);
                                w.touch(dir + i * 8, k * 8, Access::Read);
                                i += k;
                            }
                        }
                    }
                })
                .map_err(|e| e.to_string())?;
                best = best.min(t.elapsed().as_nanos() as u64);
            }
            let lines = match engine {
                // scan n/4 + build ~4n + finalize ~3n lines, roughly.
                EngineKind::Tuple => n * 7 + n / 4,
                // scan n/4 + build n slot lines + finalize slots/8.
                EngineKind::Vectorized => n + n / 4 + dir_slots / 8,
            };
            (best, lines, format!("w1 n={n} card={card}"))
        }
        "w3" => {
            let r: u64 = flags.get("n").and_then(|s| s.parse().ok()).unwrap_or(200_000);
            let s_len = r * 16;
            let mut bases = (0u64, 0u64, 0u64, 0u64);
            sim.try_serial(&mut bases, |w, b| {
                b.0 = w.map_pages(page_up(r * 16));
                b.1 = w.map_pages(page_up(s_len * 16));
                b.2 = w.map_pages(page_up(r * 2 * 8));
                b.3 = w.map_pages(page_up(r * 24));
            })
            .map_err(|e| e.to_string())?;
            let (r_arr, s_arr, dir, heap) = bases;
            let dir_slots = r * 2;
            let mut best = u64::MAX;
            for _ in 0..reps {
                let t = std::time::Instant::now();
                // Build: scan R, insert each tuple. Tuple: hash charge +
                // directory read + entry write. Vec: direct tag + payload
                // slot writes, no hash and no directory indirection.
                sim.try_parallel(threads, &mut (), |w, _| {
                    let (start, end) = slice(r, w.tid());
                    let mut x = seed ^ (0xb10c + w.tid() as u64);
                    let mut i = start;
                    while i < end {
                        let k = (end - i).min(32);
                        w.touch(r_arr + i * 16, k * 16, Access::Read);
                        for _ in 0..k {
                            x = lcg(x);
                            match engine {
                                EngineKind::Tuple => {
                                    w.compute(6);
                                    w.touch(dir + (x >> 33) % dir_slots * 8, 8, Access::Read);
                                    x = lcg(x);
                                    w.touch(heap + (x >> 33) % r * 24, 24, Access::Write);
                                }
                                EngineKind::Vectorized => {
                                    let s = (x >> 33) % r;
                                    w.touch(dir + s * 8, 8, Access::Write);
                                    w.touch(heap + s * 8, 8, Access::Write);
                                }
                            }
                        }
                        i += k;
                    }
                })
                .map_err(|e| e.to_string())?;
                // Probe: scan S, look each tuple up. Tuple: hash charge +
                // directory read + entry read per tuple. Vec: ranged key
                // and value column reads per 32, then one tag read and
                // one payload gather per tuple.
                sim.try_parallel(threads, &mut (), |w, _| {
                    let (start, end) = slice(s_len, w.tid());
                    let mut x = seed ^ (0x9406 + w.tid() as u64);
                    let mut i = start;
                    while i < end {
                        let k = (end - i).min(32);
                        match engine {
                            EngineKind::Tuple => {
                                w.touch(s_arr + i * 16, k * 16, Access::Read);
                                for _ in 0..k {
                                    x = lcg(x);
                                    w.compute(6);
                                    w.touch(dir + (x >> 33) % dir_slots * 8, 8, Access::Read);
                                    x = lcg(x);
                                    w.touch(heap + (x >> 33) % r * 24, 24, Access::Read);
                                }
                            }
                            EngineKind::Vectorized => {
                                // Key column run, per-lane tag checks,
                                // value column run, payload gathers.
                                w.touch(s_arr + i * 8, k * 8, Access::Read);
                                let x0 = x;
                                for _ in 0..k {
                                    x = lcg(x);
                                    w.touch(dir + (x >> 33) % r * 8, 8, Access::Read);
                                }
                                w.touch(s_arr + s_len * 8 + i * 8, k * 8, Access::Read);
                                x = x0;
                                for _ in 0..k {
                                    x = lcg(x);
                                    w.touch(heap + (x >> 33) % r * 8, 8, Access::Read);
                                }
                            }
                        }
                        i += k;
                    }
                })
                .map_err(|e| e.to_string())?;
                best = best.min(t.elapsed().as_nanos() as u64);
            }
            let lines = match engine {
                EngineKind::Tuple => r * 5 + s_len * 4,
                EngineKind::Vectorized => r * 3 + s_len * 5 / 2,
            };
            (best, lines, format!("w3 r={r}"))
        }
        other => return Err(format!("hotpath needs w1 or w3, got `{other}`")),
    };
    let cycles = sim.now_cycles();
    println!(
        "hotpath {label} machine={} threads={threads} model={model} engine={} reps={reps}",
        cfg.sim.machine.name,
        engine.as_str()
    );
    println!(
        "  best {:.1} ms  (~{:.0} ns per simulated line)",
        best_ns as f64 / 1e6,
        best_ns as f64 / lines_per_rep as f64
    );
    println!("hotpath_ns={best_ns} lines={lines_per_rep} cycles={cycles}");
    Ok(())
}

// ---- the grid harness shared by `sweep` and `serve` ----------------

/// `--jobs N` (default 1): how many workers of the shared grid pool run
/// cells. Every output is byte-identical for any N, so it never enters
/// a grid fingerprint.
fn jobs_arg(flags: &HashMap<String, String>) -> Result<usize, String> {
    match flags.get("jobs") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad --jobs `{s}` (need an integer >= 1)")),
        None => Ok(1),
    }
}

/// `--trace-dir DIR`, created up front so a bad path fails before any
/// cell runs.
fn trace_dir_arg(flags: &HashMap<String, String>) -> Result<Option<PathBuf>, String> {
    let Some(dir) = flags.get("trace-dir").map(PathBuf::from) else {
        return Ok(None);
    };
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create --trace-dir `{}`: {e}", dir.display()))?;
    Ok(Some(dir))
}

/// The two presets every grid starts from. Both get the same fault
/// plan / budget / policy overrides, so an injected fault stresses the
/// whole grid, not one column.
fn preset_configs(
    machine: &MachineSpec,
    flags: &HashMap<String, String>,
) -> Result<Vec<TuningConfig>, String> {
    let os_default = config_from_flags(machine.clone(), flags)?.named("os-default (+flags)");
    let preset = TuningConfig::tuned(machine.clone());
    let mut tuned = config_from_flags(machine.clone(), flags)?.named("tuned (+flags)");
    tuned.sim = tuned
        .sim
        .with_threads(preset.sim.thread_placement)
        .with_policy(preset.sim.mem_policy)
        .with_autonuma(preset.sim.autonuma)
        .with_thp(preset.sim.thp);
    tuned.allocator = preset.allocator;
    Ok(vec![os_default, tuned])
}

/// Cross every contender with each tiering policy, then with each
/// operator path — the knobs × policies and engine studies. A `none`
/// tier or the `tuple` engine keeps the base column untouched (same
/// name, default behaviour), so `--tier none` or `--engine tuple`
/// yields output byte-identical to omitting the flag; any other entry
/// appends ` tier=…` / ` engine=…` to the name. Both flags enter the
/// grid fingerprint (they change charged cycles), unlike `--jobs`.
fn cross_grid(
    configs: Vec<TuningConfig>,
    tiers: &[TierSpec],
    engines: &[EngineKind],
) -> Vec<TuningConfig> {
    let mut out = configs;
    if tiers.iter().any(|t| !t.is_none()) {
        out = out
            .iter()
            .flat_map(|cfg| {
                tiers.iter().map(move |t| {
                    if t.is_none() {
                        cfg.clone()
                    } else {
                        let name = format!("{} tier={}", cfg.name, t.label());
                        cfg.clone().with_tier(*t).named(name)
                    }
                })
            })
            .collect();
    }
    if engines.iter().any(|e| *e != EngineKind::Tuple) {
        out = out
            .iter()
            .flat_map(|cfg| {
                engines.iter().map(move |e| {
                    if *e == EngineKind::Tuple {
                        cfg.clone()
                    } else {
                        let name = format!("{} engine={}", cfg.name, e.as_str());
                        cfg.clone().with_engine(*e).named(name)
                    }
                })
            })
            .collect();
    }
    out
}

/// Open the grid's write-ahead journal. `--resume PATH` reads it back —
/// refusing a journal of a different grid, noting a discarded torn
/// tail — and returns its records for adoption; `--journal PATH` starts
/// a fresh one; neither flag means no journal.
fn open_journal<R: JournalRecord>(
    flags: &HashMap<String, String>,
    what: &str,
    fp: &str,
    grid_desc: &str,
    cells: usize,
) -> Result<(Option<JournalWriter>, Vec<R>), String> {
    if let Some(path) = flags.get("resume") {
        let (w, contents) = JournalWriter::append_to::<R>(Path::new(path))
            .map_err(|e| format!("cannot resume from `{path}`: {e}"))?;
        if contents.fingerprint != fp {
            return Err(format!(
                "journal `{path}` records a different {what} grid (its fingerprint \
                 {} != requested {fp}); refusing to mix results\n  journal grid:   {}\n  requested grid: {grid_desc}",
                contents.fingerprint, contents.grid_desc
            ));
        }
        if contents.torn {
            eprintln!(
                "note: discarded a torn record at the end of `{path}` \
                 (crash mid-append); that cell will re-run"
            );
        }
        eprintln!(
            "resuming: {} of {cells} cells already journaled in `{path}`",
            contents.records.len()
        );
        return Ok((Some(w), contents.records));
    }
    match flags.get("journal") {
        Some(path) => {
            let w = JournalWriter::create(Path::new(path), fp, grid_desc)
                .map_err(|e| format!("cannot create journal `{path}`: {e}"))?;
            Ok((Some(w), Vec::new()))
        }
        None => Ok((None, Vec::new())),
    }
}

/// `--csv FILE` / `--json FILE`: write the report's renderings, each
/// only when asked for.
fn write_reports(
    flags: &HashMap<String, String>,
    csv: impl FnOnce() -> String,
    json: impl FnOnce() -> String,
) -> Result<(), String> {
    if let Some(path) = flags.get("csv") {
        std::fs::write(path, csv()).map_err(|e| format!("cannot write CSV to `{path}`: {e}"))?;
    }
    if let Some(path) = flags.get("json") {
        std::fs::write(path, json())
            .map_err(|e| format!("cannot write JSON to `{path}`: {e}"))?;
    }
    Ok(())
}

/// Flags no grid descriptor records raw: durability and interruption
/// (`journal`, `resume`, `max-cells`), output destinations (`csv`,
/// `json`, `trace-dir`), host parallelism (`jobs`, `shards` — every
/// output is byte-identical for any count, so a journal resumes under
/// any of them), and the two a descriptor spells out itself.
const NOT_FINGERPRINTED: &[&str] = &[
    "journal", "resume", "max-cells", "csv", "json", "trace-dir", "jobs", "shards", "machine",
    "threads",
];

/// The raw-flag tail of a grid descriptor: every flag outside
/// [`NOT_FINGERPRINTED`] and `also_skip`, as `key=value` sorted by key.
fn raw_grid_flags(flags: &HashMap<String, String>, also_skip: &[&str]) -> String {
    let mut kv: Vec<(&str, &str)> = flags
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .filter(|(k, _)| !NOT_FINGERPRINTED.contains(k) && !also_skip.contains(k))
        .collect();
    kv.sort_unstable();
    let rest: Vec<String> = kv.iter().map(|(k, v)| format!("{k}={v}")).collect();
    rest.join(" ")
}

/// Canonical description of a sweep grid: everything that changes the
/// final table, in a stable order. Flags that only affect durability or
/// interruption (`--journal`, `--resume`, `--max-cells`) and output
/// destinations (`--csv`, `--json`) are excluded, so a resumed run
/// fingerprints identically to the run it continues.
fn grid_descriptor(
    which: &str,
    machine_name: &str,
    threads: usize,
    trials: usize,
    flags: &HashMap<String, String>,
) -> String {
    // The trace epoch joins the skipped flags: tracing never changes
    // cycle results — artifacts are a side output, like `--csv`.
    format!(
        "sweep {which} machine={machine_name} threads={threads} trials={trials} {}",
        raw_grid_flags(flags, &["trials", "trace-epoch"])
    )
}

/// `sweep`: os-default and tuned configurations × N trials, supervised
/// on the shared grid pool (`sweep_parallel`). Transient injected faults are retried with
/// backoff; every other fault is recorded as that trial's outcome.
///
/// With `--journal PATH` every finished cell is appended to a fsync'd
/// write-ahead journal; after a crash or Ctrl-C, `--resume PATH` skips
/// the journaled cells and completes the sweep with a final table
/// bit-identical to an uninterrupted run. `--max-cells N` stops after N
/// fresh cells (deterministic interruption for testing the resume
/// path). `--watchdog`, `--retry-budget` and `--breaker` bound how much
/// a misbehaving configuration can cost. The command fails (nonzero
/// exit) only when every trial of some configuration failed.
fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(
        "sweep",
        args,
        &[
            CONFIG_FLAGS,
            PLAN_FLAGS,
            GRID_FLAGS,
            &["trials", "retries", "watchdog", "retry-budget", "trace-epoch"],
        ],
    )?;
    let which = pos.first().ok_or("sweep needs w1|w2|w3|w4|wshift")?;
    let machine = machine_arg(&flags)?;
    let threads: usize = flags
        .get("threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or(machine.total_hw_threads());
    let trials: usize = flags.get("trials").and_then(|s| s.parse().ok()).unwrap_or(3);
    let retries: u32 = flags.get("retries").and_then(|s| s.parse().ok()).unwrap_or(3);
    let jobs = jobs_arg(&flags)?;
    let supervisor = SupervisorPolicy {
        retry: RetryPolicy { max_retries: retries, ..RetryPolicy::default() },
        watchdog_budget_cycles: flags.get("watchdog").and_then(|s| s.parse().ok()),
        global_retry_budget: flags.get("retry-budget").and_then(|s| s.parse().ok()),
        breaker_threshold: flags.get("breaker").and_then(|s| s.parse().ok()),
        max_cells: flags.get("max-cells").and_then(|s| s.parse().ok()),
    };
    let trace_epoch: u64 = match flags.get("trace-epoch") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad --trace-epoch `{s}` (need cycles >= 1)"))?,
        None => TraceConfig::default().epoch_cycles,
    };
    let trace_dir = trace_dir_arg(&flags)?;

    let mut configs = preset_configs(&machine, &flags)?;
    // `--advisor online[,autonuma]` appends runtime-adaptive contenders:
    // both start from the tuned preset pinned to FirstTouch (the
    // placement the phase shift punishes), then either the epoch-driven
    // controller or the kernel's AutoNUMA model gets to fix it mid-run.
    if let Some(list) = flags.get("advisor") {
        let first_touch = configs[1].clone().with_policy(MemPolicy::FirstTouch);
        for entry in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            configs.push(match entry {
                "online" => first_touch
                    .clone()
                    .with_autonuma(false)
                    .named("online (+flags)")
                    .with_advisor(AdvisorMode::Online(ControllerConfig::default())),
                "autonuma" => first_touch.clone().with_autonuma(true).named("autonuma (+flags)"),
                other => {
                    return Err(format!(
                        "unknown --advisor entry `{other}` (online, autonuma)"
                    ))
                }
            });
        }
    }
    // `+` lists on `--tier` and `--engine` cross every contender above.
    let mut configs = cross_grid(configs, &tier_arg(&flags)?, &engine_arg(&flags)?);
    if trace_dir.is_some() {
        // Tracing is pay-for-what-you-use: the hooks charge no cycles,
        // so enabling it here cannot perturb the sweep's results. The
        // config name becomes the trace label (and the artifact slug).
        for cfg in &mut configs {
            cfg.sim = cfg.sim.clone().with_trace(
                TraceConfig::default()
                    .with_epoch_cycles(trace_epoch)
                    .with_label(&cfg.name),
            );
        }
    }

    // An empty grid is a mis-specified sweep, not a vacuous success:
    // fail loudly instead of printing nothing and exiting 0.
    if configs.is_empty() || trials == 0 {
        eprintln!(
            "warning: sweep grid is empty ({} configs x {trials} trials) — nothing to run",
            configs.len()
        );
        return Err("empty sweep grid (use --trials N with N >= 1)".to_string());
    }

    let grid_desc =
        grid_descriptor(which, &configs[0].sim.machine.name, threads, trials, &flags);
    let fp = grid_fingerprint(&grid_desc);
    let (mut writer, resumed) =
        open_journal::<TrialRecord>(&flags, "sweep", &fp, &grid_desc, configs.len() * trials)?;

    let plan = WorkloadPlan::parse(which, &flags)?;
    let mut journal_err: Option<String> = None;
    let report = {
        let mut sink = |rec: &TrialRecord| {
            if let Some(w) = writer.as_mut() {
                if let Err(e) = w.record(rec) {
                    journal_err.get_or_insert_with(|| e.to_string());
                }
            }
        };
        let workload = |env: &WorkloadEnv, trial: usize| {
            let out = plan.try_run(env)?;
            let (cycles, counters, trace) = (out.cycles, out.counters, out.trace);
            // One artifact per (config, trial) cell, named purely from
            // the cell's coordinates — the same cell writes the same
            // bytes to the same path whether it runs serially, under
            // --jobs N, or in a resumed sweep.
            if let (Some(dir), Some(log)) = (&trace_dir, trace) {
                let label = log.config().label.clone();
                let artifact = Trace::from_log(
                    TraceMeta {
                        label: label.clone(),
                        trial: trial as u64,
                        machine: env.sim.machine.name.clone(),
                        threads: env.threads as u64,
                    },
                    &log,
                );
                let path = dir.join(artifact_name(&label, trial));
                artifact.write_file(&path).map_err(|e| SimError::Harness {
                    what: format!("cannot write trace `{}`: {e}", path.display()),
                })?;
            }
            Ok(TrialMeasurement {
                cycles,
                degraded: counters.nodes_offlined > 0 || counters.evacuated_pages > 0,
                evacuated_pages: counters.evacuated_pages,
            })
        };
        sweep_parallel(
            &configs, threads, trials, &supervisor, &resumed, jobs, &mut sink, workload,
        )
    };
    if let Some(e) = journal_err {
        return Err(format!("journal write failed mid-sweep: {e}"));
    }

    println!(
        "{which} sweep on machine {} — {threads} threads, {trials} trials/config:",
        configs[0].sim.machine.name
    );
    print!("{}", report.table());
    for cfg in &configs {
        // Degraded trials ran on a smaller machine (node evacuated);
        // their mean is salvage data, never mixed into the clean mean.
        let clean = report.mean_cycles(&cfg.name);
        let degraded = report.mean_cycles_degraded(&cfg.name);
        match (clean, degraded) {
            (Some(m), None) => {
                println!("{}: mean {m} cycles over successful trials", cfg.name);
            }
            (Some(m), Some(d)) => println!(
                "{}: mean {m} cycles over successful trials \
                 (degraded trials excluded: mean {d} cycles)",
                cfg.name
            ),
            (None, Some(d)) => println!(
                "{}: no successful trials (degraded salvage: mean {d} cycles)",
                cfg.name
            ),
            (None, None) => println!("{}: no successful trials", cfg.name),
        }
    }

    write_reports(&flags, || report.to_csv(), || report.to_json())?;

    if report.interrupted {
        // Salvage, not failure: the partial table above is real data and
        // the journal has everything needed to finish the grid later.
        eprintln!(
            "note: sweep interrupted by --max-cells after {} journaled cells; \
             the table above is partial — finish with `--resume <journal>`",
            report.trials.len()
        );
        return Ok(());
    }
    let dead = report.failed_configs();
    if dead.is_empty() {
        Ok(())
    } else {
        Err(format!("every trial failed for: {}", dead.join(", ")))
    }
}

fn serve_grid_descriptor(
    which: &str,
    machine_name: &str,
    threads: usize,
    spec: &ServeSpec,
    flags: &HashMap<String, String>,
) -> String {
    // Spec-resolved values go in canonically (so defaults and explicit
    // flags fingerprint identically); the remaining flags (n, card,
    // index, configs, ...) go in raw.
    let rest = raw_grid_flags(
        flags,
        &[
            "tenants", "duration", "arrivals", "lanes", "queue-cap", "tokens", "refill",
            "deadline", "breaker", "epoch", "outage", "advisor", "seed",
        ],
    );
    let outage =
        spec.outage.map_or_else(|| "none".to_string(), |o| o.canonical());
    // `advisor` is appended only when non-default, so every pre-existing
    // static journal still fingerprints (and resumes) identically.
    let advisor = match spec.advisor {
        ServeAdvisor::Static => String::new(),
        other => format!(" advisor={}", other.canonical()),
    };
    format!(
        "serve {which} machine={machine_name} threads={threads} tenants={} \
         duration={} arrivals={} lanes={} queue-cap={} tokens={} refill={} \
         deadline={} breaker={} epoch={} outage={outage} seed={}{advisor} {}",
        spec.tenants,
        spec.duration_mcycles,
        spec.arrivals.canonical(),
        spec.lanes,
        spec.queue_cap,
        spec.bucket_cap,
        spec.refill_milli_per_mcycle,
        spec.deadline_mcycles,
        spec.breaker_threshold,
        spec.epoch_mcycles,
        spec.seed,
        rest
    )
}

/// Calibrate per-phase cycle costs for one query class under one
/// configuration by running the real engine once with tracing on:
/// top-level spans (minus `load`, which serve sessions never pay)
/// become the class's phase plan.
fn profile_phases(trace: Option<TraceLog>, total_cycles: u64) -> Vec<(String, u64)> {
    if let Some(log) = trace {
        let spans: Vec<(String, u64)> = log
            .spans()
            .iter()
            .filter(|s| s.depth == 0 && s.name != "load")
            .map(|s| (s.name.clone(), (s.end_cycles - s.begin_cycles).max(1)))
            .collect();
        if !spans.is_empty() {
            return spans;
        }
    }
    vec![("run".to_string(), total_cycles.max(1))]
}

/// `serve`: open-loop multi-tenant serving against calibrated engine
/// profiles — admission control, bounded queues, deadlines, load
/// shedding, circuit breakers, and tail-latency SLO reporting.
///
/// One real engine run per (configuration, class, health) pair captures
/// per-phase cycle costs; the serve loop is then a deterministic
/// discrete-event simulation on the model clock, so the same spec and
/// seed replay bit-identically — serial, under `--jobs N`, or resumed
/// from a `--journal`. With `--outage T1..T2:node=N` the window runs
/// against node-offline (evacuated) profiles and forces the shedding
/// ladder to its degraded tier: the expected signature is shed load and
/// degraded answers during the window, recovery after, never a wedged
/// queue.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(
        "serve",
        args,
        &[
            CONFIG_FLAGS,
            PLAN_FLAGS,
            GRID_FLAGS,
            &[
                "tenants", "duration", "arrivals", "lanes", "queue-cap", "tokens", "refill",
                "deadline", "epoch", "outage", "configs",
            ],
        ],
    )?;
    let which = pos
        .first()
        .ok_or("serve needs query classes, e.g. `w1` or `w1,w3`")?;
    let classes: Vec<String> = which
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if classes.is_empty() {
        return Err("serve needs at least one query class (w1, w2, w3, w4)".to_string());
    }
    let machine = machine_arg(&flags)?;
    let threads: usize = flags
        .get("threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or(machine.total_hw_threads());
    let getu = |key: &str, default: u64| -> Result<u64, String> {
        match flags.get(key) {
            Some(s) => s.parse().map_err(|_| format!("bad --{key} `{s}`")),
            None => Ok(default),
        }
    };
    let arrivals = ArrivalSpec::parse(
        flags.get("arrivals").map(String::as_str).unwrap_or("poisson:rate=3"),
    )
    .map_err(|e| e.to_string())?;
    let refill_raw = flags.get("refill").map(String::as_str).unwrap_or("4");
    let refill_milli_per_mcycle = parse_milli(refill_raw)
        .ok_or_else(|| format!("bad --refill `{refill_raw}` (tokens per Mcycle)"))?;
    let outage = flags
        .get("outage")
        .map(|s| OutageSpec::parse(s))
        .transpose()
        .map_err(|e| e.to_string())?;
    let advisor = match flags.get("advisor") {
        Some(s) => ServeAdvisor::parse(s).map_err(|e| e.to_string())?,
        None => ServeAdvisor::default(),
    };
    let spec = ServeSpec {
        tenants: getu("tenants", 8)? as usize,
        duration_mcycles: getu("duration", 50)?,
        arrivals,
        lanes: getu("lanes", 4)? as usize,
        queue_cap: getu("queue-cap", 16)? as usize,
        bucket_cap: getu("tokens", 8)?,
        refill_milli_per_mcycle,
        deadline_mcycles: getu("deadline", 5)?,
        breaker_threshold: getu("breaker", 8)?,
        epoch_mcycles: getu("epoch", 4)?,
        outage,
        advisor,
        seed: getu("seed", 42)?,
    };
    // An empty serve spec is a mis-specified run, not a vacuous
    // success: fail loudly, like the empty sweep grid.
    if let Err(e) = spec.validate() {
        eprintln!("warning: {e} — nothing to serve");
        return Err(
            "empty serve spec (need tenants >= 1, duration >= 1, arrival rate > 0)"
                .to_string(),
        );
    }
    let jobs = jobs_arg(&flags)?;
    let max_cells: Option<usize> = flags.get("max-cells").and_then(|s| s.parse().ok());
    let trace_dir = trace_dir_arg(&flags)?;
    let record_sessions = trace_dir.is_some();

    // Same two presets as `sweep`, selectable via --configs.
    let presets = preset_configs(&machine, &flags)?;
    let presets: Vec<TuningConfig> =
        match flags.get("configs").map(String::as_str).unwrap_or("both") {
            "both" => presets,
            "os-default" => presets.into_iter().take(1).collect(),
            "tuned" => presets.into_iter().skip(1).collect(),
            other => {
                return Err(format!(
                    "unknown --configs `{other}` (both, os-default, tuned)"
                ))
            }
        };
    // One --tier policy and one --engine apply to every serve
    // configuration: the serve loop replays calibrated engine profiles,
    // so the daemon's effect and the operator path are captured during
    // each configuration's calibration run.
    let configs =
        cross_grid(presets, &[single_tier_arg(&flags)?], &[single_engine_arg(&flags)?]);
    let cells: Vec<CellInput> = configs
        .iter()
        .map(|c| CellInput { config: c.name.clone(), spec: spec.clone() })
        .collect();

    let grid_desc =
        serve_grid_descriptor(which, &machine.name, threads, &spec, &flags);
    let fp = grid_fingerprint(&grid_desc);
    let (mut writer, journaled) =
        open_journal::<CellStats>(&flags, "serve", &fp, &grid_desc, cells.len())?;
    let adopted: HashMap<String, CellStats> =
        journaled.into_iter().map(|c| (c.config.clone(), c)).collect();

    // Serve sessions are interactive-sized queries, not batch scans:
    // default to much smaller inputs than `sweep` unless overridden, so
    // per-query service time (~1 Mcycle) sits sensibly under the
    // default 5 Mcycle deadline.
    let mut plan_flags = flags.clone();
    plan_flags.entry("n".to_string()).or_insert_with(|| "8000".to_string());
    plan_flags.entry("card".to_string()).or_insert_with(|| "2000".to_string());
    let plans: Vec<WorkloadPlan> = classes
        .iter()
        .map(|c| WorkloadPlan::parse(c, &plan_flags))
        .collect::<Result<_, _>>()?;

    let calibrate = |cell_idx: usize| -> SimResult<Vec<ClassProfile>> {
        let cfg = &configs[cell_idx];
        let mut profiles = Vec::new();
        for (ci, plan) in plans.iter().enumerate() {
            let mut healthy_cfg = cfg.clone();
            healthy_cfg.sim = healthy_cfg.sim.with_trace(
                TraceConfig::default().with_label(&format!("{} {}", cfg.name, classes[ci])),
            );
            let run = plan.try_run(&healthy_cfg.env(threads))?;
            let healthy = profile_phases(run.trace, run.cycles);
            let (degraded, evacuated_pages) = if let Some(o) = spec.outage {
                let mut dcfg = cfg.clone();
                // Region 2 is the first region where workload pages
                // have landed on remote nodes (0/1 are load/init), so
                // the outage actually evacuates something.
                let fault_spec = format!("offline@2:node={}", o.node);
                let fault_plan = FaultPlan::parse(&fault_spec, dcfg.sim.seed)?;
                dcfg = dcfg.with_faults(fault_plan);
                dcfg.sim = dcfg.sim.with_trace(TraceConfig::default().with_label(
                    &format!("{} {} offline", cfg.name, classes[ci]),
                ));
                let drun = plan.try_run(&dcfg.env(threads))?;
                (profile_phases(drun.trace, drun.cycles), drun.counters.evacuated_pages)
            } else {
                (healthy.clone(), 0)
            };
            profiles.push(ClassProfile {
                name: classes[ci].clone(),
                healthy,
                degraded,
                evacuated_pages,
            });
        }
        Ok(profiles)
    };

    let lanes = spec.lanes;
    let mut sink = |stats: &CellStats,
                    profiles: &[ClassProfile],
                    sessions: &[Session]|
     -> SimResult<()> {
        let harness = |what: String| SimError::Harness { what };
        if let Some(w) = writer.as_mut() {
            w.record(stats)
                .map_err(|e| harness(format!("journal write failed: {e}")))?;
        }
        if let Some(dir) = &trace_dir {
            let spans: Vec<SessionSpan> = sessions
                .iter()
                .map(|s| SessionSpan {
                    lane: s.lane,
                    tenant: s.tenant,
                    class: profiles
                        .get(s.class)
                        .map_or_else(String::new, |p| p.name.clone()),
                    arrival: s.arrival,
                    start: s.start,
                    end: s.end,
                    outcome: s.outcome.label().to_string(),
                    burned: s.burned,
                })
                .collect();
            let depth: Vec<(u64, u64)> =
                stats.epochs.iter().map(|e| (e.t_cycles, e.depth)).collect();
            let json = sessions_to_chrome_json(
                &format!("serve · {}", stats.config),
                lanes,
                &spans,
                &depth,
            );
            let path = dir.join(format!("{}-sessions.json", slug(&stats.config)));
            std::fs::write(&path, json).map_err(|e| {
                harness(format!("cannot write sessions `{}`: {e}", path.display()))
            })?;
        }
        Ok(())
    };
    let report = run_cells(
        &cells,
        &adopted,
        jobs,
        max_cells,
        record_sessions,
        &calibrate,
        &mut sink,
    )
    .map_err(|e| e.to_string())?;

    println!(
        "serve {which} on machine {} — {} tenants, {} Mcycles, arrivals {}, \
         deadline {} Mcycles:",
        machine.name,
        spec.tenants,
        spec.duration_mcycles,
        spec.arrivals.canonical(),
        spec.deadline_mcycles
    );
    print!("{}", report.table());
    for c in &report.cells {
        let t = c.totals();
        println!(
            "{}: {} arrivals, {} admitted, {} completed, drained at {} cycles, \
             {} wasted cycles, {} pages evacuated",
            c.config,
            t.arrivals,
            t.admitted,
            t.completed,
            c.end_cycles,
            c.wasted_cycles,
            c.evacuated_pages
        );
        if spec.outage.is_some() {
            let pct = |p: u64| format!("{}.{}%", p / 10, p % 10);
            let recovery = if c.retune_cycles > 0 {
                format!("re-tuned at {} cycles", c.retune_cycles)
            } else {
                "never re-tuned (placement residue persists)".to_string()
            };
            println!(
                "{}: slo pre-outage {}, post-recovery {} (gap {} permille) — {recovery}",
                c.config,
                pct(c.slo_pre_permille),
                pct(c.slo_post_permille),
                c.recovery_gap_permille()
            );
        }
    }

    write_reports(&flags, || report.to_csv(), || report.to_json())?;

    if report.interrupted {
        eprintln!(
            "note: serve interrupted by --max-cells after {} journaled cells; \
             the table above is partial — finish with `--resume <journal>`",
            report.cells.len()
        );
    }
    Ok(())
}

/// `trace`: render or convert a recorded `.trace` artifact.
///
/// With no output flags, prints the `perf stat`-style counter report
/// reconstructed from the artifact's epoch samples. `--chrome OUT`
/// writes Chrome `trace_event` JSON (loadable in Perfetto or
/// `chrome://tracing`); `--csv OUT` writes the epoch-binned counter
/// timeline; `--report` forces the report even when converting.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let (pos, flags) =
        parse_flags("trace", args, &[&["chrome", "csv", "decisions", "report"]])?;
    let file = pos.first().ok_or("trace needs a .trace artifact FILE")?;
    let trace = Trace::read_file(Path::new(file))
        .map_err(|e| format!("cannot read trace `{file}`: {e}"))?;
    let mut converted = false;
    if let Some(out) = flags.get("chrome") {
        std::fs::write(out, trace.to_chrome_json())
            .map_err(|e| format!("cannot write Chrome JSON to `{out}`: {e}"))?;
        println!("wrote Chrome trace_event JSON to {out}");
        converted = true;
    }
    if let Some(out) = flags.get("csv") {
        std::fs::write(out, trace.to_timeline_csv())
            .map_err(|e| format!("cannot write timeline CSV to `{out}`: {e}"))?;
        println!("wrote epoch timeline CSV to {out}");
        converted = true;
    }
    if let Some(out) = flags.get("decisions") {
        std::fs::write(out, trace.to_decisions_csv())
            .map_err(|e| format!("cannot write decisions CSV to `{out}`: {e}"))?;
        println!("wrote advisor decisions CSV to {out}");
        converted = true;
    }
    if !converted || flags.contains_key("report") {
        print!("{}", trace.perf_report());
    }
    Ok(())
}

fn cmd_tpch(args: &[String]) -> Result<(), String> {
    let (pos, flags) =
        parse_flags("tpch", args, &[&["sf", "system", "machine", "engine", "tuned"]])?;
    let qnum: usize = pos
        .first()
        .and_then(|s| s.parse().ok())
        .filter(|q| (1..=22).contains(q))
        .ok_or("tpch needs a query number 1..22")?;
    let sf: f64 = flags.get("sf").and_then(|s| s.parse().ok()).unwrap_or(0.005);
    let system = match flags.get("system").map(String::as_str).unwrap_or("monetdb") {
        "monetdb" => SystemKind::MonetDbLike,
        "postgresql" | "postgres" => SystemKind::PostgresLike,
        "mysql" => SystemKind::MySqlLike,
        "dbmsx" => SystemKind::DbmsX,
        "quickstep" => SystemKind::QuickstepLike,
        other => return Err(format!("unknown system `{other}`")),
    };
    let machine = machine_arg(&flags)?;
    let engine = single_engine_arg(&flags)?;
    let env = if flags.contains_key("tuned") {
        WorkloadEnv {
            sim: nqp::sim::SimConfig::os_default(machine)
                .with_policy(MemPolicy::FirstTouch)
                .with_autonuma(false)
                .with_thp(false),
            allocator: AllocatorKind::Tbbmalloc,
            threads: 16,
            engine,
        }
    } else {
        WorkloadEnv::os_default(machine).with_engine(engine)
    };
    let data = TpchData::generate(sf, 42);
    let mut db = DbSystem::boot(system, &env, &data);
    db.try_run(qnum).map_err(|e| e.to_string())?;
    let out = db.try_run(qnum).map_err(|e| e.to_string())?;
    println!(
        "Q{qnum} ({}) on {}: {} cycles, {} rows",
        query_name(qnum),
        system.label(),
        out.latency_cycles,
        out.rows.len()
    );
    for row in out.rows.iter().take(10) {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("  | {}", cells.join(" | "));
    }
    if out.rows.len() > 10 {
        println!("  | ... {} more rows", out.rows.len() - 10);
    }
    Ok(())
}
