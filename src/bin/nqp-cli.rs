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
//! nqp-cli trace FILE [--chrome OUT] [--csv OUT] [--decisions OUT] [--report]
//! nqp-cli tpch QNUM [--system NAME] [--sf F] [--tuned] [--engine tuple|vec] [--shards N]
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
//! `sweep` and `serve` share one grid harness: the worker pool and the
//! presets of `nqp_core`, one journal reader, and one set of helpers for
//! `--jobs`, `--trace-dir`, `--journal`/`--resume`, and `--csv`/`--json`.
//! `--jobs N` (default 1) fans sweep configurations or serve cells
//! across N workers; every output — table, CSV, JSON, trace
//! artifacts — is byte-identical for any N, and each finished cell is
//! journaled (fsync'd) before its worker moves on, so the journal stays
//! resumable under any job count. `--retry-budget` is a deterministic
//! per-config quota of `ceil(budget / configs)`, so admission never
//! depends on scheduling order.
//!
//! Every subcommand rejects a flag it does not read, and a numeric value
//! that does not parse (nonzero exit, naming the flag): a typo never runs
//! silently with a default, and never leaks into a grid fingerprint.
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

use nqp::advisor::{advise, WorkloadProfile};
use nqp::alloc::AllocatorKind;
use nqp::core::executor::sweep_parallel;
use nqp::core::journal::{grid_fingerprint, JournalRecord, JournalWriter};
use nqp::core::runner::{RetryPolicy, SupervisorPolicy, TrialMeasurement, TrialRecord};
use nqp::core::{advisor_contender, cross_grid, preset_configs, TuningConfig};
use nqp::datagen::tpch::TpchData;
use nqp::engines::{query_name, DbSystem, SystemKind};
use nqp::indexes::IndexKind;
use nqp::query::plan::{PlanSpec, RunOut, WorkloadPlan};
use nqp::query::{EngineKind, WorkloadEnv};
use nqp::sim::{
    check_threads, Counters, FaultPlan, MemPolicy, SimConfig, SimError, SimResult,
    ThreadPlacement, TraceConfig,
};
use nqp::serve::calibrate::{calibrate, serve_sizes};
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
use std::str::FromStr;

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
  nqp-cli trace <FILE.trace> [--chrome OUT.json] [--csv OUT.csv] [--decisions OUT.csv] [--report]
  nqp-cli tpch <1..22> [--system monetdb|postgresql|mysql|dbmsx|quickstep] [--sf 0.005] [--tuned]
                [--engine tuple|vec] [--shards N]   # NQP_REFERENCE=1 for the oracle
  (every command rejects flags it does not read; see the README for the full option lists)";

/// Flags [`machine_arg`] and [`config_from_flags`] read.
const CONFIG_FLAGS: &[&str] = &[
    "machine", "placement", "policy", "autonuma", "thp", "alloc", "seed", "faults",
    "trial-budget", "shards",
];
/// Flags [`plan_spec`] reads.
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

/// `--key` parsed as a `T`, `None` when absent. A value that does not
/// parse fails naming the flag, never silently runs with a default.
fn num_arg<T: FromStr>(flags: &HashMap<String, String>, key: &str) -> Result<Option<T>, String> {
    flags.get(key).map(|s| s.parse().map_err(|_| format!("bad --{key} `{s}`"))).transpose()
}

/// `--threads`: a number no larger than one region can simulate
/// ([`nqp::sim::MAX_THREADS`]).
fn threads_arg(flags: &HashMap<String, String>) -> Result<Option<usize>, String> {
    let threads = num_arg(flags, "threads")?;
    if let Some(Err(e)) = threads.map(check_threads) {
        return Err(format!("bad --threads `{}` ({e})", flags["threads"]));
    }
    Ok(threads)
}

/// [`num_arg`] for a count that must be at least 1; `want` completes
/// the error, e.g. ``bad --jobs `0` (need an integer >= 1)``.
fn count_arg<T: FromStr + From<u8> + PartialOrd>(
    flags: &HashMap<String, String>,
    key: &str,
    want: &str,
) -> Result<Option<T>, String> {
    let bad = |s: &String| format!("bad --{key} `{s}` ({want} >= 1)");
    let count = |s: &String| s.parse().ok().filter(|n| *n >= T::from(1)).ok_or_else(|| bad(s));
    flags.get(key).map(count).transpose()
}

/// Parse `--{flag}` as a `+`-separated list — commas belong to each
/// entry's own knob grammar (`hot-watermark:dwm=64,pwm=4`), so crossing
/// several entries in one sweep uses `+`. Absent flag = `[default]`.
fn list_arg<T, E: ToString>(
    flags: &HashMap<String, String>,
    flag: &str,
    hint: &str,
    default: T,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<Vec<T>, String> {
    let Some(list) = flags.get(flag) else {
        return Ok(vec![default]);
    };
    let items: Vec<T> = list
        .split('+')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse(s).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(format!("empty --{flag} list ({hint})"));
    }
    Ok(items)
}

/// The one entry of a [`list_arg`] list, for commands that run one
/// configuration rather than a sweep grid; `what` names the flag.
fn single<T: Copy>(items: Vec<T>, what: &str) -> Result<T, String> {
    match items[..] {
        [one] => Ok(one),
        _ => Err(format!("this command takes a single {what} (`+` lists are for sweep)")),
    }
}

/// `--tier`: tiering policies, `none+lru-epoch+hot-watermark:pwm=2`.
fn tier_arg(flags: &HashMap<String, String>) -> Result<Vec<TierSpec>, String> {
    list_arg(flags, "tier", "none, lru-epoch, hot-watermark", TierSpec::NONE, TierSpec::parse)
}

/// `--engine`: operator paths, `tuple`, `vec` or `tuple+vec`. Absent
/// flag = `tuple` (the differential oracle).
fn engine_arg(flags: &HashMap<String, String>) -> Result<Vec<EngineKind>, String> {
    list_arg(flags, "engine", "tuple, vec", EngineKind::Tuple, EngineKind::parse)
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
    if let Some(seed) = num_arg(flags, "seed")? {
        cfg.sim = cfg.sim.with_seed(seed);
    }
    if let Some(spec) = flags.get("faults") {
        let plan = FaultPlan::parse(spec, cfg.sim.seed).map_err(|e| e.to_string())?;
        cfg = cfg.with_faults(plan);
    }
    if let Some(cycles) = num_arg(flags, "trial-budget")? {
        cfg = cfg.with_trial_budget(cycles);
    }
    cfg.sim = host_options(cfg.sim, flags)?;
    Ok(cfg)
}

/// Apply the options that choose how the host runs a simulation but
/// never what it reports: `--shards` and `NQP_REFERENCE`. Every command
/// that builds a simulator goes through here.
fn host_options(
    mut sim: SimConfig,
    flags: &HashMap<String, String>,
) -> Result<SimConfig, String> {
    // --shards N spreads one trial's simulated workers over N host
    // threads. Results are byte-identical for every shard count (the
    // check.sh gate), so — like --jobs — it is excluded from grid
    // fingerprints and never changes what a sweep reports.
    if let Some(shards) = count_arg(flags, "shards", "want an integer")? {
        sim = sim.with_shards(shards);
    }
    // NQP_REFERENCE=1 runs the per-line reference model instead of the
    // page-granular fast path. Both produce bit-identical results (an
    // invariant scripts/check.sh pins), so this is an env var rather
    // than a grid flag: it must never change what a sweep reports.
    if std::env::var("NQP_REFERENCE").is_ok_and(|v| v != "0" && !v.is_empty()) {
        sim = sim.with_reference_model(true);
    }
    Ok(sim)
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

/// The workload inputs `--n`, `--card`, `--index` and `--seed` ask
/// for; unset sizes take the workload's defaults, and a zero size is
/// refused here, once, for every command that generates a workload.
fn plan_spec(flags: &HashMap<String, String>) -> Result<PlanSpec, String> {
    let index = match flags.get("index").map(String::as_str).unwrap_or("B+tree") {
        "art" | "ART" => IndexKind::Art,
        "masstree" | "Masstree" => IndexKind::Masstree,
        "btree" | "B+tree" => IndexKind::BPlusTree,
        "skiplist" | "Skip List" => IndexKind::SkipList,
        other => return Err(format!("unknown index `{other}`")),
    };
    Ok(PlanSpec {
        n: count_arg(flags, "n", "need a size")?,
        card: count_arg(flags, "card", "need a cardinality")?,
        index,
        seed: num_arg(flags, "seed")?.unwrap_or(42),
    })
}

/// Workload `which` with the input [`plan_spec`] asks for, generated.
fn plan_arg(which: &str, spec: &PlanSpec) -> Result<WorkloadPlan, String> {
    WorkloadPlan::new(which, spec)
        .ok_or_else(|| format!("unknown workload `{which}` (w1, w2, w3, w4, wshift)"))
}

fn run_plan(plan: &WorkloadPlan, cfg: &TuningConfig, threads: usize) -> Result<RunOut, String> {
    plan.try_run(&cfg.env(threads)).map_err(|e| format!("simulation fault: {e}"))
}

fn cmd_workload(args: &[String]) -> Result<(), String> {
    let (pos, flags) =
        parse_flags("workload", args, &[CONFIG_FLAGS, PLAN_FLAGS, &["threads", "tier", "engine"]])?;
    let which = pos.first().ok_or("workload needs w1|w2|w3|w4")?;
    let machine = machine_arg(&flags)?;
    let threads = threads_arg(&flags)?.unwrap_or(machine.total_hw_threads());
    let cfg = config_from_flags(machine, &flags)?
        .with_tier(single(tier_arg(&flags)?, "--tier policy")?)
        .with_engine(single(engine_arg(&flags)?, "--engine")?);
    let out = run_plan(&plan_arg(which, &plan_spec(&flags)?)?, &cfg, threads)?;
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
    let plan = plan_arg(which, &plan_spec(&flags)?)?;
    let d = run_plan(&plan, &default, threads)?.cycles;
    let t = run_plan(&plan, &tuned, threads)?.cycles;
    println!("{which}: os-default {d} cycles, tuned {t} cycles -> {:.2}x", d as f64 / t as f64);
    Ok(())
}

// ---- the grid harness shared by `sweep` and `serve` ----------------

/// `--jobs N` (default 1): how many workers of the shared grid pool run
/// cells. Every output is byte-identical for any N, so it never enters
/// a grid fingerprint.
fn jobs_arg(flags: &HashMap<String, String>) -> Result<usize, String> {
    Ok(count_arg(flags, "jobs", "need an integer")?.unwrap_or(1))
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

/// Open the grid's write-ahead journal. `--resume PATH` reads it back —
/// refusing a journal of a different grid, noting a discarded torn
/// tail — and returns its records for adoption; `--journal PATH` starts
/// a fresh one; neither flag means no journal.
fn open_journal<R: JournalRecord>(
    flags: &HashMap<String, String>,
    what: &str,
    grid_desc: &str,
    cells: usize,
) -> Result<(Option<JournalWriter>, Vec<R>), String> {
    let fp = grid_fingerprint(grid_desc);
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
            let w = JournalWriter::create(Path::new(path), &fp, grid_desc)
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
    let threads = threads_arg(&flags)?.unwrap_or(machine.total_hw_threads());
    let trials = num_arg(&flags, "trials")?.unwrap_or(3);
    let jobs = jobs_arg(&flags)?;
    let supervisor = SupervisorPolicy {
        retry: RetryPolicy {
            max_retries: num_arg(&flags, "retries")?.unwrap_or(3),
            ..RetryPolicy::default()
        },
        watchdog_budget_cycles: num_arg(&flags, "watchdog")?,
        global_retry_budget: num_arg(&flags, "retry-budget")?,
        breaker_threshold: num_arg(&flags, "breaker")?,
        max_cells: num_arg(&flags, "max-cells")?,
    };
    let trace_epoch = count_arg(&flags, "trace-epoch", "need cycles")?
        .unwrap_or(TraceConfig::default().epoch_cycles);
    let trace_dir = trace_dir_arg(&flags)?;

    let mut configs = preset_configs(config_from_flags(machine, &flags)?);
    // `--advisor online[,autonuma]` appends runtime-adaptive contenders.
    if let Some(list) = flags.get("advisor") {
        for entry in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let contender = advisor_contender(&configs[1], entry).ok_or_else(|| {
                format!("unknown --advisor entry `{entry}` (online, autonuma)")
            })?;
            configs.push(contender);
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
    let (mut writer, resumed) =
        open_journal::<TrialRecord>(&flags, "sweep", &grid_desc, configs.len() * trials)?;

    let plan = plan_arg(which, &plan_spec(&flags)?)?;
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
            let mut out = plan.try_run(env)?;
            // One artifact per (config, trial) cell, named purely from
            // the cell's coordinates — the same cell writes the same
            // bytes to the same path whether it runs serially, under
            // --jobs N, or in a resumed sweep.
            if let (Some(dir), Some(log)) = (&trace_dir, out.trace.take()) {
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
            Ok(TrialMeasurement::from(&out))
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
    // Serve classes run serve-sized inputs unless --n/--card say otherwise.
    let sizes = serve_sizes(plan_spec(&flags)?);
    let classes: Vec<(String, WorkloadPlan)> = which
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|c| Ok((c.to_string(), plan_arg(c, &sizes)?)))
        .collect::<Result<_, String>>()?;
    if classes.is_empty() {
        return Err("serve needs at least one query class (w1, w2, w3, w4)".to_string());
    }
    let machine = machine_arg(&flags)?;
    let threads = threads_arg(&flags)?.unwrap_or(machine.total_hw_threads());
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
        tenants: num_arg(&flags, "tenants")?.unwrap_or(8),
        duration_mcycles: num_arg(&flags, "duration")?.unwrap_or(50),
        arrivals,
        lanes: num_arg(&flags, "lanes")?.unwrap_or(4),
        queue_cap: num_arg(&flags, "queue-cap")?.unwrap_or(16),
        bucket_cap: num_arg(&flags, "tokens")?.unwrap_or(8),
        refill_milli_per_mcycle,
        deadline_mcycles: num_arg(&flags, "deadline")?.unwrap_or(5),
        breaker_threshold: num_arg(&flags, "breaker")?.unwrap_or(8),
        epoch_mcycles: num_arg(&flags, "epoch")?.unwrap_or(4),
        outage,
        advisor,
        seed: num_arg(&flags, "seed")?.unwrap_or(42),
    };
    // An empty or runaway serve spec is a mis-specified run, not a
    // vacuous success: fail loudly with the bound it broke.
    spec.validate().map_err(|e| e.to_string())?;
    let jobs = jobs_arg(&flags)?;
    let max_cells = num_arg(&flags, "max-cells")?;
    let trace_dir = trace_dir_arg(&flags)?;
    let record_sessions = trace_dir.is_some();

    // Same two presets as `sweep`, selectable via --configs.
    let presets = preset_configs(config_from_flags(machine.clone(), &flags)?);
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
    let configs = cross_grid(
        presets,
        &[single(tier_arg(&flags)?, "--tier policy")?],
        &[single(engine_arg(&flags)?, "--engine")?],
    );
    let cells: Vec<CellInput> = configs
        .iter()
        .map(|c| CellInput { config: c.name.clone(), spec: spec.clone() })
        .collect();

    let grid_desc =
        serve_grid_descriptor(which, &machine.name, threads, &spec, &flags);
    let (mut writer, journaled) =
        open_journal::<CellStats>(&flags, "serve", &grid_desc, cells.len())?;
    let adopted: HashMap<String, CellStats> =
        journaled.into_iter().map(|c| (c.config.clone(), c)).collect();

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
        &|i| calibrate(&configs[i], &classes, threads, spec.outage),
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
        parse_flags("tpch", args, &[&["sf", "system", "machine", "engine", "tuned", "shards"]])?;
    let qnum: usize = pos
        .first()
        .and_then(|s| s.parse().ok())
        .filter(|q| (1..=22).contains(q))
        .ok_or("tpch needs a query number 1..22")?;
    let sf: f64 = num_arg(&flags, "sf")?.unwrap_or(0.005);
    if !(sf.is_finite() && sf > 0.0) {
        return Err(format!("bad --sf `{}` (need a finite scale factor > 0)", flags["sf"]));
    }
    let system = match flags.get("system").map(String::as_str).unwrap_or("monetdb") {
        "monetdb" => SystemKind::MonetDbLike,
        "postgresql" | "postgres" => SystemKind::PostgresLike,
        "mysql" => SystemKind::MySqlLike,
        "dbmsx" => SystemKind::DbmsX,
        "quickstep" => SystemKind::QuickstepLike,
        other => return Err(format!("unknown system `{other}`")),
    };
    let machine = machine_arg(&flags)?;
    let engine = single(engine_arg(&flags)?, "--engine")?;
    let env = if flags.contains_key("tuned") {
        system.tuned_env(machine)
    } else {
        WorkloadEnv::os_default(machine)
    };
    let mut env = env.with_engine(engine);
    env.sim = host_options(env.sim, &flags)?;
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
