//! Repository benchmark for nqp.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload agg-vec --seed 42 --seconds 15 --trace 0
//! ```
//!
//! One process runs one workload on one host thread: it sets the
//! workload up several times (`setup_s` is the median), runs warm-up
//! rounds, then times identical rounds for `--seconds`. Host times are
//! reported at a reference host speed: a fixed kernel timed after every
//! round gauges how fast the shared host runs at that moment. Every
//! round's results are checked, and its simulated counts must repeat
//! exactly.
//! A second process at the same seed, with tracing flipped, must
//! reproduce them bit for bit. The last stdout line is one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. A wrong result or a determinism break exits nonzero.

mod host;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeSet;
use std::process::{Command, ExitCode};
use std::time::Instant;

use spans::{self_time, Tracer, SETUP_BASE};
use workloads::{Counts, RoundOut, Shape, SERVE_DEADLINE_MCYCLES, SERVE_KNEE, SERVE_RATES_MILLI};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 42;
/// Timed rounds per run even when `--seconds` runs out first.
const MIN_ROUNDS: usize = 5;
/// SLO-attainment target of `max_rate_at_slo`.
const SLO_TARGET: f64 = 0.99;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("model_mcycles", "Mcycles"),
];

struct Args {
    workload: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: set up once, print the digest of the simulated
    /// counts, and exit.
    digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut digest) = (DEFAULT_SEED, 10.0, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--digest" {
            digest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::shape(&value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::SHAPES.iter().map(|s| s.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        digest,
    })
}

/// One round as the run loop saw it.
struct Timed {
    id: u32,
    /// Wall seconds of the round.
    secs: f64,
    /// Seconds of the host reference kernel, run right after the round.
    ref_secs: f64,
    /// The round's seconds at the reference host speed.
    host_secs: f64,
    sys_secs: f64,
    traced: bool,
    out: RoundOut,
}

/// Every simulated quantity two runs must agree on exactly.
fn digest(out: &RoundOut) -> Counts {
    let mut d = out.counts.clone();
    d.insert("model_cycles".into(), out.model_cycles);
    d
}

enum Failure {
    /// A wrong result or a determinism break: report and exit nonzero.
    Check(String),
    /// The benchmark itself could not run.
    Harness(String),
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Check(why)) => {
            eprintln!("check failed: {why}");
            println!(r#"{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}"#);
            ExitCode::from(1)
        }
        Err(Failure::Harness(why)) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), Failure> {
    let args = parse_args().map_err(Failure::Harness)?;
    let shape = args.workload;
    let mut tr = Tracer::new(args.trace);

    if args.digest {
        return print_digest(&args, &mut tr);
    }

    // Set up several times; keep the last instance. Each set-up gets its
    // own round id so its spans can be totalled separately.
    let mut setup_secs = Vec::with_capacity(shape.setup_reps);
    let mut w = None;
    for rep in 0..shape.setup_reps {
        drop(w.take());
        tr.set_round(SETUP_BASE + rep as u32);
        let t = Instant::now();
        w = Some(workloads::setup(shape.name, args.seed, &mut tr).map_err(Failure::Harness)?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.ok_or_else(|| Failure::Harness("no set-up ran".into()))?;
    w.prepare_reference().map_err(Failure::Check)?;

    // Warm-up rounds, then timed rounds for `--seconds`. Under
    // `--trace 1` timed rounds alternate untraced/traced, so the tracing
    // overhead is measured over the same stretch of time. The reference
    // kernel runs after every round, to gauge the host's speed then.
    let mut host_ref = host::Reference::new();
    let mut rounds: Vec<Timed> = Vec::new();
    let mut measure_start: Option<Instant> = None;
    loop {
        let i = rounds.len();
        let measured = i.saturating_sub(shape.warmup);
        if i >= shape.warmup {
            let start = *measure_start.get_or_insert_with(Instant::now);
            if measured >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        let traced = args.trace && i >= shape.warmup && measured % 2 == 0;
        tr.set_on(traced);
        tr.set_round(i as u32);
        let sys0 = host::sys_secs();
        let t = Instant::now();
        let out = tr
            .span("bench.round", |tr| w.round(tr))
            .map_err(Failure::Check)?;
        let secs = t.elapsed().as_secs_f64();
        let sys_secs = host::sys_secs() - sys0;
        let ref_secs = host_ref.secs();
        let host_secs = stats::at_reference_speed(secs, ref_secs, host::REFERENCE_NOMINAL_SECS);
        rounds.push(Timed {
            id: i as u32,
            secs,
            ref_secs,
            host_secs,
            sys_secs,
            traced,
            out,
        });
    }
    tr.set_on(false);

    // Determinism: rounds that repeat the same work must agree exactly,
    // and the first rounds must match a second process round for round.
    let reference = &rounds[0].out;
    if shape.repeats_exactly {
        if let Some((i, _)) = rounds
            .iter()
            .enumerate()
            .find(|(_, r)| digest(&r.out) != digest(reference))
        {
            return Err(Failure::Check(format!(
                "round {i} simulated other counts than round 0"
            )));
        }
    }
    let ours: Vec<Counts> = rounds[..shape.digest_rounds()]
        .iter()
        .map(|r| digest(&r.out))
        .collect();
    let peak_rss_mb = check_second_process(&args, &ours)?;

    let timed = &rounds[shape.warmup..];
    let secs: Vec<f64> = timed.iter().map(|r| r.secs).collect();
    let (q1, q3) = stats::quartiles(&secs).unwrap_or_default();
    let refs: Vec<f64> = timed.iter().map(|r| r.ref_secs).collect();
    eprintln!(
        "{}: {} timed rounds after {} warm-up, round seconds median {:.4} (quartiles {q1:.4}, {q3:.4}), reference kernel median {:.4} s, set-ups {setup_secs:.4?}",
        shape.name,
        timed.len(),
        shape.warmup,
        stats::median(&secs),
        stats::median(&refs)
    );
    let attempted: u64 = rounds.iter().map(|r| r.out.ops).sum();
    let failed: u64 = rounds.iter().map(|r| r.out.failed).sum();
    let metrics = if args.trace {
        per_layer(&tr, timed, reference)
    } else {
        end_to_end(&setup_secs, &rounds, shape.warmup, peak_rss_mb)
    };
    emit(attempted, failed, &metrics).map_err(Failure::Harness)
}

/// Child mode: the simulated counts of the workload's first
/// [`Shape::digest_rounds`] rounds, one per line, then the peak memory of
/// this one set-up and those rounds.
fn print_digest(args: &Args, tr: &mut Tracer) -> Result<(), Failure> {
    let mut w = workloads::setup(args.workload.name, args.seed, tr).map_err(Failure::Harness)?;
    w.prepare_reference().map_err(Failure::Check)?;
    for round in 0..args.workload.digest_rounds() {
        tr.set_round(round as u32);
        let out = w.round(tr).map_err(Failure::Check)?;
        for (k, v) in digest(&out) {
            println!("digest\t{round}\t{k}\t{v}");
        }
    }
    println!(
        "peak_rss_mb\t{}",
        host::peak_rss_mb().map_err(Failure::Harness)?
    );
    Ok(())
}

/// Re-run this workload and seed in a second process with tracing
/// flipped, and compare its per-round digests with `ours`. Returns that
/// process's peak memory: one set-up and its digest rounds, free of the
/// repeated set-ups this process times.
fn check_second_process(args: &Args, ours: &[Counts]) -> Result<f64, Failure> {
    let exe = std::env::current_exe().map_err(|e| Failure::Harness(format!("own path: {e}")))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.workload.name,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--trace", if args.trace { "0" } else { "1" }, "--digest"])
        .output()
        .map_err(|e| Failure::Harness(format!("second process: {e}")))?;
    if !out.status.success() {
        return Err(Failure::Check(format!(
            "second process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let peak_rss_mb = stdout
        .lines()
        .find_map(|l| l.strip_prefix("peak_rss_mb\t")?.parse().ok())
        .ok_or_else(|| Failure::Harness("second process reported no peak memory".into()))?;
    let mut theirs = vec![Counts::new(); ours.len()];
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix("digest\t") else {
            continue;
        };
        match parse_digest(rest) {
            Some((round, key, v)) if round < theirs.len() => {
                theirs[round].insert(key, v);
            }
            _ => {
                return Err(Failure::Check(format!(
                    "second process printed a bad digest line `{line}`"
                )))
            }
        }
    }
    for (round, (ours, theirs)) in ours.iter().zip(&theirs).enumerate() {
        if theirs != ours {
            let keys: BTreeSet<&String> = ours.keys().chain(theirs.keys()).collect();
            let diff: Vec<String> = keys
                .into_iter()
                .filter(|k| ours.get(*k) != theirs.get(*k))
                .map(|k| format!("{k}: {:?} vs {:?}", ours.get(k), theirs.get(k)))
                .collect();
            return Err(Failure::Check(format!(
                "second process disagrees in round {round}: {}",
                diff.join(", ")
            )));
        }
    }
    Ok(peak_rss_mb)
}

/// A digest line after its prefix: round, counter name, value.
fn parse_digest(rest: &str) -> Option<(usize, String, u64)> {
    let mut f = rest.split('\t');
    let round = f.next()?.parse().ok()?;
    let key = f.next()?.to_string();
    Some((round, key, f.next()?.parse().ok()?))
}

/// Operations per second over `rounds` after the first `warmup`, at the
/// reference host speed.
fn ops_per_s(rounds: &[&Timed], warmup: usize) -> f64 {
    let secs: Vec<f64> = rounds.iter().map(|r| r.host_secs).collect();
    let ops = rounds.first().map_or(0, |r| r.out.ops);
    stats::ops_per_s(&secs, warmup, ops).unwrap_or(0.0)
}

/// A metric's name, value and unit.
type Metric = (String, f64, &'static str);

fn end_to_end(
    setup_secs: &[f64],
    rounds: &[Timed],
    warmup: usize,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let all: Vec<&Timed> = rounds.iter().collect();
    // Set-up ran just before the rounds; the reference kernel's median
    // over all rounds stands for the host's speed during it.
    let refs: Vec<f64> = rounds.iter().map(|r| r.ref_secs).collect();
    let value = |name: &str| match name {
        "setup_s" => stats::at_reference_speed(
            stats::median(setup_secs),
            stats::median(&refs),
            host::REFERENCE_NOMINAL_SECS,
        ),
        "ops_per_s" => ops_per_s(&all, warmup),
        "peak_rss_mb" => peak_rss_mb,
        _ => rounds[0].out.model_cycles as f64 / 1e6,
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), value(name), unit))
        .collect()
}

/// Per-layer metrics: host spans from the traced rounds, simulated
/// counts from the first round.
fn per_layer(tr: &Tracer, timed: &[Timed], reference: &RoundOut) -> Vec<Metric> {
    let traced_ids: Vec<u32> = timed.iter().filter(|r| r.traced).map(|r| r.id).collect();
    let in_setup = |r: u32| r >= SETUP_BASE;
    let in_traced = |r: u32| traced_ids.contains(&r);
    let span_median = |name: &str, setup: bool| -> f64 {
        let v = if setup {
            tr.secs_per_round(name, in_setup)
        } else {
            tr.secs_per_round(name, in_traced)
        };
        stats::median(&v)
    };
    let c = |key: &str| reference.counts.get(key).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut m: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));

    // Host spans.
    let trial_s = span_median("query.trial", false);
    let lines = c("sim.l1_hits") + c("sim.cache_hits") + c("sim.cache_misses");
    let queries = (reference.ops as f64).max(1.0);
    let run_s = span_median("serve.run", false);
    let arrivals: f64 = (0..SERVE_RATES_MILLI.len())
        .map(|k| c(&format!("serve.r{k}.arrivals")))
        .sum();
    put("datagen.gen_s", span_median("datagen.gen", true), "s");
    put("engines.boot_s", span_median("engines.boot", true), "s");
    put(
        "serve.calibrate_s",
        span_median("serve.calibrate", true),
        "s",
    );
    put("query.trial_s", trial_s, "s");
    // 0 where no timed round calls a trial (serve-ladder, tpch-mix).
    put("sim.ns_per_line", ratio(trial_s * 1e9, lines), "ns");
    put(
        "engines.query_ms",
        span_median("engines.query", false) * 1e3 / queries,
        "ms",
    );
    put("serve.run_s", run_s, "s");
    put("serve.ns_per_request", ratio(run_s * 1e9, arrivals), "ns");
    let sys: Vec<f64> = timed.iter().map(|r| r.sys_secs).collect();
    put("host.sys_s", stats::median(&sys), "s");
    let refs: Vec<f64> = timed.iter().map(|r| r.ref_secs).collect();
    put("host.reference_ms", stats::median(&refs) * 1e3, "ms");
    let wall: Vec<f64> = timed.iter().map(|r| r.secs).collect();
    let ops = reference.ops;
    put(
        "host.wall_ops_per_s",
        stats::ops_per_s(&wall, 0, ops).unwrap_or(0.0),
        "1/s",
    );
    let round_self: Vec<f64> = tr
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "bench.round" && in_traced(s.round))
        .map(|(i, _)| self_time(tr.spans(), i))
        .collect();
    put(
        "bench.round_self_ms",
        stats::median(&round_self) * 1e3,
        "ms",
    );
    let (on, off): (Vec<&Timed>, Vec<&Timed>) = timed.iter().partition(|r| r.traced);
    put(
        "trace.overhead_ops_per_s",
        ops_per_s(&on, 0) - ops_per_s(&off, 0),
        "1/s",
    );

    // Simulated counts.
    put("sim.lines", lines, "count");
    put("sim.l1_hit_ratio", ratio(c("sim.l1_hits"), lines), "ratio");
    put(
        "sim.llc_hit_ratio",
        ratio(
            c("sim.cache_hits"),
            c("sim.cache_hits") + c("sim.cache_misses"),
        ),
        "ratio",
    );
    let dram = c("sim.local_accesses") + c("sim.remote_accesses");
    put(
        "sim.local_access_ratio",
        ratio(c("sim.local_accesses"), dram),
        "ratio",
    );
    let tlb_miss = c("sim.tlb_misses_4k") + c("sim.tlb_misses_2m");
    put(
        "sim.tlb_miss_ratio",
        ratio(tlb_miss, tlb_miss + c("sim.tlb_hits")),
        "ratio",
    );
    for (name, key) in [
        ("sim.page_faults", "sim.page_faults"),
        ("sim.thread_migrations", "sim.thread_migrations"),
        ("sim.page_migrations", "sim.page_migrations"),
        ("sim.page_migration_failures", "sim.page_migration_failures"),
        ("tier.promotions", "sim.promotions"),
        ("tier.demotions", "sim.demotions"),
        ("tier.slow_tier_lines", "sim.slow_tier_lines"),
    ] {
        put(name, c(key), "count");
    }
    put(
        "tier.slow_tier_hit_ratio",
        ratio(c("sim.slow_tier_hits"), dram),
        "ratio",
    );
    for (name, key) in [
        ("sim.dram_mcycles", "sim.dram_cycles"),
        ("sim.compute_mcycles", "sim.compute_cycles"),
        ("sim.kernel_mcycles", "sim.kernel_cycles"),
        ("sim.lock_wait_mcycles", "sim.lock_wait_cycles"),
        ("query.load_mcycles", "query.load_cycles"),
        ("query.build_mcycles", "query.build_cycles"),
        ("query.probe_mcycles", "query.probe_cycles"),
        ("query.exec_mcycles", "query.exec_cycles"),
        ("engines.monetdb_mcycles", "engines.monetdb_cycles"),
        ("engines.postgresql_mcycles", "engines.postgresql_cycles"),
        ("engines.mysql_mcycles", "engines.mysql_cycles"),
        ("engines.dbmsx_mcycles", "engines.dbmsx_cycles"),
        ("engines.quickstep_mcycles", "engines.quickstep_cycles"),
    ] {
        put(name, c(key) / 1e6, "Mcycles");
    }

    // Serve ladder, per rung and at the knee.
    let mut rungs = Vec::new();
    let (mut shed_or_late, mut served) = (0.0, 0.0);
    for (k, &rate_milli) in SERVE_RATES_MILLI.iter().enumerate() {
        let r = |key: &str| c(&format!("serve.r{k}.{key}"));
        let slo_attain = ratio(r("slo_ok"), r("arrivals"));
        let drain_mcycles =
            (r("end_cycles") / 1e6 - workloads::SERVE_DURATION_MCYCLES as f64).max(0.0);
        rungs.push(stats::Rung {
            rate: rate_milli as f64 / 1e3,
            slo_attain,
            drained: r("arrivals") > 0.0 && drain_mcycles <= SERVE_DEADLINE_MCYCLES as f64,
        });
        shed_or_late += r("shed") + r("timeouts");
        served += r("arrivals");
        put(
            &format!("serve.r{k}.p50_mcycles"),
            r("p50_cycles") / 1e6,
            "Mcycles",
        );
        put(
            &format!("serve.r{k}.p99_mcycles"),
            r("p99_cycles") / 1e6,
            "Mcycles",
        );
        put(&format!("serve.r{k}.slo_attain"), slo_attain, "ratio");
        put(
            &format!("serve.r{k}.shed_ratio"),
            ratio(r("shed"), r("arrivals")),
            "ratio",
        );
        put(
            &format!("serve.r{k}.timeout_ratio"),
            ratio(r("timeouts"), r("arrivals")),
            "ratio",
        );
        put(&format!("serve.r{k}.max_depth"), r("max_depth"), "count");
        put(
            &format!("serve.r{k}.wasted_mcycles"),
            r("wasted_cycles") / 1e6,
            "Mcycles",
        );
    }
    let knee = |key: &str| c(&format!("serve.r{SERVE_KNEE}.{key}"));
    put("sim_p50_mcycles", knee("p50_cycles") / 1e6, "Mcycles");
    put("sim_p99_mcycles", knee("p99_cycles") / 1e6, "Mcycles");
    put(
        "slo_attain",
        ratio(knee("slo_ok"), knee("arrivals")),
        "ratio",
    );
    put(
        "max_rate_at_slo",
        stats::max_rate_at_slo(&rungs, SLO_TARGET),
        "1/Mcycle",
    );
    // Failed over attempted operations. On the serve ladder, whose rounds
    // all repeat round 0, a shed or timed-out request counts as failed.
    let (attempted, failed) = if served > 0.0 {
        (served as u64, shed_or_late as u64)
    } else {
        let sum = |f: fn(&RoundOut) -> u64| timed.iter().map(|r| f(&r.out)).sum();
        (sum(|o| o.ops), sum(|o| o.failed))
    };
    put("fail_ratio", stats::fail_ratio(attempted, failed), "ratio");
    m
}

/// Print every metric as a readable line, then the JSON result line.
fn emit(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        let value = *value;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        if !seen.insert(name) {
            return Err(format!("metric {name} reported twice"));
        }
        println!("{name:<32} {value:>20} {unit}");
        body.push(format!(
            r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
        ));
    }
    println!(
        r#"{{"correct": true, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    );
    Ok(())
}
