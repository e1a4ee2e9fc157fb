//! The four benchmark workloads. Each builds its inputs from the seed in
//! `setup` (the timed set-up), then runs identical rounds; every round
//! checks its own results and returns the simulator's exact counts.

use std::collections::BTreeMap;

use nqp::core::TuningConfig;
use nqp::datagen::tpch::TpchData;
use nqp::datagen::{generate, JoinDataset, Record};
use nqp::engines::{DbSystem, Row, SystemKind, QUERY_COUNT};
use nqp::indexes::IndexKind;
use nqp::query::{
    reference_checksum, reference_join, try_run_aggregation_on, try_run_hash_join_on,
    try_run_inl_join_on, AggConfig, AggKind, EngineKind, WorkloadEnv,
};
use nqp::serve::arrival::MILLI;
use nqp::serve::{run_serve, ArrivalSpec, ClassProfile, LatencyHistogram, ServeAdvisor, ServeSpec};
use nqp::sim::{Counters, MemPolicy, TraceConfig, TraceLog};
use nqp::tier::TierSpec;
use nqp::topology::machines;

use crate::spans::Tracer;

/// Exact simulated quantities of one round, by name.
pub type Counts = BTreeMap<String, u64>;

/// What one round did.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOut {
    /// Operations attempted: trials, queries or simulated requests.
    pub ops: u64,
    /// Operations the library failed to execute (a simulation fault or
    /// an engine error). Serve-side sheds and timeouts are outcomes, not
    /// failures of the program; `fail_ratio` counts them separately.
    pub failed: u64,
    /// Simulated cycles of the round.
    pub model_cycles: u64,
    /// Every exact simulated count the round produced.
    pub counts: Counts,
}

/// A workload ready to run rounds.
pub trait Workload {
    /// Run one round, checking every result; `Err` is a wrong result.
    fn round(&mut self, tr: &mut Tracer) -> Result<RoundOut, String>;

    /// Compute the host-side references the rounds are checked against
    /// (outside the timed set-up).
    fn prepare_reference(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Per-workload run shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Name on the command line.
    pub name: &'static str,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Rounds discarded before timing (host allocator warm-up).
    pub warmup: usize,
    /// Whether every round repeats the same simulated work, so every
    /// round's counts must be identical. TPC-H rounds run on long-lived
    /// engines whose modelled caches stay warm, so their counts depend
    /// on the round index (deterministically).
    pub repeats_exactly: bool,
}

impl Shape {
    /// Rounds the second process runs and reports. Where rounds repeat
    /// exactly, round 0 stands for all of them; otherwise the warm-up
    /// rounds and the first timed round (traced under `--trace 1`).
    pub fn digest_rounds(&self) -> usize {
        if self.repeats_exactly {
            1
        } else {
            self.warmup + 1
        }
    }
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const SHAPES: [Shape; 4] = [
    Shape {
        name: "agg-vec",
        setup_reps: 121,
        warmup: 3,
        repeats_exactly: true,
    },
    Shape {
        name: "join-tier",
        setup_reps: 81,
        warmup: 2,
        repeats_exactly: true,
    },
    Shape {
        name: "serve-ladder",
        setup_reps: 5,
        warmup: 3,
        repeats_exactly: true,
    },
    Shape {
        name: "tpch-mix",
        setup_reps: 3,
        warmup: 2,
        repeats_exactly: false,
    },
];

/// Look a workload up by name.
pub fn shape(name: &str) -> Option<Shape> {
    SHAPES.iter().copied().find(|s| s.name == name)
}

/// Build workload `name` from `seed`: input generation plus load, boot
/// or calibration.
pub fn setup(name: &str, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "agg-vec" => Box::new(AggVec::setup(seed, tr)),
        "join-tier" => Box::new(JoinTier::setup(seed, tr)?),
        "serve-ladder" => Box::new(ServeLadder::setup(seed, tr)?),
        "tpch-mix" => Box::new(TpchMix::setup(seed, tr)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn add_counters(counts: &mut Counts, c: &Counters) {
    for (name, v) in c.fields() {
        *counts.entry(format!("sim.{name}")).or_default() += v;
    }
}

fn sim_fault(counts: Counts) -> RoundOut {
    RoundOut {
        ops: 1,
        failed: 1,
        model_cycles: 0,
        counts,
    }
}

// ---------------------------------------------------------------- agg-vec

/// W1 records over `AGG_CARD` moving-cluster groups. The group table —
/// an 8-byte slot per group plus a 16-byte chain node (32 bytes with
/// ptmalloc's header) per record — is about 21 MB, larger than machine
/// B's 18 MB per-node LLC.
const AGG_N: usize = 600_000;
const AGG_CARD: u64 = 200_000;
const AGG_THREADS: usize = 8;

/// W1 holistic MEDIAN on the vectorized engine, machine B, OS defaults.
struct AggVec {
    env: WorkloadEnv,
    cfg: AggConfig,
    records: Vec<Record>,
    expect: Option<(u64, u64)>,
}

impl AggVec {
    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let cfg = AggConfig::w1(AGG_N, AGG_CARD, seed);
        let records = tr.span("datagen.gen", |_| {
            generate(cfg.dataset, cfg.n, cfg.cardinality, seed)
        });
        let env = WorkloadEnv::os_default(machines::machine_b())
            .with_threads(AGG_THREADS)
            .with_engine(EngineKind::Vectorized);
        AggVec {
            env,
            cfg,
            records,
            expect: None,
        }
    }
}

impl Workload for AggVec {
    fn prepare_reference(&mut self) -> Result<(), String> {
        self.expect = Some(reference_checksum(&self.records, AggKind::HolisticMedian));
        Ok(())
    }

    fn round(&mut self, tr: &mut Tracer) -> Result<RoundOut, String> {
        let (env, cfg, records) = (&self.env, &self.cfg, &self.records);
        let out = match tr.span("query.trial", |_| try_run_aggregation_on(env, cfg, records)) {
            Ok(out) => out,
            Err(_) => return Ok(sim_fault(Counts::new())),
        };
        let (checksum, groups) = self.expect.ok_or("reference not prepared")?;
        if (out.checksum, out.groups) != (checksum, groups) {
            return Err(format!(
                "agg-vec: checksum {:#x} over {} groups, reference {checksum:#x} over {groups}",
                out.checksum, out.groups
            ));
        }
        let mut counts = Counts::new();
        add_counters(&mut counts, &out.counters);
        // Regions are init, build, finalize.
        let build = out.regions.get(1).map_or(0, |r| r.elapsed_cycles);
        counts.insert("query.load_cycles".into(), out.load_cycles);
        counts.insert("query.build_cycles".into(), build);
        counts.insert("query.exec_cycles".into(), out.exec_cycles);
        counts.insert("check.checksum".into(), out.checksum);
        counts.insert("check.groups".into(), out.groups);
        Ok(RoundOut {
            ops: 1,
            failed: 0,
            model_cycles: out.exec_cycles,
            counts,
        })
    }
}

// -------------------------------------------------------------- join-tier

/// Build-side tuples and the probe side's multiple of them. Machine B_CXL
/// has 8 MB of DRAM per node, so the relations and the build side's
/// table spill onto the CXL tier.
const JOIN_R: usize = 250_000;
const JOIN_RATIO: usize = 4;
const JOIN_THREADS: usize = 8;

/// W3 hash join (tuple engine) on machine B_CXL: interleave, THP off,
/// hot-watermark tiering daemon.
struct JoinTier {
    env: WorkloadEnv,
    data: JoinDataset,
    expect: Option<(u64, u64)>,
}

impl JoinTier {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let data = tr.span("datagen.gen", |_| {
            JoinDataset::generate_with_ratio(JOIN_R, JOIN_RATIO, seed)
        });
        let tier = TierSpec::parse("hot-watermark").map_err(|e| e.to_string())?;
        let env = TuningConfig::os_default(machines::machine_b_cxl())
            .with_policy(MemPolicy::Interleave)
            .with_thp(false)
            .with_tier(tier)
            .env(JOIN_THREADS);
        Ok(JoinTier {
            env,
            data,
            expect: None,
        })
    }
}

impl Workload for JoinTier {
    fn prepare_reference(&mut self) -> Result<(), String> {
        self.expect = Some(reference_join(&self.data));
        Ok(())
    }

    fn round(&mut self, tr: &mut Tracer) -> Result<RoundOut, String> {
        let (env, data) = (&self.env, &self.data);
        let out = match tr.span("query.trial", |_| try_run_hash_join_on(env, data)) {
            Ok(out) => out,
            Err(_) => return Ok(sim_fault(Counts::new())),
        };
        let (matches, checksum) = self.expect.ok_or("reference not prepared")?;
        if (out.matches, out.checksum) != (matches, checksum) {
            return Err(format!(
                "join-tier: {} matches with checksum {:#x}, reference {matches} with {checksum:#x}",
                out.matches, out.checksum
            ));
        }
        let exec = out.build_cycles + out.probe_cycles;
        let mut counts = Counts::new();
        add_counters(&mut counts, &out.counters);
        counts.insert("query.load_cycles".into(), out.load_cycles);
        counts.insert("query.build_cycles".into(), out.build_cycles);
        counts.insert("query.probe_cycles".into(), out.probe_cycles);
        counts.insert("query.exec_cycles".into(), exec);
        counts.insert("check.checksum".into(), out.checksum);
        counts.insert("check.matches".into(), out.matches);
        Ok(RoundOut {
            ops: 1,
            failed: 0,
            model_cycles: exec,
            counts,
        })
    }
}

// ----------------------------------------------------------- serve-ladder

/// Serve-sized class inputs (the CLI's serve defaults).
const SERVE_N: usize = 8_000;
const SERVE_CARD: u64 = 2_000;
const SERVE_TENANTS: usize = 1_000;
/// Arrival window per rung, Mcycles.
pub const SERVE_DURATION_MCYCLES: u64 = 100_000;
/// Per-query deadline; set-up checks it exceeds every class's
/// calibrated service time.
pub const SERVE_DEADLINE_MCYCLES: u64 = 50;
/// Offered rates, arrivals per Mcycle, from well below the knee to above.
pub const SERVE_RATES_MILLI: [u64; 4] = [250, 500, 850, 1_500];
/// Index of the knee rung, the rung the headline serve latencies and
/// SLO attainment come from.
pub const SERVE_KNEE: usize = 2;

/// Open-loop Poisson serving of W1–W4 from many tenants, tuned config,
/// at a fixed ladder of arrival rates.
struct ServeLadder {
    specs: Vec<ServeSpec>,
    profiles: Vec<ClassProfile>,
    calib_counts: Counts,
    calib_checks: Vec<(String, u64, u64)>,
    inputs: Option<ServeInputs>,
}

struct ServeInputs {
    w1: Vec<Record>,
    w2: Vec<Record>,
    join: JoinDataset,
}

/// The CLI's calibration rule: top-level trace spans (minus `load`,
/// which serve sessions never pay) become the class's phase plan.
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

/// Summed latency of the completed requests in `hist`, each counted at
/// its bucket's upper bound (clamped to the recorded maximum): the
/// simulated time they spent queued and in service.
fn latency_sum(hist: &LatencyHistogram) -> u64 {
    let total = hist.total();
    let mut seen = 0;
    hist.nonzero_buckets()
        .into_iter()
        .map(|(_, count)| {
            // The quantile at rank `seen` is this bucket's bound.
            seen += count;
            count * hist.quantile(seen, total)
        })
        .sum()
}

impl ServeLadder {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let inputs = tr.span("datagen.gen", |_| {
            let w1 = AggConfig::w1(SERVE_N, SERVE_CARD, seed);
            let w2 = AggConfig::w2(SERVE_N, SERVE_CARD, seed);
            ServeInputs {
                w1: generate(w1.dataset, w1.n, w1.cardinality, seed),
                w2: generate(w2.dataset, w2.n, w2.cardinality, seed),
                join: JoinDataset::generate(SERVE_N, seed),
            }
        });
        let env = WorkloadEnv::tuned(machines::machine_b());
        let traced = |class: &str| {
            let mut e = env.clone();
            e.sim = e
                .sim
                .with_trace(TraceConfig::default().with_label(format!("tuned {class}")));
            e
        };
        let mut calib_counts = Counts::new();
        let mut calib_checks = Vec::new();
        let mut profiles = Vec::new();
        let fault = |class: &str, e: nqp::sim::SimError| format!("{class} calibration: {e}");
        tr.span("serve.calibrate", |tr| -> Result<(), String> {
            for class in ["w1", "w2", "w3", "w4"] {
                let env = traced(class);
                let (cycles, trace, counters, sum) = tr
                    .span("query.trial", |_| match class {
                        "w1" | "w2" => {
                            let (cfg, recs) = if class == "w1" {
                                (AggConfig::w1(SERVE_N, SERVE_CARD, seed), &inputs.w1)
                            } else {
                                (AggConfig::w2(SERVE_N, SERVE_CARD, seed), &inputs.w2)
                            };
                            try_run_aggregation_on(&env, &cfg, recs).map(|o| {
                                (o.exec_cycles, o.trace, o.counters, (o.checksum, o.groups))
                            })
                        }
                        "w3" => try_run_hash_join_on(&env, &inputs.join).map(|o| {
                            (
                                o.build_cycles + o.probe_cycles,
                                o.trace,
                                o.counters,
                                (o.checksum, o.matches),
                            )
                        }),
                        _ => {
                            try_run_inl_join_on(&env, IndexKind::BPlusTree, &inputs.join).map(|o| {
                                (
                                    o.build_cycles + o.join_cycles,
                                    o.trace,
                                    o.counters,
                                    (o.checksum, o.matches),
                                )
                            })
                        }
                    })
                    .map_err(|e| fault(class, e))?;
                add_counters(&mut calib_counts, &counters);
                calib_checks.push((class.to_string(), sum.0, sum.1));
                let healthy = profile_phases(trace, cycles);
                profiles.push(ClassProfile {
                    name: class.to_string(),
                    degraded: healthy.clone(),
                    healthy,
                    evacuated_pages: 0,
                });
            }
            Ok(())
        })?;
        let slowest = profiles
            .iter()
            .map(ClassProfile::healthy_cycles)
            .max()
            .unwrap_or(0);
        if slowest >= SERVE_DEADLINE_MCYCLES * 1_000_000 {
            return Err(format!(
                "serve-ladder: slowest class takes {slowest} cycles, above the {SERVE_DEADLINE_MCYCLES} Mcycle deadline"
            ));
        }
        for (i, p) in profiles.iter().enumerate() {
            calib_counts.insert(format!("serve.class{i}.service_cycles"), p.healthy_cycles());
        }
        let specs = SERVE_RATES_MILLI
            .iter()
            .map(|&rate_milli| ServeSpec {
                tenants: SERVE_TENANTS,
                duration_mcycles: SERVE_DURATION_MCYCLES,
                arrivals: ArrivalSpec::Poisson { rate_milli },
                lanes: 4,
                queue_cap: 16,
                bucket_cap: 8,
                refill_milli_per_mcycle: 4 * MILLI,
                deadline_mcycles: SERVE_DEADLINE_MCYCLES,
                breaker_threshold: 8,
                epoch_mcycles: 4,
                outage: None,
                advisor: ServeAdvisor::Static,
                seed,
            })
            .collect();
        Ok(ServeLadder {
            specs,
            profiles,
            calib_counts,
            calib_checks,
            inputs: Some(inputs),
        })
    }
}

impl Workload for ServeLadder {
    fn prepare_reference(&mut self) -> Result<(), String> {
        let inputs = self.inputs.take().ok_or("serve inputs already checked")?;
        let (join_matches, join_sum) = reference_join(&inputs.join);
        for (class, checksum, count) in &self.calib_checks {
            let expect = match class.as_str() {
                "w1" => reference_checksum(&inputs.w1, AggKind::HolisticMedian),
                "w2" => reference_checksum(&inputs.w2, AggKind::DistributiveCount),
                _ => (join_sum, join_matches),
            };
            if (*checksum, *count) != expect {
                return Err(format!(
                    "serve-ladder: {class} calibration returned ({checksum:#x}, {count}), reference ({:#x}, {})",
                    expect.0, expect.1
                ));
            }
        }
        Ok(())
    }

    fn round(&mut self, tr: &mut Tracer) -> Result<RoundOut, String> {
        let mut counts = self.calib_counts.clone();
        let (mut ops, mut model_cycles) = (0, 0);
        for (k, spec) in self.specs.iter().enumerate() {
            let profiles = &self.profiles;
            let Ok((cell, _)) = tr.span("serve.run", |_| run_serve("tuned", spec, profiles, false))
            else {
                return Ok(sim_fault(counts));
            };
            let t = cell.totals();
            if t.arrivals != t.admitted + t.shed() || t.admitted != t.completed + t.timeouts {
                return Err(format!(
                    "serve-ladder rung {k}: {} arrivals, {} admitted, {} shed, {} completed, {} timeouts do not balance",
                    t.arrivals, t.admitted, t.shed(), t.completed, t.timeouts
                ));
            }
            if t.arrivals == 0 || t.slo_ok > t.completed {
                return Err(format!(
                    "serve-ladder rung {k}: {} arrivals, {} slo_ok",
                    t.arrivals, t.slo_ok
                ));
            }
            let mut put = |key: &str, v: u64| counts.insert(format!("serve.r{k}.{key}"), v);
            put("arrivals", t.arrivals);
            put("completed", t.completed);
            put("shed", t.shed());
            put("timeouts", t.timeouts);
            put("slo_ok", t.slo_ok);
            put("p50_cycles", cell.hist.p50());
            put("p99_cycles", cell.hist.p99());
            put("max_depth", cell.max_depth);
            put("wasted_cycles", cell.wasted_cycles);
            put("end_cycles", cell.end_cycles);
            let latency = latency_sum(&cell.hist);
            put("latency_sum_cycles", latency);
            ops += t.arrivals;
            // Below the knee latency is mostly service time. From the knee
            // on it is mostly queueing, which varies with the seed's
            // arrival pattern, and past it latencies pile up against the
            // deadline, whose sum does not measure the simulated work.
            if k < SERVE_KNEE {
                model_cycles += latency;
            }
        }
        Ok(RoundOut {
            ops,
            failed: 0,
            model_cycles,
            counts,
        })
    }
}

// --------------------------------------------------------------- tpch-mix

/// TPC-H scale factor.
const TPCH_SF: f64 = 0.004;

/// All 22 TPC-H queries on each of the five engine profiles, OS defaults
/// on machine B.
struct TpchMix {
    dbs: Vec<(SystemKind, DbSystem)>,
    reference: Option<Vec<Vec<Row>>>,
    rows_hash: u64,
}

/// FNV-1a over the rendered result rows.
fn rows_hash(results: &[Vec<Row>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for rows in results {
        for row in rows {
            for v in row {
                for b in v.to_string().bytes().chain([0x1f]) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    h
}

fn system_key(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::MonetDbLike => "monetdb",
        SystemKind::PostgresLike => "postgresql",
        SystemKind::MySqlLike => "mysql",
        SystemKind::DbmsX => "dbmsx",
        SystemKind::QuickstepLike => "quickstep",
    }
}

impl TpchMix {
    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let data = tr.span("datagen.gen", |_| TpchData::generate(TPCH_SF, seed));
        let env = WorkloadEnv::os_default(machines::machine_b());
        let dbs = SystemKind::ALL
            .iter()
            .map(|&kind| {
                (
                    kind,
                    tr.span("engines.boot", |_| DbSystem::boot(kind, &env, &data)),
                )
            })
            .collect();
        TpchMix {
            dbs,
            reference: None,
            rows_hash: 0,
        }
    }
}

impl Workload for TpchMix {
    fn round(&mut self, tr: &mut Tracer) -> Result<RoundOut, String> {
        let mut counts = Counts::new();
        let (mut ops, mut failed, mut model_cycles) = (0, 0, 0);
        let mut results: Vec<Vec<Row>> = Vec::with_capacity(QUERY_COUNT);
        for (kind, db) in &mut self.dbs {
            let before = db.counters();
            let mut cycles = 0;
            for q in 1..=QUERY_COUNT {
                ops += 1;
                let out = match tr.span("engines.query", |_| db.try_run(q)) {
                    Ok(out) => out,
                    Err(_) => {
                        failed += 1;
                        continue;
                    }
                };
                cycles += out.latency_cycles;
                // Every profile must return the first profile's rows, in
                // every round.
                let expect = match &self.reference {
                    Some(r) => r.get(q - 1),
                    None => results.get(q - 1),
                };
                match expect {
                    Some(rows) if *rows != out.rows => {
                        return Err(format!(
                            "tpch-mix: Q{q} on {} returned other rows",
                            kind.label()
                        ));
                    }
                    Some(_) => {}
                    None => results.push(out.rows),
                }
            }
            add_counters(&mut counts, &(db.counters() - before));
            counts.insert(format!("engines.{}_cycles", system_key(*kind)), cycles);
            model_cycles += cycles;
        }
        if self.reference.is_none() {
            if results.len() != QUERY_COUNT {
                return Err("tpch-mix: the first profile did not answer every query".into());
            }
            self.rows_hash = rows_hash(&results);
            self.reference = Some(results);
        }
        counts.insert("check.rows_hash".into(), self.rows_hash);
        Ok(RoundOut {
            ops,
            failed,
            model_cycles,
            counts,
        })
    }
}
