//! W1 (holistic) and W2 (distributive) hash-based aggregation.
//!
//! Both run the paper's shared-global-hash-table design [14]: a
//! coordinator initialises the table (first-touching its directory),
//! worker threads insert their input partitions concurrently, and a
//! parallel finalize pass walks the buckets to produce per-group
//! aggregates. W1 keeps *every* value per group in heap-allocated
//! chains and computes the median — the allocation-heavy case; W2 keeps
//! one counter per group in the entry itself — the placement-bound case.

use crate::hash_table::HashTable;
use crate::runner::{try_load_tuples, WorkloadEnv};
use nqp_datagen::{Dataset, Record};
use nqp_sim::{Counters, NumaSim, SimResult};
use nqp_storage::{Chain, SimHeap};

/// Which aggregate function W-runs compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// W1: `MEDIAN(val)` — holistic; requires all values per group.
    HolisticMedian,
    /// W2: `COUNT(val)` — distributive; one counter per group.
    DistributiveCount,
}

/// Parameters of one aggregation run.
#[derive(Debug, Clone)]
pub struct AggConfig {
    /// W1 or W2.
    pub kind: AggKind,
    /// Input records.
    pub n: usize,
    /// Group-by cardinality.
    pub cardinality: u64,
    /// Key distribution.
    pub dataset: Dataset,
    /// Data seed.
    pub seed: u64,
    /// Application-level NUMA-awareness: interleave the shared hash
    /// table's directory across nodes instead of letting the coordinator
    /// first-touch it (the algorithmic tweak of the paper's related work
    /// \[9\]\[31\]\[32\], kept off by default because the paper studies
    /// application-*agnostic* tuning).
    pub interleaved_table: bool,
}

impl AggConfig {
    /// W1 with its Table IV default dataset (moving cluster).
    pub fn w1(n: usize, cardinality: u64, seed: u64) -> Self {
        AggConfig {
            kind: AggKind::HolisticMedian,
            n,
            cardinality,
            dataset: Dataset::MovingCluster,
            seed,
            interleaved_table: false,
        }
    }

    /// W2 with its Table IV default dataset (zipfian).
    pub fn w2(n: usize, cardinality: u64, seed: u64) -> Self {
        AggConfig {
            kind: AggKind::DistributiveCount,
            n,
            cardinality,
            dataset: Dataset::Zipfian,
            seed,
            interleaved_table: false,
        }
    }
}

/// Result of one aggregation run.
#[derive(Debug, Clone)]
pub struct AggOutcome {
    /// Simulated cycles of the query itself (build + finalize; loading
    /// excluded, as in the paper's timers).
    pub exec_cycles: u64,
    /// Cycles spent loading the input (reported separately).
    pub load_cycles: u64,
    /// Number of groups produced.
    pub groups: u64,
    /// XOR/sum mix over `(key, aggregate)` pairs — order-independent, so
    /// tests can verify against a host-side reference.
    pub checksum: u64,
    /// Counters accumulated during the query phases only.
    pub counters: Counters,
    /// Per-region stats of the query phases (init, build, finalize).
    pub regions: Vec<nqp_sim::RegionStats>,
    /// The finalised trace log when `env.sim.trace` was set, else None.
    pub trace: Option<nqp_sim::TraceLog>,
}

/// Cost charged per comparison while sorting a group's values (median).
const SORT_CMP_CYCLES: u64 = 3;

/// Run W1/W2 under `env` over caller-supplied records: returns the
/// fault (OOM under a strict `Bind`, an injected allocation failure, a
/// budget timeout, a passed deadline) as a typed error.
pub fn try_run_aggregation_on(
    env: &WorkloadEnv,
    cfg: &AggConfig,
    records: &[Record],
) -> SimResult<AggOutcome> {
    if env.engine == crate::runner::EngineKind::Vectorized {
        return crate::vector::try_run_aggregation_vec(env, cfg, records);
    }
    let mut sim = NumaSim::new(env.sim.clone());
    let heap = SimHeap::new(env.allocator, &mut sim)?;
    let table = HashTable::new(&mut sim, cfg.cardinality * 2);

    sim.phase_begin("load");
    let input = try_load_tuples(&mut sim, records, env.threads)?;
    sim.phase_end();
    let load_cycles = sim.now_cycles();
    let counters_before = sim.counters();

    // Coordinator initialises the shared table (first-touch lands its
    // directory on the coordinator's node).
    let mut regions = Vec::new();
    let mut state = (table, heap);
    let interleaved = cfg.interleaved_table;
    sim.phase_begin("agg:init");
    regions.push(sim.try_serial(&mut state, |w, (table, _)| {
        if interleaved {
            table.init_interleaved(w);
        } else {
            table.init(w);
        }
    })?);
    sim.phase_end();

    // Parallel build.
    let kind = cfg.kind;
    let threads = env.threads;
    sim.phase_begin("agg:build");
    regions.push(sim.try_parallel(threads, &mut state, |w, (table, heap)| {
        // Tuple-at-once input scan: each batch is one bulk ranged read
        // instead of a per-tuple (let alone per-field) access charge.
        let range = input.partition(w.tid(), threads);
        let mut batch = [(0u64, 0u64); 32];
        let mut i = range.start;
        while i < range.end {
            let n = (range.end - i).min(batch.len());
            input.read_run(w, i, &mut batch[..n]);
            for &(key, val) in &batch[..n] {
                match kind {
                    AggKind::DistributiveCount => {
                        table.upsert(w, heap, key, 1, |w, entry| {
                            // One write-intent RMW, not a read + a write.
                            w.rmw_u64(entry + 8, |c| c + 1);
                        });
                    }
                    AggKind::HolisticMedian => {
                        // Payload holds the chain head; push allocates
                        // chunks between the head read and write-back,
                        // so this stays a genuine read-then-write.
                        let entry = table.upsert(w, heap, key, 0, |_, _| {});
                        let head = w.read_u64(entry + 8);
                        let mut chain = Chain::from_head(head);
                        chain.push(w, heap, val);
                        w.write_u64(entry + 8, chain.head());
                    }
                }
            }
            i += n;
        }
    })?);
    sim.phase_end();

    // Parallel finalize: walk buckets, produce (key, aggregate). The
    // walk is read-only against the shared table, so it shards across
    // host threads (`SimConfig::shards`); the per-worker result vectors
    // come back in ascending-tid order, matching the serial append.
    let (table, _heap) = state;
    sim.phase_begin("agg:finalize");
    let (stats, locals) = sim.try_parallel_sharded(threads, &table, |w, table| {
        let range = table.bucket_partition(w.tid(), threads);
        let mut local: Vec<(u64, u64, u64)> = Vec::new();
        let tid = w.tid() as u64;
        table.for_each_in_buckets(w, range, |w, key, entry| {
            let payload = w.read_u64(entry + 8);
            let agg = match kind {
                AggKind::DistributiveCount => payload,
                AggKind::HolisticMedian => {
                    let chain = Chain::from_head(payload);
                    let mut values = chain.collect(w);
                    let n = values.len().max(1) as u64;
                    w.compute(SORT_CMP_CYCLES * n * (64 - n.leading_zeros()) as u64);
                    values.sort_unstable();
                    values[values.len() / 2]
                }
            };
            local.push((tid, key, agg));
        });
        local
    })?;
    regions.push(stats);
    sim.phase_end();
    let results: Vec<(u64, u64, u64)> = locals.into_iter().flatten().collect();

    let exec_cycles = sim.now_cycles() - load_cycles;
    let mut checksum = 0u64;
    for &(_, key, agg) in &results {
        checksum ^= key.wrapping_mul(0x100_0001b3).wrapping_add(agg);
    }
    Ok(AggOutcome {
        exec_cycles,
        load_cycles,
        groups: results.len() as u64,
        checksum,
        // Counters describe the query phases only, not the load.
        counters: sim.counters() - counters_before,
        regions,
        trace: sim.take_trace(),
    })
}

/// Host-side reference aggregation for verification.
pub fn reference_checksum(records: &[Record], kind: AggKind) -> (u64, u64) {
    use std::collections::HashMap;
    let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
    for r in records {
        groups.entry(r.key).or_default().push(r.val);
    }
    let mut checksum = 0u64;
    for (key, mut values) in groups.clone() {
        let agg = match kind {
            AggKind::DistributiveCount => values.len() as u64,
            AggKind::HolisticMedian => {
                values.sort_unstable();
                values[values.len() / 2]
            }
        };
        checksum ^= key.wrapping_mul(0x100_0001b3).wrapping_add(agg);
    }
    (checksum, groups.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_datagen::generate;
    use nqp_topology::machines;

    fn env() -> WorkloadEnv {
        WorkloadEnv::tuned(machines::machine_b()).with_threads(4)
    }

    #[test]
    fn w2_counts_match_reference() {
        let cfg = AggConfig::w2(5_000, 100, 3);
        let records = generate(cfg.dataset, cfg.n, cfg.cardinality, cfg.seed);
        let (expect, expect_groups) = reference_checksum(&records, cfg.kind);
        let out = try_run_aggregation_on(&env(), &cfg, &records).unwrap();
        assert_eq!(out.groups, expect_groups);
        assert_eq!(out.checksum, expect);
        assert!(out.exec_cycles > 0);
    }

    #[test]
    fn w1_medians_match_reference() {
        let cfg = AggConfig::w1(3_000, 50, 4);
        let records = generate(cfg.dataset, cfg.n, cfg.cardinality, cfg.seed);
        let (expect, expect_groups) = reference_checksum(&records, cfg.kind);
        let out = try_run_aggregation_on(&env(), &cfg, &records).unwrap();
        assert_eq!(out.groups, expect_groups);
        assert_eq!(out.checksum, expect);
    }

    #[test]
    fn w1_allocates_more_than_w2() {
        // The defining difference the paper leans on: W1 is
        // allocation-heavy (chains), W2 is not.
        let records = generate(Dataset::Uniform, 4_000, 64, 5);
        let w1 = try_run_aggregation_on(
            &env(),
            &AggConfig { kind: AggKind::HolisticMedian, ..AggConfig::w1(4_000, 64, 5) },
            &records,
        )
        .unwrap();
        let w2 = try_run_aggregation_on(
            &env(),
            &AggConfig { kind: AggKind::DistributiveCount, ..AggConfig::w2(4_000, 64, 5) },
            &records,
        )
        .unwrap();
        assert!(w1.exec_cycles > w2.exec_cycles);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = AggConfig::w2(2_000, 32, 9);
        let records = generate(cfg.dataset, cfg.n, cfg.cardinality, cfg.seed);
        let a = try_run_aggregation_on(&env(), &cfg, &records).unwrap();
        let b = try_run_aggregation_on(&env(), &cfg, &records).unwrap();
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.checksum, b.checksum);
    }
}
