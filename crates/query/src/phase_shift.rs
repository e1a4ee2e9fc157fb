//! The phase-shifting workload the online advisor is judged on.
//!
//! No single static placement wins this one, by construction:
//!
//! * A **shared** probe table is created and fully written by the
//!   coordinator, so under `FirstTouch` every one of its pages lands on
//!   the coordinator's node (the classic accidental-hot-node shape).
//! * A **private** table is loaded partition-per-thread, so under
//!   `FirstTouch` each thread's slice is local to its own node.
//! * **Build rounds** (the first phase) scan the private partitions
//!   with only light shared traffic — `FirstTouch` is near-optimal,
//!   `Interleave` pays remote accesses on 3 of 4 private lines.
//! * **Probe rounds** (the second phase) hammer the shared table with
//!   per-thread pseudo-random point reads — under `FirstTouch` every
//!   thread off the coordinator's node pays remote latency *and* the
//!   hot node's bandwidth roofline, while `Interleave` spreads the
//!   pressure.
//!
//! AutoNUMA cannot rescue `FirstTouch` here: the shared pages have
//! many sharers, and the balancer refuses to chase ping-ponging pages.
//! An *online* advisor can — start from `FirstTouch`, ride the cheap
//! build phase, watch the local-access ratio collapse when probing
//! starts, and re-home the shared pages to `Interleave` mid-run.
//!
//! Every round runs as its own parallel region, which is what gives an
//! epoch-driven controller its decision points.

use crate::runner::{try_load_tuples, WorkloadEnv};
use nqp_datagen::Record;
use nqp_sim::{Counters, NumaSim, RegionStats, SimResult, TraceLog};
use nqp_storage::TupleArray;

/// Parameters of one phase-shift run.
#[derive(Debug, Clone)]
pub struct PhaseShiftConfig {
    /// Tuples in the coordinator-touched shared table.
    pub shared_n: usize,
    /// Tuples in the thread-partitioned private table.
    pub private_n: usize,
    /// Private-scan rounds before the shift.
    pub build_rounds: usize,
    /// Shared-probe rounds after the shift.
    pub probe_rounds: usize,
    /// Point reads into the shared table per thread per probe round.
    pub probes_per_round: usize,
    /// Seed for data values and probe index streams.
    pub seed: u64,
}

impl PhaseShiftConfig {
    /// A size tuned for the `numa_small` testbed machine: the shared
    /// table is 4× one LLC (random probes miss), and each thread's
    /// private partition is 2× one LLC (sequential rescans miss) — so
    /// placement decides real DRAM traffic while the run stays
    /// test-fast.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        PhaseShiftConfig {
            shared_n: 16_384,
            private_n: 32_768,
            build_rounds: 10,
            probe_rounds: 8,
            probes_per_round: 3_000,
            seed,
        }
    }
}

/// Result of one phase-shift run.
#[derive(Debug, Clone)]
pub struct PhaseShiftOutcome {
    /// Simulated cycles of the rounds (loading excluded).
    pub exec_cycles: u64,
    /// Cycles spent materialising both tables.
    pub load_cycles: u64,
    /// Order-independent mix over every value read — equal across
    /// placements, thread counts, and advisor modes, so determinism and
    /// correctness tests can pin it.
    pub checksum: u64,
    /// Counters accumulated during the rounds only.
    pub counters: Counters,
    /// Per-round region stats (build rounds first, then probe rounds).
    pub regions: Vec<RegionStats>,
    /// The finalised trace log when `env.sim.trace` was set.
    pub trace: Option<TraceLog>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn mix(acc: u64, key: u64, val: u64) -> u64 {
    acc ^ key.wrapping_mul(0x100_0001b3).wrapping_add(val)
}

/// Run the phase-shift workload under `env`: surfaces OOM, injected
/// faults, and budget timeouts so the experiment harness can retry or record the failure.
pub fn try_run_phase_shift(
    env: &WorkloadEnv,
    cfg: &PhaseShiftConfig,
) -> SimResult<PhaseShiftOutcome> {
    let mut sim = NumaSim::new(env.sim.clone());
    let threads = env.threads.max(1);

    // The shared table: created *and written* by the coordinator in a
    // serial region, so first-touch concentrates it on one node.
    sim.phase_begin("shift:load");
    let mut shared: Option<TupleArray> = None;
    let shared_n = cfg.shared_n.max(1);
    let seed = cfg.seed;
    sim.try_serial(&mut shared, |w, shared| {
        let arr = TupleArray::new(w, shared_n);
        for i in 0..shared_n {
            arr.write(w, i, i as u64, splitmix64(seed ^ i as u64));
        }
        *shared = Some(arr);
    })?;
    let shared = match shared {
        Some(arr) => arr,
        None => {
            return Err(nqp_sim::SimError::Harness {
                what: "shared table was not mapped".to_string(),
            })
        }
    };

    // The private table: partition-per-thread parallel load, each
    // thread first-touching its own slice.
    let private_records: Vec<Record> = (0..cfg.private_n.max(1))
        .map(|i| Record { key: i as u64, val: splitmix64(seed.wrapping_add(1) ^ i as u64) })
        .collect();
    let private = try_load_tuples(&mut sim, &private_records, threads)?;
    sim.phase_end();
    let load_cycles = sim.now_cycles();
    let counters_before = sim.counters();

    let mut regions = Vec::new();
    let mut checksum = 0u64;

    // Phase 1 — build rounds: scan the private partition, touch the
    // shared table only lightly.
    // Rounds are sharded regions: workers only read the two tables and
    // return a per-thread accumulator, so `--shards N` can fan each
    // round across host threads with byte-identical results.
    let tables = (&shared, &private);
    let light_probes = (cfg.probes_per_round / 16).max(1);
    sim.phase_begin("shift:build");
    for round in 0..cfg.build_rounds {
        let (stats, sums) = sim.try_parallel_sharded(threads, &tables, |w, tables| {
            let (shared, private) = *tables;
            let tid = w.tid();
            let mut acc = 0u64;
            let range = private.partition(tid, threads);
            let mut batch = [(0u64, 0u64); 32];
            let mut i = range.start;
            while i < range.end {
                let n = (range.end - i).min(batch.len());
                private.read_run(w, i, &mut batch[..n]);
                for &(key, val) in &batch[..n] {
                    acc = mix(acc, key, val);
                }
                i += n;
            }
            let stream = seed ^ (round as u64) << 32 ^ (tid as u64) << 16;
            for p in 0..light_probes {
                let idx = (splitmix64(stream ^ p as u64) as usize) % shared_n;
                let (key, val) = shared.read(w, idx);
                acc = mix(acc, key, val);
            }
            acc
        })?;
        regions.push(stats);
        for s in sums {
            checksum ^= s;
        }
    }
    sim.phase_end();

    // Phase 2 — probe rounds: pseudo-random point reads into the
    // shared table, with only a light private sweep.
    sim.phase_begin("shift:probe");
    for round in 0..cfg.probe_rounds {
        let (stats, sums) = sim.try_parallel_sharded(threads, &tables, |w, tables| {
            let (shared, private) = *tables;
            let tid = w.tid();
            let mut acc = 0u64;
            let stream =
                seed ^ 0xbeef ^ (round as u64) << 32 ^ (tid as u64) << 16;
            for p in 0..cfg.probes_per_round {
                let idx = (splitmix64(stream ^ p as u64) as usize) % shared_n;
                let (key, val) = shared.read(w, idx);
                acc = mix(acc, key, val);
            }
            let range = private.partition(tid, threads);
            let mut batch = [(0u64, 0u64); 32];
            let step = (range.len() / 8).max(batch.len());
            let mut i = range.start;
            while i < range.end {
                let n = (range.end - i).min(batch.len());
                private.read_run(w, i, &mut batch[..n]);
                for &(key, val) in &batch[..n] {
                    acc = mix(acc, key, val);
                }
                i += step;
            }
            acc
        })?;
        regions.push(stats);
        for s in sums {
            checksum ^= s;
        }
    }
    sim.phase_end();

    let exec_cycles = sim.now_cycles() - load_cycles;
    Ok(PhaseShiftOutcome {
        exec_cycles,
        load_cycles,
        checksum,
        counters: sim.counters() - counters_before,
        regions,
        trace: sim.take_trace(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_sim::MemPolicy;
    use nqp_topology::machines;

    fn env(policy: MemPolicy) -> WorkloadEnv {
        let mut e = WorkloadEnv::tuned(machines::numa_small()).with_threads(4);
        e.sim = e.sim.with_policy(policy);
        e
    }

    #[test]
    fn checksum_is_placement_independent_and_deterministic() {
        let cfg = PhaseShiftConfig { probe_rounds: 2, build_rounds: 2, ..PhaseShiftConfig::small(7) };
        let a = try_run_phase_shift(&env(MemPolicy::FirstTouch), &cfg).unwrap();
        let b = try_run_phase_shift(&env(MemPolicy::Interleave), &cfg).unwrap();
        assert_eq!(a.checksum, b.checksum, "answers must not depend on placement");
        let c = try_run_phase_shift(&env(MemPolicy::FirstTouch), &cfg).unwrap();
        assert_eq!(a.exec_cycles, c.exec_cycles, "cycle counts are deterministic");
        assert_eq!(a.regions.len(), cfg.build_rounds + cfg.probe_rounds);
    }

    #[test]
    fn rounds_are_byte_identical_across_shard_counts() {
        // The rounds now run through `try_parallel_sharded`: any host
        // shard count must reproduce the serial run exactly.
        let cfg = PhaseShiftConfig {
            build_rounds: 2,
            probe_rounds: 2,
            ..PhaseShiftConfig::small(11)
        };
        let run = |shards: usize| {
            let mut e = env(MemPolicy::FirstTouch);
            e.sim = e.sim.with_shards(shards);
            try_run_phase_shift(&e, &cfg).unwrap()
        };
        let serial = run(1);
        for shards in [2, 4] {
            let sharded = run(shards);
            assert_eq!(serial.exec_cycles, sharded.exec_cycles, "shards={shards}");
            assert_eq!(serial.checksum, sharded.checksum, "shards={shards}");
            assert_eq!(serial.counters, sharded.counters, "shards={shards}");
        }
    }

    #[test]
    fn phases_favour_opposite_placements() {
        // The defining property: build rounds like FirstTouch, probe
        // rounds like Interleave — so no static choice wins both.
        let cfg = PhaseShiftConfig { build_rounds: 3, probe_rounds: 3, ..PhaseShiftConfig::small(3) };
        let ft = try_run_phase_shift(&env(MemPolicy::FirstTouch), &cfg).unwrap();
        let il = try_run_phase_shift(&env(MemPolicy::Interleave), &cfg).unwrap();
        let build = |o: &PhaseShiftOutcome| -> u64 {
            o.regions[..cfg.build_rounds].iter().map(|r| r.elapsed_cycles).sum()
        };
        let probe = |o: &PhaseShiftOutcome| -> u64 {
            o.regions[cfg.build_rounds..].iter().map(|r| r.elapsed_cycles).sum()
        };
        assert!(
            build(&ft) < build(&il),
            "build: FirstTouch {} should beat Interleave {}",
            build(&ft),
            build(&il)
        );
        assert!(
            probe(&il) < probe(&ft),
            "probe: Interleave {} should beat FirstTouch {}",
            probe(&il),
            probe(&ft)
        );
    }
}
