//! W3: the non-partitioning hash join of Blanas et al. [15].
//!
//! Build an ad hoc shared hash table over the 1× relation `R`, then
//! probe it with every tuple of the 16× relation `S`. The build phase is
//! allocation-heavy (one entry per build tuple); the probe phase is pure
//! memory traffic — together they make W3 the workload with the largest
//! allocator gains in Figure 6g–6i.

use crate::hash_table::HashTable;
use crate::runner::WorkloadEnv;
use nqp_datagen::JoinDataset;
use nqp_sim::{Access, Counters, NumaSim, SimError, SimResult};
use nqp_storage::{SimHeap, TupleArray};

/// Result of one hash-join run.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// Cycles of the build phase (table construction over R).
    pub build_cycles: u64,
    /// Cycles of the probe phase (S against the table).
    pub probe_cycles: u64,
    /// Cycles spent loading both relations (excluded from the above).
    pub load_cycles: u64,
    /// Matched probe tuples (every S tuple matches by construction).
    pub matches: u64,
    /// XOR mix over joined `(r.payload, s.payload)` pairs.
    pub checksum: u64,
    /// Counters over build + probe only.
    pub counters: Counters,
    /// The finalised trace log when `env.sim.trace` was set, else None.
    pub trace: Option<nqp_sim::TraceLog>,
}

/// Run W3 under `env` over a pre-generated dataset: returns the fault (OOM
/// under a strict `Bind`, an injected allocation failure, a budget
/// timeout, a passed deadline) as a typed error.
pub fn try_run_hash_join_on(env: &WorkloadEnv, data: &JoinDataset) -> SimResult<JoinOutcome> {
    if env.engine == crate::runner::EngineKind::Vectorized {
        return crate::vector::try_run_hash_join_vec(env, data);
    }
    let mut sim = NumaSim::new(env.sim.clone());
    let heap = SimHeap::new(env.allocator, &mut sim)?;
    let table = HashTable::new(&mut sim, (data.r.len() as u64) * 2);
    let threads = env.threads;

    // Load both relations partition-parallel.
    sim.phase_begin("load");
    let mut arrays: Option<(TupleArray, TupleArray)> = None;
    sim.try_serial(&mut arrays, |w, arrays| {
        *arrays = Some((
            TupleArray::new(w, data.r.len()),
            TupleArray::new(w, data.s.len()),
        ));
    })?;
    let (r_arr, s_arr) =
        arrays.ok_or(SimError::Harness { what: "join relations were not mapped".to_string() })?;
    // Disjoint per-thread partitions: shards across host threads with
    // deterministic epoch merges.
    sim.try_parallel_sharded(threads, &(), |w, ()| {
        for i in r_arr.partition(w.tid(), threads) {
            r_arr.write(w, i, data.r[i].key, data.r[i].payload);
        }
        for i in s_arr.partition(w.tid(), threads) {
            s_arr.write(w, i, data.s[i].key, data.s[i].payload);
        }
    })?;
    sim.phase_end();
    let load_cycles = sim.now_cycles();
    let counters_before = sim.counters();

    // Build: coordinator initialises the directory, workers fill it.
    let mut state = (table, heap);
    sim.phase_begin("join:build");
    sim.try_serial(&mut state, |w, (table, _)| table.init(w))?;
    sim.try_parallel(threads, &mut state, |w, (table, heap)| {
        // Tuple-at-once build scan (one bulk ranged read per batch).
        let range = r_arr.partition(w.tid(), threads);
        let mut batch = [(0u64, 0u64); 32];
        let mut i = range.start;
        while i < range.end {
            let n = (range.end - i).min(batch.len());
            r_arr.read_run(w, i, &mut batch[..n]);
            table.prefetch_batch(w, batch[..n].iter().map(|&(key, _)| key), Access::Write);
            for &(key, payload) in &batch[..n] {
                table.upsert(w, heap, key, payload, |_, _| {});
            }
            i += n;
        }
    })?;
    sim.phase_end();
    let build_cycles = sim.now_cycles() - load_cycles;

    // Probe: lock-free lookups against the now-frozen table, so the
    // phase shards across host threads; per-worker (matches, checksum)
    // pairs fold in tid order (sum and XOR are order-independent
    // anyway, but the fold order is pinned for byte-identity).
    let (table, _heap) = state;
    sim.phase_begin("join:probe");
    let (_, locals) = sim.try_parallel_sharded(threads, &table, |w, table| {
        let mut local_matches = 0u64;
        let mut local_sum = 0u64;
        // Tuple-at-once probe scan: the probe side streams through bulk
        // ranged reads; each hit costs one entry-at-once chain read. The
        // batch's heads and first entries are host-prefetched first.
        let range = s_arr.partition(w.tid(), threads);
        let mut batch = [(0u64, 0u64); 32];
        let mut i = range.start;
        while i < range.end {
            let n = (range.end - i).min(batch.len());
            s_arr.read_run(w, i, &mut batch[..n]);
            table.prefetch_batch(w, batch[..n].iter().map(|&(key, _)| key), Access::Read);
            for &(key, s_payload) in &batch[..n] {
                if let Some(r_payload) = table.get(w, key) {
                    local_matches += 1;
                    local_sum ^= r_payload.wrapping_mul(31).wrapping_add(s_payload);
                }
            }
            i += n;
        }
        (local_matches, local_sum)
    })?;
    sim.phase_end();
    let probe_cycles = sim.now_cycles() - load_cycles - build_cycles;
    let matches = locals.iter().map(|&(m, _)| m).sum();
    let checksum = locals.iter().fold(0u64, |acc, &(_, c)| acc ^ c);

    Ok(JoinOutcome {
        build_cycles,
        probe_cycles,
        load_cycles,
        matches,
        checksum,
        counters: sim.counters() - counters_before,
        trace: sim.take_trace(),
    })
}

/// Host-side reference join for verification.
pub fn reference_join(data: &JoinDataset) -> (u64, u64) {
    use std::collections::HashMap;
    let table: HashMap<u64, u64> = data.r.iter().map(|t| (t.key, t.payload)).collect();
    let mut matches = 0u64;
    let mut checksum = 0u64;
    for s in &data.s {
        if let Some(&r_payload) = table.get(&s.key) {
            matches += 1;
            checksum ^= r_payload.wrapping_mul(31).wrapping_add(s.payload);
        }
    }
    (matches, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_topology::machines;

    fn env() -> WorkloadEnv {
        WorkloadEnv::tuned(machines::machine_b()).with_threads(4)
    }

    #[test]
    fn join_matches_reference() {
        let data = JoinDataset::generate(500, 7);
        let (expect_matches, expect_checksum) = reference_join(&data);
        let out = try_run_hash_join_on(&env(), &data).unwrap();
        assert_eq!(out.matches, expect_matches);
        assert_eq!(out.matches, 500 * 16);
        assert_eq!(out.checksum, expect_checksum);
    }

    #[test]
    fn probe_dominates_build_at_ratio_16() {
        let data = JoinDataset::generate(400, 1);
        let out = try_run_hash_join_on(&env(), &data).unwrap();
        assert!(
            out.probe_cycles > out.build_cycles,
            "probe={} build={}",
            out.probe_cycles,
            out.build_cycles
        );
    }

    #[test]
    fn deterministic() {
        let data = JoinDataset::generate(200, 3);
        let a = try_run_hash_join_on(&env(), &data).unwrap();
        let b = try_run_hash_join_on(&env(), &data).unwrap();
        assert_eq!(a.build_cycles, b.build_cycles);
        assert_eq!(a.probe_cycles, b.probe_cycles);
        assert_eq!(a.checksum, b.checksum);
    }
}
