//! W4: index nested-loop join over a pre-built in-memory index.
//!
//! Same data as W3, but the build relation is indexed once (ART,
//! Masstree, B+tree, or Skip List) and the probe relation drives point
//! lookups. Because the index is pre-built, the join phase performs few
//! allocations; lookup path length and node locality dominate — which is
//! why W4's allocator gains are smaller than W3's (§IV-F) and why the
//! *index structure* is the interesting axis (Figure 7).

use crate::runner::WorkloadEnv;
use nqp_datagen::JoinDataset;
use nqp_indexes::{build_index, IndexKind};
use nqp_sim::{Counters, NumaSim, SimError, SimResult};
use nqp_storage::{SimHeap, TupleArray};

/// Result of one W4 run.
#[derive(Debug, Clone)]
pub struct InlOutcome {
    /// Cycles to build the index over R (Figure 7e's build time).
    pub build_cycles: u64,
    /// Cycles of the join itself (Figure 7a–7e's join time).
    pub join_cycles: u64,
    /// Matched probe tuples.
    pub matches: u64,
    /// XOR mix over joined pairs, comparable with W3's reference.
    pub checksum: u64,
    /// Counters over build + join.
    pub counters: Counters,
    /// The finalised trace log when `env.sim.trace` was set, else None.
    pub trace: Option<nqp_sim::TraceLog>,
}

/// Run W4 under `env` over a pre-generated dataset with index `kind`:
/// returns the fault (OOM under a strict `Bind`, an injected allocation
/// failure, a budget timeout, a passed deadline) as a typed error.
pub fn try_run_inl_join_on(
    env: &WorkloadEnv,
    kind: IndexKind,
    data: &JoinDataset,
) -> SimResult<InlOutcome> {
    if env.engine == crate::runner::EngineKind::Vectorized {
        return crate::vector::try_run_inl_join_vec(env, kind, data);
    }
    let mut sim = NumaSim::new(env.sim.clone());
    let heap = SimHeap::new(env.allocator, &mut sim)?;
    let threads = env.threads;

    // Load the probe relation partition-parallel (build side feeds the
    // index directly from host memory during the build phase).
    sim.phase_begin("load");
    let mut s_arr: Option<TupleArray> = None;
    sim.try_serial(&mut s_arr, |w, s_arr| {
        *s_arr = Some(TupleArray::new(w, data.s.len()));
    })?;
    let s_arr = s_arr.ok_or(SimError::Harness { what: "probe relation was not mapped".to_string() })?;
    // Disjoint per-thread partitions: shards across host threads with
    // deterministic epoch merges.
    sim.try_parallel_sharded(threads, &(), |w, ()| {
        for i in s_arr.partition(w.tid(), threads) {
            s_arr.write(w, i, data.s[i].key, data.s[i].payload);
        }
    })?;
    sim.phase_end();
    let counters_start = sim.counters();
    let start = sim.now_cycles();

    // Build the index single-threaded, as a pre-built index would be —
    // the paper measures build time separately (Figure 7e).
    let index = build_index(kind);
    let mut state = (index, heap);
    sim.phase_begin("inl:build");
    sim.try_serial(&mut state, |w, (index, heap)| {
        for t in &data.r {
            index.insert(w, heap, t.key, t.payload);
        }
    })?;
    sim.phase_end();
    let build_cycles = sim.now_cycles() - start;

    // Parallel join: read-only probes against the now-frozen index, so
    // the phase shards across host threads; per-worker (matches,
    // checksum) pairs fold in tid order.
    let (index, _heap) = state;
    sim.phase_begin("inl:join");
    let (_, locals) = sim.try_parallel_sharded(threads, &index, |w, index| {
        let mut local_matches = 0u64;
        let mut local_sum = 0u64;
        // Tuple-at-once probe scan over the S relation.
        let range = s_arr.partition(w.tid(), threads);
        let mut batch = [(0u64, 0u64); 32];
        let mut i = range.start;
        while i < range.end {
            let n = (range.end - i).min(batch.len());
            s_arr.read_run(w, i, &mut batch[..n]);
            for &(key, s_payload) in &batch[..n] {
                if let Some(r_payload) = index.get(w, key) {
                    local_matches += 1;
                    local_sum ^= r_payload.wrapping_mul(31).wrapping_add(s_payload);
                }
            }
            i += n;
        }
        (local_matches, local_sum)
    })?;
    sim.phase_end();
    let join_cycles = sim.now_cycles() - start - build_cycles;
    let matches = locals.iter().map(|&(m, _)| m).sum();
    let checksum = locals.iter().fold(0u64, |acc, &(_, c)| acc ^ c);

    Ok(InlOutcome {
        build_cycles,
        join_cycles,
        matches,
        checksum,
        counters: sim.counters() - counters_start,
        trace: sim.take_trace(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_join::reference_join;
    use nqp_topology::machines;

    fn env() -> WorkloadEnv {
        WorkloadEnv::tuned(machines::machine_b()).with_threads(4)
    }

    #[test]
    fn all_indexes_agree_with_the_hash_join_reference() {
        let data = JoinDataset::generate(300, 11);
        let (expect_matches, expect_checksum) = reference_join(&data);
        for kind in IndexKind::ALL {
            let out = try_run_inl_join_on(&env(), kind, &data).unwrap();
            assert_eq!(out.matches, expect_matches, "{kind:?}");
            assert_eq!(out.checksum, expect_checksum, "{kind:?}");
            assert!(out.build_cycles > 0 && out.join_cycles > 0, "{kind:?}");
        }
    }

    #[test]
    fn art_and_btree_probe_faster_than_skiplist() {
        // Figure 7e: ART and B+tree are the two fastest indexes; the
        // skip list's long pointer chains make it the slowest prober.
        let data = JoinDataset::generate(2_000, 13);
        let run = |k| try_run_inl_join_on(&env(), k, &data).unwrap().join_cycles;
        let (art, btree, skip) = (
            run(IndexKind::Art),
            run(IndexKind::BPlusTree),
            run(IndexKind::SkipList),
        );
        assert!(art < skip, "art={art} skip={skip}");
        assert!(btree < skip, "btree={btree} skip={skip}");
    }

    #[test]
    fn deterministic() {
        let data = JoinDataset::generate_with_ratio(150, 8, 5);
        let a = try_run_inl_join_on(&env(), IndexKind::BPlusTree, &data).unwrap();
        let b = try_run_inl_join_on(&env(), IndexKind::BPlusTree, &data).unwrap();
        assert_eq!(a.join_cycles, b.join_cycles);
        assert_eq!(a.checksum, b.checksum);
    }
}
