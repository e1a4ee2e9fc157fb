//! The vectorized batch-at-a-time operator path (`EngineKind::Vectorized`).
//!
//! Same queries, same answers, different engine: where the tuple-at-a-time
//! path drives a striped-lock chained hash table one record at a time, this
//! path scans [`ColumnTable`] relations in batches of column runs, filters
//! through a selection vector, and aggregates/joins through *perfect-hash
//! slot arrays* — dense arrays indexed directly by key, which is exact for
//! this workspace because every generator draws keys from a dense domain
//! (`key < cardinality` for W1/W2; the W3/W4 build side is a permutation
//! of `0..r_size`).
//!
//! ## Identity contract
//!
//! The tuple path stays in the tree as the differential oracle (the PR-5
//! pattern): both engines must produce **byte-identical query results** —
//! checksums, group counts, match counts — on every input, pinned by
//! proptest differentials in `tests/vector.rs`. Simulated *cycles and
//! traffic counters* legitimately differ between the engines (that delta
//! is the experiment; see EXPERIMENTS.md §vectorized-vs-tuple), but the
//! vectorized path is itself byte-identical across `--jobs`, `--shards`,
//! tracing, fault plans and kill-and-resume: all simulated transfers
//! move in fixed [`COLUMN_RUN_WORDS`]-word runs, and each [`Batch`] holds
//! exactly one such run.

use crate::aggregate::{AggConfig, AggKind, AggOutcome};
use crate::hash_join::JoinOutcome;
use crate::inl_join::InlOutcome;
use crate::runner::WorkloadEnv;
use nqp_datagen::{JoinDataset, Record};
use nqp_indexes::{build_index, IndexKind};
use nqp_sim::{Access, NumaSim, SimError, SimResult};
use nqp_storage::{Chain, ColumnArray, ColumnTable, SimHeap, COLUMN_RUN_WORDS};

/// Cost charged per comparison while sorting a group's values (median);
/// must match the tuple path so medians cost the same arithmetic.
const SORT_CMP_CYCLES: u64 = 3;

/// A batch of gathered column runs plus the selection vector that
/// operators downstream of a filter consume. `sel` holds the lane
/// indices (into `keys`/`vals`) that survive the operator chain so far;
/// compacting it is how a batched filter "drops" rows without moving
/// any data.
#[derive(Debug, Default)]
pub struct Batch {
    /// Gathered key-column values for the current run of rows.
    pub keys: Vec<u64>,
    /// Gathered value/payload-column values; left empty while an
    /// operator projects the column away.
    pub vals: Vec<u64>,
    /// Selection vector: surviving lane indices, ascending.
    pub sel: Vec<u32>,
}

impl Batch {
    /// A batch with room for `cap` lanes.
    pub fn with_capacity(cap: usize) -> Self {
        Batch {
            keys: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
            sel: Vec::with_capacity(cap),
        }
    }

    /// Select every one of the first `n` lanes (the state after an
    /// unfiltered scan).
    pub fn select_all(&mut self, n: usize) {
        self.sel.clear();
        self.sel.extend(0..n as u32);
    }

    /// Number of selected lanes.
    pub fn selected(&self) -> usize {
        self.sel.len()
    }
}

/// Load records into a [`ColumnTable`] with the same partition-parallel,
/// shardable first-touch pass as the tuple loader — each thread bulk-
/// writes its own contiguous slice of both columns.
fn try_load_columns(
    sim: &mut NumaSim,
    records: &[Record],
    threads: usize,
) -> SimResult<ColumnTable> {
    let mut table: Option<ColumnTable> = None;
    sim.try_serial(&mut table, |w, table| {
        *table = Some(ColumnTable::new(w, records.len().max(1)));
    })?;
    let table =
        table.ok_or(SimError::Harness { what: "column table was not mapped".to_string() })?;
    sim.try_parallel_sharded(threads, &(), |w, ()| {
        let range = table.partition(w.tid(), threads);
        if range.is_empty() {
            return;
        }
        let keys: Vec<u64> = records[range.clone()].iter().map(|r| r.key).collect();
        let vals: Vec<u64> = records[range.clone()].iter().map(|r| r.val).collect();
        table.keys.write_run(w, range.start, &keys);
        table.vals.write_run(w, range.start, &vals);
    })?;
    Ok(table)
}

/// Load one side of a join dataset (`(key, payload)` rows) column-wise.
fn try_load_join_columns(
    sim: &mut NumaSim,
    rows: &[nqp_datagen::Tuple],
    threads: usize,
) -> SimResult<ColumnTable> {
    let mut table: Option<ColumnTable> = None;
    sim.try_serial(&mut table, |w, table| {
        *table = Some(ColumnTable::new(w, rows.len().max(1)));
    })?;
    let table =
        table.ok_or(SimError::Harness { what: "column table was not mapped".to_string() })?;
    sim.try_parallel_sharded(threads, &(), |w, ()| {
        let range = table.partition(w.tid(), threads);
        if range.is_empty() {
            return;
        }
        let keys: Vec<u64> = rows[range.clone()].iter().map(|t| t.key).collect();
        let vals: Vec<u64> = rows[range.clone()].iter().map(|t| t.payload).collect();
        table.keys.write_run(w, range.start, &keys);
        table.vals.write_run(w, range.start, &vals);
    })?;
    Ok(table)
}

/// Vectorized W1/W2: batched column scan feeding perfect-hash
/// aggregation into a fixed slot array indexed directly by group key.
///
/// W2 (COUNT) projects the value column away entirely — the query phases
/// never touch its pages. W1 (MEDIAN) anchors the same per-group value
/// [`Chain`]s as the tuple path at `slot[key]`, so it keeps the
/// one-allocation-per-record property the paper's Figure 6 leans on.
pub(crate) fn try_run_aggregation_vec(
    env: &WorkloadEnv,
    cfg: &AggConfig,
    records: &[Record],
) -> SimResult<AggOutcome> {
    let mut sim = NumaSim::new(env.sim.clone());
    let mut heap = SimHeap::new(env.allocator, &mut sim)?;
    let threads = env.threads;
    let nslots = cfg.cardinality.max(1) as usize;

    sim.phase_begin("load");
    let input = try_load_columns(&mut sim, records, threads)?;
    sim.phase_end();
    let load_cycles = sim.now_cycles();
    let counters_before = sim.counters();

    // Coordinator maps and zeroes the slot array (first-touch lands it
    // on the coordinator's node — the same §IV-C placement pathology the
    // tuple path's directory has, so the NUMA knobs act on both engines).
    let mut regions = Vec::new();
    let interleaved = cfg.interleaved_table;
    let mut slots_opt: Option<ColumnArray> = None;
    sim.phase_begin("agg:init");
    regions.push(sim.try_serial(&mut slots_opt, |w, slots| {
        let arr = if interleaved {
            ColumnArray::new_interleaved(w, nslots)
        } else {
            ColumnArray::new(w, nslots)
        };
        arr.write_run(w, 0, &vec![0u64; nslots]);
        *slots = Some(arr);
    })?);
    sim.phase_end();
    let slots =
        slots_opt.ok_or(SimError::Harness { what: "slot array was not mapped".to_string() })?;

    // Parallel build: each thread scans its morsel in batches of column
    // runs and aggregates straight into the shared slots. Writes hit
    // shared addresses (two threads may hold the same key), so this
    // phase uses the plain parallel region, exactly like the tuple
    // path's table build.
    let kind = cfg.kind;
    sim.phase_begin("agg:build");
    regions.push(sim.try_parallel(threads, &mut heap, |w, heap| {
        let range = input.partition(w.tid(), threads);
        let mut b = Batch::with_capacity(COLUMN_RUN_WORDS);
        // The simulated stream always moves one run-width vector at a
        // time — one bulk key read, then that vector's slot ops.
        let mut i = range.start;
        while i < range.end {
            let n = (range.end - i).min(COLUMN_RUN_WORDS);
            b.keys.resize(n, 0);
            input.keys.read_run(w, i, &mut b.keys[..n]);
            match kind {
                AggKind::DistributiveCount => {
                    // Value column projected away: one RMW per row.
                    for lane in 0..n {
                        let key = b.keys[lane] as usize;
                        w.rmw_u64(slots.addr_of(key), |c| c + 1);
                    }
                }
                AggKind::HolisticMedian => {
                    b.vals.resize(n, 0);
                    input.vals.read_run(w, i, &mut b.vals[..n]);
                    for lane in 0..n {
                        let key = b.keys[lane] as usize;
                        // slot[key] holds the chain head; push allocates
                        // between the head read and the write-back, so
                        // this stays a genuine read-then-write.
                        let head = w.read_u64(slots.addr_of(key));
                        let mut chain = Chain::from_head(head);
                        chain.push(w, heap, b.vals[lane]);
                        w.write_u64(slots.addr_of(key), chain.head());
                    }
                }
            }
            i += n;
        }
    })?);
    sim.phase_end();

    // Parallel finalize: scan the slot array in bulk runs — read-only
    // against frozen state, so it shards across host threads; the
    // per-worker result vectors come back in ascending-tid order.
    sim.phase_begin("agg:finalize");
    let (stats, locals) = sim.try_parallel_sharded(threads, &(), |w, ()| {
        let srange = slots.partition(w.tid(), threads);
        let mut buf = [0u64; COLUMN_RUN_WORDS];
        let mut local: Vec<(u64, u64, u64)> = Vec::new();
        let tid = w.tid() as u64;
        let mut i = srange.start;
        while i < srange.end {
            let n = (srange.end - i).min(COLUMN_RUN_WORDS);
            slots.read_run(w, i, &mut buf[..n]);
            if kind == AggKind::HolisticMedian {
                // Host hints: the run's chain heads, then their second
                // nodes, before the walks below charge them in order.
                w.prefetch_group(buf[..n].iter().copied().filter(|&h| h != 0), Access::Read);
            }
            for (j, &slot) in buf[..n].iter().enumerate() {
                if slot == 0 {
                    continue;
                }
                let key = (i + j) as u64;
                let agg = match kind {
                    AggKind::DistributiveCount => slot,
                    AggKind::HolisticMedian => {
                        let chain = Chain::from_head(slot);
                        let mut values = chain.collect(w);
                        let n = values.len().max(1) as u64;
                        w.compute(SORT_CMP_CYCLES * n * (64 - n.leading_zeros()) as u64);
                        values.sort_unstable();
                        values[values.len() / 2]
                    }
                };
                local.push((tid, key, agg));
            }
            i += n;
        }
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
        counters: sim.counters() - counters_before,
        regions,
        trace: sim.take_trace(),
    })
}

/// Vectorized W3: perfect-hash join. The build side's keys are dense
/// (`JoinDataset` builds a permutation of `0..r_size`), so the "hash
/// table" degenerates into two slot arrays indexed by key — an occupancy
/// tag and the payload — and the probe becomes gather + selection-vector
/// filter + late payload gather (the probe-side payload column is only
/// read for batches that have at least one match).
pub(crate) fn try_run_hash_join_vec(
    env: &WorkloadEnv,
    data: &JoinDataset,
) -> SimResult<JoinOutcome> {
    let mut sim = NumaSim::new(env.sim.clone());
    let threads = env.threads;
    // Perfect-hash domain: dense build keys make max+1 slots exact.
    let nslots = data.r.iter().map(|t| t.key).max().map_or(1, |m| m as usize + 1);

    sim.phase_begin("load");
    let r_cols = try_load_join_columns(&mut sim, &data.r, threads)?;
    let s_cols = try_load_join_columns(&mut sim, &data.s, threads)?;
    sim.phase_end();
    let load_cycles = sim.now_cycles();
    let counters_before = sim.counters();

    // Build: coordinator maps + zeroes the tag array (payload slots are
    // only ever read through a set tag, so they need no zeroing pass),
    // then workers scatter their morsels into the slots. Scatter
    // addresses are disjoint (build keys are unique) but interleave
    // across threads, so the fill uses the plain parallel region.
    let mut built: Option<(ColumnArray, ColumnArray)> = None;
    sim.phase_begin("join:build");
    sim.try_serial(&mut built, |w, built| {
        let tags = ColumnArray::new(w, nslots);
        let payloads = ColumnArray::new(w, nslots);
        tags.write_run(w, 0, &vec![0u64; nslots]);
        *built = Some((tags, payloads));
    })?;
    let (tags, payloads) =
        built.ok_or(SimError::Harness { what: "join slots were not mapped".to_string() })?;
    sim.try_parallel(threads, &mut (), |w, ()| {
        let range = r_cols.partition(w.tid(), threads);
        let mut b = Batch::with_capacity(COLUMN_RUN_WORDS);
        let mut i = range.start;
        while i < range.end {
            let n = (range.end - i).min(COLUMN_RUN_WORDS);
            b.keys.resize(n, 0);
            b.vals.resize(n, 0);
            r_cols.keys.read_run(w, i, &mut b.keys[..n]);
            r_cols.vals.read_run(w, i, &mut b.vals[..n]);
            for lane in 0..n {
                let key = b.keys[lane] as usize;
                w.write_u64(tags.addr_of(key), b.keys[lane] + 1);
                w.write_u64(payloads.addr_of(key), b.vals[lane]);
            }
            i += n;
        }
    })?;
    sim.phase_end();
    let build_cycles = sim.now_cycles() - load_cycles;

    // Probe: batched scan of the S key column, tag gather as the filter
    // compacting the selection vector, then the S payload run and the
    // build payload gather only for surviving lanes. Read-only against
    // frozen state, so the phase shards across host threads.
    sim.phase_begin("join:probe");
    let (_, locals) = sim.try_parallel_sharded(threads, &(), |w, ()| {
        let mut local_matches = 0u64;
        let mut local_sum = 0u64;
        let range = s_cols.partition(w.tid(), threads);
        let mut b = Batch::with_capacity(COLUMN_RUN_WORDS);
        let mut i = range.start;
        while i < range.end {
            let n = (range.end - i).min(COLUMN_RUN_WORDS);
            b.keys.resize(n, 0);
            s_cols.keys.read_run(w, i, &mut b.keys[..n]);
            b.sel.clear();
            for lane in 0..n {
                let key = b.keys[lane] as usize;
                if key < nslots && w.read_u64(tags.addr_of(key)) != 0 {
                    b.sel.push(lane as u32);
                }
            }
            if !b.sel.is_empty() {
                b.vals.resize(n, 0);
                s_cols.vals.read_run(w, i, &mut b.vals[..n]);
                for &lane in &b.sel {
                    let key = b.keys[lane as usize] as usize;
                    let r_payload = w.read_u64(payloads.addr_of(key));
                    local_matches += 1;
                    local_sum ^=
                        r_payload.wrapping_mul(31).wrapping_add(b.vals[lane as usize]);
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

/// Vectorized W4: batched column scan of the probe relation driving
/// point lookups through the same pre-built index as the tuple path
/// (the index *is* the workload axis, so both engines share it); the
/// lookup outcome is the filter, and the probe-side payload column is
/// gathered late, only for batches with at least one hit.
pub(crate) fn try_run_inl_join_vec(
    env: &WorkloadEnv,
    kind: IndexKind,
    data: &JoinDataset,
) -> SimResult<InlOutcome> {
    let mut sim = NumaSim::new(env.sim.clone());
    let heap = SimHeap::new(env.allocator, &mut sim)?;
    let threads = env.threads;

    sim.phase_begin("load");
    let s_cols = try_load_join_columns(&mut sim, &data.s, threads)?;
    sim.phase_end();
    let counters_start = sim.counters();
    let start = sim.now_cycles();

    // Build the index single-threaded, exactly as the tuple path does —
    // same structure, same insert order, same build cost.
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

    let (index, _heap) = state;
    sim.phase_begin("inl:join");
    let (_, locals) = sim.try_parallel_sharded(threads, &index, |w, index| {
        let mut local_matches = 0u64;
        let mut local_sum = 0u64;
        let range = s_cols.partition(w.tid(), threads);
        let mut b = Batch::with_capacity(COLUMN_RUN_WORDS);
        let mut hits: Vec<u64> = Vec::with_capacity(COLUMN_RUN_WORDS);
        let mut i = range.start;
        while i < range.end {
            let n = (range.end - i).min(COLUMN_RUN_WORDS);
            b.keys.resize(n, 0);
            s_cols.keys.read_run(w, i, &mut b.keys[..n]);
            b.sel.clear();
            hits.clear();
            for lane in 0..n {
                if let Some(r_payload) = index.get(w, b.keys[lane]) {
                    b.sel.push(lane as u32);
                    hits.push(r_payload);
                }
            }
            if !b.sel.is_empty() {
                b.vals.resize(n, 0);
                s_cols.vals.read_run(w, i, &mut b.vals[..n]);
                for (j, &lane) in b.sel.iter().enumerate() {
                    local_matches += 1;
                    local_sum ^=
                        hits[j].wrapping_mul(31).wrapping_add(b.vals[lane as usize]);
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
    use crate::aggregate::reference_checksum;
    use crate::hash_join::reference_join;
    use crate::runner::EngineKind;
    use nqp_datagen::generate;
    use nqp_topology::machines;

    fn env() -> WorkloadEnv {
        WorkloadEnv::tuned(machines::machine_b())
            .with_threads(4)
            .with_engine(EngineKind::Vectorized)
    }

    #[test]
    fn vec_w2_counts_match_reference() {
        let cfg = AggConfig::w2(5_000, 100, 3);
        let records = generate(cfg.dataset, cfg.n, cfg.cardinality, cfg.seed);
        let (expect, expect_groups) = reference_checksum(&records, cfg.kind);
        let out = crate::try_run_aggregation_on(&env(), &cfg, &records).unwrap();
        assert_eq!(out.groups, expect_groups);
        assert_eq!(out.checksum, expect);
        assert!(out.exec_cycles > 0);
    }

    #[test]
    fn vec_w1_medians_match_reference() {
        let cfg = AggConfig::w1(3_000, 50, 4);
        let records = generate(cfg.dataset, cfg.n, cfg.cardinality, cfg.seed);
        let (expect, expect_groups) = reference_checksum(&records, cfg.kind);
        let out = crate::try_run_aggregation_on(&env(), &cfg, &records).unwrap();
        assert_eq!(out.groups, expect_groups);
        assert_eq!(out.checksum, expect);
    }

    #[test]
    fn vec_w3_matches_reference() {
        let data = JoinDataset::generate(500, 7);
        let (expect_matches, expect_checksum) = reference_join(&data);
        let out = crate::try_run_hash_join_on(&env(), &data).unwrap();
        assert_eq!(out.matches, expect_matches);
        assert_eq!(out.checksum, expect_checksum);
    }

    #[test]
    fn vec_w4_matches_reference() {
        let data = JoinDataset::generate(300, 11);
        let (expect_matches, expect_checksum) = reference_join(&data);
        for kind in IndexKind::ALL {
            let out = crate::try_run_inl_join_on(&env(), kind, &data).unwrap();
            assert_eq!(out.matches, expect_matches, "{kind:?}");
            assert_eq!(out.checksum, expect_checksum, "{kind:?}");
        }
    }

    #[test]
    fn w2_projects_the_value_column_away() {
        // The query phases of a vectorized COUNT never touch the value
        // column: total query-phase traffic must not grow when the
        // value column's contents change. (Cheap proxy: byte-identical
        // counters for different val contents.)
        let cfg = AggConfig::w2(2_000, 32, 9);
        let mut records = generate(cfg.dataset, cfg.n, cfg.cardinality, cfg.seed);
        let a = try_run_aggregation_vec(&env(), &cfg, &records).unwrap();
        for r in &mut records {
            r.val = r.val.wrapping_mul(7).wrapping_add(13);
        }
        let b = try_run_aggregation_vec(&env(), &cfg, &records).unwrap();
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn selection_vector_filters_lanes() {
        let mut b = Batch::with_capacity(8);
        b.keys = vec![5, 6, 7, 8];
        b.select_all(4);
        assert_eq!(b.selected(), 4);
        let keys = b.keys.clone();
        b.sel.retain(|&lane| keys[lane as usize] % 2 == 0);
        assert_eq!(b.sel, vec![1, 3]);
    }
}
