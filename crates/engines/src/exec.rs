//! The execution toolkit: parallel scan driver and operator cost
//! shadows (hash tables, sorts, materialisation).

use crate::profiles::EngineProfile;
use crate::storage::{TableShadow, TpchDb};
use nqp_query::EngineKind;
use nqp_sim::{Access, NumaSim, SimError, SimResult, VAddr, Worker};
use nqp_storage::{SimHeap, COLUMN_RUN_WORDS};

/// Cycles to hash a join/group key.
const HASH_CYCLES: u64 = 6;
/// Cycles per comparison in a sort.
const SORT_CMP_CYCLES: u64 = 4;
/// Bytes per shadow hash entry allocation.
const ENTRY_BYTES: u64 = 32;
/// Cycles charged per `LIKE`/substring predicate evaluation.
pub const LIKE_CYCLES: u64 = 24;

/// Lightweight context handed to query plans (profile + thread count +
/// operator architecture).
#[derive(Debug, Clone)]
pub struct QueryCtx {
    /// The engine architecture running the query.
    pub profile: EngineProfile,
    /// Worker threads for this query.
    pub threads: usize,
    /// Tuple-at-a-time (per-row interpretation overhead) or vectorized
    /// (overhead amortised over each batch of rows). Results are
    /// identical either way — only the charged cycles move.
    pub engine: EngineKind,
}

/// Cost shadow of a hash table (join build side or aggregation state):
/// a mapped slot region that probes and inserts touch, plus heap
/// allocations for entries.
#[derive(Debug, Clone, Copy)]
pub struct ShadowHash {
    region: VAddr,
    mask: u64,
}

impl ShadowHash {
    /// Map a shadow for roughly `capacity` keys.
    pub fn new(w: &mut Worker<'_>, capacity: usize) -> Self {
        let slots = (capacity.max(8) * 2).next_power_of_two() as u64;
        ShadowHash { region: w.map_pages_shared(slots * 16), mask: slots - 1 }
    }

    #[inline]
    fn slot(&self, key: u64) -> VAddr {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.region + (h & self.mask) * 16
    }

    /// Charge one probe of `key`.
    #[inline]
    pub fn probe(&self, w: &mut Worker<'_>, key: u64) {
        w.compute(HASH_CYCLES);
        w.touch(self.slot(key), 16, Access::Read);
    }

    /// Charge one insert of `key` (entry allocation + link).
    ///
    /// The slot region is deliberately *not* touched here: builds insert
    /// from whichever worker runs them, but the table is accessed by all
    /// probers, and leaving the first touch to the probe side models the
    /// page spreading a genuinely parallel build produces. The linking
    /// work is charged as compute instead.
    #[inline]
    pub fn insert(&self, w: &mut Worker<'_>, heap: &mut SimHeap, key: u64) {
        w.compute(HASH_CYCLES + 10);
        let entry = heap.alloc(w, ENTRY_BYTES);
        w.write_u64(entry, key);
    }

    /// Charge an in-place aggregate update for `key` (probe + write to
    /// the entry's accumulator region).
    #[inline]
    pub fn update(&self, w: &mut Worker<'_>, key: u64) {
        w.compute(HASH_CYCLES);
        w.touch(self.slot(key), 16, Access::Write);
    }
}

/// Charge a sort of `n` rows (comparison work only; the rows themselves
/// were charged as they were produced).
pub fn charge_sort(w: &mut Worker<'_>, n: usize) {
    if n > 1 {
        let n = n as u64;
        w.compute(SORT_CMP_CYCLES * n * (64 - n.leading_zeros() as u64));
    }
}

/// Charge the materialisation of an intermediate result of `rows` rows
/// of `width` bytes, when the profile is an operator-at-a-time engine:
/// allocate the buffer from the heap and write every line.
pub fn maybe_materialize(
    w: &mut Worker<'_>,
    heap: &mut SimHeap,
    profile: &EngineProfile,
    rows: usize,
    width: u64,
) {
    if !profile.materialises || rows == 0 {
        return;
    }
    let bytes = rows as u64 * width;
    let buf = heap.alloc(w, bytes);
    w.touch(buf, bytes, Access::Write);
    heap.free(w, buf, bytes);
}

/// Run a query phase: `build` executes once on worker 0 (hash-table
/// construction, sub-plans), then every worker scans its partition of
/// `table`, and `merge` combines the per-thread locals. The simulator
/// executes workers in order, so worker 0's build is visible to all.
/// The plan resolves `table` and the column handles `per_row` charges
/// once, before the phase.
///
/// Fails with the simulator's fault, or with [`SimError::Harness`] if
/// the build or merge step did not run.
pub fn scan_phase<B, L, FB, FR, FM, R>(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
    table: &TableShadow,
    build: FB,
    per_row: FR,
    merge: FM,
) -> SimResult<R>
where
    L: Default,
    FB: FnOnce(&mut Worker<'_>, &mut SimHeap, &TpchDb) -> B,
    FR: Fn(&mut Worker<'_>, &mut SimHeap, &TpchDb, &B, usize, &mut L),
    FM: FnOnce(&mut Worker<'_>, &mut SimHeap, B, Vec<L>) -> R,
{
    struct Shared<'h, B, L> {
        heap: &'h mut SimHeap,
        build: Option<B>,
        locals: Vec<L>,
    }
    let name = table.name();
    let missing = |what: &str| SimError::Harness { what: format!("scan:{name}: {what}") };
    let mut shared = Shared { heap, build: None, locals: Vec::new() };
    let mut build = Some(build);
    let overhead = ctx.profile.row_overhead_cycles;
    let startup = ctx.profile.phase_startup_cycles;
    let engine = ctx.engine;
    sim.phase_begin(&format!("scan:{name}"));
    sim.try_parallel(ctx.threads, &mut shared, |w, sh| {
        if w.tid() == 0 {
            // Per-phase coordination cost (process pools pay dearly here).
            w.compute(startup);
            if let Some(f) = build.take() {
                sh.build = Some(f(w, sh.heap, db));
            }
        }
        let Some(b) = sh.build.as_ref() else { return };
        let mut local = L::default();
        let range = table.partition(w.tid(), ctx.threads);
        for (i, row) in range.enumerate() {
            match engine {
                // Per-row interpretation overhead: the classic Volcano
                // next() tax every profile pays in the paper.
                EngineKind::Tuple => w.compute(overhead),
                // Batch-at-a-time: the same interpretation overhead is
                // paid once per vector of rows, amortising the tax —
                // the engine-profile face of the vectorized path.
                EngineKind::Vectorized => {
                    if i % COLUMN_RUN_WORDS == 0 {
                        w.compute(overhead);
                    }
                }
            }
            per_row(w, sh.heap, db, b, row, &mut local);
        }
        sh.locals.push(local);
    })?;
    let built = shared.build.ok_or_else(|| missing("the build step did not run"))?;
    // Merge on a single worker (the coordinator).
    let mut out: Option<R> = None;
    let mut merge = Some((merge, built));
    let mut m_shared = (shared.heap, shared.locals, &mut out);
    sim.try_serial(&mut m_shared, |w, (heap, locals, out)| {
        if let Some((f, b)) = merge.take() {
            **out = Some(f(w, heap, b, std::mem::take(locals)));
        }
    })?;
    sim.phase_end();
    out.ok_or_else(|| missing("the merge step did not run"))
}

/// Run a final coordinator step (sorting, result materialisation) in a
/// serial region.
pub fn finish(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    f: impl FnOnce(&mut Worker<'_>, &mut SimHeap),
) -> SimResult<()> {
    let mut f = Some(f);
    sim.try_serial(heap, |w, heap| {
        if let Some(f) = f.take() {
            f(w, heap);
        }
    })?;
    Ok(())
}

/// Deterministic hash map used by every query plan, keyed through the
/// simulator's word-at-a-time mixer ([`nqp_sim::MixBuildHasher`]: one
/// multiply per 8-byte word, no per-process seed). Iteration order is
/// fixed across runs but is not a defined order: a plan that charges
/// the model while iterating a map must iterate its keys sorted (or
/// allocate addresses that do not depend on the order), so the hasher
/// moves host time only.
pub type Map<K, V> = std::collections::HashMap<K, V, nqp_sim::MixBuildHasher>;

/// Deterministic hash set used by every query plan (see [`Map`]).
pub type Set<K> = std::collections::HashSet<K, nqp_sim::MixBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{Layout, SystemKind};
    use nqp_alloc::AllocatorKind;
    use nqp_datagen::tpch::TpchData;
    use nqp_sim::SimConfig;
    use nqp_topology::machines;

    fn setup() -> (NumaSim, SimHeap, TpchDb) {
        let mut sim = NumaSim::new(SimConfig::tuned(machines::machine_b()));
        let mut heap = SimHeap::new(AllocatorKind::Tbbmalloc, &mut sim).unwrap();
        let data = TpchData::generate(0.001, 5);
        let db = TpchDb::load(&mut sim, &mut heap, &data, Layout::Column, 2).unwrap();
        (sim, heap, db)
    }

    #[test]
    fn scan_phase_visits_every_row_once() {
        let (mut sim, mut heap, db) = setup();
        let ctx = QueryCtx {
            profile: SystemKind::QuickstepLike.profile(),
            threads: 3,
            engine: EngineKind::Tuple,
        };
        let total = scan_phase(
            &mut sim,
            &mut heap,
            &db,
            &ctx,
            db.table("orders").unwrap(),
            |_, _, _| (),
            |_, _, _, _, _row, local: &mut usize| *local += 1,
            |_, _, _, locals| locals.iter().sum::<usize>(),
        )
        .unwrap();
        assert_eq!(total, db.table("orders").unwrap().nrows());
    }

    #[test]
    fn build_runs_once_and_is_visible_to_all_workers() {
        let (mut sim, mut heap, db) = setup();
        let ctx = QueryCtx {
            profile: SystemKind::MonetDbLike.profile(),
            threads: 4,
            engine: EngineKind::Tuple,
        };
        let seen = scan_phase(
            &mut sim,
            &mut heap,
            &db,
            &ctx,
            db.table("nation").unwrap(),
            |_, _, _| 42u64,
            |_, _, _, b, _, local: &mut Vec<u64>| local.push(*b),
            |_, _, b, locals| {
                assert_eq!(b, 42);
                locals.into_iter().flatten().collect::<Vec<_>>()
            },
        )
        .unwrap();
        assert!(seen.iter().all(|&v| v == 42));
        assert_eq!(seen.len(), 25);
    }

    #[test]
    fn shadow_hash_charges_cycles() {
        let (mut sim, mut heap, _db) = setup();
        let before = sim.now_cycles();
        sim.try_serial(&mut heap, |w, heap| {
            let h = ShadowHash::new(w, 100);
            for k in 0..100 {
                h.insert(w, heap, k);
            }
            for k in 0..100 {
                h.probe(w, k);
                h.update(w, k);
            }
        }).unwrap();
        assert!(sim.now_cycles() > before);
        assert!(heap.live_requested() >= 100 * ENTRY_BYTES);
    }

    #[test]
    fn materialisation_only_for_materialising_profiles() {
        let (mut sim, mut heap, _db) = setup();
        let monet = SystemKind::MonetDbLike.profile();
        let quick = SystemKind::QuickstepLike.profile();
        let mut costs = Vec::new();
        for p in [quick, monet] {
            let before = sim.now_cycles();
            sim.try_serial(&mut heap, |w, heap| {
                maybe_materialize(w, heap, &p, 1_000, 32);
            }).unwrap();
            costs.push(sim.now_cycles() - before);
        }
        assert!(costs[1] > costs[0] * 5, "monet={} quick={}", costs[1], costs[0]);
    }

    #[test]
    fn sort_cost_is_n_log_n() {
        let (mut sim, _, _) = setup();
        let mut cost = |n: usize| {
            let before = sim.counters().compute_cycles;
            sim.try_serial(&mut (), |w, _| charge_sort(w, n)).unwrap();
            sim.counters().compute_cycles - before
        };
        let c1k = cost(1_000);
        let c4k = cost(4_000);
        assert!(c4k > 4 * c1k && c4k < 8 * c1k, "c1k={c1k} c4k={c4k}");
        assert_eq!(cost(1), 0);
    }
}
