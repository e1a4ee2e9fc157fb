//! Workload W5: a mini relational engine running all 22 TPC-H queries
//! under five *system architecture profiles* that mirror the databases
//! the paper evaluates (MonetDB, PostgreSQL, MySQL, DBMSx, Quickstep).
//!
//! # Execution & cost model
//!
//! Query *results* are computed exactly, on host-side data, so every
//! profile must return identical rows (a strong cross-check used by the
//! tests). Query *costs* are charged to the NUMA simulator through a
//! shadow of each physical actor:
//!
//! * base table columns/rows live in mapped simulated memory; scans
//!   touch them with the layout's real stride (row stores drag whole
//!   tuples through the cache, column stores only the used columns);
//! * hash joins and aggregations touch a shadow table region and
//!   allocate entries from the profile's [`SimHeap`] allocator;
//! * materialising engines (MonetDB-style) write out intermediate
//!   results, which is what makes them allocator-sensitive (Figure 9);
//! * parallelism follows the profile: partitioned scans across worker
//!   threads, pipeline-breaking builds on thread 0.
//!
//! This layering (exact values, shadowed costs) is documented in
//! DESIGN.md; workloads W1–W4 are fully simulator-resident instead.

mod error;
mod exec;
mod profiles;
mod queries;
mod storage;
mod value;

pub use error::EngineError;
pub use exec::{QueryCtx, ShadowHash};
pub use profiles::{EngineProfile, Layout, SystemKind};
pub use queries::{query_name, try_run_query, QUERY_COUNT};
pub use storage::TpchDb;
pub use value::{Row, Value};

use nqp_query::WorkloadEnv;
use nqp_sim::{NumaSim, SimResult};
use nqp_storage::SimHeap;

/// Outcome of one query execution.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Simulated cycles of the (warm) query execution.
    pub latency_cycles: u64,
    /// The result rows (identical across profiles by construction).
    pub rows: Vec<Row>,
}

/// A database system instance: one engine profile bound to one simulated
/// machine environment, with TPC-H data loaded.
pub struct DbSystem {
    sim: NumaSim,
    /// The heap and the loaded tables, or the fault that stopped the
    /// boot: a failed boot poisons the system, and every query returns
    /// that fault.
    loaded: SimResult<(SimHeap, TpchDb)>,
    profile: EngineProfile,
    threads: usize,
    engine: nqp_query::EngineKind,
}

impl DbSystem {
    /// Boot `system` under `env` and load the given TPC-H data into
    /// simulated storage (charged, but not part of query latencies —
    /// the paper measures warm runs).
    ///
    /// A fault during the load (capacity, an injected fault, the trial
    /// budget, a deadline) does not fail the boot: it poisons the system,
    /// and every later [`DbSystem::try_run`] returns it as
    /// [`EngineError::Sim`].
    pub fn boot(system: SystemKind, env: &WorkloadEnv, data: &nqp_datagen::tpch::TpchData) -> Self {
        let profile = system.profile();
        // A database server is long-running: its scheduler placement has
        // settled by the time queries are measured.
        let mut sim = NumaSim::new(env.sim.clone().with_settled_scheduler(true));
        let threads = profile.worker_threads(env.threads);
        let loaded = SimHeap::new(env.allocator, &mut sim).and_then(|mut heap| {
            let db = TpchDb::load(&mut sim, &mut heap, data, profile.layout, threads)?;
            Ok((heap, db))
        });
        DbSystem { sim, loaded, profile, threads, engine: env.engine }
    }

    /// Run TPC-H query `qnum` (1–22): one untimed cold run has already
    /// happened implicitly via the load; this measures a warm run.
    /// Fails on an unknown query number, a simulation fault during the
    /// query, or the fault that poisoned the boot.
    pub fn try_run(&mut self, qnum: usize) -> Result<QueryOutcome, EngineError> {
        let (heap, db) = self.loaded.as_mut().map_err(|e| EngineError::Sim(e.clone()))?;
        let before = self.sim.now_cycles();
        let workers = self.profile.worker_threads_for(qnum, self.threads);
        let rows = try_run_query(
            qnum,
            &mut self.sim,
            heap,
            db,
            &self.profile,
            workers,
            self.engine,
        )?;
        Ok(QueryOutcome { latency_cycles: self.sim.now_cycles() - before, rows })
    }

    /// Cumulative simulator counters (for diagnostics).
    pub fn counters(&self) -> nqp_sim::Counters {
        self.sim.counters()
    }

    /// The profile this system runs.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Worker threads the profile chose for this machine.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_datagen::tpch::TpchData;
    use nqp_topology::machines;

    #[test]
    fn all_profiles_agree_on_every_query() {
        let data = TpchData::generate(0.002, 11);
        let env = WorkloadEnv::tuned(machines::machine_b()).with_threads(4);
        let mut reference: Vec<Vec<Row>> = Vec::new();
        for (si, system) in SystemKind::ALL.into_iter().enumerate() {
            let mut db = DbSystem::boot(system, &env, &data);
            for q in 1..=QUERY_COUNT {
                let out = db.try_run(q).unwrap();
                if si == 0 {
                    reference.push(out.rows);
                } else {
                    assert_eq!(
                        out.rows,
                        reference[q - 1],
                        "{system:?} diverged from {:?} on Q{q}",
                        SystemKind::ALL[0]
                    );
                }
                assert!(out.latency_cycles > 0, "{system:?} Q{q} zero latency");
            }
        }
    }

    #[test]
    fn booted_systems_share_the_data_and_store_only_written_pages() {
        let data = TpchData::generate(0.002, 15);
        let env = WorkloadEnv::os_default(machines::machine_b());
        for system in SystemKind::ALL {
            let mut db = DbSystem::boot(system, &env, &data);
            let Ok((_, tables)) = &db.loaded else { panic!("{system:?} failed to boot") };
            let shared: &nqp_datagen::tpch::TpchTables = &tables.data;
            assert!(std::ptr::eq(shared, &*data), "{system:?} copied the data");
            for _round in 0..2 {
                for q in 1..=QUERY_COUNT {
                    db.try_run(q).unwrap();
                }
            }
            // The byte store holds the pages queries wrote, not the
            // whole address space: table shadows are only touched.
            let mapped_pages = db.sim.mapped_high_water() / nqp_sim::SMALL_PAGE;
            let data_pages = db.sim.data_pages();
            assert!(data_pages > 0, "{system:?} wrote nothing");
            assert!(
                data_pages * 3 < mapped_pages,
                "{system:?}: {data_pages} data pages of {mapped_pages} mapped"
            );
        }
    }

    #[test]
    fn queries_are_deterministic() {
        let data = TpchData::generate(0.002, 12);
        let env = WorkloadEnv::tuned(machines::machine_b()).with_threads(2);
        let run = || {
            let mut db = DbSystem::boot(SystemKind::MonetDbLike, &env, &data);
            (1..=QUERY_COUNT).map(|q| db.try_run(q).unwrap().latency_cycles).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn vectorized_engine_returns_identical_rows() {
        // The tuple path is the differential oracle: the vectorized
        // profile runner must produce the same rows on every query, and
        // must be strictly cheaper (the amortised per-row overhead).
        let data = TpchData::generate(0.002, 13);
        let tuple_env = WorkloadEnv::tuned(machines::machine_b()).with_threads(4);
        let vec_env = tuple_env.clone().with_engine(nqp_query::EngineKind::Vectorized);
        let mut t = DbSystem::boot(SystemKind::MonetDbLike, &tuple_env, &data);
        let mut v = DbSystem::boot(SystemKind::MonetDbLike, &vec_env, &data);
        let mut tuple_total = 0u64;
        let mut vec_total = 0u64;
        for q in 1..=QUERY_COUNT {
            let a = t.try_run(q).unwrap();
            let b = v.try_run(q).unwrap();
            assert_eq!(a.rows, b.rows, "engines diverged on Q{q}");
            tuple_total += a.latency_cycles;
            vec_total += b.latency_cycles;
        }
        assert!(
            vec_total < tuple_total,
            "vectorized ({vec_total}) should beat tuple ({tuple_total})"
        );
    }

    #[test]
    fn profile_runs_are_byte_identical_at_every_shard_count() {
        // The TPC-H loads shard across host threads; latencies and rows
        // must not move with the shard count (the PR-8 invariant,
        // extended into the engine-profile runners).
        let data = TpchData::generate(0.002, 14);
        let run = |shards: usize, engine: nqp_query::EngineKind| {
            let mut env = WorkloadEnv::tuned(machines::machine_b())
                .with_threads(4)
                .with_engine(engine);
            env.sim = env.sim.with_shards(shards);
            let mut db = DbSystem::boot(SystemKind::QuickstepLike, &env, &data);
            (1..=QUERY_COUNT)
                .map(|q| {
                    let out = db.try_run(q).unwrap();
                    (out.latency_cycles, out.rows)
                })
                .collect::<Vec<_>>()
        };
        for engine in [nqp_query::EngineKind::Tuple, nqp_query::EngineKind::Vectorized] {
            let one = run(1, engine);
            assert_eq!(one, run(2, engine), "{engine:?} diverged at 2 shards");
            assert_eq!(one, run(4, engine), "{engine:?} diverged at 4 shards");
        }
    }
}
