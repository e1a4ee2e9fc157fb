//! Golden digests for sharded regions.
//!
//! `tests/shards.rs` proves the shard count is invisible, but every
//! shard count runs the same merge mechanism, so that differential only
//! compares the mechanism with itself. These digests pin the absolute
//! output instead: counters, region stats (directly, or through the
//! trace log's region events) and model cycles of three runs at seed
//! 42, at shard counts 1 and 3. They were recorded with the per-worker
//! LLC-clone and chunked writer-table copy-on-write merge that the
//! undo-logged arenas replaced, so a change to a merge rule shows up
//! here even when it moves every shard count alike.
//!
//! A digest is FNV-1a over the `Debug` rendering of the observables. If
//! a change moves the model on purpose, declare the move and re-record
//! the digests from this test's failure message.

use nqp::datagen::tpch::TpchData;
use nqp::datagen::{generate, JoinDataset};
use nqp::engines::{SystemKind, TpchDb};
use nqp::query::{
    try_run_aggregation_on, try_run_hash_join_on, AggConfig, EngineKind, WorkloadEnv,
};
use nqp::sim::{NumaSim, TraceConfig};
use nqp::storage::SimHeap;
use nqp::topology::machines;

const SEED: u64 = 42;

/// FNV-1a, 64-bit.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn traced(label: &str) -> TraceConfig {
    TraceConfig::default().with_epoch_cycles(200_000).with_label(label)
}

/// W3 tuple hash join with 32 simulated threads: many small workers,
/// and uneven chunks at 3 shards. The trace log carries the region
/// boundaries and per-epoch counter samples.
fn w3_tuple_32_threads(shards: usize) -> String {
    let data = JoinDataset::generate(6_000, SEED);
    let mut env = WorkloadEnv::os_default(machines::machine_b()).with_threads(32);
    env.sim = env.sim.with_shards(shards).with_trace(traced("golden-w3"));
    let out = try_run_hash_join_on(&env, &data).expect("w3 runs clean");
    format!("{out:?}")
}

/// W1 on the vectorized engine: `AggOutcome` carries every region's
/// `RegionStats`.
fn w1_vectorized(shards: usize) -> String {
    let cfg = AggConfig::w1(12_000, 3_000, SEED);
    let records = generate(cfg.dataset, cfg.n, cfg.cardinality, cfg.seed);
    let mut env = WorkloadEnv::os_default(machines::machine_b())
        .with_threads(8)
        .with_engine(EngineKind::Vectorized);
    env.sim = env.sim.with_shards(shards);
    let out = try_run_aggregation_on(&env, &cfg, &records).expect("w1 runs clean");
    format!("{out:?}")
}

/// One monetdb boot at sf 0.004, done step by step as
/// `DbSystem::boot` does it so the simulator's clock, counters and
/// trace are in reach.
fn monetdb_boot(shards: usize) -> String {
    let data = TpchData::generate(0.004, SEED);
    let env = WorkloadEnv::os_default(machines::machine_b());
    let profile = SystemKind::MonetDbLike.profile();
    let mut sim = NumaSim::new(
        env.sim
            .clone()
            .with_settled_scheduler(true)
            .with_shards(shards)
            .with_trace(traced("golden-boot")),
    );
    let threads = profile.worker_threads(env.threads);
    let mut heap = SimHeap::new(env.allocator, &mut sim).expect("heap maps");
    TpchDb::load(&mut sim, &mut heap, &data, profile.layout, threads).expect("boot loads");
    format!(
        "cycles={} counters={:?} trace={:?}",
        sim.now_cycles(),
        sim.counters(),
        sim.take_trace()
    )
}

fn check(name: &str, run: fn(usize) -> String, golden: u64) {
    for shards in [1, 3] {
        let digest = fnv(&run(shards));
        assert_eq!(
            digest, golden,
            "{name} at shards={shards}: digest {digest:#018x}, golden {golden:#018x}"
        );
    }
}

#[test]
fn w3_tuple_trial_at_32_threads_matches_golden() {
    check("w3 tuple, 32 threads", w3_tuple_32_threads, 0x41da_e938_02e3_6c3a);
}

#[test]
fn w1_vectorized_trial_matches_golden() {
    check("w1 vectorized", w1_vectorized, 0xa596_224f_7f00_d016);
}

#[test]
fn monetdb_boot_matches_golden() {
    check("monetdb boot, sf 0.004", monetdb_boot, 0xbdb2_9cfd_2d74_176d);
}
