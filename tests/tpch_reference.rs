//! TPC-H differential: every query on a column store and a row store
//! must produce the same rows, the same latency and the same simulator
//! counters on the page-granular fast path as on the per-line reference
//! model (`SimConfig::with_reference_model`) — the engine-side face of
//! the identity `tests/hotpath.rs` pins for raw simulator programs.

use nqp::datagen::tpch::TpchData;
use nqp::engines::{DbSystem, SystemKind, QUERY_COUNT};
use nqp::query::WorkloadEnv;
use nqp::topology::machines;

#[test]
fn every_query_matches_the_reference_model() {
    let data = TpchData::generate(0.001, 21);
    // OS defaults: AutoNUMA and THP on, unpinned threads — the
    // configuration with the most fast-path shortcuts to get wrong.
    let env = WorkloadEnv::os_default(machines::machine_b()).with_threads(4);
    let mut reference_env = env.clone();
    reference_env.sim = reference_env.sim.with_reference_model(true);
    for system in [SystemKind::MonetDbLike, SystemKind::PostgresLike] {
        let mut fast = DbSystem::boot(system, &env, &data);
        let mut reference = DbSystem::boot(system, &reference_env, &data);
        assert_eq!(fast.counters(), reference.counters(), "{system:?}: the loads diverge");
        for q in 1..=QUERY_COUNT {
            let a = fast.try_run(q).expect("fast path runs");
            let b = reference.try_run(q).expect("reference model runs");
            assert_eq!(a.rows, b.rows, "{system:?} Q{q}: rows diverge");
            assert_eq!(a.latency_cycles, b.latency_cycles, "{system:?} Q{q}: latency diverges");
            assert_eq!(fast.counters(), reference.counters(), "{system:?} Q{q}: counters diverge");
        }
    }
}
