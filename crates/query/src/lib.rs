//! The standalone query workloads of Table I, W1–W4, over the NUMA
//! simulator:
//!
//! * **W1** holistic aggregation (`MEDIAN ... GROUP BY`) — hash table +
//!   per-group value chains; the allocation-heaviest workload.
//! * **W2** distributive aggregation (`COUNT ... GROUP BY`) — hash table
//!   with in-place counters; placement-bound, not allocation-bound.
//! * **W3** non-partitioning hash join — build on the 1× table, probe
//!   with the 16× table.
//! * **W4** index nested-loop join — the same data probed through a
//!   pre-built in-memory index (ART / Masstree / B+tree / Skip List).
//!
//! Plus one workload the paper does not have: the **phase-shift** run
//! ([`try_run_phase_shift`]), a build-heavy→probe-heavy sequence designed
//! so that no single static placement wins — the benchmark for the
//! online advisor in `nqp-advisor`.
//!
//! Each workload is a function of a [`WorkloadEnv`] (machine + OS knobs +
//! allocator + thread count + engine) over pre-generated inputs and
//! returns cycle counts plus a checksum that tests verify against a
//! host-side reference.
//!
//! Every workload has exactly one entry point, and it is fallible:
//! [`try_run_aggregation_on`], [`try_run_hash_join_on`],
//! [`try_run_inl_join_on`] and [`try_run_phase_shift`] return the
//! simulator's [`nqp_sim::SimError`] (OOM under a strict `Bind`, an
//! injected fault, a blown trial budget, a passed deadline) instead of
//! panicking, so a sweep records a failed configuration as a trial
//! outcome. [`WorkloadEnv::engine`] picks the tuple-at-a-time or the
//! vectorized operators behind the same entry point.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod aggregate;
mod hash_join;
mod hash_table;
mod inl_join;
mod phase_shift;
mod runner;
mod vector;

pub use aggregate::{
    reference_checksum, try_run_aggregation_on, AggConfig, AggKind, AggOutcome,
};
pub use hash_join::{reference_join, try_run_hash_join_on, JoinOutcome};
pub use hash_table::HashTable;
pub use inl_join::{try_run_inl_join_on, InlOutcome};
pub use phase_shift::{try_run_phase_shift, PhaseShiftConfig, PhaseShiftOutcome};
pub use runner::{try_load_tuples, EngineKind, WorkloadEnv};
pub use vector::Batch;
