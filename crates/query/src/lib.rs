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
//! ([`run_phase_shift`]), a build-heavy→probe-heavy sequence designed
//! so that no single static placement wins — the benchmark for the
//! online advisor in `nqp-advisor`.
//!
//! Each workload is a function of a [`WorkloadEnv`] (machine + OS knobs +
//! allocator + thread count) and returns cycle counts plus a checksum
//! that tests verify against a host-side reference.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod aggregate;
mod hash_join;
mod hash_table;
mod inl_join;
mod phase_shift;
mod runner;
mod vector;

pub use aggregate::{
    reference_checksum, run_aggregation, run_aggregation_on, try_run_aggregation,
    try_run_aggregation_on, AggConfig, AggKind, AggOutcome,
};
pub use hash_join::{
    reference_join, run_hash_join, run_hash_join_on, try_run_hash_join, try_run_hash_join_on,
    JoinConfig, JoinOutcome,
};
pub use hash_table::HashTable;
pub use phase_shift::{
    run_phase_shift, try_run_phase_shift, PhaseShiftConfig, PhaseShiftOutcome,
};
pub use inl_join::{run_inl_join, run_inl_join_on, try_run_inl_join, try_run_inl_join_on, InlConfig, InlOutcome};
pub use runner::{load_tuples, try_load_tuples, EngineKind, WorkloadEnv};
pub use vector::{
    try_load_columns, try_run_aggregation_vec, try_run_hash_join_vec,
    try_run_inl_join_vec, Batch,
};
