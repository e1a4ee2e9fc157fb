//! Open-loop serve mode: thousands of simulated client sessions issuing
//! queries against one long-lived engine instance, under a seeded
//! arrival process on the *model clock* — so a serve run is a pure
//! function of its spec and replays bit-identically.
//!
//! Batch sweeps measure mean cycles per trial; this crate asks the
//! production question instead: what happens to p99 latency — and to
//! the engine itself — when arrivals are bursty and the offered load
//! exceeds capacity? The robustness core is the admission pipeline in
//! front of the engine:
//!
//! * bounded per-tenant queues with backpressure ([`driver`]),
//! * token-bucket admission control (integer milli-tokens),
//! * per-query deadlines with cooperative cancellation at phase
//!   boundaries — abandoned queries charge the cycles they burned,
//! * a load-shedding policy ladder (reject newest → reject over-quota
//!   tenants → degrade to sampled answers) driven by queue depth and
//!   telescoping per-epoch counters,
//! * per-tenant circuit breakers reusing
//!   [`nqp_core::runner::RetryPolicy`]'s backoff schedule.
//!
//! Latency is recorded in a fixed-bucket log-scale integer histogram
//! ([`histogram::LatencyHistogram`]) — no floats anywhere on the serve
//! hot path — and reported as p50/p95/p99/p99.9 plus per-tenant SLO
//! attainment and shed/timeout/degraded counts ([`report`]).
//!
//! The engine itself is represented by per-class *calibrated profiles*:
//! each (configuration, query class, health) pair is run once through
//! the real simulator and its per-phase cycle costs captured; the serve
//! loop is then a deterministic discrete-event simulation over those
//! profiles, which is what lets one run drive thousands of sessions
//! without paying a full engine simulation per query ([`calibrate`]
//! owns that rule and the serve input sizes). Determinism
//! argument: arrivals, admission decisions, service times, and the
//! clock itself are all integer functions of the seed — DESIGN.md §4f.
//! Because calibration runs the real engine, `SimConfig::shards` (the
//! CLI's `--shards N`, DESIGN.md §4h) flows through it too: the
//! calibrated profiles — and therefore every serve report — are
//! byte-identical at every shard count. Spec parsing is total:
//! malformed or overflow-prone `--arrivals`/`--outage`/`--advisor`
//! values surface as typed [`nqp_sim::SimError::BadSpec`] errors at
//! parse time ([`arrival`]), never a panic mid-run.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arrival;
pub mod calibrate;
pub mod driver;
pub mod histogram;
pub mod report;
pub mod spec;

pub use arrival::{ArrivalGen, ArrivalSpec};
pub use driver::{run_cells, run_serve};
pub use histogram::LatencyHistogram;
pub use report::{CellStats, EpochRow, ServeReport, Session, TenantStats};
pub use spec::{CellInput, ClassProfile, OutageSpec, ServeAdvisor, ServeOutcome, ServeSpec};
