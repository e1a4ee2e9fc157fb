// Harness-path code must surface faults, never panic on them: unwrap()
// and expect() are denied outside tests (enforced by scripts/check.sh).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! A deterministic NUMA machine simulator.
//!
//! This crate is the measurement substrate for the whole workspace: it
//! models the hardware and OS mechanisms that the paper's tuning knobs
//! act on —
//!
//! * the **page table and placement policies** (First Touch, Interleave,
//!   Localalloc, Preferred) of `numactl`,
//! * per-node **last-level caches** and per-thread **TLBs** (4 KB and
//!   2 MB entries, so Transparent Hugepages has its real effect),
//! * **memory-controller and interconnect bandwidth** rooflines, which
//!   punish consolidated placements,
//! * the **OS thread scheduler** (free migration vs. Sparse/Dense
//!   affinity) and the **AutoNUMA** balancing daemon,
//! * an analytic **lock contention** model used by the allocator models.
//!
//! Workloads run as logical threads inside [`NumaSim::try_parallel`]; all
//! randomness is seeded, so identical configurations produce identical
//! cycle counts and hardware-counter values. A region can also shard
//! its simulated workers across host threads with
//! [`NumaSim::try_parallel_sharded`] (`SimConfig::shards`, the CLI's
//! `--shards N`): each worker runs against the frozen region-start
//! state — a copy-on-write memory view plus undo-logged LLC and
//! writer-table arenas it rolls back when it finishes — and its effects
//! merge back in ascending-tid order at the region boundary, so the
//! model's output
//! is byte-identical at every shard count — only host wall-clock
//! changes (DESIGN.md §4h; `examples/sharded_trial.rs` demonstrates
//! it, `tests/shards.rs` enforces it).
//!
//! ```
//! use nqp_sim::{NumaSim, SimConfig};
//! use nqp_topology::machines;
//!
//! # fn main() -> nqp_sim::SimResult<()> {
//! let mut sim = NumaSim::new(SimConfig::tuned(machines::machine_a()));
//! let stats = sim.try_parallel(16, &mut (), |w, _| {
//!     let buf = w.map_pages(1 << 16);
//!     for i in 0..1024u64 {
//!         w.write_u64(buf + i * 8, i);
//!     }
//! })?;
//! assert!(stats.elapsed_cycles > 0);
//! assert_eq!(stats.counters.thread_migrations, 0); // affinitized
//! # Ok(())
//! # }
//! ```

mod cache;
mod config;
mod engine;
mod error;
mod fault;
mod lock;
mod mem;
mod metrics;
mod mix;
mod sched;
mod tlb;
mod trace;
mod tune;

pub use cache::Llc;
pub use config::{machine_by_name, CostParams, MemPolicy, SimConfig, ThreadPlacement};
pub use engine::{check_threads, Access, NumaSim, Worker, MAX_THREADS};
pub use error::{SimError, SimResult};
pub use fault::{ActiveFaults, FaultEvent, FaultKind, FaultPlan};
pub use lock::LockId;
pub use mem::{VAddr, HUGE_PAGE, LINE, PAGES_PER_HUGE, SMALL_PAGE};
pub use metrics::{Bottleneck, Counters, RegionStats};
pub use mix::{MixBuildHasher, MixHasher};
pub use tlb::Tlb;
pub use trace::{
    EpochSample, PhaseSpan, TraceConfig, TraceEvent, TraceLog, TraceRecord, NO_TID,
};
pub use tune::{EpochView, HookChain, PageHeat, RegionHook, TuneAction, TuneFactory};

