//! Shared environment plumbing for the W1–W4 workload runners.

use nqp_alloc::AllocatorKind;
use nqp_datagen::Record;
use nqp_sim::{NumaSim, SimConfig, SimError, SimResult};
use nqp_storage::TupleArray;

/// Which operator architecture executes the query: the classic
/// tuple-at-a-time path (the differential oracle) or the batch-at-a-time
/// vectorized path of [`crate::vector`]. Both produce byte-identical
/// query results on every input; their simulated cycles and traffic
/// differ (that delta is the EXPERIMENTS.md §vectorized-vs-tuple study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Tuple-at-a-time over the chained hash table — the paper's engine
    /// and the differential oracle for the vectorized path.
    #[default]
    Tuple,
    /// Batch-at-a-time column runs + selection vectors + perfect-hash
    /// slot arrays.
    Vectorized,
}

impl EngineKind {
    /// Parse a CLI token (`tuple`, `vec`, `vectorized`); unknown tokens
    /// become a typed [`SimError::BadSpec`] naming the offender.
    pub fn parse(token: &str) -> SimResult<EngineKind> {
        match token {
            "tuple" => Ok(EngineKind::Tuple),
            "vec" | "vectorized" => Ok(EngineKind::Vectorized),
            _ => Err(SimError::BadSpec {
                flag: "--engine".into(),
                token: token.into(),
                why: "unknown engine (expected `tuple` or `vec`)".into(),
            }),
        }
    }

    /// The canonical CLI token.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Tuple => "tuple",
            EngineKind::Vectorized => "vec",
        }
    }
}

/// Everything Table IV varies besides the workload itself: the machine
/// and OS knobs (inside [`SimConfig`]), the allocator, and the thread
/// count — plus the operator architecture (tuple vs vectorized), the one
/// axis the paper never crossed.
#[derive(Debug, Clone)]
pub struct WorkloadEnv {
    /// Machine + thread placement + memory policy + AutoNUMA + THP.
    pub sim: SimConfig,
    /// The overriding allocator (`LD_PRELOAD` in the paper's setup).
    pub allocator: AllocatorKind,
    /// Worker threads; the paper uses every hardware thread.
    pub threads: usize,
    /// Tuple-at-a-time (default) or vectorized operator path.
    pub engine: EngineKind,
}

impl WorkloadEnv {
    /// The paper's default environment on a machine: OS defaults and
    /// ptmalloc, all hardware threads.
    pub fn os_default(machine: nqp_topology::MachineSpec) -> Self {
        let threads = machine.total_hw_threads();
        WorkloadEnv {
            sim: SimConfig::os_default(machine),
            allocator: AllocatorKind::Ptmalloc,
            threads,
            engine: EngineKind::Tuple,
        }
    }

    /// The paper's tuned environment: Sparse + Interleave + AutoNUMA/THP
    /// off + tbbmalloc.
    pub fn tuned(machine: nqp_topology::MachineSpec) -> Self {
        let sim = SimConfig::tuned(machine.clone());
        WorkloadEnv { sim, allocator: AllocatorKind::Tbbmalloc, ..Self::os_default(machine) }
    }

    /// Builder-style allocator override.
    pub fn with_allocator(mut self, allocator: AllocatorKind) -> Self {
        self.allocator = allocator;
        self
    }

    /// Builder-style thread-count override.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style engine override.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }
}

/// Load generated records into a [`TupleArray`] with a parallel
/// partition-per-thread pass, the way a parallel loader would — each
/// thread first-touches its own partition.
///
/// The load happens in its own regions so callers can separate load time
/// from query time. Capacity exhaustion, injected faults, and budget
/// timeouts come back typed, so the experiment harness can retry or
/// record the trial as failed.
pub fn try_load_tuples(
    sim: &mut NumaSim,
    records: &[Record],
    threads: usize,
) -> SimResult<TupleArray> {
    let mut arr: Option<TupleArray> = None;
    sim.try_serial(&mut arr, |w, arr| {
        *arr = Some(TupleArray::new(w, records.len().max(1)));
    })?;
    let arr = arr.ok_or(SimError::Harness { what: "tuple array was not mapped".to_string() })?;
    // The fill writes disjoint per-thread partitions, so it shards
    // across host threads (`SimConfig::shards`) with deterministic
    // epoch merges — byte-identical results at any shard count.
    sim.try_parallel_sharded(threads, &(), |w, ()| {
        for i in arr.partition(w.tid(), threads) {
            arr.write(w, i, records[i].key, records[i].val);
        }
    })?;
    Ok(arr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_datagen::Dataset;
    use nqp_topology::machines;

    #[test]
    fn env_presets_differ_in_the_right_knobs() {
        let d = WorkloadEnv::os_default(machines::machine_a());
        let t = WorkloadEnv::tuned(machines::machine_a());
        assert_eq!(d.allocator, AllocatorKind::Ptmalloc);
        assert_eq!(t.allocator, AllocatorKind::Tbbmalloc);
        assert!(d.sim.autonuma && !t.sim.autonuma);
        assert_eq!(d.threads, 16);
    }

    #[test]
    fn loaded_tuples_read_back() {
        let env = WorkloadEnv::tuned(machines::machine_b()).with_threads(4);
        let mut sim = NumaSim::new(env.sim.clone());
        let records = nqp_datagen::generate(Dataset::Uniform, 1_000, 64, 3);
        let arr = try_load_tuples(&mut sim, &records, env.threads).unwrap();
        let mut state = (arr, records);
        sim.try_serial(&mut state, |w, (arr, records)| {
            for (i, r) in records.iter().enumerate() {
                assert_eq!(arr.read(w, i), (r.key, r.val));
            }
        }).unwrap();
    }
}
