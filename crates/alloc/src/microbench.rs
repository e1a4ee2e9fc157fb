//! The memory-allocator microbenchmark of §III-A8 (Figure 2).
//!
//! Multiple threads hammer one allocator concurrently: each operation
//! either allocates a block and writes to it, or reads an existing block
//! and frees it. Allocation sizes are drawn with probability inversely
//! proportional to the size class, as in the paper. Two metrics come
//! out: execution time (Figure 2a) and memory consumption overhead —
//! peak resident set ÷ peak requested bytes (Figure 2b).

use crate::size_class::CLASSES;
use crate::{build, Allocator, AllocatorKind};
use nqp_sim::{MemPolicy, NumaSim, SimConfig, SimResult, ThreadPlacement, VAddr};
use nqp_topology::MachineSpec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters of one microbenchmark run.
#[derive(Debug, Clone)]
pub struct MicrobenchConfig {
    /// Memory operations per thread (the paper uses 100 M; the default is
    /// scaled down so full sweeps stay fast — shapes are op-count-stable).
    pub ops_per_thread: u64,
    /// Target live allocations per thread (the steady-state working set).
    pub live_target: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MicrobenchConfig {
    fn default() -> Self {
        MicrobenchConfig { ops_per_thread: 20_000, live_target: 6_000, seed: 42 }
    }
}

/// One row of Figure 2: an allocator at a thread count.
#[derive(Debug, Clone)]
pub struct MicrobenchRow {
    /// The allocator measured.
    pub kind: AllocatorKind,
    /// Threads used.
    pub threads: usize,
    /// Simulated elapsed cycles (Figure 2a's "time").
    pub elapsed_cycles: u64,
    /// Peak resident ÷ peak requested (Figure 2b's overhead).
    pub overhead: f64,
    /// Cycles threads spent waiting on allocator locks.
    pub lock_wait_cycles: u64,
    /// High-water of live application-requested bytes.
    pub requested_peak: u64,
    /// High-water of allocator-committed bytes (the RSS proxy).
    pub resident_peak: u64,
}

/// Cumulative weights for size sampling: `P(class) ∝ 1/size`.
fn size_weights() -> Vec<f64> {
    let mut acc = 0.0;
    let mut cum = Vec::with_capacity(CLASSES.len());
    for &c in &CLASSES {
        acc += 1.0 / c as f64;
        cum.push(acc);
    }
    for w in &mut cum {
        *w /= acc;
    }
    cum
}

fn sample_size(rng: &mut StdRng, cum: &[f64]) -> u64 {
    let u: f64 = rng.random();
    let idx = cum.iter().position(|&c| u <= c).unwrap_or(CLASSES.len() - 1);
    // A size inside the class: the class size itself keeps accounting
    // simple and matches how size-class benchmarks are usually written.
    CLASSES[idx]
}

/// Run the microbenchmark for one allocator at one thread count.
///
/// The environment is pinned (Sparse affinity, First Touch, AutoNUMA and
/// THP off) so the measurement isolates the allocator, as a
/// microbenchmark should.
pub fn run_microbench(
    kind: AllocatorKind,
    machine: &MachineSpec,
    threads: usize,
    cfg: &MicrobenchConfig,
) -> SimResult<MicrobenchRow> {
    let sim_cfg = SimConfig::os_default(machine.clone())
        .with_threads(ThreadPlacement::Sparse)
        .with_policy(MemPolicy::FirstTouch)
        .with_autonuma(false)
        .with_thp(false)
        .with_seed(cfg.seed);
    let mut sim = NumaSim::new(sim_cfg);
    let alloc = build(kind, &mut sim)?;
    let cum = size_weights();
    let mut shared: (Box<dyn Allocator>, ()) = (alloc, ());
    let ops = cfg.ops_per_thread;
    let live_target = cfg.live_target;
    let seed = cfg.seed;

    let stats = sim.try_parallel(threads, &mut shared, |w, (alloc, _)| {
        let mut rng = StdRng::seed_from_u64(seed ^ (w.tid() as u64) << 32);
        let mut live: Vec<(VAddr, u64)> = Vec::with_capacity(live_target);
        for _ in 0..ops {
            let do_alloc = live.len() < live_target / 2
                || (live.len() < live_target * 2 && rng.random::<bool>());
            if do_alloc {
                let size = sample_size(&mut rng, &cum);
                let p = alloc.alloc(w, size);
                w.write_u64(p, size);
                live.push((p, size));
            } else if !live.is_empty() {
                let idx = rng.random_range(0..live.len());
                let (p, size) = live.swap_remove(idx);
                let _ = w.read_u64(p);
                alloc.free(w, p, size);
            }
        }
        // The live set stays held: real threads hold theirs concurrently,
        // and peak-requested must reflect that despite the simulator
        // running threads sequentially.
        std::mem::forget(live);
    })?;

    Ok(MicrobenchRow {
        kind,
        threads,
        elapsed_cycles: stats.elapsed_cycles,
        overhead: shared.0.overhead(),
        lock_wait_cycles: stats.counters.lock_wait_cycles,
        requested_peak: shared.0.peak_requested(),
        resident_peak: shared.0.peak_resident(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_topology::machines;

    fn small() -> MicrobenchConfig {
        MicrobenchConfig { ops_per_thread: 3_000, live_target: 300, seed: 7 }
    }

    #[test]
    fn size_sampling_favours_small_classes() {
        let cum = size_weights();
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<u64> = (0..2_000).map(|_| sample_size(&mut rng, &cum)).collect();
        let small = samples.iter().filter(|&&s| s <= 64).count();
        let large = samples.iter().filter(|&&s| s >= 4096).count();
        assert!(small > 5 * large, "small={small} large={large}");
    }

    #[test]
    fn microbench_is_deterministic() {
        let m = machines::machine_a();
        let a = run_microbench(AllocatorKind::Jemalloc, &m, 4, &small()).unwrap();
        let b = run_microbench(AllocatorKind::Jemalloc, &m, 4, &small()).unwrap();
        assert_eq!(a.elapsed_cycles, b.elapsed_cycles);
        assert_eq!(a.overhead, b.overhead);
    }

    #[test]
    fn tcmalloc_fastest_single_threaded() {
        let m = machines::machine_a();
        let cfg = small();
        let tc = run_microbench(AllocatorKind::Tcmalloc, &m, 1, &cfg).unwrap();
        for kind in [
            AllocatorKind::Ptmalloc,
            AllocatorKind::Supermalloc,
            AllocatorKind::Mcmalloc,
            AllocatorKind::Hoard,
        ] {
            let other = run_microbench(kind, &m, 1, &cfg).unwrap();
            assert!(
                tc.elapsed_cycles < other.elapsed_cycles,
                "tcmalloc {} !< {:?} {}",
                tc.elapsed_cycles,
                kind,
                other.elapsed_cycles
            );
        }
    }

    #[test]
    fn hoard_and_tbb_beat_tcmalloc_and_supermalloc_at_16_threads() {
        let m = machines::machine_a();
        // Allocation-heavy enough that per-class live sets overflow
        // tcmalloc's bounded thread cache — the regime Figure 2a measures.
        let cfg = MicrobenchConfig { ops_per_thread: 4_000, live_target: 1_500, seed: 7 };
        let run = |k| run_microbench(k, &m, 16, &cfg).unwrap().elapsed_cycles;
        let (hoard, tbb) = (run(AllocatorKind::Hoard), run(AllocatorKind::Tbbmalloc));
        let (tc, sm) = (run(AllocatorKind::Tcmalloc), run(AllocatorKind::Supermalloc));
        assert!(hoard < tc, "hoard={hoard} tcmalloc={tc}");
        assert!(tbb < tc, "tbb={tbb} tcmalloc={tc}");
        assert!(hoard < sm, "hoard={hoard} supermalloc={sm}");
        assert!(tbb < sm, "tbb={tbb} supermalloc={sm}");
    }

    #[test]
    fn mcmalloc_overhead_explodes_with_threads() {
        let m = machines::machine_a();
        let cfg = small();
        let o1 = run_microbench(AllocatorKind::Mcmalloc, &m, 1, &cfg).unwrap().overhead;
        let o16 = run_microbench(AllocatorKind::Mcmalloc, &m, 16, &cfg).unwrap().overhead;
        let je16 = run_microbench(AllocatorKind::Jemalloc, &m, 16, &cfg).unwrap().overhead;
        assert!(o16 > 2.0 * o1, "o1={o1:.2} o16={o16:.2}");
        assert!(o16 > 2.0 * je16, "mcmalloc {o16:.2} vs jemalloc {je16:.2}");
    }

    #[test]
    fn sweep_covers_all_allocators() {
        let m = machines::machine_b();
        let cfg = MicrobenchConfig { ops_per_thread: 500, live_target: 50, seed: 1 };
        let mut rows = Vec::new();
        for kind in AllocatorKind::ALL {
            for t in [1, 2] {
                rows.push(run_microbench(kind, &m, t, &cfg).unwrap());
            }
        }
        assert_eq!(rows.len(), 14);
    }
}
