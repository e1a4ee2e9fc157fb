//! Allocator shootout: the §III-A8 microbenchmark plus a hash-join
//! rematch — which allocator should your analytics workload preload?
//!
//! ```sh
//! cargo run --release --example allocator_shootout
//! ```

use nqp::alloc::microbench::{run_microbench, MicrobenchConfig};
use nqp::alloc::AllocatorKind;
use nqp::core::TuningConfig;
use nqp::datagen::JoinDataset;
use nqp::query::try_run_hash_join_on;
use nqp::sim::ThreadPlacement;
use nqp::topology::machines;

fn main() {
    let machine = machines::machine_a();
    let cfg = MicrobenchConfig { ops_per_thread: 10_000, live_target: 3_000, seed: 3 };

    println!("== microbenchmark: 16 allocation-heavy threads on Machine A ==");
    println!("{:<12} {:>12} {:>10}", "allocator", "cycles", "overhead");
    for kind in AllocatorKind::ALL {
        let r = run_microbench(kind, &machine, 16, &cfg).expect("the microbenchmark completes");
        println!("{:<12} {:>12} {:>9.2}x", kind.label(), r.elapsed_cycles, r.overhead);
    }

    println!("\n== rematch on a real workload: W3 hash join (build 20k x probe 320k) ==");
    let data = JoinDataset::generate(20_000, 3);
    println!("{:<12} {:>12} {:>12}", "allocator", "build", "probe");
    let mut best: Option<(AllocatorKind, u64)> = None;
    for kind in AllocatorKind::MAIN {
        let c = TuningConfig::tuned(machine.clone())
            .with_threads(ThreadPlacement::Sparse)
            .with_allocator(kind);
        let out = try_run_hash_join_on(&c.env(16), &data).expect("the join completes");
        let total = out.build_cycles + out.probe_cycles;
        println!("{:<12} {:>12} {:>12}", kind.label(), out.build_cycles, out.probe_cycles);
        if best.as_ref().is_none_or(|&(_, b)| total < b) {
            best = Some((kind, total));
        }
    }
    let (winner, _) = best.expect("allocators ran");
    println!("\nwinner on this workload: {}", winner.label());
    println!("(the paper's recommendation: evaluate allocators on *your* workload,");
    println!(" but tbbmalloc is the safe default and jemalloc when memory is tight)");
}
