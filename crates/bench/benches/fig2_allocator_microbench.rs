//! Figure 2: the memory-allocator microbenchmark of §III-A8 on
//! Machine A — (a) multi-threaded scalability, (b) memory consumption
//! overhead.

use nqp_alloc::microbench::{run_microbench, MicrobenchConfig};
use nqp_alloc::AllocatorKind;
use nqp_bench::{banner, scale, Scale, Tbl};
use nqp_topology::machines;

fn main() {
    banner("Figure 2 — Memory Allocator Microbenchmark (Machine A)");
    let machine = machines::machine_a();
    let cfg = match scale() {
        Scale::Quick => MicrobenchConfig { ops_per_thread: 20_000, live_target: 6_000, seed: 42 },
        Scale::Full => MicrobenchConfig { ops_per_thread: 100_000, live_target: 20_000, seed: 42 },
    };
    let threads = [1usize, 2, 4, 8, 16];

    let mut time = Tbl::new(
        std::iter::once("allocator".to_string())
            .chain(threads.iter().map(|t| format!("t={t} (Mcyc)"))),
    );
    let mut overhead = Tbl::new(
        std::iter::once("allocator".to_string())
            .chain(threads.iter().map(|t| format!("t={t} (x)"))),
    );
    for kind in AllocatorKind::ALL {
        let mut trow = vec![kind.label().to_string()];
        let mut orow = vec![kind.label().to_string()];
        for &t in &threads {
            let r = run_microbench(kind, &machine, t, &cfg).expect("fault-free run");
            trow.push(format!("{:.2}", r.elapsed_cycles as f64 / 1e6));
            orow.push(format!("{:.3}", r.overhead));
        }
        time.row(trow);
        overhead.row(orow);
    }
    time.print("Figure 2a — Multi-threaded Scalability (elapsed, lower is better)");
    overhead.print("Figure 2b — Memory Consumption Overhead (resident/requested)");
    println!(
        "\nPaper shape: tcmalloc fastest at 1 thread, collapsing with threads; \
         Hoard/tbbmalloc scale best; supermalloc contends on its global lock; \
         mcmalloc's overhead explodes with threads (it and supermalloc are \
         dropped from later experiments)."
    );
}
