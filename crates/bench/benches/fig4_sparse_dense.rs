//! Figure 4: Sparse vs Dense thread affinitization — W1 on Machine A,
//! varying thread count and dataset distribution.

use nqp_bench::{agg_cardinality, agg_n, banner, gcyc, Tbl, SEED};
use nqp_core::TuningConfig;
use nqp_datagen::{generate, Dataset};
use nqp_query::{try_run_aggregation_on, AggConfig};
use nqp_sim::ThreadPlacement;
use nqp_topology::machines;

fn main() {
    banner("Figure 4 — Sparse vs Dense thread affinity (W1, Machine A)");
    let mut t = Tbl::new(["dataset", "threads", "Dense (Gcyc)", "Sparse (Gcyc)", "Sparse/Dense"]);
    for dataset in Dataset::PAPER {
        let records = generate(dataset, agg_n(), agg_cardinality(), SEED);
        let mut cfg = AggConfig::w1(agg_n(), agg_cardinality(), SEED);
        cfg.dataset = dataset;
        for threads in [2usize, 4, 8, 16] {
            let run = |placement: ThreadPlacement| {
                let c = TuningConfig::os_default(machines::machine_a())
                    .with_threads(placement)
                    .with_autonuma(false)
                    .with_thp(false);
                try_run_aggregation_on(&c.env(threads), &cfg, &records)
                    .expect("fault-free run").exec_cycles
            };
            let dense = run(ThreadPlacement::Dense);
            let sparse = run(ThreadPlacement::Sparse);
            t.row([
                dataset.label().to_string(),
                threads.to_string(),
                gcyc(dense),
                gcyc(sparse),
                format!("{:.2}", sparse as f64 / dense as f64),
            ]);
        }
    }
    t.print("Figure 4 — runtime by affinity strategy, thread count, and dataset");
    println!(
        "\nPaper shape: Sparse wins whenever the workload does not occupy \
         every hardware thread (extra memory controllers in play); at 16 \
         threads the strategies converge — on every dataset."
    );
}
