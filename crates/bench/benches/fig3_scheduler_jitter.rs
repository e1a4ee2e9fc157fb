//! Figure 3: consecutive unbound runs of W1 vs the Sparse-affinitized
//! baseline on Machine A — the OS scheduler's run-to-run jitter.

use nqp_bench::{agg_cardinality, agg_n, banner, Tbl, SEED};
use nqp_core::TuningConfig;
use nqp_datagen::{generate, Dataset};
use nqp_query::{try_run_aggregation_on, AggConfig};
use nqp_sim::ThreadPlacement;
use nqp_topology::machines;

fn main() {
    banner("Figure 3 — OS thread scheduler vs thread affinity (W1, Machine A)");
    let records = generate(Dataset::MovingCluster, agg_n(), agg_cardinality(), SEED);
    let cfg = AggConfig::w1(agg_n(), agg_cardinality(), SEED);

    // Sparse-affinitized baseline; everything else stays at OS defaults,
    // so affinity is the only variable (as in the paper's Figure 3).
    let base = TuningConfig::os_default(machines::machine_a())
        .with_threads(ThreadPlacement::Sparse);
    let baseline = try_run_aggregation_on(&base.env(16), &cfg, &records).expect("fault-free run");

    let mut t = Tbl::new(["run", "relative runtime (x)", "thread migrations"]);
    for run in 0..10u64 {
        let unbound = TuningConfig::os_default(machines::machine_a())
            .with_threads(ThreadPlacement::None);
        let mut env = unbound.env(16);
        env.sim = env.sim.with_seed(1_000 + run);
        let out = try_run_aggregation_on(&env, &cfg, &records).expect("fault-free run");
        t.row([
            format!("{}", run + 1),
            format!("{:.2}", out.exec_cycles as f64 / baseline.exec_cycles as f64),
            out.counters.thread_migrations.to_string(),
        ]);
    }
    t.print("Figure 3 — 10 consecutive runs, runtime relative to affinitized (Sparse)");
    println!(
        "\nPaper shape: every unbound run is slower than the affinitized one \
         (their worst case ~27% slower, best cases orders of magnitude). The \
         model reproduces consistently slower unbound runs with a heavy tail \
         from oversubscribed scheduler draws (~2x-9x); the paper's most \
         extreme 1e2-1e9 outliers are out of model scope (EXPERIMENTS.md)."
    );
}
