//! Quickstart: measure a query workload under the OS defaults, ask the
//! Figure 10 advisor for a plan, and measure again.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nqp::advisor::{advise, WorkloadProfile};
use nqp::core::TuningConfig;
use nqp::datagen::{generate, Dataset};
use nqp::query::{try_run_aggregation_on, AggConfig, WorkloadEnv};
use nqp::topology::machines;

fn main() {
    // W1: holistic aggregation (SELECT groupkey, MEDIAN(val) ... GROUP BY)
    // over a moving-cluster dataset, on the paper's 8-node Machine A.
    let (n, cardinality, seed) = (300_000, 75_000, 7);
    let records = generate(Dataset::MovingCluster, n, cardinality, seed);
    let cfg = AggConfig::w1(n, cardinality, seed);
    let machine = machines::machine_a();

    println!("machine: {} ({} nodes, {} hw threads)", machine.cpu_model,
        machine.topology.num_nodes(), machine.total_hw_threads());

    // 1. Out of the box: no affinity, First Touch, AutoNUMA+THP on, ptmalloc.
    let default = TuningConfig::os_default(machine.clone());
    let before =
        try_run_aggregation_on(&default.env(16), &cfg, &records).expect("the query completes");
    println!("\nOS default:        {:>12} cycles", before.exec_cycles);

    // 2. Ask the flowchart what to change.
    let plan = advise(&WorkloadProfile::analytics_default());
    println!("\nthe advisor says:\n{}", plan.describe());

    // 3. Apply the plan and re-measure.
    let advised = WorkloadEnv {
        sim: plan.apply(default.sim.clone()),
        allocator: plan.allocator_or_default(),
        threads: 16,
        engine: nqp::query::EngineKind::Tuple,
    };
    let after = try_run_aggregation_on(&advised, &cfg, &records).expect("the query completes");
    println!("\ntuned:             {:>12} cycles", after.exec_cycles);
    println!(
        "speedup: {:.2}x   (results identical: {})",
        before.exec_cycles as f64 / after.exec_cycles as f64,
        before.checksum == after.checksum
    );
}
