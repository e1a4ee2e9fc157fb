//! Figure 10: the application-agnostic decision flowchart, exercised
//! over every combination of its questions, plus a measured validation
//! that following the advice beats the OS default.

use nqp_advisor::{advise, WorkloadProfile};
use nqp_bench::{agg_cardinality, agg_n, banner, gcyc, Tbl, SEED};
use nqp_core::TuningConfig;
use nqp_datagen::{generate, Dataset};
use nqp_query::{try_run_aggregation_on, AggConfig, WorkloadEnv};
use nqp_topology::machines;

fn main() {
    banner("Figure 10 — Application-agnostic decision flowchart");
    let mut t = Tbl::new([
        "managed",
        "bw-bound",
        "superuser",
        "placed",
        "alloc-heavy",
        "mem-tight",
        "-> plan",
    ]);
    for bits in 0..64u32 {
        let p = WorkloadProfile {
            threads_managed: bits & 1 != 0,
            memory_bandwidth_bound: bits & 2 != 0,
            superuser: bits & 4 != 0,
            memory_placement_defined: bits & 8 != 0,
            allocation_heavy: bits & 16 != 0,
            free_memory_constrained: bits & 32 != 0,
        };
        let plan = advise(&p);
        t.row([
            p.threads_managed.to_string(),
            p.memory_bandwidth_bound.to_string(),
            p.superuser.to_string(),
            p.memory_placement_defined.to_string(),
            p.allocation_heavy.to_string(),
            p.free_memory_constrained.to_string(),
            plan.describe().replace('\n', "; "),
        ]);
    }
    t.print("Figure 10 — the flowchart's decision table (all 64 inputs)");

    // Validation: following the flowchart beats the OS default on W1.
    let records = generate(Dataset::MovingCluster, agg_n(), agg_cardinality(), SEED);
    let cfg = AggConfig::w1(agg_n(), agg_cardinality(), SEED);
    let machine = machines::machine_a();
    let default = TuningConfig::os_default(machine.clone());
    let plan = advise(&WorkloadProfile::analytics_default());
    let advised = WorkloadEnv {
        sim: plan.apply(default.sim.clone()),
        allocator: plan.allocator_or_default(),
        threads: 16,
        engine: nqp_query::EngineKind::Tuple,
    };
    let d = try_run_aggregation_on(&default.env(16), &cfg, &records)
        .expect("fault-free run").exec_cycles;
    let a = try_run_aggregation_on(&advised, &cfg, &records).expect("fault-free run").exec_cycles;
    let mut v = Tbl::new(["configuration", "W1 runtime (Gcyc)"]);
    v.row(["OS default".to_string(), gcyc(d)]);
    v.row(["flowchart advice".to_string(), gcyc(a)]);
    v.print("Validation — W1 on Machine A, default vs advised");
    println!("speedup from following the flowchart: {:.2}x", d as f64 / a as f64);
}
