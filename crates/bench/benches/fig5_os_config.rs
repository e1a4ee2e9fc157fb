//! Figure 5: the OS-configuration experiments — AutoNUMA (5a/5b), THP ×
//! allocator (5c), and the combined effect across machines (5d). All on
//! W1 with Sparse affinity.

use nqp_alloc::AllocatorKind;
use nqp_bench::{agg_cardinality, agg_n, banner, gcyc, Tbl, SEED};
use nqp_core::TuningConfig;
use nqp_datagen::{generate, Dataset};
use nqp_query::{try_run_aggregation_on, AggConfig, AggOutcome};
use nqp_sim::{MemPolicy, ThreadPlacement};
use nqp_topology::machines;

fn run(
    machine: nqp_topology::MachineSpec,
    policy: MemPolicy,
    autonuma: bool,
    thp: bool,
    allocator: AllocatorKind,
) -> AggOutcome {
    let n = agg_n();
    let card = agg_cardinality();
    let records = generate(Dataset::MovingCluster, n, card, SEED);
    let cfg = AggConfig::w1(n, card, SEED);
    let threads = machine.total_hw_threads();
    let c = TuningConfig::os_default(machine)
        .with_threads(ThreadPlacement::Sparse)
        .with_policy(policy)
        .with_autonuma(autonuma)
        .with_thp(thp)
        .with_allocator(allocator);
    try_run_aggregation_on(&c.env(threads), &cfg, &records).expect("fault-free run")
}

fn main() {
    banner("Figure 5 — AutoNUMA and Transparent Hugepages (W1)");
    let policies = [MemPolicy::FirstTouch, MemPolicy::Interleave, MemPolicy::Localalloc];

    // 5a + 5b: AutoNUMA x memory placement, runtime and LAR (Machine A).
    let mut t5a = Tbl::new(["policy", "AutoNUMA On (Gcyc)", "AutoNUMA Off (Gcyc)"]);
    let mut t5b = Tbl::new(["policy", "LAR On (%)", "LAR Off (%)"]);
    for policy in policies {
        let on = run(machines::machine_a(), policy, true, false, AllocatorKind::Ptmalloc);
        let off = run(machines::machine_a(), policy, false, false, AllocatorKind::Ptmalloc);
        t5a.row([
            policy.label().to_string(),
            gcyc(on.exec_cycles),
            gcyc(off.exec_cycles),
        ]);
        t5b.row([
            policy.label().to_string(),
            format!("{:.0}", on.counters.local_access_ratio() * 100.0),
            format!("{:.0}", off.counters.local_access_ratio() * 100.0),
        ]);
    }
    t5a.print("Figure 5a — AutoNUMA effect on execution time (Machine A)");
    t5b.print("Figure 5b — AutoNUMA effect on Local Access Ratio (Machine A)");
    println!(
        "Paper shape: AutoNUMA raises LAR yet slows every policy — LAR is \
         not a performance predictor; best = Interleave with AutoNUMA off."
    );

    // 5c: THP x allocator (Machine A, First Touch, AutoNUMA off).
    let mut t5c = Tbl::new(["allocator", "THP Off (Gcyc)", "THP On (Gcyc)", "THP On/Off"]);
    for alloc in AllocatorKind::MAIN {
        let off = run(machines::machine_a(), MemPolicy::FirstTouch, false, false, alloc);
        let on = run(machines::machine_a(), MemPolicy::FirstTouch, false, true, alloc);
        t5c.row([
            alloc.label().to_string(),
            gcyc(off.exec_cycles),
            gcyc(on.exec_cycles),
            format!("{:.2}", on.exec_cycles as f64 / off.exec_cycles as f64),
        ]);
    }
    t5c.print("Figure 5c — Impact of THP on memory allocators (Machine A)");
    println!(
        "Paper shape: THP is detrimental-to-negligible; tcmalloc, jemalloc \
         and tbbmalloc handle it worst, ptmalloc and Hoard shrug."
    );

    // 5d: combined AutoNUMA+THP on/off x policy, across machines.
    let mut t5d = Tbl::new(["machine", "config", "First Touch", "Interleave", "Localalloc"]);
    for machine in machines::paper_machines() {
        for (label, on) in [("AutoNUMA+THP enabled", true), ("AutoNUMA+THP disabled", false)] {
            let mut row = vec![format!("Machine {}", machine.name), label.to_string()];
            for policy in policies {
                let out = run(machine.clone(), policy, on, on, AllocatorKind::Ptmalloc);
                row.push(gcyc(out.exec_cycles));
            }
            t5d.row(row);
        }
    }
    t5d.print("Figure 5d — Combined AutoNUMA & THP effect by machine (Gcyc)");
    println!(
        "Paper shape: Machine A improves the most from disabling the \
         switches and interleaving (its topology is deepest), Machine C \
         moderately, Machine B the least (its remote latency is nearly \
         flat)."
    );
}
