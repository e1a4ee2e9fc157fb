//! Figure 6: memory allocators × memory placement policies × machines,
//! for W1 (holistic aggregation), W2 (distributive aggregation), and
//! W3 (hash join); plus the 6j dataset-distribution sweep.

use nqp_alloc::AllocatorKind;
use nqp_bench::{agg_cardinality, agg_n, banner, gcyc, join_r_size, Tbl, SEED};
use nqp_core::TuningConfig;
use nqp_datagen::{generate, Dataset, JoinDataset};
use nqp_query::{try_run_aggregation_on, try_run_hash_join_on, AggConfig, AggKind};
use nqp_sim::{MemPolicy, ThreadPlacement};
use nqp_topology::MachineSpec;

const POLICIES: [MemPolicy; 3] =
    [MemPolicy::FirstTouch, MemPolicy::Interleave, MemPolicy::Localalloc];

fn config(machine: MachineSpec, alloc: AllocatorKind, policy: MemPolicy) -> TuningConfig {
    TuningConfig::os_default(machine)
        .with_threads(ThreadPlacement::Sparse)
        .with_policy(policy)
        .with_autonuma(false)
        .with_thp(false)
        .with_allocator(alloc)
}

fn agg_panel(machine: &MachineSpec, kind: AggKind, title: &str) {
    let n = agg_n();
    let card = agg_cardinality();
    let dataset = match kind {
        AggKind::HolisticMedian => Dataset::MovingCluster,
        AggKind::DistributiveCount => Dataset::Zipfian,
    };
    let records = generate(dataset, n, card, SEED);
    let cfg = AggConfig { kind, n, cardinality: card, dataset, seed: SEED, interleaved_table: false };
    let threads = machine.total_hw_threads();
    let mut t = Tbl::new(["allocator", "First Touch", "Interleave", "Localalloc"]);
    for alloc in AllocatorKind::MAIN {
        let mut row = vec![alloc.label().to_string()];
        for policy in POLICIES {
            let c = config(machine.clone(), alloc, policy);
            let out = try_run_aggregation_on(&c.env(threads), &cfg, &records);
            row.push(gcyc(out.expect("fault-free run").exec_cycles));
        }
        t.row(row);
    }
    t.print(title);
}

fn join_panel(machine: &MachineSpec, title: &str) {
    let data = JoinDataset::generate(join_r_size(), SEED);
    let threads = machine.total_hw_threads();
    let mut t = Tbl::new(["allocator", "First Touch", "Interleave", "Localalloc"]);
    for alloc in AllocatorKind::MAIN {
        let mut row = vec![alloc.label().to_string()];
        for policy in POLICIES {
            let c = config(machine.clone(), alloc, policy);
            let out = try_run_hash_join_on(&c.env(threads), &data).expect("fault-free run");
            row.push(gcyc(out.build_cycles + out.probe_cycles));
        }
        t.row(row);
    }
    t.print(title);
}

fn main() {
    banner("Figure 6 — Memory allocators x placement x machine (W1/W2/W3, Gcyc)");
    for machine in nqp_topology::machines::paper_machines() {
        agg_panel(
            &machine,
            AggKind::HolisticMedian,
            &format!("Figure 6 — W1 holistic aggregation, Machine {}", machine.name),
        );
        agg_panel(
            &machine,
            AggKind::DistributiveCount,
            &format!("Figure 6 — W2 distributive aggregation, Machine {}", machine.name),
        );
        join_panel(
            &machine,
            &format!("Figure 6 — W3 hash join, Machine {}", machine.name),
        );
    }

    // 6j: dataset distribution x allocator (W1, Machine A, Interleave).
    let machine = nqp_topology::machines::machine_a();
    let mut t = Tbl::new(["allocator", "moving-cluster", "sequential", "zipf"]);
    for alloc in AllocatorKind::MAIN {
        let mut row = vec![alloc.label().to_string()];
        for dataset in Dataset::PAPER {
            let records = generate(dataset, agg_n(), agg_cardinality(), SEED);
            let mut cfg = AggConfig::w1(agg_n(), agg_cardinality(), SEED);
            cfg.dataset = dataset;
            let c = config(machine.clone(), alloc, MemPolicy::Interleave);
            let out = try_run_aggregation_on(&c.env(16), &cfg, &records);
            row.push(gcyc(out.expect("fault-free run").exec_cycles));
        }
        t.row(row);
    }
    t.print("Figure 6j — W1 by dataset distribution, Machine A (Interleave)");
    println!(
        "\nPaper shape: tbbmalloc/jemalloc lead the allocation-heavy W1 and \
         W3 on every machine and dataset; ptmalloc trails; W2's gains come \
         from the Interleave policy, not the allocator."
    );
}
