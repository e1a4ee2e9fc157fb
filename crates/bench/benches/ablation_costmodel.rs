//! Ablation: how sensitive are the paper's conclusions to the cost
//! model's design parameters?
//!
//! DESIGN.md calls out three load-bearing modelling choices: the
//! streaming MLP factor, the memory-controller bandwidth caps, and the
//! AutoNUMA scan cadence. This harness sweeps each and re-checks the
//! three headline orderings:
//!
//! * I>F — Interleave beats First Touch on Machine A (Figure 5a),
//! * S>D — Sparse beats Dense at 4 of 16 threads (Figure 4),
//! * A!  — AutoNUMA on is slower than off (Figure 5a).

use nqp_bench::{banner, Tbl, SEED};
use nqp_core::TuningConfig;
use nqp_datagen::{generate, Dataset, Record};
use nqp_query::{try_run_aggregation_on, AggConfig};
use nqp_sim::{MemPolicy, ThreadPlacement};
use nqp_topology::machines;

const N: usize = 250_000;
const CARD: u64 = 80_000;

struct Verdicts {
    interleave_beats_ft: bool,
    sparse_beats_dense: bool,
    autonuma_hurts: bool,
}

fn check(mutate: impl Fn(&mut TuningConfig), records: &[Record]) -> Verdicts {
    let cfg = AggConfig::w1(N, CARD, SEED);
    let run = |placement: ThreadPlacement, policy: MemPolicy, autonuma: bool, threads: usize| {
        let mut c = TuningConfig::os_default(machines::machine_a())
            .with_threads(placement)
            .with_policy(policy)
            .with_autonuma(autonuma)
            .with_thp(false);
        mutate(&mut c);
        try_run_aggregation_on(&c.env(threads), &cfg, records).expect("fault-free run").exec_cycles
    };
    Verdicts {
        interleave_beats_ft: run(ThreadPlacement::Sparse, MemPolicy::Interleave, false, 16)
            < run(ThreadPlacement::Sparse, MemPolicy::FirstTouch, false, 16),
        sparse_beats_dense: run(ThreadPlacement::Sparse, MemPolicy::FirstTouch, false, 4)
            < run(ThreadPlacement::Dense, MemPolicy::FirstTouch, false, 4),
        autonuma_hurts: run(ThreadPlacement::Sparse, MemPolicy::FirstTouch, true, 16)
            > run(ThreadPlacement::Sparse, MemPolicy::FirstTouch, false, 16),
    }
}

fn mark(v: bool) -> &'static str {
    if v {
        "holds"
    } else {
        "FLIPS"
    }
}

fn main() {
    banner("Ablation — cost-model parameter sensitivity (W1, Machine A)");
    let records = generate(Dataset::MovingCluster, N, CARD, SEED);
    let mut t = Tbl::new(["parameter", "value", "I>F", "S>D", "A!"]);

    for mlp in [1u64, 2, 4, 8] {
        let v = check(|c| c.sim.costs.mlp = mlp, &records);
        t.row([
            "streaming MLP".to_string(),
            format!("{mlp}{}", if mlp == 4 { " (default)" } else { "" }),
            mark(v.interleave_beats_ft).into(),
            mark(v.sparse_beats_dense).into(),
            mark(v.autonuma_hurts).into(),
        ]);
    }
    for scale in [0.5f64, 1.0, 2.0, 4.0] {
        let v = check(
            |c| {
                c.sim.machine.controller_lines_per_cycle *= scale;
                c.sim.machine.link_lines_per_cycle *= scale;
            },
            &records,
        );
        t.row([
            "bandwidth caps".to_string(),
            format!("x{scale}{}", if scale == 1.0 { " (default)" } else { "" }),
            mark(v.interleave_beats_ft).into(),
            mark(v.sparse_beats_dense).into(),
            mark(v.autonuma_hurts).into(),
        ]);
    }
    for period in [5_000_000u64, 10_000_000, 20_000_000] {
        let v = check(|c| c.sim.costs.autonuma_scan_period_cycles = period, &records);
        t.row([
            "AutoNUMA scan period".to_string(),
            format!(
                "{}M{}",
                period / 1_000_000,
                if period == 10_000_000 { " (default)" } else { "" }
            ),
            mark(v.interleave_beats_ft).into(),
            mark(v.sparse_beats_dense).into(),
            mark(v.autonuma_hurts).into(),
        ]);
    }
    for hold in [50u64, 100, 200] {
        let v = check(|c| c.sim.costs.thread_migration_cycles = hold * 30, &records);
        t.row([
            "migration cost".to_string(),
            format!("{} cyc{}", hold * 30, if hold == 100 { " (default)" } else { "" }),
            mark(v.interleave_beats_ft).into(),
            mark(v.sparse_beats_dense).into(),
            mark(v.autonuma_hurts).into(),
        ]);
    }
    t.print("Ablation — do the headline orderings survive parameter changes?");
    println!(
        "\nReading: the orderings are stable at the defaults and across the MLP \
         and migration-cost axes. The bandwidth-cap axis is the physically \
         meaningful sensitivity: starve every controller (x0.5) and even \
         Interleave saturates, so First Touch's locality wins back; give the \
         machine abundant bandwidth (x2-x4) and placement stops mattering — \
         which is exactly the Machine B/C story of Figure 5d. Stretching the \
         AutoNUMA scan period to 2x its default makes the daemon too lazy to \
         measurably hurt, confirming the scan cadence is what its cost is \
         made of."
    );
}
