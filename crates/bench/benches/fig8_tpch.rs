//! Figure 8: TPC-H query latency reduction across the five database
//! systems on Machine A — OS default vs the paper's W5 tuning (First
//! Touch, AutoNUMA off, THP off except DBMSx, tbbmalloc).
//!
//! Methodology follows §IV-E: each query is measured in a fresh session
//! (page cache cleared), the cold run is discarded, and warm runs are
//! averaged.

use nqp_alloc::AllocatorKind;
use nqp_bench::{banner, tpch_sf, Tbl, SEED};
use nqp_datagen::tpch::TpchData;
use nqp_engines::{DbSystem, SystemKind, QUERY_COUNT};
use nqp_query::WorkloadEnv;
use nqp_sim::{MemPolicy, SimConfig};
use nqp_topology::machines;

const WARM_RUNS: usize = 2;

fn measure(system: SystemKind, env: &WorkloadEnv, data: &TpchData, qnum: usize) -> u64 {
    let mut db = DbSystem::boot(system, env, data);
    let _cold = db.try_run(qnum).expect("fault-free query");
    let mut total = 0;
    for _ in 0..WARM_RUNS {
        total += db.try_run(qnum).expect("fault-free query").latency_cycles;
    }
    total / WARM_RUNS as u64
}

fn main() {
    banner("Figure 8 — TPC-H (W5) latency reduction, Machine A, SF-scaled");
    let data = TpchData::generate(tpch_sf(), SEED);
    let machine = machines::machine_a();
    let threads = machine.total_hw_threads();

    let default_env = WorkloadEnv {
        sim: SimConfig::os_default(machine.clone()),
        allocator: AllocatorKind::Ptmalloc,
        threads,
        engine: nqp_query::EngineKind::Tuple,
    };
    let tuned_env = |thp: bool| WorkloadEnv {
        // The paper's W5 tuning changes no thread placement: First Touch,
        // AutoNUMA off, THP off (DBMSx keeps THP), tbbmalloc preloaded.
        sim: SimConfig::os_default(machine.clone())
            .with_policy(MemPolicy::FirstTouch)
            .with_autonuma(false)
            .with_thp(thp),
        allocator: AllocatorKind::Tbbmalloc,
        threads,
        engine: nqp_query::EngineKind::Tuple,
    };

    let mut t = Tbl::new(
        std::iter::once("query".to_string())
            .chain(SystemKind::ALL.iter().map(|s| s.label().to_string())),
    );
    let mut sums = vec![0.0f64; SystemKind::ALL.len()];
    for qnum in 1..=QUERY_COUNT {
        let mut row = vec![format!("Q{qnum}")];
        for (si, system) in SystemKind::ALL.into_iter().enumerate() {
            // The paper keeps THP on for DBMSx only.
            let tuned = tuned_env(system == SystemKind::DbmsX);
            let d = measure(system, &default_env, &data, qnum);
            let u = measure(system, &tuned, &data, qnum);
            let reduction = nqp_core::experiment::reduction_pct(d, u);
            sums[si] += reduction;
            row.push(format!("{reduction:.1}%"));
        }
        t.row(row);
    }
    let mut avg_row = vec!["average".to_string()];
    for s in &sums {
        avg_row.push(format!("{:.1}%", s / QUERY_COUNT as f64));
    }
    t.row(avg_row);
    t.print("Figure 8 — Query latency reduction (tuned vs OS default)");
    println!(
        "\nPaper shape: every system gains on average (MonetDB ~14.5%, \
         PostgreSQL smallest and least consistent, MySQL ~12%, DBMSx ~21%, \
         Quickstep ~7%); a handful of queries regress slightly."
    );
}
