//! Figure 9: the effect of the memory allocator on MonetDB's TPC-H Q5
//! and Q18 latency (Machine A) — the join+aggregation queries the paper
//! singles out.

use nqp_alloc::AllocatorKind;
use nqp_bench::{banner, tpch_sf, Tbl, SEED};
use nqp_datagen::tpch::TpchData;
use nqp_engines::{DbSystem, SystemKind};
use nqp_topology::machines;

const WARM_RUNS: usize = 3;

fn main() {
    banner("Figure 9 — Allocator effect on MonetDB TPC-H Q5/Q18 (Machine A)");
    let data = TpchData::generate(tpch_sf(), SEED);
    let machine = machines::machine_a();

    let mut t = Tbl::new(["allocator", "Q5 (Mcyc)", "Q18 (Mcyc)"]);
    for alloc in AllocatorKind::MAIN {
        let env = SystemKind::MonetDbLike.tuned_env(machine.clone()).with_allocator(alloc);
        let mut cells = vec![alloc.label().to_string()];
        for qnum in [5usize, 18] {
            let mut db = DbSystem::boot(SystemKind::MonetDbLike, &env, &data);
            let _cold = db.try_run(qnum).expect("fault-free query");
            let mut total = 0;
            for _ in 0..WARM_RUNS {
                total += db.try_run(qnum).expect("fault-free query").latency_cycles;
            }
            cells.push(format!("{:.3}", total as f64 / WARM_RUNS as f64 / 1e6));
        }
        t.row(cells);
    }
    t.print("Figure 9 — Mean warm query latency by allocator");
    println!(
        "\nPaper shape: tbbmalloc cuts MonetDB's Q5 latency ~11% and Q18 \
         ~20% relative to ptmalloc (both queries mix joins and \
         aggregations, so the materialising engine allocates heavily)."
    );
}
