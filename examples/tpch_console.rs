//! A tiny TPC-H console: run any of the 22 queries against the five
//! engine architecture profiles and compare latencies and plans.
//!
//! ```sh
//! cargo run --release --example tpch_console            # Q1, Q5, Q6
//! cargo run --release --example tpch_console -- 3 18    # specific queries
//! ```

use nqp::datagen::tpch::TpchData;
use nqp::engines::{query_name, DbSystem, SystemKind};
use nqp::query::WorkloadEnv;
use nqp::topology::machines;

fn main() {
    let queries: Vec<usize> = {
        let args: Vec<usize> = std::env::args()
            .skip(1)
            .filter_map(|a| a.parse().ok())
            .collect();
        if args.is_empty() {
            vec![1, 5, 6]
        } else {
            args
        }
    };
    let data = TpchData::generate(0.005, 42);
    println!(
        "TPC-H data: {} total rows ({} lineitems)",
        data.total_rows(),
        data.lineitem.l_orderkey.len()
    );
    let env = WorkloadEnv::tuned(machines::machine_a());

    for q in queries {
        println!("\n==== Q{q}: {} ====", query_name(q));
        let mut reference: Option<Vec<nqp::engines::Row>> = None;
        for system in SystemKind::ALL {
            let mut db = DbSystem::boot(system, &env, &data);
            let out = db.try_run(q).expect("the query completes");
            match &reference {
                None => reference = Some(out.rows.clone()),
                Some(r) => assert_eq!(r, &out.rows, "engines disagree!"),
            }
            println!(
                "{:<11} {:>12} cycles  ({} workers, {} rows)",
                system.label(),
                out.latency_cycles,
                db.profile().worker_threads_for(q, db.threads()),
                out.rows.len()
            );
        }
        let rows = reference.expect("at least one engine ran");
        for row in rows.iter().take(5) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            println!("   | {}", cells.join(" | "));
        }
        if rows.len() > 5 {
            println!("   | ... {} more rows", rows.len() - 5);
        }
    }
}
