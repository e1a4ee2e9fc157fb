//! Cross-crate integration checks: independent oracles for TPC-H plans
//! and end-to-end agreement between workload implementations.

use nqp::datagen::tpch::{dates, TpchData};
use nqp::datagen::JoinDataset;
use nqp::engines::{DbSystem, SystemKind, Value};
use nqp::indexes::IndexKind;
use nqp::query::{
    reference_join, try_run_hash_join_on, try_run_inl_join_on, WorkloadEnv,
};
use nqp::topology::machines;

fn env() -> WorkloadEnv {
    WorkloadEnv::tuned(machines::machine_b()).with_threads(4)
}

fn tpch() -> TpchData {
    TpchData::generate(0.003, 21)
}

/// Q6 re-derived with a straight-line iterator, independent of the
/// engine's operator toolkit.
#[test]
fn q6_matches_an_independent_oracle() {
    let data = tpch();
    let (lo, hi) = (dates::parse("1994-01-01").expect("static literal"), dates::parse("1995-01-01").expect("static literal"));
    let expect: i64 = (0..data.lineitem.l_orderkey.len())
        .filter(|&i| {
            let l = &data.lineitem;
            l.l_shipdate[i] >= lo
                && l.l_shipdate[i] < hi
                && (5..=7).contains(&l.l_discount[i])
                && l.l_quantity[i] < 24
        })
        .map(|i| data.lineitem.l_extendedprice[i] * data.lineitem.l_discount[i])
        .sum();
    let mut db = DbSystem::boot(SystemKind::QuickstepLike, &env(), &data);
    let rows = db.try_run(6).expect("fault-free query").rows;
    assert_eq!(rows, vec![vec![Value::I(expect)]]);
}

/// Q1's per-group counts must sum to the number of qualifying lineitems,
/// and the group keys must be exactly the distinct (flag, status) pairs.
#[test]
fn q1_groups_cover_the_qualifying_lineitems() {
    let data = tpch();
    let cutoff = dates::parse("1998-12-01").expect("static literal") - 90;
    let qualifying = data
        .lineitem
        .l_shipdate
        .iter()
        .filter(|&&d| d <= cutoff)
        .count() as i64;
    let mut db = DbSystem::boot(SystemKind::MonetDbLike, &env(), &data);
    let rows = db.try_run(1).expect("fault-free query").rows;
    let total: i64 = rows.iter().map(|r| r.last().expect("count column").as_i()).sum();
    assert_eq!(total, qualifying);
    let mut keys: Vec<(String, String)> = rows
        .iter()
        .map(|r| (r[0].as_s().to_string(), r[1].as_s().to_string()))
        .collect();
    keys.dedup();
    assert_eq!(keys.len(), rows.len(), "duplicate groups");
    let sorted = {
        let mut k = keys.clone();
        k.sort();
        k
    };
    assert_eq!(keys, sorted, "groups must come out sorted");
}

/// Q14 re-derived independently: promo share scaled by 1e4.
#[test]
fn q14_matches_an_independent_oracle() {
    let data = tpch();
    let (lo, hi) = (dates::parse("1995-09-01").expect("static literal"), dates::parse("1995-10-01").expect("static literal"));
    let mut promo = 0i64;
    let mut total = 0i64;
    for i in 0..data.lineitem.l_orderkey.len() {
        let l = &data.lineitem;
        if l.l_shipdate[i] < lo || l.l_shipdate[i] >= hi {
            continue;
        }
        let r = l.l_extendedprice[i] * (100 - l.l_discount[i]) / 100;
        let ptype = &data.part.p_type[(l.l_partkey[i] - 1) as usize];
        if ptype.starts_with("PROMO") {
            promo += r;
        }
        total += r;
    }
    let expect = if total == 0 { 0 } else { (promo as i128 * 10_000 / total as i128) as i64 };
    let mut db = DbSystem::boot(SystemKind::DbmsX, &env(), &data);
    assert_eq!(db.try_run(14).expect("fault-free query").rows, vec![vec![Value::I(expect)]]);
}

/// W3 and W4 must join identically (same checksum) across every index,
/// and match the host-side reference, under *different* machines.
#[test]
fn joins_agree_across_implementations_and_machines() {
    let data = JoinDataset::generate(1_000, 17);
    let (matches, checksum) = reference_join(&data);
    for machine in machines::paper_machines() {
        let env = WorkloadEnv::tuned(machine).with_threads(8);
        let w3 = try_run_hash_join_on(&env, &data).expect("fault-free run");
        assert_eq!((w3.matches, w3.checksum), (matches, checksum));
        for kind in IndexKind::ALL {
            let w4 = try_run_inl_join_on(&env, kind, &data).expect("fault-free run");
            assert_eq!((w4.matches, w4.checksum), (matches, checksum), "{kind:?}");
        }
    }
}

/// Booting the same system twice on the same data reproduces identical
/// latencies (whole-stack determinism).
#[test]
fn whole_stack_is_deterministic() {
    let data = tpch();
    let run = || {
        let mut db = DbSystem::boot(SystemKind::PostgresLike, &env(), &data);
        [3usize, 13, 22].map(|q| db.try_run(q).expect("fault-free query").latency_cycles)
    };
    assert_eq!(run(), run());
}

/// The W5 tuned environment never changes any query's result rows.
#[test]
fn tuning_never_changes_w5_results() {
    let data = tpch();
    let tuned = env();
    let default = WorkloadEnv::os_default(machines::machine_b()).with_threads(4);
    let mut a = DbSystem::boot(SystemKind::MonetDbLike, &default, &data);
    let mut b = DbSystem::boot(SystemKind::MonetDbLike, &tuned, &data);
    for q in [2usize, 4, 11, 19, 21] {
        assert_eq!(
            a.try_run(q).expect("fault-free query").rows,
            b.try_run(q).expect("fault-free query").rows,
            "Q{q} rows changed under tuning"
        );
    }
}
