//! TPC-H Q9–Q16.

use crate::exec::{
    charge_sort, finish, maybe_materialize, scan_phase, Map, QueryCtx, Set, ShadowHash, LIKE_CYCLES,
};
use crate::error::EngineError;
use crate::storage::TpchDb;
use crate::value::{i, s, Row};
use nqp_datagen::tpch::dates;
use nqp_sim::NumaSim;
use nqp_storage::SimHeap;

fn rev(ext: i64, disc: i64) -> i64 {
    ext * (100 - disc) / 100
}

/// Q9: product-type profit — profit on `%green%` parts by nation and
/// order year.
pub(super) fn q09(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let st = db.table("supplier")?;
    let s_nationkey = st.col("s_nationkey")?;
    let pt = db.table("part")?;
    let p_name = pt.col("p_name")?;
    let pst = db.table("partsupp")?;
    let [ps_partkey, ps_suppkey, ps_supplycost] =
        pst.cols(["ps_partkey", "ps_suppkey", "ps_supplycost"])?;
    let ot = db.table("orders")?;
    let [o_orderkey, o_orderdate] = ot.cols(["o_orderkey", "o_orderdate"])?;
    let lt = db.table("lineitem")?;
    let [l_partkey, l_suppkey, l_orderkey, l_extendedprice, l_discount, l_quantity] = lt.cols([
        "l_partkey",
        "l_suppkey",
        "l_orderkey",
        "l_extendedprice",
        "l_discount",
        "l_quantity",
    ])?;
    // Phase 1: every order's year.
    type OMap = Map<i64, i32>;
    let omap: OMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        ot,
        |_, _, _| (),
        |w, _, db, _, row, local: &mut OMap| {
            o_orderkey.charge(w, row);
            o_orderdate.charge(w, row);
            let o = &db.data.orders;
            local.insert(o.o_orderkey[row], dates::year(o.o_orderdate[row]));
        },
        |_, _, _, locals| locals.into_iter().flatten().collect(),
    )?;
    // Phase 2: green-part lineitems -> profit by (nation, year).
    type PMap = Map<(i64, i32), i64>;
    let profits: PMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        lt,
        |w, heap, db| {
            let parts: Set<i64> = (0..pt.nrows())
                .filter(|&r| {
                    p_name.charge(w, r);
                    w.compute(LIKE_CYCLES);
                    db.data.part.p_name[r].contains("green")
                })
                .map(|r| db.data.part.p_partkey[r])
                .collect();
            let supp_nation: Map<i64, i64> = (0..st.nrows())
                .map(|r| {
                    s_nationkey.charge(w, r);
                    (db.data.supplier.s_suppkey[r], db.data.supplier.s_nationkey[r])
                })
                .collect();
            let mut cost: Map<(i64, i64), i64> = Map::default();
            for r in 0..pst.nrows() {
                ps_partkey.charge(w, r);
                let ps = &db.data.partsupp;
                if parts.contains(&ps.ps_partkey[r]) {
                    ps_suppkey.charge(w, r);
                    ps_supplycost.charge(w, r);
                    cost.insert((ps.ps_partkey[r], ps.ps_suppkey[r]), ps.ps_supplycost[r]);
                }
            }
            let shadow = ShadowHash::new(w, omap.len() + cost.len());
            for &k in omap.keys() {
                shadow.insert(w, heap, k as u64);
            }
            (parts, supp_nation, cost, shadow)
        },
        |w, _, db, (parts, supp_nation, cost, shadow), row, local: &mut PMap| {
            l_partkey.charge(w, row);
            let li = &db.data.lineitem;
            let pk = li.l_partkey[row];
            shadow.probe(w, pk as u64);
            if !parts.contains(&pk) {
                return;
            }
            for col in [l_suppkey, l_orderkey, l_extendedprice, l_discount, l_quantity] {
                col.charge(w, row);
            }
            let sk = li.l_suppkey[row];
            shadow.probe(w, li.l_orderkey[row] as u64);
            let year = omap[&li.l_orderkey[row]];
            let amount = rev(li.l_extendedprice[row], li.l_discount[row])
                - cost[&(pk, sk)] * li.l_quantity[row];
            *local.entry((supp_nation[&sk], year)).or_default() += amount;
        },
        |_, _, _, locals| {
            let mut m = PMap::default();
            for l in locals {
                for (k, v) in l {
                    *m.entry(k).or_default() += v;
                }
            }
            m
        },
    )?;
    let mut rows: Vec<Row> = profits
        .into_iter()
        .map(|((nk, year), p)| {
            vec![s(db.data.nation.n_name[nk as usize].clone()), i(year as i64), i(p)]
        })
        .collect();
    rows.sort_by(|a, b| {
        a[0].as_s()
            .cmp(b[0].as_s())
            .then_with(|| b[1].as_i().cmp(&a[1].as_i()))
    });
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 32);
        charge_sort(w, n);
    })?;
    Ok(rows)
}

/// Q10: returned-item reporting — top 20 customers by Q4-1993 returned
/// revenue.
pub(super) fn q10(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let ct = db.table("customer")?;
    let [c_name, c_acctbal, c_nationkey, c_address, c_phone] =
        ct.cols(["c_name", "c_acctbal", "c_nationkey", "c_address", "c_phone"])?;
    let ot = db.table("orders")?;
    let [o_orderdate, o_orderkey, o_custkey] = ot.cols(["o_orderdate", "o_orderkey", "o_custkey"])?;
    let lt = db.table("lineitem")?;
    let [l_returnflag, l_orderkey, l_extendedprice, l_discount] =
        lt.cols(["l_returnflag", "l_orderkey", "l_extendedprice", "l_discount"])?;
    let lo = dates::parse("1993-10-01")?;
    let hi = dates::add_months(lo, 3);
    // Phase 1: Q4-93 orders -> custkey.
    type OMap = Map<i64, i64>;
    let omap: OMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        ot,
        |_, _, _| (),
        |w, _, db, _, row, local: &mut OMap| {
            o_orderdate.charge(w, row);
            let o = &db.data.orders;
            if o.o_orderdate[row] >= lo && o.o_orderdate[row] < hi {
                o_orderkey.charge(w, row);
                o_custkey.charge(w, row);
                local.insert(o.o_orderkey[row], o.o_custkey[row]);
            }
        },
        |_, _, _, locals| locals.into_iter().flatten().collect(),
    )?;
    // Phase 2: returned lineitems of those orders -> revenue by customer.
    type RMap = Map<i64, i64>;
    let by_cust: RMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        lt,
        |w, heap, _| {
            let shadow = ShadowHash::new(w, omap.len());
            for &k in omap.keys() {
                shadow.insert(w, heap, k as u64);
            }
            shadow
        },
        |w, heap, db, shadow, row, local: &mut RMap| {
            l_returnflag.charge(w, row);
            let li = &db.data.lineitem;
            if li.l_returnflag[row] != "R" {
                return;
            }
            l_orderkey.charge(w, row);
            shadow.probe(w, li.l_orderkey[row] as u64);
            let Some(&ck) = omap.get(&li.l_orderkey[row]) else { return };
            l_extendedprice.charge(w, row);
            l_discount.charge(w, row);
            if !local.contains_key(&ck) {
                heap.alloc(w, 32); // fresh per-customer aggregate state
            }
            *local.entry(ck).or_default() += rev(li.l_extendedprice[row], li.l_discount[row]);
        },
        |_, _, _, locals| {
            let mut m = RMap::default();
            for l in locals {
                for (k, v) in l {
                    *m.entry(k).or_default() += v;
                }
            }
            m
        },
    )?;
    let mut entries: Vec<(i64, i64)> = by_cust.into_iter().collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    entries.truncate(20);
    // Output columns join customer and nation (charged per output row).
    let mut rows = Vec::new();
    let mut entries_out = Vec::new();
    let ckey_to_row: Map<i64, usize> = db
        .data
        .customer
        .c_custkey
        .iter()
        .enumerate()
        .map(|(r, &k)| (k, r))
        .collect();
    for (ck, revenue) in entries {
        let r = ckey_to_row[&ck];
        let c = &db.data.customer;
        entries_out.push(r);
        rows.push(vec![
            i(ck),
            s(c.c_name[r].clone()),
            i(revenue),
            i(c.c_acctbal[r]),
            s(db.data.nation.n_name[c.c_nationkey[r] as usize].clone()),
            s(c.c_address[r].clone()),
            s(c.c_phone[r].clone()),
        ]);
    }
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        for &r in &entries_out {
            for col in [c_name, c_acctbal, c_nationkey, c_address, c_phone] {
                col.charge(w, r);
            }
        }
        maybe_materialize(w, heap, &ctx.profile, n, 96);
        charge_sort(w, n.max(20));
    })?;
    Ok(rows)
}

/// Q11: important stock — GERMANY's part-supp value concentration.
pub(super) fn q11(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let st = db.table("supplier")?;
    let s_nationkey = st.col("s_nationkey")?;
    let pst = db.table("partsupp")?;
    let [ps_suppkey, ps_partkey, ps_supplycost, ps_availqty] =
        pst.cols(["ps_suppkey", "ps_partkey", "ps_supplycost", "ps_availqty"])?;
    type VMap = Map<i64, i64>; // partkey -> value (cents)
    let (values, total) = scan_phase(
        sim,
        heap,
        db,
        ctx,
        pst,
        |w, _, db| {
            let nk: i64 = db
                .data
                .nation
                .n_name
                .iter()
                .position(|n| n == "GERMANY")
                .map(|r| db.data.nation.n_nationkey[r])
                .expect("GERMANY exists");
            let german: Set<i64> = (0..st.nrows())
                .filter(|&r| {
                    s_nationkey.charge(w, r);
                    db.data.supplier.s_nationkey[r] == nk
                })
                .map(|r| db.data.supplier.s_suppkey[r])
                .collect();
            (german, ShadowHash::new(w, 1024))
        },
        |w, _, db, (german, shadow), row, local: &mut VMap| {
            ps_suppkey.charge(w, row);
            let ps = &db.data.partsupp;
            shadow.probe(w, ps.ps_suppkey[row] as u64);
            if !german.contains(&ps.ps_suppkey[row]) {
                return;
            }
            ps_partkey.charge(w, row);
            ps_supplycost.charge(w, row);
            ps_availqty.charge(w, row);
            *local.entry(ps.ps_partkey[row]).or_default() +=
                ps.ps_supplycost[row] * ps.ps_availqty[row];
        },
        |_, _, _, locals| {
            let mut m = VMap::default();
            for l in locals {
                for (k, v) in l {
                    *m.entry(k).or_default() += v;
                }
            }
            let total: i64 = m.values().sum();
            (m, total)
        },
    )?;
    let mut rows: Vec<Row> = values
        .into_iter()
        .filter(|&(_, v)| v as i128 * 10_000 > total as i128)
        .map(|(pk, v)| vec![i(pk), i(v)])
        .collect();
    rows.sort_by(|a, b| b[1].as_i().cmp(&a[1].as_i()).then_with(|| a[0].as_i().cmp(&b[0].as_i())));
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 16);
        charge_sort(w, n);
    })?;
    Ok(rows)
}

/// Q12: shipping modes and order priority — MAIL/SHIP lineitems received
/// in 1994 that met/missed their dates, split by priority class.
pub(super) fn q12(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let ot = db.table("orders")?;
    let [o_orderkey, o_orderpriority] = ot.cols(["o_orderkey", "o_orderpriority"])?;
    let lt = db.table("lineitem")?;
    let [l_shipmode, l_receiptdate, l_commitdate, l_shipdate, l_orderkey] =
        lt.cols(["l_shipmode", "l_receiptdate", "l_commitdate", "l_shipdate", "l_orderkey"])?;
    let lo = dates::parse("1994-01-01")?;
    let hi = dates::add_years(lo, 1);
    // Phase 1: order priority classes.
    type OMap = Map<i64, bool>; // orderkey -> high priority?
    let omap: OMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        ot,
        |_, _, _| (),
        |w, _, db, _, row, local: &mut OMap| {
            o_orderkey.charge(w, row);
            o_orderpriority.charge(w, row);
            let o = &db.data.orders;
            let high = o.o_orderpriority[row].starts_with("1-")
                || o.o_orderpriority[row].starts_with("2-");
            local.insert(o.o_orderkey[row], high);
        },
        |_, _, _, locals| locals.into_iter().flatten().collect(),
    )?;
    // Phase 2: qualifying lineitems.
    type CMap = Map<String, (i64, i64)>; // shipmode -> (high, low)
    let counts: CMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        lt,
        |w, heap, _| {
            let shadow = ShadowHash::new(w, omap.len());
            for &k in omap.keys() {
                shadow.insert(w, heap, k as u64);
            }
            shadow
        },
        |w, _, db, shadow, row, local: &mut CMap| {
            l_shipmode.charge(w, row);
            let li = &db.data.lineitem;
            let mode = &li.l_shipmode[row];
            if mode != "MAIL" && mode != "SHIP" {
                return;
            }
            for col in [l_receiptdate, l_commitdate, l_shipdate, l_orderkey] {
                col.charge(w, row);
            }
            let ok = li.l_receiptdate[row] >= lo
                && li.l_receiptdate[row] < hi
                && li.l_commitdate[row] < li.l_receiptdate[row]
                && li.l_shipdate[row] < li.l_commitdate[row];
            if !ok {
                return;
            }
            shadow.probe(w, li.l_orderkey[row] as u64);
            let high = omap[&li.l_orderkey[row]];
            let e = local.entry(mode.clone()).or_default();
            if high {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        },
        |_, _, _, locals| {
            let mut m = CMap::default();
            for l in locals {
                for (k, (a, b)) in l {
                    let e = m.entry(k).or_default();
                    e.0 += a;
                    e.1 += b;
                }
            }
            m
        },
    )?;
    let mut rows: Vec<Row> = counts
        .into_iter()
        .map(|(mode, (h, l))| vec![s(mode), i(h), i(l)])
        .collect();
    rows.sort();
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 32);
        charge_sort(w, n);
    })?;
    Ok(rows)
}

/// Q13: customer distribution by order count, excluding
/// `%special%requests%` comments.
pub(super) fn q13(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let ct = db.table("customer")?;
    let c_custkey = ct.col("c_custkey")?;
    let ot = db.table("orders")?;
    let [o_comment, o_custkey] = ot.cols(["o_comment", "o_custkey"])?;
    // Phase 1: orders per customer (filtered).
    type CMap = Map<i64, i64>;
    let per_cust: CMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        ot,
        |_, _, _| (),
        |w, heap, db, _, row, local: &mut CMap| {
            o_comment.charge(w, row);
            w.compute(LIKE_CYCLES);
            let o = &db.data.orders;
            let c = &o.o_comment[row];
            if let Some(pos) = c.find("special") {
                if c[pos..].contains("requests") {
                    return;
                }
            }
            o_custkey.charge(w, row);
            if !local.contains_key(&o.o_custkey[row]) {
                heap.alloc(w, 32); // fresh per-customer counter
            }
            *local.entry(o.o_custkey[row]).or_default() += 1;
        },
        |_, _, _, locals| {
            let mut m = CMap::default();
            for l in locals {
                for (k, v) in l {
                    *m.entry(k).or_default() += v;
                }
            }
            m
        },
    )?;
    // Phase 2: left join customers against the counts, then histogram.
    type HMap = Map<i64, i64>; // c_count -> customer count
    let hist: HMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        ct,
        |w, heap, _| {
            let shadow = ShadowHash::new(w, per_cust.len());
            for &k in per_cust.keys() {
                shadow.insert(w, heap, k as u64);
            }
            shadow
        },
        |w, _, db, shadow, row, local: &mut HMap| {
            c_custkey.charge(w, row);
            let ck = db.data.customer.c_custkey[row];
            shadow.probe(w, ck as u64);
            let count = per_cust.get(&ck).copied().unwrap_or(0);
            *local.entry(count).or_default() += 1;
        },
        |_, _, _, locals| {
            let mut m = HMap::default();
            for l in locals {
                for (k, v) in l {
                    *m.entry(k).or_default() += v;
                }
            }
            m
        },
    )?;
    let mut rows: Vec<Row> = hist.into_iter().map(|(c, n)| vec![i(c), i(n)]).collect();
    rows.sort_by(|a, b| b[1].as_i().cmp(&a[1].as_i()).then_with(|| b[0].as_i().cmp(&a[0].as_i())));
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 16);
        charge_sort(w, n);
    })?;
    Ok(rows)
}

/// Q14: promotion effect — PROMO revenue share in 1995-09, scaled 1e4.
pub(super) fn q14(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let pt = db.table("part")?;
    let p_type = pt.col("p_type")?;
    let lt = db.table("lineitem")?;
    let [l_shipdate, l_partkey, l_extendedprice, l_discount] =
        lt.cols(["l_shipdate", "l_partkey", "l_extendedprice", "l_discount"])?;
    let lo = dates::parse("1995-09-01")?;
    let hi = dates::add_months(lo, 1);
    let (promo, total) = scan_phase(
        sim,
        heap,
        db,
        ctx,
        lt,
        |w, _, db| {
            let promo_parts: Set<i64> = (0..pt.nrows())
                .filter(|&r| {
                    p_type.charge(w, r);
                    w.compute(LIKE_CYCLES);
                    db.data.part.p_type[r].starts_with("PROMO")
                })
                .map(|r| db.data.part.p_partkey[r])
                .collect();
            (promo_parts, ShadowHash::new(w, 4096))
        },
        |w, _, db, (promo_parts, shadow), row, local: &mut (i64, i64)| {
            l_shipdate.charge(w, row);
            let li = &db.data.lineitem;
            if li.l_shipdate[row] < lo || li.l_shipdate[row] >= hi {
                return;
            }
            l_partkey.charge(w, row);
            l_extendedprice.charge(w, row);
            l_discount.charge(w, row);
            shadow.probe(w, li.l_partkey[row] as u64);
            let r = rev(li.l_extendedprice[row], li.l_discount[row]);
            if promo_parts.contains(&li.l_partkey[row]) {
                local.0 += r;
            }
            local.1 += r;
        },
        |_, _, _, locals| {
            locals
                .into_iter()
                .fold((0, 0), |acc, l| (acc.0 + l.0, acc.1 + l.1))
        },
    )?;
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, 1, 8);
    })?;
    let share = if total == 0 { 0 } else { (promo as i128 * 10_000 / total as i128) as i64 };
    Ok(vec![vec![i(share)]])
}

/// Q15: top supplier by 1996-Q1 revenue.
pub(super) fn q15(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let st = db.table("supplier")?;
    let [s_name, s_address, s_phone] = st.cols(["s_name", "s_address", "s_phone"])?;
    let lt = db.table("lineitem")?;
    let [l_shipdate, l_suppkey, l_extendedprice, l_discount] =
        lt.cols(["l_shipdate", "l_suppkey", "l_extendedprice", "l_discount"])?;
    let lo = dates::parse("1996-01-01")?;
    let hi = dates::add_months(lo, 3);
    type RMap = Map<i64, i64>;
    let by_supp: RMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        lt,
        |w, _, _| ShadowHash::new(w, 1024),
        |w, heap, db, shadow, row, local: &mut RMap| {
            l_shipdate.charge(w, row);
            let li = &db.data.lineitem;
            if li.l_shipdate[row] < lo || li.l_shipdate[row] >= hi {
                return;
            }
            l_suppkey.charge(w, row);
            l_extendedprice.charge(w, row);
            l_discount.charge(w, row);
            let key = li.l_suppkey[row];
            if local.contains_key(&key) {
                shadow.update(w, key as u64);
            } else {
                shadow.insert(w, heap, key as u64);
            }
            *local.entry(key).or_default() +=
                rev(li.l_extendedprice[row], li.l_discount[row]);
        },
        |_, _, _, locals| {
            let mut m = RMap::default();
            for l in locals {
                for (k, v) in l {
                    *m.entry(k).or_default() += v;
                }
            }
            m
        },
    )?;
    let max_rev = by_supp.values().copied().max().unwrap_or(0);
    let mut rows: Vec<Row> = Vec::new();
    let skey_to_row: Map<i64, usize> = db
        .data
        .supplier
        .s_suppkey
        .iter()
        .enumerate()
        .map(|(r, &k)| (k, r))
        .collect();
    // Suppliers tied on `max_rev` are charged below in supplier-key
    // order, not in `by_supp`'s hash order.
    let mut top: Vec<(i64, i64)> =
        by_supp.iter().filter(|&(_, &r)| r == max_rev).map(|(&k, &v)| (k, v)).collect();
    top.sort_unstable();
    let mut out_rows = Vec::new();
    for (sk, r) in top {
        let sr = skey_to_row[&sk];
        let sup = &db.data.supplier;
        out_rows.push(sr);
        rows.push(vec![
            i(sk),
            s(sup.s_name[sr].clone()),
            s(sup.s_address[sr].clone()),
            s(sup.s_phone[sr].clone()),
            i(r),
        ]);
    }
    rows.sort();
    finish(sim, heap, |w, heap| {
        for &sr in &out_rows {
            for col in [s_name, s_address, s_phone] {
                col.charge(w, sr);
            }
        }
        maybe_materialize(w, heap, &ctx.profile, by_supp.len(), 16);
        charge_sort(w, by_supp.len());
    })?;
    Ok(rows)
}

/// Q16: parts/supplier relationship — supplier counts per
/// (brand, type, size), with exclusions.
pub(super) fn q16(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let st = db.table("supplier")?;
    let s_comment = st.col("s_comment")?;
    let pt = db.table("part")?;
    let [p_brand, p_type, p_size] = pt.cols(["p_brand", "p_type", "p_size"])?;
    let pst = db.table("partsupp")?;
    let [ps_partkey, ps_suppkey] = pst.cols(["ps_partkey", "ps_suppkey"])?;
    const SIZES: [i64; 8] = [49, 14, 23, 45, 19, 3, 36, 9];
    type GMap = Map<(String, String, i64), Set<i64>>;
    let groups: GMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        pst,
        |w, _, db| {
            let parts: Map<i64, usize> = (0..pt.nrows())
                .filter(|&r| {
                    p_brand.charge(w, r);
                    p_type.charge(w, r);
                    p_size.charge(w, r);
                    w.compute(LIKE_CYCLES);
                    let p = &db.data.part;
                    p.p_brand[r] != "Brand#45"
                        && !p.p_type[r].starts_with("MEDIUM POLISHED")
                        && SIZES.contains(&p.p_size[r])
                })
                .map(|r| (db.data.part.p_partkey[r], r))
                .collect();
            let complainers: Set<i64> = (0..st.nrows())
                .filter(|&r| {
                    s_comment.charge(w, r);
                    w.compute(LIKE_CYCLES);
                    let c = &db.data.supplier.s_comment[r];
                    c.find("Customer")
                        .is_some_and(|pos| c[pos..].contains("Complaints"))
                })
                .map(|r| db.data.supplier.s_suppkey[r])
                .collect();
            (parts, complainers, ShadowHash::new(w, 4096))
        },
        |w, _, db, (parts, complainers, shadow), row, local: &mut GMap| {
            ps_partkey.charge(w, row);
            let ps = &db.data.partsupp;
            shadow.probe(w, ps.ps_partkey[row] as u64);
            let Some(&pr) = parts.get(&ps.ps_partkey[row]) else { return };
            ps_suppkey.charge(w, row);
            if complainers.contains(&ps.ps_suppkey[row]) {
                return;
            }
            let p = &db.data.part;
            local
                .entry((p.p_brand[pr].clone(), p.p_type[pr].clone(), p.p_size[pr]))
                .or_default()
                .insert(ps.ps_suppkey[row]);
        },
        |_, _, _, locals| {
            let mut m = GMap::default();
            for l in locals {
                for (k, v) in l {
                    m.entry(k).or_default().extend(v);
                }
            }
            m
        },
    )?;
    let mut rows: Vec<Row> = groups
        .into_iter()
        .map(|((brand, ptype, size), supps)| {
            vec![s(brand), s(ptype), i(size), i(supps.len() as i64)]
        })
        .collect();
    rows.sort_by(|a, b| {
        b[3].as_i()
            .cmp(&a[3].as_i())
            .then_with(|| a[0].as_s().cmp(b[0].as_s()))
            .then_with(|| a[1].as_s().cmp(b[1].as_s()))
            .then_with(|| a[2].as_i().cmp(&b[2].as_i()))
    });
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 48);
        charge_sort(w, n);
    })?;
    Ok(rows)
}
