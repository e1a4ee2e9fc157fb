//! TPC-H Q17–Q22.

use crate::exec::{
    charge_sort, finish, maybe_materialize, scan_phase, Map, QueryCtx, Set, ShadowHash, LIKE_CYCLES,
};
use crate::error::EngineError;
use crate::storage::TpchDb;
use crate::value::{d, i, s, Row};
use nqp_datagen::tpch::dates;
use nqp_sim::NumaSim;
use nqp_storage::SimHeap;

/// Q17: small-quantity-order revenue — Brand#23 MED BOX lineitems below
/// 20% of the part's average quantity; average yearly loss.
pub(super) fn q17(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    type Stats = Map<i64, (i64, i64, Vec<(i64, i64)>)>; // pk -> (sum qty, count, [(qty, price)])
    let stats: Stats = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "lineitem",
        |w, _, db| {
            let pt = db.table("part");
            let parts: Set<i64> = (0..pt.nrows())
                .filter(|&r| {
                    pt.charge(w, "p_brand", r);
                    pt.charge(w, "p_container", r);
                    let p = &db.data.part;
                    p.p_brand[r] == "Brand#23" && p.p_container[r] == "MED BOX"
                })
                .map(|r| db.data.part.p_partkey[r])
                .collect();
            (parts, ShadowHash::new(w, 1024))
        },
        |w, _, db, (parts, shadow), row, local: &mut Stats| {
            let t = db.table("lineitem");
            t.charge(w, "l_partkey", row);
            let li = &db.data.lineitem;
            shadow.probe(w, li.l_partkey[row] as u64);
            if !parts.contains(&li.l_partkey[row]) {
                return;
            }
            t.charge(w, "l_quantity", row);
            t.charge(w, "l_extendedprice", row);
            let e = local.entry(li.l_partkey[row]).or_default();
            e.0 += li.l_quantity[row];
            e.1 += 1;
            e.2.push((li.l_quantity[row], li.l_extendedprice[row]));
        },
        |_, _, _, locals| {
            let mut m = Stats::default();
            for l in locals {
                for (k, (sq, c, v)) in l {
                    let e = m.entry(k).or_default();
                    e.0 += sq;
                    e.1 += c;
                    e.2.extend(v);
                }
            }
            m
        },
    )?;
    // Items with quantity < 0.2 * avg(quantity) for their part.
    let mut total: i64 = 0;
    for (_, (sum_qty, count, items)) in &stats {
        for &(qty, price) in items {
            // qty < 0.2 * sum/count  <=>  qty * count * 5 < sum
            if qty * count * 5 < *sum_qty {
                total += price;
            }
        }
    }
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, stats.len(), 24);
    })?;
    // avg_yearly = total / 7.0, in cents.
    Ok(vec![vec![i(total / 7)]])
}

/// Q18: large-volume customers — orders with total quantity over 300.
pub(super) fn q18(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    // Phase 1: total quantity per order.
    type QMap = Map<i64, i64>;
    let qty: QMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "lineitem",
        |w, _, _| ShadowHash::new(w, 4096),
        |w, heap, db, shadow, row, local: &mut QMap| {
            let t = db.table("lineitem");
            t.charge(w, "l_orderkey", row);
            t.charge(w, "l_quantity", row);
            let li = &db.data.lineitem;
            let key = li.l_orderkey[row];
            if local.contains_key(&key) {
                shadow.update(w, key as u64);
            } else {
                shadow.insert(w, heap, key as u64);
            }
            *local.entry(key).or_default() += li.l_quantity[row];
        },
        |_, _, _, locals| {
            let mut m = QMap::default();
            for l in locals {
                for (k, v) in l {
                    *m.entry(k).or_default() += v;
                }
            }
            m
        },
    )?;
    let big: Map<i64, i64> =
        qty.into_iter().filter(|&(_, q)| q > 300).collect();
    // Phase 2: the qualifying orders, joined with customers.
    type Out = Vec<Row>;
    let rows: Out = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "orders",
        |w, heap, db| {
            let shadow = ShadowHash::new(w, big.len());
            for &k in big.keys() {
                shadow.insert(w, heap, k as u64);
            }
            let ckey_to_row: Map<i64, usize> = db
                .data
                .customer
                .c_custkey
                .iter()
                .enumerate()
                .map(|(r, &k)| (k, r))
                .collect();
            (shadow, ckey_to_row)
        },
        |w, _, db, (shadow, ckey_to_row), row, local: &mut Out| {
            let t = db.table("orders");
            t.charge(w, "o_orderkey", row);
            let o = &db.data.orders;
            shadow.probe(w, o.o_orderkey[row] as u64);
            let Some(&q) = big.get(&o.o_orderkey[row]) else { return };
            for col in ["o_custkey", "o_orderdate", "o_totalprice"] {
                t.charge(w, col, row);
            }
            let cr = ckey_to_row[&o.o_custkey[row]];
            db.table("customer").charge(w, "c_name", cr);
            local.push(vec![
                s(db.data.customer.c_name[cr].clone()),
                i(o.o_custkey[row]),
                i(o.o_orderkey[row]),
                d(o.o_orderdate[row]),
                i(o.o_totalprice[row]),
                i(q),
            ]);
        },
        |_, _, _, locals| locals.into_iter().flatten().collect(),
    )?;
    let mut rows = rows;
    rows.sort_by(|a, b| {
        b[4].as_i()
            .cmp(&a[4].as_i())
            .then_with(|| a[3].cmp(&b[3]))
            .then_with(|| a[2].as_i().cmp(&b[2].as_i()))
    });
    rows.truncate(100);
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 64);
        charge_sort(w, n);
    })?;
    Ok(rows)
}

/// Q19: discounted revenue — three disjunctive brand/container/quantity
/// clauses over air-shipped, in-person-delivered lineitems.
pub(super) fn q19(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    struct PartInfo {
        brand: String,
        container: String,
        size: i64,
    }
    let total: i64 = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "lineitem",
        |w, _, db| {
            let pt = db.table("part");
            let parts: Map<i64, PartInfo> = (0..pt.nrows())
                .map(|r| {
                    pt.charge(w, "p_brand", r);
                    pt.charge(w, "p_container", r);
                    pt.charge(w, "p_size", r);
                    let p = &db.data.part;
                    (
                        p.p_partkey[r],
                        PartInfo {
                            brand: p.p_brand[r].clone(),
                            container: p.p_container[r].clone(),
                            size: p.p_size[r],
                        },
                    )
                })
                .collect();
            (parts, ShadowHash::new(w, db.table("part").nrows()))
        },
        |w, _, db, (parts, shadow), row, local: &mut i64| {
            let t = db.table("lineitem");
            t.charge(w, "l_shipmode", row);
            t.charge(w, "l_shipinstruct", row);
            let li = &db.data.lineitem;
            let mode = &li.l_shipmode[row];
            if (mode != "AIR" && mode != "REG AIR")
                || li.l_shipinstruct[row] != "DELIVER IN PERSON"
            {
                return;
            }
            t.charge(w, "l_partkey", row);
            t.charge(w, "l_quantity", row);
            shadow.probe(w, li.l_partkey[row] as u64);
            let p = &parts[&li.l_partkey[row]];
            let q = li.l_quantity[row];
            let sm = ["SM CASE", "SM BOX", "SM PACK", "SM PKG"];
            let med = ["MED BAG", "MED BOX", "MED PKG", "MED PACK"];
            let lg = ["LG CASE", "LG BOX", "LG PACK", "LG PKG"];
            let hit = (p.brand == "Brand#12"
                && sm.contains(&p.container.as_str())
                && (1..=11).contains(&q)
                && (1..=5).contains(&p.size))
                || (p.brand == "Brand#23"
                    && med.contains(&p.container.as_str())
                    && (10..=20).contains(&q)
                    && (1..=10).contains(&p.size))
                || (p.brand == "Brand#34"
                    && lg.contains(&p.container.as_str())
                    && (20..=30).contains(&q)
                    && (1..=15).contains(&p.size));
            if hit {
                t.charge(w, "l_extendedprice", row);
                t.charge(w, "l_discount", row);
                *local += li.l_extendedprice[row] * (100 - li.l_discount[row]) / 100;
            }
        },
        |_, _, _, locals| locals.into_iter().sum(),
    )?;
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, 1, 8);
    })?;
    Ok(vec![vec![i(total)]])
}

/// Q20: potential part promotion — CANADA suppliers holding excess stock
/// of `forest%` parts shipped in 1994.
pub(super) fn q20(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let lo = dates::parse("1994-01-01")?;
    let hi = dates::add_years(lo, 1);
    // Phase 1: 1994 shipped quantity per (part, supplier) for forest parts.
    type SMap = Map<(i64, i64), i64>;
    let shipped: SMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "lineitem",
        |w, _, db| {
            let pt = db.table("part");
            let forest: Set<i64> = (0..pt.nrows())
                .filter(|&r| {
                    pt.charge(w, "p_name", r);
                    w.compute(LIKE_CYCLES);
                    db.data.part.p_name[r].starts_with("forest")
                })
                .map(|r| db.data.part.p_partkey[r])
                .collect();
            (forest, ShadowHash::new(w, 1024))
        },
        |w, _, db, (forest, shadow), row, local: &mut SMap| {
            let t = db.table("lineitem");
            t.charge(w, "l_shipdate", row);
            let li = &db.data.lineitem;
            if li.l_shipdate[row] < lo || li.l_shipdate[row] >= hi {
                return;
            }
            t.charge(w, "l_partkey", row);
            shadow.probe(w, li.l_partkey[row] as u64);
            if !forest.contains(&li.l_partkey[row]) {
                return;
            }
            t.charge(w, "l_suppkey", row);
            t.charge(w, "l_quantity", row);
            *local
                .entry((li.l_partkey[row], li.l_suppkey[row]))
                .or_default() += li.l_quantity[row];
        },
        |_, _, _, locals| {
            let mut m = SMap::default();
            for l in locals {
                for (k, v) in l {
                    *m.entry(k).or_default() += v;
                }
            }
            m
        },
    )?;
    // Phase 2: partsupp rows with availqty > half the shipped quantity.
    type Supps = Set<i64>;
    let qualifying: Supps = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "partsupp",
        |w, heap, db| {
            let nk: i64 = db
                .data
                .nation
                .n_name
                .iter()
                .position(|n| n == "CANADA")
                .map(|r| db.data.nation.n_nationkey[r])
                .expect("CANADA exists");
            let st = db.table("supplier");
            let canada: Set<i64> = (0..st.nrows())
                .filter(|&r| {
                    st.charge(w, "s_nationkey", r);
                    db.data.supplier.s_nationkey[r] == nk
                })
                .map(|r| db.data.supplier.s_suppkey[r])
                .collect();
            let shadow = ShadowHash::new(w, shipped.len());
            for &(pk, sk) in shipped.keys() {
                shadow.insert(w, heap, (pk as u64) << 32 | sk as u64);
            }
            (canada, shadow)
        },
        |w, _, db, (canada, shadow), row, local: &mut Supps| {
            let t = db.table("partsupp");
            t.charge(w, "ps_suppkey", row);
            let ps = &db.data.partsupp;
            if !canada.contains(&ps.ps_suppkey[row]) {
                return;
            }
            t.charge(w, "ps_partkey", row);
            t.charge(w, "ps_availqty", row);
            let key = (ps.ps_partkey[row], ps.ps_suppkey[row]);
            shadow.probe(w, (key.0 as u64) << 32 | key.1 as u64);
            let Some(&q) = shipped.get(&key) else { return };
            // availqty > 0.5 * sum(l_quantity)
            if ps.ps_availqty[row] * 2 > q {
                local.insert(ps.ps_suppkey[row]);
            }
        },
        |_, _, _, locals| locals.into_iter().flatten().collect(),
    )?;
    let skey_to_row: Map<i64, usize> = db
        .data
        .supplier
        .s_suppkey
        .iter()
        .enumerate()
        .map(|(r, &k)| (k, r))
        .collect();
    let mut rows: Vec<Row> = qualifying
        .into_iter()
        .map(|sk| {
            let r = skey_to_row[&sk];
            vec![
                s(db.data.supplier.s_name[r].clone()),
                s(db.data.supplier.s_address[r].clone()),
            ]
        })
        .collect();
    rows.sort();
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 32);
        charge_sort(w, n);
    })?;
    Ok(rows)
}

/// Q21: suppliers who kept orders waiting — SAUDI ARABIA suppliers solely
/// responsible for late multi-supplier 'F' orders.
pub(super) fn q21(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    // Phase 1: per order, the distinct suppliers and the late suppliers.
    #[derive(Default, Clone)]
    struct OrderInfo {
        supps: Vec<i64>,
        late: Vec<i64>,
    }
    type OMap = Map<i64, OrderInfo>;
    let per_order: OMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "lineitem",
        |w, _, _| ShadowHash::new(w, 4096),
        |w, heap, db, shadow, row, local: &mut OMap| {
            let t = db.table("lineitem");
            for col in ["l_orderkey", "l_suppkey", "l_receiptdate", "l_commitdate"] {
                t.charge(w, col, row);
            }
            let li = &db.data.lineitem;
            let key = li.l_orderkey[row];
            if local.contains_key(&key) {
                shadow.update(w, key as u64);
            } else {
                shadow.insert(w, heap, key as u64);
            }
            let e = local.entry(key).or_default();
            let sk = li.l_suppkey[row];
            if !e.supps.contains(&sk) {
                e.supps.push(sk);
            }
            if li.l_receiptdate[row] > li.l_commitdate[row] && !e.late.contains(&sk) {
                e.late.push(sk);
            }
        },
        |_, _, _, locals| {
            let mut m = OMap::default();
            for l in locals {
                for (k, v) in l {
                    let e = m.entry(k).or_default();
                    for s in v.supps {
                        if !e.supps.contains(&s) {
                            e.supps.push(s);
                        }
                    }
                    for s in v.late {
                        if !e.late.contains(&s) {
                            e.late.push(s);
                        }
                    }
                }
            }
            m
        },
    )?;
    // Phase 2: 'F' orders where exactly one supplier is late, that
    // supplier is Saudi, and the order has other suppliers.
    type WMap = Map<i64, i64>; // suppkey -> numwait
    let numwait: WMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "orders",
        |w, heap, db| {
            let nk: i64 = db
                .data
                .nation
                .n_name
                .iter()
                .position(|n| n == "SAUDI ARABIA")
                .map(|r| db.data.nation.n_nationkey[r])
                .expect("SAUDI ARABIA exists");
            let st = db.table("supplier");
            let saudi: Set<i64> = (0..st.nrows())
                .filter(|&r| {
                    st.charge(w, "s_nationkey", r);
                    db.data.supplier.s_nationkey[r] == nk
                })
                .map(|r| db.data.supplier.s_suppkey[r])
                .collect();
            let shadow = ShadowHash::new(w, per_order.len());
            for &k in per_order.keys() {
                shadow.insert(w, heap, k as u64);
            }
            (saudi, shadow)
        },
        |w, _, db, (saudi, shadow), row, local: &mut WMap| {
            let t = db.table("orders");
            t.charge(w, "o_orderstatus", row);
            let o = &db.data.orders;
            if o.o_orderstatus[row] != "F" {
                return;
            }
            t.charge(w, "o_orderkey", row);
            shadow.probe(w, o.o_orderkey[row] as u64);
            let Some(info) = per_order.get(&o.o_orderkey[row]) else { return };
            if info.late.len() != 1 || info.supps.len() < 2 {
                return;
            }
            let culprit = info.late[0];
            if saudi.contains(&culprit) {
                *local.entry(culprit).or_default() += 1;
            }
        },
        |_, _, _, locals| {
            let mut m = WMap::default();
            for l in locals {
                for (k, v) in l {
                    *m.entry(k).or_default() += v;
                }
            }
            m
        },
    )?;
    let skey_to_row: Map<i64, usize> = db
        .data
        .supplier
        .s_suppkey
        .iter()
        .enumerate()
        .map(|(r, &k)| (k, r))
        .collect();
    let mut rows: Vec<Row> = numwait
        .into_iter()
        .map(|(sk, n)| vec![s(db.data.supplier.s_name[skey_to_row[&sk]].clone()), i(n)])
        .collect();
    rows.sort_by(|a, b| b[1].as_i().cmp(&a[1].as_i()).then_with(|| a[0].as_s().cmp(b[0].as_s())));
    rows.truncate(100);
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 24);
        charge_sort(w, n);
    })?;
    Ok(rows)
}

/// Q22: global sales opportunity — well-funded customers from seven
/// country codes who never ordered.
pub(super) fn q22(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    const CODES: [&str; 7] = ["13", "31", "23", "29", "30", "18", "17"];
    // Phase 1: custkeys that have orders (anti-join side).
    let has_orders: Set<i64> = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "orders",
        |w, _, _| ShadowHash::new(w, 4096),
        |w, heap, db, shadow, row, local: &mut Set<i64>| {
            let t = db.table("orders");
            t.charge(w, "o_custkey", row);
            let ck = db.data.orders.o_custkey[row];
            if local.insert(ck) {
                shadow.insert(w, heap, ck as u64);
            }
        },
        |_, _, _, locals| locals.into_iter().flatten().collect(),
    )?;
    // Phase 2: candidate customers and the average positive balance.
    type Cands = Vec<(String, i64, i64)>; // (code, custkey, acctbal)
    type Loc = (Cands, i64, i64); // candidates, sum(+bal), count(+bal)
    let (cands, sum_bal, cnt_bal): (Cands, i64, i64) = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "customer",
        |w, _, _| ShadowHash::new(w, has_orders.len()),
        |w, _, db, shadow, row, local: &mut Loc| {
            let t = db.table("customer");
            t.charge(w, "c_phone", row);
            w.compute(LIKE_CYCLES);
            let c = &db.data.customer;
            let code = &c.c_phone[row][0..2];
            if !CODES.contains(&code) {
                return;
            }
            t.charge(w, "c_acctbal", row);
            let bal = c.c_acctbal[row];
            if bal > 0 {
                local.1 += bal;
                local.2 += 1;
            }
            t.charge(w, "c_custkey", row);
            shadow.probe(w, c.c_custkey[row] as u64);
            if !has_orders.contains(&c.c_custkey[row]) {
                local.0.push((code.to_string(), c.c_custkey[row], bal));
            }
        },
        |_, _, _, locals| {
            let mut cands = Cands::new();
            let (mut s, mut c) = (0, 0);
            for (lc, ls, lcnt) in locals {
                cands.extend(lc);
                s += ls;
                c += lcnt;
            }
            (cands, s, c)
        },
    )?;
    let avg = if cnt_bal == 0 { 0 } else { sum_bal / cnt_bal };
    type GMap = Map<String, (i64, i64)>;
    let mut groups: GMap = GMap::default();
    for (code, _, bal) in cands {
        if bal > avg {
            let e = groups.entry(code).or_default();
            e.0 += 1;
            e.1 += bal;
        }
    }
    let mut rows: Vec<Row> = groups
        .into_iter()
        .map(|(code, (n, total))| vec![s(code), i(n), i(total)])
        .collect();
    rows.sort();
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 24);
        charge_sort(w, n);
    })?;
    Ok(rows)
}
