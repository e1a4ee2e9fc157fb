//! TPC-H Q1–Q8.

use crate::exec::{
    charge_sort, finish, maybe_materialize, scan_phase, Map, QueryCtx, Set, ShadowHash, LIKE_CYCLES,
};
use crate::error::EngineError;
use crate::storage::TpchDb;
use crate::value::{d, i, s, Row};
use nqp_datagen::tpch::dates;
use nqp_sim::NumaSim;
use nqp_storage::SimHeap;

/// Revenue of one lineitem in cents: `ext * (1 - discount)`.
fn rev(ext: i64, disc: i64) -> i64 {
    ext * (100 - disc) / 100
}

/// Q1: pricing summary report — full lineitem scan, group by
/// `(returnflag, linestatus)` with six aggregates.
pub(super) fn q01(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let cutoff = dates::parse("1998-12-01")? - 90;
    type Acc = Map<(u8, u8), [i64; 6]>;
    let locals: Vec<Acc> = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "lineitem",
        |w, _, _| ShadowHash::new(w, 8),
        |w, _, db, h, row, local: &mut Acc| {
            let t = db.table("lineitem");
            t.charge(w, "l_shipdate", row);
            let li = &db.data.lineitem;
            if li.l_shipdate[row] > cutoff {
                return;
            }
            for col in [
                "l_returnflag",
                "l_linestatus",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_tax",
            ] {
                t.charge(w, col, row);
            }
            let key = (
                li.l_returnflag[row].as_bytes()[0],
                li.l_linestatus[row].as_bytes()[0],
            );
            h.update(w, (key.0 as u64) << 8 | key.1 as u64);
            let a = local.entry(key).or_default();
            let (qty, ext, disc, tax) = (
                li.l_quantity[row],
                li.l_extendedprice[row],
                li.l_discount[row],
                li.l_tax[row],
            );
            a[0] += qty;
            a[1] += ext;
            a[2] += ext * (100 - disc); // 1e-4 dollars
            a[3] += ext * (100 - disc) * (100 + tax); // 1e-6 dollars
            a[4] += disc;
            a[5] += 1;
        },
        |_, _, _, locals| locals,
    )?;
    let mut merged: Map<(u8, u8), [i64; 6]> = Map::default();
    for l in locals {
        for (k, v) in l {
            let a = merged.entry(k).or_default();
            for x in 0..6 {
                a[x] += v[x];
            }
        }
    }
    let mut keys: Vec<(u8, u8)> = merged.keys().copied().collect();
    keys.sort_unstable();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, merged.len(), 80);
        charge_sort(w, merged.len());
    })?;
    Ok(keys.into_iter()
        .map(|k| {
            let a = merged[&k];
            vec![
                s((k.0 as char).to_string()),
                s((k.1 as char).to_string()),
                i(a[0]),
                i(a[1]),
                i(a[2]),
                i(a[3]),
                i(a[0] * 100 / a[5]), // avg qty x100
                i(a[1] / a[5]),       // avg price, cents
                i(a[4] * 100 / a[5]), // avg discount x1e-4
                i(a[5]),
            ]
        })
        .collect())
}

/// Q2: minimum-cost supplier in EUROPE for size-15 `%BRASS` parts.
pub(super) fn q02(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    struct Built {
        parts: Map<i64, usize>,      // partkey -> part row
        suppliers: Map<i64, usize>,  // suppkey (in EUROPE) -> supplier row
        shadow: ShadowHash,
    }
    type Cand = Vec<(i64, i64, i64)>; // (partkey, suppkey, cost)
    let (built, cands) = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "partsupp",
        |w, _, db| {
            // region EUROPE -> nation set
            let rt = db.table("region");
            let europe: i64 = (0..rt.nrows())
                .find(|&r| {
                    rt.charge(w, "r_name", r);
                    db.data.region.r_name[r] == "EUROPE"
                })
                .map(|r| db.data.region.r_regionkey[r])
                .expect("EUROPE exists");
            let nt = db.table("nation");
            let nations: Set<i64> = (0..nt.nrows())
                .filter(|&r| {
                    nt.charge(w, "n_regionkey", r);
                    db.data.nation.n_regionkey[r] == europe
                })
                .map(|r| db.data.nation.n_nationkey[r])
                .collect();
            let st = db.table("supplier");
            let suppliers: Map<i64, usize> = (0..st.nrows())
                .filter(|&r| {
                    st.charge(w, "s_nationkey", r);
                    nations.contains(&db.data.supplier.s_nationkey[r])
                })
                .map(|r| (db.data.supplier.s_suppkey[r], r))
                .collect();
            let pt = db.table("part");
            let parts: Map<i64, usize> = (0..pt.nrows())
                .filter(|&r| {
                    pt.charge(w, "p_size", r);
                    pt.charge(w, "p_type", r);
                    w.compute(LIKE_CYCLES);
                    db.data.part.p_size[r] == 15
                        && db.data.part.p_type[r].ends_with("BRASS")
                })
                .map(|r| (db.data.part.p_partkey[r], r))
                .collect();
            let shadow = ShadowHash::new(w, parts.len() + suppliers.len());
            Built { parts, suppliers, shadow }
        },
        |w, _, db, b, row, local: &mut Cand| {
            let t = db.table("partsupp");
            t.charge(w, "ps_partkey", row);
            let ps = &db.data.partsupp;
            let pk = ps.ps_partkey[row];
            b.shadow.probe(w, pk as u64);
            if !b.parts.contains_key(&pk) {
                return;
            }
            t.charge(w, "ps_suppkey", row);
            let sk = ps.ps_suppkey[row];
            b.shadow.probe(w, sk as u64);
            if !b.suppliers.contains_key(&sk) {
                return;
            }
            t.charge(w, "ps_supplycost", row);
            local.push((pk, sk, ps.ps_supplycost[row]));
        },
        |_, _, b, locals| (b, locals.into_iter().flatten().collect::<Vec<_>>()),
    )?;
    // Min cost per part, then emit the suppliers achieving it.
    let mut min_cost: Map<i64, i64> = Map::default();
    for &(pk, _, cost) in &cands {
        let e = min_cost.entry(pk).or_insert(i64::MAX);
        *e = (*e).min(cost);
    }
    let mut rows: Vec<Row> = Vec::new();
    for &(pk, sk, cost) in &cands {
        if cost != min_cost[&pk] {
            continue;
        }
        let sr = built.suppliers[&sk];
        let pr = built.parts[&pk];
        let sup = &db.data.supplier;
        let nation = &db.data.nation.n_name[sup.s_nationkey[sr] as usize];
        rows.push(vec![
            i(sup.s_acctbal[sr]),
            s(sup.s_name[sr].clone()),
            s(nation.clone()),
            i(pk),
            s(db.data.part.p_mfgr[pr].clone()),
            s(sup.s_address[sr].clone()),
            s(sup.s_phone[sr].clone()),
        ]);
    }
    rows.sort_by(|a, b| {
        b[0].as_i()
            .cmp(&a[0].as_i())
            .then_with(|| a[2].as_s().cmp(b[2].as_s()))
            .then_with(|| a[1].as_s().cmp(b[1].as_s()))
            .then_with(|| a[3].as_i().cmp(&b[3].as_i()))
    });
    rows.truncate(100);
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, cands.len(), 24);
        charge_sort(w, n.max(cands.len()));
    })?;
    Ok(rows)
}

/// Q3: shipping-priority — BUILDING customers' unshipped orders, top 10
/// by revenue.
pub(super) fn q03(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let date = dates::parse("1995-03-15")?;
    // Phase 1: qualifying orders (BUILDING customer, early orderdate).
    type OMap = Map<i64, (i32, i64)>; // orderkey -> (orderdate, shippriority)
    let omap: OMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "orders",
        |w, _, db| {
            let ct = db.table("customer");
            let custs: Set<i64> = (0..ct.nrows())
                .filter(|&r| {
                    ct.charge(w, "c_mktsegment", r);
                    db.data.customer.c_mktsegment[r] == "BUILDING"
                })
                .map(|r| db.data.customer.c_custkey[r])
                .collect();
            let shadow = ShadowHash::new(w, custs.len());
            (custs, shadow)
        },
        |w, _, db, (custs, shadow), row, local: &mut OMap| {
            let t = db.table("orders");
            t.charge(w, "o_orderdate", row);
            let o = &db.data.orders;
            if o.o_orderdate[row] >= date {
                return;
            }
            t.charge(w, "o_custkey", row);
            shadow.probe(w, o.o_custkey[row] as u64);
            if custs.contains(&o.o_custkey[row]) {
                t.charge(w, "o_orderkey", row);
                t.charge(w, "o_shippriority", row);
                local.insert(o.o_orderkey[row], (o.o_orderdate[row], o.o_shippriority[row]));
            }
        },
        |_, _, _, locals| locals.into_iter().flatten().collect(),
    )?;
    // Phase 2: revenue per order from late-shipped lineitems.
    type RMap = Map<i64, i64>;
    let revenue: RMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "lineitem",
        |w, heap, _| {
            // The qualifying orders become this phase's build side.
            let shadow = ShadowHash::new(w, omap.len());
            for &k in omap.keys() {
                shadow.insert(w, heap, k as u64);
            }
            shadow
        },
        |w, heap, db, shadow, row, local: &mut RMap| {
            let t = db.table("lineitem");
            t.charge(w, "l_orderkey", row);
            let li = &db.data.lineitem;
            let ok = li.l_orderkey[row];
            shadow.probe(w, ok as u64);
            let Some(&(odate, _)) = omap.get(&ok) else { return };
            t.charge(w, "l_shipdate", row);
            if li.l_shipdate[row] <= date {
                return;
            }
            let _ = odate;
            t.charge(w, "l_extendedprice", row);
            t.charge(w, "l_discount", row);
            if !local.contains_key(&ok) {
                heap.alloc(w, 32); // fresh per-order aggregate state
            }
            *local.entry(ok).or_default() += rev(li.l_extendedprice[row], li.l_discount[row]);
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
    let mut rows: Vec<Row> = revenue
        .into_iter()
        .map(|(ok, r)| {
            let (odate, prio) = omap[&ok];
            vec![i(ok), i(r), d(odate), i(prio)]
        })
        .collect();
    rows.sort_by(|a, b| b[1].as_i().cmp(&a[1].as_i()).then_with(|| a[2].cmp(&b[2])));
    let n = rows.len();
    rows.truncate(10);
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 32);
        charge_sort(w, n);
    })?;
    Ok(rows)
}

/// Q4: order-priority checking — orders in 1993-Q3 with at least one
/// late lineitem, counted by priority.
pub(super) fn q04(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let lo = dates::parse("1993-07-01")?;
    let hi = dates::add_months(lo, 3);
    // Phase 1: orderkeys with a commit < receipt lineitem (semi-join side).
    let late: Set<i64> = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "lineitem",
        |w, _, _| ShadowHash::new(w, 1024),
        |w, heap, db, shadow, row, local: &mut Set<i64>| {
            let t = db.table("lineitem");
            t.charge(w, "l_commitdate", row);
            t.charge(w, "l_receiptdate", row);
            let li = &db.data.lineitem;
            if li.l_commitdate[row] < li.l_receiptdate[row] {
                t.charge(w, "l_orderkey", row);
                if local.insert(li.l_orderkey[row]) {
                    shadow.insert(w, heap, li.l_orderkey[row] as u64);
                }
            }
        },
        |_, _, _, locals| locals.into_iter().flatten().collect(),
    )?;
    // Phase 2: orders in range, existing in the semi-join set.
    type Counts = Map<String, i64>;
    let counts: Counts = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "orders",
        |w, _, _| ShadowHash::new(w, late.len()),
        |w, _, db, shadow, row, local: &mut Counts| {
            let t = db.table("orders");
            t.charge(w, "o_orderdate", row);
            let o = &db.data.orders;
            if o.o_orderdate[row] < lo || o.o_orderdate[row] >= hi {
                return;
            }
            t.charge(w, "o_orderkey", row);
            shadow.probe(w, o.o_orderkey[row] as u64);
            if late.contains(&o.o_orderkey[row]) {
                t.charge(w, "o_orderpriority", row);
                *local.entry(o.o_orderpriority[row].clone()).or_default() += 1;
            }
        },
        |_, _, _, locals| {
            let mut m = Counts::default();
            for l in locals {
                for (k, v) in l {
                    *m.entry(k).or_default() += v;
                }
            }
            m
        },
    )?;
    let mut rows: Vec<Row> = counts.into_iter().map(|(p, c)| vec![s(p), i(c)]).collect();
    rows.sort();
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 24);
        charge_sort(w, n);
    })?;
    Ok(rows)
}

/// Q5: local-supplier volume — revenue in ASIA where supplier and
/// customer share a nation, orders of 1994.
pub(super) fn q05(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let lo = dates::parse("1994-01-01")?;
    let hi = dates::add_years(lo, 1);
    // Phase 1: 1994 orders -> customer nation (ASIA only).
    type OMap = Map<i64, i64>; // orderkey -> customer nationkey
    struct B1 {
        cust_nation: Map<i64, i64>,
        asia: Set<i64>,
        shadow: ShadowHash,
    }
    let omap: OMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "orders",
        |w, _, db| {
            let rt = db.table("region");
            let asia_key: i64 = (0..rt.nrows())
                .find(|&r| {
                    rt.charge(w, "r_name", r);
                    db.data.region.r_name[r] == "ASIA"
                })
                .map(|r| db.data.region.r_regionkey[r])
                .expect("ASIA exists");
            let nt = db.table("nation");
            let asia: Set<i64> = (0..nt.nrows())
                .filter(|&r| {
                    nt.charge(w, "n_regionkey", r);
                    db.data.nation.n_regionkey[r] == asia_key
                })
                .map(|r| db.data.nation.n_nationkey[r])
                .collect();
            let ct = db.table("customer");
            let cust_nation: Map<i64, i64> = (0..ct.nrows())
                .map(|r| {
                    ct.charge(w, "c_nationkey", r);
                    (db.data.customer.c_custkey[r], db.data.customer.c_nationkey[r])
                })
                .collect();
            let shadow = ShadowHash::new(w, cust_nation.len());
            B1 { cust_nation, asia, shadow }
        },
        |w, _, db, b, row, local: &mut OMap| {
            let t = db.table("orders");
            t.charge(w, "o_orderdate", row);
            let o = &db.data.orders;
            if o.o_orderdate[row] < lo || o.o_orderdate[row] >= hi {
                return;
            }
            t.charge(w, "o_custkey", row);
            b.shadow.probe(w, o.o_custkey[row] as u64);
            let nk = b.cust_nation[&o.o_custkey[row]];
            if b.asia.contains(&nk) {
                t.charge(w, "o_orderkey", row);
                local.insert(o.o_orderkey[row], nk);
            }
        },
        |_, _, _, locals| locals.into_iter().flatten().collect(),
    )?;
    // Phase 2: lineitems whose supplier nation matches the customer's.
    type RMap = Map<i64, i64>; // nationkey -> revenue
    let by_nation: RMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "lineitem",
        |w, heap, db| {
            let st = db.table("supplier");
            let supp_nation: Map<i64, i64> = (0..st.nrows())
                .map(|r| {
                    st.charge(w, "s_nationkey", r);
                    (db.data.supplier.s_suppkey[r], db.data.supplier.s_nationkey[r])
                })
                .collect();
            let shadow = ShadowHash::new(w, omap.len() + supp_nation.len());
            for &k in omap.keys() {
                shadow.insert(w, heap, k as u64);
            }
            (supp_nation, shadow)
        },
        |w, _, db, (supp_nation, shadow), row, local: &mut RMap| {
            let t = db.table("lineitem");
            t.charge(w, "l_orderkey", row);
            let li = &db.data.lineitem;
            shadow.probe(w, li.l_orderkey[row] as u64);
            let Some(&cnk) = omap.get(&li.l_orderkey[row]) else { return };
            t.charge(w, "l_suppkey", row);
            shadow.probe(w, li.l_suppkey[row] as u64);
            if supp_nation[&li.l_suppkey[row]] != cnk {
                return;
            }
            t.charge(w, "l_extendedprice", row);
            t.charge(w, "l_discount", row);
            *local.entry(cnk).or_default() += rev(li.l_extendedprice[row], li.l_discount[row]);
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
    let mut rows: Vec<Row> = by_nation
        .into_iter()
        .map(|(nk, r)| vec![s(db.data.nation.n_name[nk as usize].clone()), i(r)])
        .collect();
    rows.sort_by(|a, b| b[1].as_i().cmp(&a[1].as_i()));
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 24);
        charge_sort(w, n);
    })?;
    Ok(rows)
}

/// Q6: forecasting revenue change — a pure lineitem filter-and-sum.
pub(super) fn q06(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let lo = dates::parse("1994-01-01")?;
    let hi = dates::add_years(lo, 1);
    let total: i64 = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "lineitem",
        |_, _, _| (),
        |w, _, db, _, row, local: &mut i64| {
            let t = db.table("lineitem");
            t.charge(w, "l_shipdate", row);
            let li = &db.data.lineitem;
            if li.l_shipdate[row] < lo || li.l_shipdate[row] >= hi {
                return;
            }
            t.charge(w, "l_discount", row);
            t.charge(w, "l_quantity", row);
            let disc = li.l_discount[row];
            if !(5..=7).contains(&disc) || li.l_quantity[row] >= 24 {
                return;
            }
            t.charge(w, "l_extendedprice", row);
            *local += li.l_extendedprice[row] * disc; // 1e-4 dollars
        },
        |_, _, _, locals| locals.into_iter().sum(),
    )?;
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, 1, 8);
    })?;
    Ok(vec![vec![i(total)]])
}

/// Q7: volume shipping between FRANCE and GERMANY, by year.
pub(super) fn q07(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let lo = dates::parse("1995-01-01")?;
    let hi = dates::parse("1996-12-31")?;
    let nation_key = |name: &str| -> i64 {
        db.data
            .nation
            .n_name
            .iter()
            .position(|n| n == name)
            .map(|r| db.data.nation.n_nationkey[r])
            .expect("nation exists")
    };
    let (fr, de) = (nation_key("FRANCE"), nation_key("GERMANY"));
    // Phase 1: every order's customer nation (only FR/DE kept).
    type OMap = Map<i64, i64>;
    let omap: OMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "orders",
        |w, _, db| {
            let ct = db.table("customer");
            let cust_nation: Map<i64, i64> = (0..ct.nrows())
                .map(|r| {
                    ct.charge(w, "c_nationkey", r);
                    (db.data.customer.c_custkey[r], db.data.customer.c_nationkey[r])
                })
                .collect();
            (cust_nation, ShadowHash::new(w, ct.nrows()))
        },
        |w, _, db, (cust_nation, shadow), row, local: &mut OMap| {
            let t = db.table("orders");
            t.charge(w, "o_custkey", row);
            let o = &db.data.orders;
            shadow.probe(w, o.o_custkey[row] as u64);
            let nk = cust_nation[&o.o_custkey[row]];
            if nk == fr || nk == de {
                t.charge(w, "o_orderkey", row);
                local.insert(o.o_orderkey[row], nk);
            }
        },
        |_, _, _, locals| locals.into_iter().flatten().collect(),
    )?;
    // Phase 2: cross-nation lineitems shipped 1995-1996.
    type VMap = Map<(i64, i64, i32), i64>; // (supp_nation, cust_nation, year) -> volume
    let volumes: VMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "lineitem",
        |w, heap, db| {
            let st = db.table("supplier");
            let supp_nation: Map<i64, i64> = (0..st.nrows())
                .map(|r| {
                    st.charge(w, "s_nationkey", r);
                    (db.data.supplier.s_suppkey[r], db.data.supplier.s_nationkey[r])
                })
                .collect();
            let shadow = ShadowHash::new(w, omap.len());
            for &k in omap.keys() {
                shadow.insert(w, heap, k as u64);
            }
            (supp_nation, shadow)
        },
        |w, _, db, (supp_nation, shadow), row, local: &mut VMap| {
            let t = db.table("lineitem");
            t.charge(w, "l_shipdate", row);
            let li = &db.data.lineitem;
            if li.l_shipdate[row] < lo || li.l_shipdate[row] > hi {
                return;
            }
            t.charge(w, "l_orderkey", row);
            shadow.probe(w, li.l_orderkey[row] as u64);
            let Some(&cnk) = omap.get(&li.l_orderkey[row]) else { return };
            t.charge(w, "l_suppkey", row);
            let snk = supp_nation[&li.l_suppkey[row]];
            let pair_ok = (snk == fr && cnk == de) || (snk == de && cnk == fr);
            if !pair_ok {
                return;
            }
            t.charge(w, "l_extendedprice", row);
            t.charge(w, "l_discount", row);
            let year = dates::year(li.l_shipdate[row]);
            *local.entry((snk, cnk, year)).or_default() +=
                rev(li.l_extendedprice[row], li.l_discount[row]);
        },
        |_, _, _, locals| {
            let mut m = VMap::default();
            for l in locals {
                for (k, v) in l {
                    *m.entry(k).or_default() += v;
                }
            }
            m
        },
    )?;
    let mut rows: Vec<Row> = volumes
        .into_iter()
        .map(|((snk, cnk, year), vol)| {
            vec![
                s(db.data.nation.n_name[snk as usize].clone()),
                s(db.data.nation.n_name[cnk as usize].clone()),
                i(year as i64),
                i(vol),
            ]
        })
        .collect();
    rows.sort();
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 40);
        charge_sort(w, n);
    })?;
    Ok(rows)
}

/// Q8: national market share — BRAZIL's share of AMERICA's ECONOMY
/// ANODIZED STEEL volume, by order year.
pub(super) fn q08(
    sim: &mut NumaSim,
    heap: &mut SimHeap,
    db: &TpchDb,
    ctx: &QueryCtx,
) -> Result<Vec<Row>, EngineError> {
    let lo = dates::parse("1995-01-01")?;
    let hi = dates::parse("1996-12-31")?;
    let brazil: i64 = db
        .data
        .nation
        .n_name
        .iter()
        .position(|n| n == "BRAZIL")
        .map(|r| db.data.nation.n_nationkey[r])
        .expect("BRAZIL exists");
    // Phase 1: 1995-96 orders of AMERICA customers -> (orderkey -> year).
    type OMap = Map<i64, i32>;
    let omap: OMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "orders",
        |w, _, db| {
            let rt = db.table("region");
            let america: i64 = (0..rt.nrows())
                .find(|&r| {
                    rt.charge(w, "r_name", r);
                    db.data.region.r_name[r] == "AMERICA"
                })
                .map(|r| db.data.region.r_regionkey[r])
                .expect("AMERICA exists");
            let nt = db.table("nation");
            let nations: Set<i64> = (0..nt.nrows())
                .filter(|&r| {
                    nt.charge(w, "n_regionkey", r);
                    db.data.nation.n_regionkey[r] == america
                })
                .map(|r| db.data.nation.n_nationkey[r])
                .collect();
            let ct = db.table("customer");
            let custs: Set<i64> = (0..ct.nrows())
                .filter(|&r| {
                    ct.charge(w, "c_nationkey", r);
                    nations.contains(&db.data.customer.c_nationkey[r])
                })
                .map(|r| db.data.customer.c_custkey[r])
                .collect();
            (custs, ShadowHash::new(w, ct.nrows()))
        },
        |w, _, db, (custs, shadow), row, local: &mut OMap| {
            let t = db.table("orders");
            t.charge(w, "o_orderdate", row);
            let o = &db.data.orders;
            if o.o_orderdate[row] < lo || o.o_orderdate[row] > hi {
                return;
            }
            t.charge(w, "o_custkey", row);
            shadow.probe(w, o.o_custkey[row] as u64);
            if custs.contains(&o.o_custkey[row]) {
                t.charge(w, "o_orderkey", row);
                local.insert(o.o_orderkey[row], dates::year(o.o_orderdate[row]));
            }
        },
        |_, _, _, locals| locals.into_iter().flatten().collect(),
    )?;
    // Phase 2: target-part lineitems, split by supplier nation.
    type VMap = Map<i32, (i64, i64)>; // year -> (brazil volume, total volume)
    let volumes: VMap = scan_phase(
        sim,
        heap,
        db,
        ctx,
        "lineitem",
        |w, heap, db| {
            let pt = db.table("part");
            let parts: Set<i64> = (0..pt.nrows())
                .filter(|&r| {
                    pt.charge(w, "p_type", r);
                    db.data.part.p_type[r] == "ECONOMY ANODIZED STEEL"
                })
                .map(|r| db.data.part.p_partkey[r])
                .collect();
            let st = db.table("supplier");
            let supp_nation: Map<i64, i64> = (0..st.nrows())
                .map(|r| {
                    st.charge(w, "s_nationkey", r);
                    (db.data.supplier.s_suppkey[r], db.data.supplier.s_nationkey[r])
                })
                .collect();
            let shadow = ShadowHash::new(w, omap.len() + parts.len());
            for &k in omap.keys() {
                shadow.insert(w, heap, k as u64);
            }
            (parts, supp_nation, shadow)
        },
        |w, _, db, (parts, supp_nation, shadow), row, local: &mut VMap| {
            let t = db.table("lineitem");
            t.charge(w, "l_partkey", row);
            let li = &db.data.lineitem;
            shadow.probe(w, li.l_partkey[row] as u64);
            if !parts.contains(&li.l_partkey[row]) {
                return;
            }
            t.charge(w, "l_orderkey", row);
            shadow.probe(w, li.l_orderkey[row] as u64);
            let Some(&year) = omap.get(&li.l_orderkey[row]) else { return };
            t.charge(w, "l_suppkey", row);
            t.charge(w, "l_extendedprice", row);
            t.charge(w, "l_discount", row);
            let vol = rev(li.l_extendedprice[row], li.l_discount[row]);
            let e = local.entry(year).or_default();
            if supp_nation[&li.l_suppkey[row]] == brazil {
                e.0 += vol;
            }
            e.1 += vol;
        },
        |_, _, _, locals| {
            let mut m = VMap::default();
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
    let mut rows: Vec<Row> = volumes
        .into_iter()
        .map(|(year, (bz, total))| {
            let share = if total == 0 { 0 } else { bz * 10_000 / total };
            vec![i(year as i64), i(share)]
        })
        .collect();
    rows.sort();
    let n = rows.len();
    finish(sim, heap, |w, heap| {
        maybe_materialize(w, heap, &ctx.profile, n, 16);
        charge_sort(w, n);
    })?;
    Ok(rows)
}
