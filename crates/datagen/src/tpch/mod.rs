//! A TPC-H-shaped data generator: all eight tables at arbitrary scale.
//!
//! Columns use compact encodings throughout:
//! * money as `i64` **cents** (`$1.50` ⇒ `150`),
//! * rates (`l_discount`, `l_tax`) as `i64` **hundredths** (`0.06` ⇒ `6`),
//! * dates as `i32` days since 1992-01-01 (see [`dates`]).
//!
//! Row counts scale with `sf` exactly like dbgen (150 k customers, 1.5 M
//! orders, ~6 M lineitems, 200 k parts, 10 k suppliers, 800 k partsupps
//! at `sf = 1`). Value distributions mirror the properties the paper's
//! Q1–Q22 plans filter and group on; they are not a byte-exact dbgen
//! clone.

pub mod dates;
pub mod text;

use dates::Date;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Deref;
use std::sync::Arc;

/// The REGION table.
#[derive(Debug, Clone, Default)]
pub struct Region {
    pub r_regionkey: Vec<i64>,
    pub r_name: Vec<String>,
    pub r_comment: Vec<String>,
}

/// The NATION table.
#[derive(Debug, Clone, Default)]
pub struct Nation {
    pub n_nationkey: Vec<i64>,
    pub n_name: Vec<String>,
    pub n_regionkey: Vec<i64>,
    pub n_comment: Vec<String>,
}

/// The SUPPLIER table.
#[derive(Debug, Clone, Default)]
pub struct Supplier {
    pub s_suppkey: Vec<i64>,
    pub s_name: Vec<String>,
    pub s_address: Vec<String>,
    pub s_nationkey: Vec<i64>,
    pub s_phone: Vec<String>,
    pub s_acctbal: Vec<i64>,
    pub s_comment: Vec<String>,
}

/// The CUSTOMER table.
#[derive(Debug, Clone, Default)]
pub struct Customer {
    pub c_custkey: Vec<i64>,
    pub c_name: Vec<String>,
    pub c_address: Vec<String>,
    pub c_nationkey: Vec<i64>,
    pub c_phone: Vec<String>,
    pub c_acctbal: Vec<i64>,
    pub c_mktsegment: Vec<String>,
    pub c_comment: Vec<String>,
}

/// The PART table.
#[derive(Debug, Clone, Default)]
pub struct Part {
    pub p_partkey: Vec<i64>,
    pub p_name: Vec<String>,
    pub p_mfgr: Vec<String>,
    pub p_brand: Vec<String>,
    pub p_type: Vec<String>,
    pub p_size: Vec<i64>,
    pub p_container: Vec<String>,
    pub p_retailprice: Vec<i64>,
    pub p_comment: Vec<String>,
}

/// The PARTSUPP table.
#[derive(Debug, Clone, Default)]
pub struct PartSupp {
    pub ps_partkey: Vec<i64>,
    pub ps_suppkey: Vec<i64>,
    pub ps_availqty: Vec<i64>,
    pub ps_supplycost: Vec<i64>,
    pub ps_comment: Vec<String>,
}

/// The ORDERS table.
#[derive(Debug, Clone, Default)]
pub struct Orders {
    pub o_orderkey: Vec<i64>,
    pub o_custkey: Vec<i64>,
    pub o_orderstatus: Vec<String>,
    pub o_totalprice: Vec<i64>,
    pub o_orderdate: Vec<Date>,
    pub o_orderpriority: Vec<String>,
    pub o_clerk: Vec<String>,
    pub o_shippriority: Vec<i64>,
    pub o_comment: Vec<String>,
}

/// The LINEITEM table.
#[derive(Debug, Clone, Default)]
pub struct Lineitem {
    pub l_orderkey: Vec<i64>,
    pub l_partkey: Vec<i64>,
    pub l_suppkey: Vec<i64>,
    pub l_linenumber: Vec<i64>,
    pub l_quantity: Vec<i64>,
    pub l_extendedprice: Vec<i64>,
    pub l_discount: Vec<i64>,
    pub l_tax: Vec<i64>,
    pub l_returnflag: Vec<String>,
    pub l_linestatus: Vec<String>,
    pub l_shipdate: Vec<Date>,
    pub l_commitdate: Vec<Date>,
    pub l_receiptdate: Vec<Date>,
    pub l_shipinstruct: Vec<String>,
    pub l_shipmode: Vec<String>,
    pub l_comment: Vec<String>,
}

/// The eight tables of one generated TPC-H database.
#[derive(Debug, Default)]
pub struct TpchTables {
    pub region: Region,
    pub nation: Nation,
    pub supplier: Supplier,
    pub customer: Customer,
    pub part: Part,
    pub partsupp: PartSupp,
    pub orders: Orders,
    pub lineitem: Lineitem,
}

/// One generated TPC-H database, shared: its tables sit behind an
/// [`Arc`], so a clone — one per booted engine — costs a reference
/// count, not a copy of every column. Reads go through [`Deref`] to
/// [`TpchTables`].
#[derive(Debug, Clone, Default)]
pub struct TpchData(Arc<TpchTables>);

impl Deref for TpchData {
    type Target = TpchTables;

    fn deref(&self) -> &TpchTables {
        &self.0
    }
}

/// Rate (parts per million) at which the Q13/Q16 exclusion phrases are
/// embedded in comments — a few percent, like dbgen.
const SPECIAL_PPM: u32 = 30_000;

/// dbgen's "current date" used for return flags and line status.
fn cutoff() -> Date {
    dates::parse("1995-06-17").expect("static TPC-H date literal")
}

impl TpchData {
    /// Generate a database at scale factor `sf` (1.0 = the full TPC-H
    /// population; the paper runs SF 20, this workspace defaults to small
    /// fractions). Deterministic in `(sf, seed)`.
    pub fn generate(sf: f64, seed: u64) -> TpchData {
        assert!(sf > 0.0, "scale factor must be positive");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7bc4_1dbe);
        let scaled = |base: f64| -> usize { ((base * sf).round() as usize).max(1) };
        let n_supplier = scaled(10_000.0);
        let n_customer = scaled(150_000.0);
        let n_part = scaled(200_000.0);
        let n_orders = n_customer * 10;
        let n_clerks = scaled(1_000.0).max(1);
        let mut db = TpchTables::default();

        // REGION and NATION are fixed-size.
        for (k, name) in text::REGIONS.iter().enumerate() {
            db.region.r_regionkey.push(k as i64);
            db.region.r_name.push((*name).to_string());
            db.region.r_comment.push(text::comment(&mut rng, 6, 0));
        }
        for (k, &(name, region)) in text::NATIONS.iter().enumerate() {
            db.nation.n_nationkey.push(k as i64);
            db.nation.n_name.push(name.to_string());
            db.nation.n_regionkey.push(region);
            db.nation.n_comment.push(text::comment(&mut rng, 6, 0));
        }

        for k in 1..=n_supplier as i64 {
            let nation = rng.random_range(0..25);
            db.supplier.s_suppkey.push(k);
            db.supplier.s_name.push(format!("Supplier#{k:09}"));
            db.supplier.s_address.push(text::address(&mut rng));
            db.supplier.s_nationkey.push(nation);
            db.supplier.s_phone.push(text::phone(&mut rng, nation));
            db.supplier.s_acctbal.push(rng.random_range(-99_999..1_000_000));
            db.supplier.s_comment.push(text::comment(&mut rng, 8, SPECIAL_PPM));
        }

        for k in 1..=n_customer as i64 {
            let nation = rng.random_range(0..25);
            db.customer.c_custkey.push(k);
            db.customer.c_name.push(format!("Customer#{k:09}"));
            db.customer.c_address.push(text::address(&mut rng));
            db.customer.c_nationkey.push(nation);
            db.customer.c_phone.push(text::phone(&mut rng, nation));
            db.customer.c_acctbal.push(rng.random_range(-99_999..1_000_000));
            db.customer
                .c_mktsegment
                .push(text::pick(&mut rng, &text::SEGMENTS).to_string());
            db.customer.c_comment.push(text::comment(&mut rng, 8, 0));
        }

        for k in 1..=n_part as i64 {
            db.part.p_partkey.push(k);
            db.part.p_name.push(text::part_name(&mut rng));
            db.part.p_mfgr.push(format!("Manufacturer#{}", rng.random_range(1..=5)));
            db.part.p_brand.push(text::brand(&mut rng));
            db.part.p_type.push(text::part_type(&mut rng));
            db.part.p_size.push(rng.random_range(1..=50));
            db.part.p_container.push(text::container(&mut rng));
            // dbgen's retail price formula keeps prices in [900, 2100).
            db.part
                .p_retailprice
                .push(90_000 + (k % 1_000) * 100 + rng.random_range(0..2_000i64));
            db.part.p_comment.push(text::comment(&mut rng, 5, 0));
        }

        // Four suppliers per part, spread deterministically like dbgen.
        let s = n_supplier as i64;
        for part in 1..=n_part as i64 {
            for i in 0..4i64 {
                let supp = (part + i * (s / 4 + 1)) % s + 1;
                db.partsupp.ps_partkey.push(part);
                db.partsupp.ps_suppkey.push(supp);
                db.partsupp.ps_availqty.push(rng.random_range(1..10_000));
                db.partsupp.ps_supplycost.push(rng.random_range(100..100_000));
                db.partsupp.ps_comment.push(text::comment(&mut rng, 8, 0));
            }
        }

        let order_span = dates::parse("1998-08-02").expect("static TPC-H date literal") - 121;
        let mut line_number_base: i64 = 0;
        for k in 1..=n_orders as i64 {
            let custkey = rng.random_range(1..=n_customer as i64);
            let orderdate = rng.random_range(0..=order_span);
            let lines = rng.random_range(1..=7u32);
            let mut total: i64 = 0;
            let mut all_f = true;
            let mut all_o = true;
            for ln in 1..=lines as i64 {
                let partkey = rng.random_range(1..=n_part as i64);
                // One of the part's four suppliers.
                let i = rng.random_range(0..4i64);
                let suppkey = (partkey + i * (s / 4 + 1)) % s + 1;
                let quantity = rng.random_range(1..=50i64);
                let price = db.part.p_retailprice[(partkey - 1) as usize];
                let extended = quantity * price;
                let discount = rng.random_range(0..=10i64);
                let tax = rng.random_range(0..=8i64);
                let shipdate = orderdate + rng.random_range(1..=121);
                let commitdate = orderdate + rng.random_range(30..=90);
                let receiptdate = shipdate + rng.random_range(1..=30);
                let (returnflag, linestatus) = if receiptdate <= cutoff() {
                    (if rng.random::<bool>() { "R" } else { "A" }, "F")
                } else if shipdate > cutoff() {
                    ("N", "O")
                } else {
                    ("N", "F")
                };
                all_f &= linestatus == "F";
                all_o &= linestatus == "O";
                total += extended * (100 - discount) * (100 + tax) / 10_000;
                let l = &mut db.lineitem;
                l.l_orderkey.push(k);
                l.l_partkey.push(partkey);
                l.l_suppkey.push(suppkey);
                l.l_linenumber.push(ln);
                l.l_quantity.push(quantity);
                l.l_extendedprice.push(extended);
                l.l_discount.push(discount);
                l.l_tax.push(tax);
                l.l_returnflag.push(returnflag.to_string());
                l.l_linestatus.push(linestatus.to_string());
                l.l_shipdate.push(shipdate);
                l.l_commitdate.push(commitdate);
                l.l_receiptdate.push(receiptdate);
                l.l_shipinstruct
                    .push(text::pick(&mut rng, &text::INSTRUCTIONS).to_string());
                l.l_shipmode.push(text::pick(&mut rng, &text::SHIPMODES).to_string());
                l.l_comment.push(text::comment(&mut rng, 4, 0));
                line_number_base += 1;
            }
            let status = if all_f {
                "F"
            } else if all_o {
                "O"
            } else {
                "P"
            };
            let o = &mut db.orders;
            o.o_orderkey.push(k);
            o.o_custkey.push(custkey);
            o.o_orderstatus.push(status.to_string());
            o.o_totalprice.push(total);
            o.o_orderdate.push(orderdate);
            o.o_orderpriority
                .push(text::pick(&mut rng, &text::PRIORITIES).to_string());
            o.o_clerk
                .push(format!("Clerk#{:09}", rng.random_range(1..=n_clerks as i64)));
            o.o_shippriority.push(0);
            o.o_comment.push(text::comment(&mut rng, 8, SPECIAL_PPM));
        }
        let _ = line_number_base;
        TpchData(Arc::new(db))
    }
}

impl TpchTables {
    /// Total rows across all eight tables.
    pub fn total_rows(&self) -> usize {
        self.region.r_regionkey.len()
            + self.nation.n_nationkey.len()
            + self.supplier.s_suppkey.len()
            + self.customer.c_custkey.len()
            + self.part.p_partkey.len()
            + self.partsupp.ps_partkey.len()
            + self.orders.o_orderkey.len()
            + self.lineitem.l_orderkey.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpchData {
        TpchData::generate(0.002, 4)
    }

    #[test]
    fn row_counts_scale_like_dbgen() {
        let db = tiny();
        assert_eq!(db.region.r_regionkey.len(), 5);
        assert_eq!(db.nation.n_nationkey.len(), 25);
        assert_eq!(db.supplier.s_suppkey.len(), 20);
        assert_eq!(db.customer.c_custkey.len(), 300);
        assert_eq!(db.part.p_partkey.len(), 400);
        assert_eq!(db.partsupp.ps_partkey.len(), 1_600);
        assert_eq!(db.orders.o_orderkey.len(), 3_000);
        let lines = db.lineitem.l_orderkey.len();
        assert!((3_000..=21_000).contains(&lines), "lines={lines}");
    }

    #[test]
    fn foreign_keys_are_valid() {
        let db = tiny();
        let nc = db.customer.c_custkey.len() as i64;
        let np = db.part.p_partkey.len() as i64;
        let ns = db.supplier.s_suppkey.len() as i64;
        assert!(db.orders.o_custkey.iter().all(|&c| c >= 1 && c <= nc));
        assert!(db.lineitem.l_partkey.iter().all(|&p| p >= 1 && p <= np));
        assert!(db.lineitem.l_suppkey.iter().all(|&s| s >= 1 && s <= ns));
        assert!(db.supplier.s_nationkey.iter().all(|&n| (0..25).contains(&n)));
        assert!(db
            .partsupp
            .ps_suppkey
            .iter()
            .all(|&sk| sk >= 1 && sk <= ns));
    }

    #[test]
    fn lineitem_dates_are_ordered() {
        let db = tiny();
        let l = &db.lineitem;
        for i in 0..l.l_orderkey.len() {
            assert!(l.l_shipdate[i] < l.l_receiptdate[i], "ship < receipt at {i}");
        }
        // Ship dates stay inside the valid TPC-H window.
        let max = dates::parse("1998-12-01").expect("static TPC-H date literal");
        assert!(l.l_shipdate.iter().all(|&d| d >= 0 && d < max));
    }

    #[test]
    fn return_flags_follow_the_cutoff_rule() {
        let db = tiny();
        let l = &db.lineitem;
        let cut = cutoff();
        for i in 0..l.l_orderkey.len() {
            match l.l_returnflag[i].as_str() {
                "R" | "A" => assert!(l.l_receiptdate[i] <= cut),
                "N" => assert!(l.l_receiptdate[i] > cut),
                other => panic!("bad return flag {other}"),
            }
        }
    }

    #[test]
    fn order_status_summarises_line_statuses() {
        let db = tiny();
        for (oi, &okey) in db.orders.o_orderkey.iter().enumerate() {
            let statuses: Vec<&str> = db
                .lineitem
                .l_orderkey
                .iter()
                .zip(&db.lineitem.l_linestatus)
                .filter(|&(&lo, _)| lo == okey)
                .map(|(_, s)| s.as_str())
                .collect();
            let expect = if statuses.iter().all(|&s| s == "F") {
                "F"
            } else if statuses.iter().all(|&s| s == "O") {
                "O"
            } else {
                "P"
            };
            assert_eq!(db.orders.o_orderstatus[oi], expect, "order {okey}");
        }
    }

    #[test]
    fn partsupp_keys_are_unique_pairs() {
        let db = tiny();
        let mut pairs: Vec<(i64, i64)> = db
            .partsupp
            .ps_partkey
            .iter()
            .zip(&db.partsupp.ps_suppkey)
            .map(|(&p, &s)| (p, s))
            .collect();
        let before = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), before, "duplicate (part, supp) pairs");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TpchData::generate(0.001, 9);
        let b = TpchData::generate(0.001, 9);
        assert_eq!(a.orders.o_totalprice, b.orders.o_totalprice);
        assert_eq!(a.lineitem.l_shipdate, b.lineitem.l_shipdate);
    }

    #[test]
    fn query_predicate_values_exist() {
        let db = TpchData::generate(0.01, 5);
        // Q3: BUILDING segment; Q12: MAIL/SHIP; Q14: PROMO types;
        // Q19: AIR modes + SM CASE containers; Q9: green parts.
        assert!(db.customer.c_mktsegment.iter().any(|s| s == "BUILDING"));
        assert!(db.lineitem.l_shipmode.iter().any(|m| m == "MAIL"));
        assert!(db.part.p_type.iter().any(|t| t.starts_with("PROMO")));
        assert!(db.part.p_container.iter().any(|c| c.starts_with("SM")));
        assert!(db.part.p_name.iter().any(|n| n.contains("green")));
        assert!(db.part.p_name.iter().any(|n| n.starts_with("forest")));
    }
}
