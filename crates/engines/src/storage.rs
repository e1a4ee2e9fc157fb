//! Simulated base-table storage: the cost shadow of each TPC-H table.
//!
//! Values live host-side (in the generated [`TpchData`]); every scan
//! charges touches against mapped simulated memory with the layout's
//! true stride. A row store reads a cell from inside a wide tuple — the
//! whole cache line around it moves — while a column store reads from a
//! dense array of just that column. That difference is the layout term
//! of the engine profiles.

use crate::profiles::Layout;
use nqp_datagen::tpch::TpchData;
use nqp_sim::{Access, MixBuildHasher, NumaSim, SimResult, VAddr, Worker};
use nqp_storage::SimHeap;
use std::collections::HashMap;

/// `(column name, width in bytes)` per table, in schema order. Strings
/// are shadowed at 16 bytes (pointer + length/prefix), dates at 4,
/// integers and decimals at 8.
const SCHEMAS: &[(&str, &[(&str, u64)])] = &[
    ("region", &[("r_regionkey", 8), ("r_name", 16), ("r_comment", 16)]),
    (
        "nation",
        &[("n_nationkey", 8), ("n_name", 16), ("n_regionkey", 8), ("n_comment", 16)],
    ),
    (
        "supplier",
        &[
            ("s_suppkey", 8),
            ("s_name", 16),
            ("s_address", 16),
            ("s_nationkey", 8),
            ("s_phone", 16),
            ("s_acctbal", 8),
            ("s_comment", 16),
        ],
    ),
    (
        "customer",
        &[
            ("c_custkey", 8),
            ("c_name", 16),
            ("c_address", 16),
            ("c_nationkey", 8),
            ("c_phone", 16),
            ("c_acctbal", 8),
            ("c_mktsegment", 16),
            ("c_comment", 16),
        ],
    ),
    (
        "part",
        &[
            ("p_partkey", 8),
            ("p_name", 16),
            ("p_mfgr", 16),
            ("p_brand", 16),
            ("p_type", 16),
            ("p_size", 8),
            ("p_container", 16),
            ("p_retailprice", 8),
            ("p_comment", 16),
        ],
    ),
    (
        "partsupp",
        &[
            ("ps_partkey", 8),
            ("ps_suppkey", 8),
            ("ps_availqty", 8),
            ("ps_supplycost", 8),
            ("ps_comment", 16),
        ],
    ),
    (
        "orders",
        &[
            ("o_orderkey", 8),
            ("o_custkey", 8),
            ("o_orderstatus", 16),
            ("o_totalprice", 8),
            ("o_orderdate", 4),
            ("o_orderpriority", 16),
            ("o_clerk", 16),
            ("o_shippriority", 8),
            ("o_comment", 16),
        ],
    ),
    (
        "lineitem",
        &[
            ("l_orderkey", 8),
            ("l_partkey", 8),
            ("l_suppkey", 8),
            ("l_linenumber", 8),
            ("l_quantity", 8),
            ("l_extendedprice", 8),
            ("l_discount", 8),
            ("l_tax", 8),
            ("l_returnflag", 16),
            ("l_linestatus", 16),
            ("l_shipdate", 4),
            ("l_commitdate", 4),
            ("l_receiptdate", 4),
            ("l_shipinstruct", 16),
            ("l_shipmode", 16),
            ("l_comment", 16),
        ],
    ),
];

/// Table and column shadows keyed by name. Every query charges a cell
/// through two of these lookups, so they hash with the cheap
/// deterministic [`MixBuildHasher`] instead of SipHash.
type NameMap<V> = HashMap<&'static str, V, MixBuildHasher>;

/// The storage shadow of one table.
#[derive(Debug)]
pub struct TableShadow {
    layout: Layout,
    nrows: usize,
    /// Row layout: tuple width. Column layout: unused.
    row_bytes: u64,
    /// Row layout: tuple base. Column layout: unused.
    row_base: VAddr,
    /// Per column: `(offset within row | column base, width)`.
    cols: NameMap<(VAddr, u64)>,
}

impl TableShadow {
    /// Charge the cost of reading `col` of `row`.
    #[inline]
    pub fn charge(&self, w: &mut Worker<'_>, col: &str, row: usize) {
        let &(pos, width) = self
            .cols
            .get(col)
            .unwrap_or_else(|| panic!("unknown column {col}"));
        let addr = match self.layout {
            Layout::Column => pos + row as u64 * width,
            Layout::Row => self.row_base + row as u64 * self.row_bytes + pos,
        };
        w.touch(addr, width, Access::Read);
    }

    /// Rows in the table.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// The contiguous row range thread `tid` of `threads` scans.
    pub fn partition(&self, tid: usize, threads: usize) -> std::ops::Range<usize> {
        let per = self.nrows.div_ceil(threads.max(1));
        let start = (tid * per).min(self.nrows);
        let end = ((tid + 1) * per).min(self.nrows);
        start..end
    }
}

/// The loaded database: host values + per-table cost shadows.
pub struct TpchDb {
    /// The generated data (exact values for query evaluation), shared
    /// with every other system booted from the same data.
    pub data: TpchData,
    tables: NameMap<TableShadow>,
}

impl TpchDb {
    /// Map the storage shadows and fault them in with a partitioned
    /// parallel load (first touch spreads each table across the loading
    /// workers, as a parallel COPY would). Fails with the simulator's
    /// fault (capacity, an injected fault, the trial budget, a deadline).
    pub fn load(
        sim: &mut NumaSim,
        _heap: &mut SimHeap,
        data: &TpchData,
        layout: Layout,
        threads: usize,
    ) -> SimResult<Self> {
        let row_count = |name: &str| -> usize {
            match name {
                "region" => data.region.r_regionkey.len(),
                "nation" => data.nation.n_nationkey.len(),
                "supplier" => data.supplier.s_suppkey.len(),
                "customer" => data.customer.c_custkey.len(),
                "part" => data.part.p_partkey.len(),
                "partsupp" => data.partsupp.ps_partkey.len(),
                "orders" => data.orders.o_orderkey.len(),
                "lineitem" => data.lineitem.l_orderkey.len(),
                other => panic!("unknown table {other}"),
            }
        };
        let mut tables = NameMap::default();
        for &(name, schema) in SCHEMAS {
            let nrows = row_count(name);
            let shadow = match layout {
                Layout::Row => {
                    // Row stores read tuples through a shared buffer
                    // pool whose pages are faulted by whichever backend
                    // needs them first — placement is spread, not
                    // loader-local (unlike a column store's mmapped
                    // column files).
                    let row_bytes: u64 = schema.iter().map(|&(_, wd)| wd).sum();
                    let mut base = 0;
                    sim.try_serial(&mut base, |w, base| {
                        *base = w.map_pages_shared((nrows as u64 * row_bytes).max(1));
                    })?;
                    let mut off = 0;
                    let cols = schema
                        .iter()
                        .map(|&(cname, wd)| {
                            let entry = (cname, (off, wd));
                            off += wd;
                            entry
                        })
                        .collect();
                    TableShadow { layout, nrows, row_bytes, row_base: base, cols }
                }
                Layout::Column => {
                    let mut cols = NameMap::default();
                    for &(cname, wd) in schema {
                        let mut base = 0;
                        sim.try_serial(&mut base, |w, base| {
                            *base = w.map_pages((nrows as u64 * wd).max(1));
                        })?;
                        cols.insert(cname, (base, wd));
                    }
                    TableShadow { layout, nrows, row_bytes: 0, row_base: 0, cols }
                }
            };
            tables.insert(name, shadow);
        }
        let db = TpchDb { data: data.clone(), tables };
        // Fault everything in, partitioned across the workers. Each
        // worker writes only its own contiguous row range, so the load
        // shards across host threads (`SimConfig::shards`) with
        // deterministic epoch merges — byte-identical at any shard
        // count, same as the W1–W4 relation loaders.
        for &(name, schema) in SCHEMAS {
            let shadow = &db.tables[name];
            // Each column's `(base, width)` in schema order, resolved once
            // per table instead of once per cell.
            let cols: Vec<(u64, u64)> =
                schema.iter().map(|&(cname, _)| shadow.cols[cname]).collect();
            sim.try_parallel_sharded(threads, shadow, |w, shadow| {
                for row in shadow.partition(w.tid(), threads) {
                    match layout {
                        Layout::Row => {
                            let addr = shadow.row_base + row as u64 * shadow.row_bytes;
                            w.touch(addr, shadow.row_bytes, Access::Write);
                        }
                        Layout::Column => {
                            for &(base, wd) in &cols {
                                w.touch(base + row as u64 * wd, wd, Access::Write);
                            }
                        }
                    }
                }
            })?;
        }
        Ok(db)
    }

    /// The shadow of `name`.
    pub fn table(&self, name: &str) -> &TableShadow {
        self.tables
            .get(name)
            .unwrap_or_else(|| panic!("unknown table {name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_alloc::AllocatorKind;
    use nqp_sim::SimConfig;
    use nqp_topology::machines;

    fn setup(layout: Layout) -> (NumaSim, TpchDb) {
        let mut sim = NumaSim::new(
            SimConfig::tuned(machines::machine_b()),
        );
        let mut heap = SimHeap::new(AllocatorKind::Tbbmalloc, &mut sim).unwrap();
        let data = TpchData::generate(0.001, 3);
        let db = TpchDb::load(&mut sim, &mut heap, &data, layout, 4).unwrap();
        (sim, db)
    }

    #[test]
    fn all_eight_tables_load() {
        let (_, db) = setup(Layout::Column);
        for &(name, _) in SCHEMAS {
            assert!(db.table(name).nrows() > 0, "{name} empty");
        }
        assert_eq!(db.table("region").nrows(), 5);
        assert_eq!(db.table("nation").nrows(), 25);
    }

    #[test]
    fn row_scans_cost_more_than_column_scans() {
        let cost = |layout| {
            let (mut sim, db) = setup(layout);
            let before = sim.now_cycles();
            sim.try_serial(&mut (), |w, _| {
                let li = db.table("lineitem");
                for row in 0..li.nrows() {
                    li.charge(w, "l_shipdate", row);
                }
            }).unwrap();
            sim.now_cycles() - before
        };
        let row = cost(Layout::Row);
        let col = cost(Layout::Column);
        assert!(
            row > 2 * col,
            "row-store scan ({row}) should dwarf column scan ({col})"
        );
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn unknown_column_panics() {
        let (mut sim, db) = setup(Layout::Column);
        sim.try_serial(&mut (), |w, _| db.table("orders").charge(w, "nope", 0)).unwrap();
    }

    #[test]
    fn partitions_tile_rows() {
        let (_, db) = setup(Layout::Column);
        let li = db.table("lineitem");
        let mut total = 0;
        for tid in 0..5 {
            total += li.partition(tid, 5).len();
        }
        assert_eq!(total, li.nrows());
    }
}
