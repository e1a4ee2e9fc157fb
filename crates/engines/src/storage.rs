//! Simulated base-table storage: the cost shadow of each TPC-H table.
//!
//! Values live host-side (in the generated [`TpchData`]); every scan
//! charges touches against mapped simulated memory with the layout's
//! true stride. A row store reads a cell from inside a wide tuple — the
//! whole cache line around it moves — while a column store reads from a
//! dense array of just that column. That difference is the layout term
//! of the engine profiles.

use crate::error::EngineError;
use crate::profiles::Layout;
use nqp_datagen::tpch::TpchData;
use nqp_sim::{Access, NumaSim, SimResult, VAddr, Worker};
use nqp_storage::SimHeap;

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

/// A resolved column: where each cell of one column sits in simulated
/// memory. Resolve it once per query with [`TableShadow::col`]; charging
/// a cell is then a multiply-add and a touch.
#[derive(Debug, Clone, Copy)]
pub struct ColShadow {
    /// Address of row 0's cell.
    base: VAddr,
    /// Bytes between consecutive rows' cells: the column width in a
    /// column store, the tuple width in a row store.
    stride: u64,
    /// Bytes the cell occupies.
    width: u64,
}

impl ColShadow {
    /// Charge the cost of reading this column of `row`.
    #[inline]
    pub fn charge(self, w: &mut Worker<'_>, row: usize) {
        self.touch(w, row, Access::Read);
    }

    #[inline]
    fn touch(self, w: &mut Worker<'_>, row: usize, access: Access) {
        w.touch(self.base + row as u64 * self.stride, self.width, access);
    }
}

/// The storage shadow of one table.
#[derive(Debug)]
pub struct TableShadow {
    name: &'static str,
    nrows: usize,
    /// Every column in schema order.
    cols: Vec<(&'static str, ColShadow)>,
}

impl TableShadow {
    /// The table's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The handle of column `name`; an unknown name is a typed error.
    pub fn col(&self, name: &str) -> Result<ColShadow, EngineError> {
        self.cols
            .iter()
            .find(|&&(cname, _)| cname == name)
            .map(|&(_, col)| col)
            .ok_or_else(|| EngineError::UnknownColumn {
                table: self.name.to_string(),
                column: name.to_string(),
            })
    }

    /// The handles of several columns at once, in the order asked.
    pub fn cols<const N: usize>(&self, names: [&str; N]) -> Result<[ColShadow; N], EngineError> {
        let mut out = [ColShadow { base: 0, stride: 0, width: 0 }; N];
        for (slot, name) in out.iter_mut().zip(names) {
            *slot = self.col(name)?;
        }
        Ok(out)
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
    /// Every table in [`SCHEMAS`] order.
    tables: Vec<TableShadow>,
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
        // Rows per table, in `SCHEMAS` order.
        let row_counts = [
            data.region.r_regionkey.len(),
            data.nation.n_nationkey.len(),
            data.supplier.s_suppkey.len(),
            data.customer.c_custkey.len(),
            data.part.p_partkey.len(),
            data.partsupp.ps_partkey.len(),
            data.orders.o_orderkey.len(),
            data.lineitem.l_orderkey.len(),
        ];
        let mut tables = Vec::with_capacity(SCHEMAS.len());
        // Per table, the spans the load writes for each row: the whole
        // tuple in a row store, every column's cell in a column store.
        let mut fills = Vec::with_capacity(SCHEMAS.len());
        for (&(name, schema), nrows) in SCHEMAS.iter().zip(row_counts) {
            let (cols, fill) = match layout {
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
                    let cols: Vec<_> = schema
                        .iter()
                        .map(|&(cname, width)| {
                            let col = ColShadow { base: base + off, stride: row_bytes, width };
                            off += width;
                            (cname, col)
                        })
                        .collect();
                    (cols, vec![ColShadow { base, stride: row_bytes, width: row_bytes }])
                }
                Layout::Column => {
                    let mut cols = Vec::with_capacity(schema.len());
                    for &(cname, width) in schema {
                        let mut base = 0;
                        sim.try_serial(&mut base, |w, base| {
                            *base = w.map_pages((nrows as u64 * width).max(1));
                        })?;
                        cols.push((cname, ColShadow { base, stride: width, width }));
                    }
                    let fill = cols.iter().map(|&(_, col)| col).collect();
                    (cols, fill)
                }
            };
            tables.push(TableShadow { name, nrows, cols });
            fills.push(fill);
        }
        // Fault everything in, partitioned across the workers. Each
        // worker writes only its own contiguous row range, so the load
        // shards across host threads (`SimConfig::shards`) with
        // deterministic epoch merges — byte-identical at any shard
        // count, same as the W1–W4 relation loaders.
        for (shadow, fill) in tables.iter().zip(&fills) {
            sim.try_parallel_sharded(threads, shadow, |w, shadow| {
                for row in shadow.partition(w.tid(), threads) {
                    for span in fill {
                        span.touch(w, row, Access::Write);
                    }
                }
            })?;
        }
        Ok(TpchDb { data: data.clone(), tables })
    }

    /// The shadow of table `name`; an unknown name is a typed error.
    pub fn table(&self, name: &str) -> Result<&TableShadow, EngineError> {
        self.tables
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| EngineError::UnknownTable { table: name.to_string() })
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
            assert!(db.table(name).unwrap().nrows() > 0, "{name} empty");
        }
        assert_eq!(db.table("region").unwrap().nrows(), 5);
        assert_eq!(db.table("nation").unwrap().nrows(), 25);
    }

    #[test]
    fn row_scans_cost_more_than_column_scans() {
        let cost = |layout| {
            let (mut sim, db) = setup(layout);
            let li = db.table("lineitem").unwrap();
            let shipdate = li.col("l_shipdate").unwrap();
            let before = sim.now_cycles();
            sim.try_serial(&mut (), |w, _| {
                for row in 0..li.nrows() {
                    shipdate.charge(w, row);
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
    fn handles_address_cells_with_the_layout_stride() {
        // Row store: a column's cells sit one tuple apart, at the
        // column's offset in the tuple. Column store: they are dense.
        let (_, rows) = setup(Layout::Row);
        let orders = rows.table("orders").unwrap();
        let [key, cust, date] = orders.cols(["o_orderkey", "o_custkey", "o_orderdate"]).unwrap();
        let tuple: u64 = SCHEMAS[6].1.iter().map(|&(_, wd)| wd).sum();
        assert_eq!(SCHEMAS[6].0, "orders");
        assert_eq!((key.stride, key.width), (tuple, 8));
        assert_eq!(cust.base, key.base + 8);
        assert_eq!(date.base, key.base + 8 + 8 + 16 + 8);
        let (_, cols) = setup(Layout::Column);
        let date = cols.table("orders").unwrap().col("o_orderdate").unwrap();
        assert_eq!((date.stride, date.width), (4, 4));
    }

    #[test]
    fn unknown_table_is_a_typed_error() {
        let (_, db) = setup(Layout::Column);
        let err = db.table("nope").expect_err("no such table");
        assert_eq!(err, EngineError::UnknownTable { table: "nope".into() });
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn unknown_column_is_a_typed_error() {
        let (_, db) = setup(Layout::Row);
        let orders = db.table("orders").unwrap();
        let expect = EngineError::UnknownColumn { table: "orders".into(), column: "nope".into() };
        assert_eq!(orders.col("nope").expect_err("no such column"), expect);
        // A column of another table is unknown here too, and `cols`
        // fails on the first bad name.
        let err = orders.cols(["o_orderkey", "l_orderkey"]).expect_err("lineitem's column");
        assert_eq!(
            err,
            EngineError::UnknownColumn { table: "orders".into(), column: "l_orderkey".into() }
        );
        assert!(expect.to_string().contains("orders"), "{expect}");
    }

    #[test]
    fn partitions_tile_rows() {
        let (_, db) = setup(Layout::Column);
        let li = db.table("lineitem").unwrap();
        let mut total = 0;
        for tid in 0..5 {
            total += li.partition(tid, 5).len();
        }
        assert_eq!(total, li.nrows());
    }
}
