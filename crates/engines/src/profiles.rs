//! The five database-system architecture profiles of W5.
//!
//! The paper picks these systems for their "significantly divergent
//! architectures"; the profile captures the divergences that matter to
//! NUMA tuning: storage layout, intra-query parallelism, intermediate
//! materialisation (allocation pressure), and interpretation overhead.

use nqp_alloc::AllocatorKind;
use nqp_query::WorkloadEnv;
use nqp_sim::MemPolicy;

/// Base-table storage layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One contiguous array per column (MonetDB, Quickstep, DBMSx scans).
    Column,
    /// Contiguous heap tuples (PostgreSQL, MySQL).
    Row,
}

/// The five systems of §IV-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Open-source columnar store with full operator-at-a-time
    /// materialisation and worker threads.
    MonetDbLike,
    /// Row store with process-based intra-query parallelism that
    /// sometimes plans only one worker.
    PostgresLike,
    /// Row store executing each query on a single thread, with the
    /// highest per-row interpretation overhead.
    MySqlLike,
    /// Commercial hybrid row/column store with a parallel in-memory
    /// executor.
    DbmsX,
    /// Research hybrid store focused on in-memory analytics: columnar
    /// scans, low overhead, pipelined (non-materialising) execution.
    QuickstepLike,
}

impl SystemKind {
    /// All five, in the paper's order.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::MonetDbLike,
        SystemKind::PostgresLike,
        SystemKind::MySqlLike,
        SystemKind::DbmsX,
        SystemKind::QuickstepLike,
    ];

    /// Display label (Figure 8 legend).
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::MonetDbLike => "MonetDB",
            SystemKind::PostgresLike => "PostgreSQL",
            SystemKind::MySqlLike => "MySQL",
            SystemKind::DbmsX => "DBMSx",
            SystemKind::QuickstepLike => "Quickstep",
        }
    }

    /// The paper's W5 tuning (§IV-E) on `machine`: First Touch, AutoNUMA
    /// off, THP off except for DBMSx, tbbmalloc, and thread placement
    /// left to the OS, on every hardware thread.
    pub fn tuned_env(self, machine: nqp_topology::MachineSpec) -> WorkloadEnv {
        let env = WorkloadEnv::os_default(machine);
        let sim = env.sim.with_policy(MemPolicy::FirstTouch).with_autonuma(false);
        let sim = sim.with_thp(self == SystemKind::DbmsX);
        WorkloadEnv { sim, allocator: AllocatorKind::Tbbmalloc, ..env }
    }

    /// The architecture profile for this system.
    pub fn profile(self) -> EngineProfile {
        match self {
            SystemKind::MonetDbLike => EngineProfile {
                system: self,
                layout: Layout::Column,
                materialises: true,
                row_overhead_cycles: 4,
                parallelism: Parallelism::All,
                phase_startup_cycles: 60_000,
                single_worker_queries: &[],
            },
            SystemKind::PostgresLike => EngineProfile {
                system: self,
                layout: Layout::Row,
                materialises: false,
                row_overhead_cycles: 12,
                parallelism: Parallelism::Capped(8),
                // Worker processes fork per query phase.
                phase_startup_cycles: 1_500_000,
                // Nested plans the planner runs on one worker.
                single_worker_queries: &[2, 11, 13, 15, 17, 20, 21, 22],
            },
            SystemKind::MySqlLike => EngineProfile {
                system: self,
                layout: Layout::Row,
                materialises: false,
                row_overhead_cycles: 20,
                parallelism: Parallelism::Single,
                phase_startup_cycles: 80_000,
                single_worker_queries: &[],
            },
            SystemKind::DbmsX => EngineProfile {
                system: self,
                layout: Layout::Column,
                materialises: false,
                row_overhead_cycles: 6,
                parallelism: Parallelism::All,
                phase_startup_cycles: 60_000,
                single_worker_queries: &[],
            },
            SystemKind::QuickstepLike => EngineProfile {
                system: self,
                layout: Layout::Column,
                materialises: false,
                row_overhead_cycles: 3,
                parallelism: Parallelism::All,
                phase_startup_cycles: 40_000,
                single_worker_queries: &[],
            },
        }
    }
}

/// How many workers a system throws at one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Every hardware thread the environment grants.
    All,
    /// Process-pool systems cap their per-query workers.
    Capped(usize),
    /// Single-threaded query execution.
    Single,
}

/// Architecture parameters of one system (see [`SystemKind::profile`]).
#[derive(Debug, Clone)]
pub struct EngineProfile {
    /// Which system this profiles.
    pub system: SystemKind,
    /// Base-table layout.
    pub layout: Layout,
    /// Operator-at-a-time full materialisation of intermediates
    /// (MonetDB): every operator writes its result through the allocator.
    pub materialises: bool,
    /// Interpretation overhead per row visited.
    pub row_overhead_cycles: u64,
    /// Worker policy.
    pub parallelism: Parallelism,
    /// Fixed per-phase coordination cost (worker processes must be
    /// launched and handed the plan — expensive for process pools).
    pub phase_startup_cycles: u64,
    /// Queries this system's planner refuses to parallelise (the
    /// PostgreSQL quirk §IV-E blames for its inconsistent gains).
    pub single_worker_queries: &'static [usize],
}

impl EngineProfile {
    /// Worker threads used on a machine granting `available` threads.
    pub fn worker_threads(&self, available: usize) -> usize {
        match self.parallelism {
            Parallelism::All => available.max(1),
            Parallelism::Capped(cap) => available.min(cap).max(1),
            Parallelism::Single => 1,
        }
    }

    /// Worker threads for a *specific* query — applies the planner's
    /// single-worker quirks.
    pub fn worker_threads_for(&self, qnum: usize, available: usize) -> usize {
        if self.single_worker_queries.contains(&qnum) {
            1
        } else {
            self.worker_threads(available)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_distinct_profiles() {
        assert_eq!(SystemKind::ALL.len(), 5);
        let labels: std::collections::HashSet<&str> =
            SystemKind::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn worker_policies() {
        assert_eq!(SystemKind::MonetDbLike.profile().worker_threads(16), 16);
        assert_eq!(SystemKind::PostgresLike.profile().worker_threads(16), 8);
        assert_eq!(SystemKind::MySqlLike.profile().worker_threads(16), 1);
        assert_eq!(SystemKind::QuickstepLike.profile().worker_threads(2), 2);
    }

    #[test]
    fn only_monetdb_materialises() {
        for s in SystemKind::ALL {
            assert_eq!(s.profile().materialises, s == SystemKind::MonetDbLike);
        }
    }

    #[test]
    fn row_stores_are_pg_and_mysql() {
        for s in SystemKind::ALL {
            let row = matches!(s.profile().layout, Layout::Row);
            assert_eq!(
                row,
                matches!(s, SystemKind::PostgresLike | SystemKind::MySqlLike)
            );
        }
    }
}
