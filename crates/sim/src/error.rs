//! Typed errors for the fallible simulation path.
//!
//! Real machines fail: `numactl --membind` allocations die when the bound
//! node is full, transient allocation failures happen under memory
//! pressure, and long-running trials must be cut off. [`SimError`] is the
//! single error currency threaded from [`crate::NumaSim`] page placement
//! up through the workload runners to the experiment harness, replacing
//! the panics that used to abort a whole sweep on one bad trial.

use std::fmt;

/// Convenience alias used throughout the fallible simulation path.
pub type SimResult<T> = Result<T, SimError>;

/// An error raised by the simulated machine or injected by a
/// [`crate::FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No node could hold the requested pages. Raised strictly (no
    /// fallback) under [`crate::MemPolicy::Bind`], and by any policy once
    /// every node's capacity is exhausted — the model of a real `membind`
    /// failure / kernel OOM.
    OutOfMemory {
        /// The node the placement wanted.
        node: usize,
        /// Pages the failing placement unit needed.
        requested_pages: u64,
    },
    /// A zero-byte mapping, a touch of an unmapped address, or an unmap
    /// outside any live mapping. (These used to be `assert!`s and
    /// `debug_assert!`s that diverged between debug and release builds.)
    InvalidMapping {
        /// The offending virtual address (or requested base for maps).
        addr: u64,
    },
    /// A transient allocation failure injected by a fault plan. Retryable:
    /// the experiment runner re-runs the trial with a bumped
    /// `fault_attempt` and the fault clears once the configured number of
    /// failing attempts is exhausted.
    InjectedAllocFault {
        /// Parallel region in which the fault fired.
        region: u64,
        /// Retry attempt the fault fired on (0 = first run).
        attempt: u32,
    },
    /// The trial exceeded its cycle budget.
    Timeout {
        /// The configured budget, in model cycles.
        budget_cycles: u64,
        /// Simulated cycles consumed when the budget tripped.
        elapsed_cycles: u64,
    },
    /// The query's deadline passed and it abandoned cooperatively at a
    /// region (phase) boundary. Unlike [`SimError::Timeout`] — the
    /// watchdog killing a runaway trial — a deadline abandon is an
    /// orderly exit: the cycles burned up to the boundary are reported
    /// in `elapsed_cycles` so the caller can charge them.
    DeadlineExceeded {
        /// The configured deadline, in model cycles.
        deadline_cycles: u64,
        /// Simulated cycles already burned when the query abandoned.
        elapsed_cycles: u64,
    },
    /// A NUMA node (CPUs + memory controller) dropped out and the
    /// operation strictly required it: a `MemPolicy::Bind` to the dead
    /// node, or an attempt to take the *last* live node offline. Trials
    /// that merely *used* the node degrade instead (pages are evacuated,
    /// threads re-placed) — this error is the strict path.
    NodeOffline {
        /// The offline node.
        node: usize,
    },
    /// A region asked for no simulated threads, or for more than the
    /// simulator can tell apart ([`crate::MAX_THREADS`]).
    ThreadCount {
        /// The requested thread count.
        threads: u64,
        /// The most a region can run.
        max: u64,
    },
    /// A harness-level invariant failed (the fallible replacement for
    /// internal `expect`s on the experiment path).
    Harness {
        /// What went wrong.
        what: String,
    },
    /// A user-facing spec string (`--faults`, `--outage`, `--arrivals`)
    /// failed to parse. Carries the flag, the offending token verbatim,
    /// and the reason, so the CLI error names exactly what to fix.
    BadSpec {
        /// The flag whose value was malformed (e.g. `--faults`).
        flag: String,
        /// The offending token, verbatim from the input.
        token: String,
        /// Why the token was rejected.
        why: String,
    },
}

impl SimError {
    /// Whether retrying the trial (with a bumped fault attempt) can
    /// plausibly succeed. Only injected transient faults qualify;
    /// capacity exhaustion and timeouts are deterministic.
    pub fn is_transient(&self) -> bool {
        matches!(self, SimError::InjectedAllocFault { .. })
    }

    /// Short stable tag for tables and logs.
    pub fn tag(&self) -> &'static str {
        match self {
            SimError::OutOfMemory { .. } => "oom",
            SimError::InvalidMapping { .. } => "invalid-mapping",
            SimError::InjectedAllocFault { .. } => "alloc-fault",
            SimError::Timeout { .. } => "timeout",
            SimError::DeadlineExceeded { .. } => "deadline",
            SimError::NodeOffline { .. } => "node-offline",
            SimError::ThreadCount { .. } => "thread-count",
            SimError::Harness { .. } => "harness",
            SimError::BadSpec { .. } => "bad-spec",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory { node, requested_pages } => write!(
                f,
                "out of memory: no node could hold {requested_pages} pages (wanted node {node})"
            ),
            SimError::InvalidMapping { addr } => {
                write!(f, "invalid mapping at address {addr:#x}")
            }
            SimError::InjectedAllocFault { region, attempt } => write!(
                f,
                "injected transient allocation fault (region {region}, attempt {attempt})"
            ),
            SimError::Timeout { budget_cycles, elapsed_cycles } => write!(
                f,
                "trial exceeded its cycle budget ({elapsed_cycles} of {budget_cycles} budgeted cycles)"
            ),
            SimError::DeadlineExceeded { deadline_cycles, elapsed_cycles } => write!(
                f,
                "query abandoned at a phase boundary: deadline {deadline_cycles} cycles passed \
                 ({elapsed_cycles} burned)"
            ),
            SimError::NodeOffline { node } => {
                write!(f, "node {node} is offline and the operation required it")
            }
            SimError::ThreadCount { threads, max } => {
                write!(f, "a region runs 1 to {max} simulated threads, not {threads}")
            }
            SimError::Harness { what } => write!(f, "harness invariant failed: {what}"),
            SimError::BadSpec { flag, token, why } => {
                write!(f, "malformed {flag} spec: {why} at `{token}`")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_injected_faults_are_transient() {
        assert!(SimError::InjectedAllocFault { region: 1, attempt: 0 }.is_transient());
        assert!(!SimError::OutOfMemory { node: 0, requested_pages: 1 }.is_transient());
        assert!(!SimError::Timeout { budget_cycles: 1, elapsed_cycles: 2 }.is_transient());
        assert!(!SimError::InvalidMapping { addr: 0 }.is_transient());
    }

    #[test]
    fn display_is_informative() {
        let e = SimError::OutOfMemory { node: 2, requested_pages: 512 };
        let s = e.to_string();
        assert!(s.contains("512") && s.contains("node 2"), "{s}");
        assert_eq!(e.tag(), "oom");
        assert_eq!(SimError::Timeout { budget_cycles: 5, elapsed_cycles: 9 }.tag(), "timeout");
        let d = SimError::DeadlineExceeded { deadline_cycles: 5, elapsed_cycles: 9 };
        assert_eq!(d.tag(), "deadline");
        assert!(!d.is_transient(), "a passed deadline never clears on retry");
        assert!(d.to_string().contains("9 burned"), "{d}");
    }
}
