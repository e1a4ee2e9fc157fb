// Harness-path code must surface faults, never panic on them: unwrap()
// and expect() are denied outside tests (enforced by scripts/check.sh).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! The experiment harness behind every table and figure.
//!
//! * [`experiment`] — named [`TuningConfig`]s, the os-default/tuned
//!   grid presets and their tier × engine crossing, and speedup
//!   arithmetic.
//! * [`runner`] — supervised trials: retries, watchdog, circuit breaker.
//! * [`executor`] — the grid worker pool `sweep` and `serve` run on.
//! * [`journal`] — the crash-safe write-ahead journal behind `--resume`.
//!
//! The Figure 10 decision flowchart lives in `nqp_advisor::flowchart`.

pub mod executor;
pub mod experiment;
pub mod journal;
pub mod runner;

pub use executor::{run_pool, sweep_parallel};
pub use experiment::{
    advisor_contender, cross_grid, preset_configs, speedup, AdvisorMode, TuningConfig,
};
pub use journal::{
    grid_fingerprint, read_journal, JournalContents, JournalRecord, JournalWriter,
    JOURNAL_VERSION,
};
pub use runner::{
    run_trial_measured, sweep_supervised, Outcome, RetryPolicy, SupervisorPolicy, SweepReport,
    TrialMeasurement, TrialRecord,
};
