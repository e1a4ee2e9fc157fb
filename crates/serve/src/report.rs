//! Serve-run reporting: per-tenant counters, telescoping epoch rows,
//! tail-latency quantiles, and the journal round-trip.
//!
//! The discipline matches the sweep report: `table`, `to_csv`, and
//! `to_json` are pure functions of the collected stats, so a resumed
//! run whose adopted cells decode from the journal renders
//! byte-identically to an uninterrupted one. Everything the renderers
//! read is therefore journaled — histogram buckets included.

use crate::histogram::LatencyHistogram;
use crate::spec::ServeOutcome;
use nqp_core::journal::{esc, get, get_num, get_str, JVal, JournalRecord};

/// Monotone counters for one tenant over the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Sessions that arrived for this tenant.
    pub arrivals: u64,
    /// Sessions past the admission pipeline.
    pub admitted: u64,
    /// Admitted sessions that ran to completion (late and degraded
    /// included).
    pub completed: u64,
    /// Shed: tenant queue full, or ladder level 1 reject-newest.
    pub shed_queue: u64,
    /// Shed: token bucket empty, or ladder level 2 over fair share.
    pub shed_quota: u64,
    /// Shed: tenant circuit breaker open.
    pub shed_breaker: u64,
    /// Admitted sessions abandoned past their deadline.
    pub timeouts: u64,
    /// Completions served as sampled answers (ladder level 3).
    pub degraded: u64,
    /// Full-fidelity completions within the deadline SLO.
    pub slo_ok: u64,
}

impl TenantStats {
    /// All shed counters combined.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed_queue + self.shed_quota + self.shed_breaker
    }
}

/// One telescoping epoch: deltas since the previous tick plus sampled
/// gauges. Summing any delta column over all rows reproduces the run
/// total exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochRow {
    /// Tick time on the model clock.
    pub t_cycles: u64,
    /// Arrivals this epoch.
    pub arrivals: u64,
    /// Admissions this epoch.
    pub admitted: u64,
    /// Completions this epoch.
    pub completed: u64,
    /// Sheds this epoch (all causes).
    pub shed: u64,
    /// Deadline timeouts this epoch.
    pub timeouts: u64,
    /// Full-fidelity in-deadline completions this epoch — the SLO
    /// numerator, windowed so recovery can be measured per epoch.
    pub slo_ok: u64,
    /// Total queued sessions at the tick (gauge).
    pub depth: u64,
    /// Shedding-ladder level at the tick (gauge).
    pub level: u64,
}

/// One resolved session, kept only when session recording is on —
/// feeds the per-session trace export, never the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// Owning tenant.
    pub tenant: usize,
    /// Query-class index into the cell's profiles.
    pub class: usize,
    /// Service lane, or `usize::MAX` if never dispatched.
    pub lane: usize,
    /// Arrival cycle.
    pub arrival: u64,
    /// Dispatch cycle (equals `arrival` for sheds).
    pub start: u64,
    /// Resolution cycle.
    pub end: u64,
    /// What happened.
    pub outcome: ServeOutcome,
    /// Engine cycles burned (nonzero only for ran-then-timed-out).
    pub burned: u64,
}

/// Everything measured for one serve cell (one engine configuration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellStats {
    /// Engine-configuration name.
    pub config: String,
    /// Model-clock cycle at which the run fully drained.
    pub end_cycles: u64,
    /// Pages evacuated by the mid-serve outage (0 without one).
    pub evacuated_pages: u64,
    /// Model-clock cycle at which the online advisor re-homed the
    /// evacuated pages after the outage (0 = never re-tuned; a static
    /// advisor keeps the placement residue for the rest of the run).
    pub retune_cycles: u64,
    /// SLO attainment (permille of arrivals) over epochs ending at or
    /// before the outage started.
    pub slo_pre_permille: u64,
    /// SLO attainment over epochs after recovery — after the advisor's
    /// re-tune if one happened, else after the outage window closed.
    pub slo_post_permille: u64,
    /// Cycles burned by queries that later abandoned their deadline.
    pub wasted_cycles: u64,
    /// High-water mark of total queued sessions.
    pub max_depth: u64,
    /// Completion-latency histogram (cycles, arrival to completion).
    pub hist: LatencyHistogram,
    /// Per-tenant counters, indexed by tenant id.
    pub tenants: Vec<TenantStats>,
    /// Telescoping epoch rows, in time order.
    pub epochs: Vec<EpochRow>,
}

impl CellStats {
    /// Counters summed over all tenants.
    #[must_use]
    pub fn totals(&self) -> TenantStats {
        let mut t = TenantStats::default();
        for s in &self.tenants {
            t.arrivals += s.arrivals;
            t.admitted += s.admitted;
            t.completed += s.completed;
            t.shed_queue += s.shed_queue;
            t.shed_quota += s.shed_quota;
            t.shed_breaker += s.shed_breaker;
            t.timeouts += s.timeouts;
            t.degraded += s.degraded;
            t.slo_ok += s.slo_ok;
        }
        t
    }

    /// SLO attainment in permille of *arrivals* (sheds count against
    /// the SLO — a rejected query is not a served query).
    #[must_use]
    pub fn slo_permille(&self) -> u64 {
        let t = self.totals();
        if t.arrivals == 0 {
            return 0;
        }
        t.slo_ok * 1000 / t.arrivals
    }

    /// How far post-recovery SLO attainment sits below the pre-outage
    /// baseline, in permille (0 = fully recovered).
    #[must_use]
    pub fn recovery_gap_permille(&self) -> u64 {
        self.slo_pre_permille.saturating_sub(self.slo_post_permille)
    }
}

/// A serve journal holds one `serve-cell` record per finished cell; its
/// fields are also the cell's object in [`ServeReport::to_json`].
impl JournalRecord for CellStats {
    const KIND: &'static str = "serve-cell";

    fn fields_json(&self) -> String {
        let hist: Vec<String> = self
            .hist
            .nonzero_buckets()
            .iter()
            .map(|(i, c)| format!("[{i},{c}]"))
            .collect();
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "[{},{},{},{},{},{},{},{},{}]",
                    t.arrivals,
                    t.admitted,
                    t.completed,
                    t.shed_queue,
                    t.shed_quota,
                    t.shed_breaker,
                    t.timeouts,
                    t.degraded,
                    t.slo_ok
                )
            })
            .collect();
        let epochs: Vec<String> = self
            .epochs
            .iter()
            .map(|e| {
                format!(
                    "[{},{},{},{},{},{},{},{},{}]",
                    e.t_cycles,
                    e.arrivals,
                    e.admitted,
                    e.completed,
                    e.shed,
                    e.timeouts,
                    e.slo_ok,
                    e.depth,
                    e.level
                )
            })
            .collect();
        format!(
            "\"config\":\"{}\",\"end_cycles\":{},\"evacuated_pages\":{},\
             \"retune_cycles\":{},\"slo_pre_permille\":{},\
             \"slo_post_permille\":{},\
             \"wasted_cycles\":{},\"max_depth\":{},\"hist_max\":{},\
             \"hist\":[{}],\"tenants\":[{}],\"epochs\":[{}]",
            esc(&self.config),
            self.end_cycles,
            self.evacuated_pages,
            self.retune_cycles,
            self.slo_pre_permille,
            self.slo_post_permille,
            self.wasted_cycles,
            self.max_depth,
            self.hist.max(),
            hist.join(","),
            tenants.join(","),
            epochs.join(",")
        )
    }

    fn from_obj(obj: &[(String, JVal)]) -> Option<CellStats> {
        fn nums(v: &JVal) -> Option<Vec<u64>> {
            match v {
                JVal::Arr(items) => items
                    .iter()
                    .map(|x| match x {
                        JVal::Num(n) => Some(*n),
                        _ => None,
                    })
                    .collect(),
                _ => None,
            }
        }
        let arr = |key: &str| match get(obj, key)? {
            JVal::Arr(items) => Some(items.clone()),
            _ => None,
        };
        let hist_max = get_num(obj, "hist_max")?;
        let mut buckets = Vec::new();
        for item in arr("hist")? {
            let pair = nums(&item)?;
            if pair.len() != 2 {
                return None;
            }
            buckets.push((pair[0] as usize, pair[1]));
        }
        let mut tenants = Vec::new();
        for item in arr("tenants")? {
            let n = nums(&item)?;
            if n.len() != 9 {
                return None;
            }
            tenants.push(TenantStats {
                arrivals: n[0],
                admitted: n[1],
                completed: n[2],
                shed_queue: n[3],
                shed_quota: n[4],
                shed_breaker: n[5],
                timeouts: n[6],
                degraded: n[7],
                slo_ok: n[8],
            });
        }
        let mut epochs = Vec::new();
        for item in arr("epochs")? {
            let n = nums(&item)?;
            if n.len() != 9 {
                return None;
            }
            epochs.push(EpochRow {
                t_cycles: n[0],
                arrivals: n[1],
                admitted: n[2],
                completed: n[3],
                shed: n[4],
                timeouts: n[5],
                slo_ok: n[6],
                depth: n[7],
                level: n[8],
            });
        }
        Some(CellStats {
            config: get_str(obj, "config")?.to_string(),
            end_cycles: get_num(obj, "end_cycles")?,
            evacuated_pages: get_num(obj, "evacuated_pages")?,
            retune_cycles: get_num(obj, "retune_cycles")?,
            slo_pre_permille: get_num(obj, "slo_pre_permille")?,
            slo_post_permille: get_num(obj, "slo_post_permille")?,
            wasted_cycles: get_num(obj, "wasted_cycles")?,
            max_depth: get_num(obj, "max_depth")?,
            hist: LatencyHistogram::from_buckets(&buckets, hist_max),
            tenants,
            epochs,
        })
    }
}

/// The full serve report across all cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Per-cell stats in grid order.
    pub cells: Vec<CellStats>,
    /// The cell budget (`--max-cells`) stopped the run early.
    pub interrupted: bool,
}

fn permille_pct(p: u64) -> String {
    format!("{}.{}%", p / 10, p % 10)
}

impl ServeReport {
    /// Human-readable per-config table: tail quantiles, SLO attainment,
    /// and robustness counters.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::from(
            "config                      p50        p95        p99        p99.9      \
             slo    shed  t/o   degr  maxq\n",
        );
        for c in &self.cells {
            let t = c.totals();
            out.push_str(&format!(
                "{:<27} {:<10} {:<10} {:<10} {:<10} {:<6} {:<5} {:<5} {:<5} {}\n",
                c.config,
                c.hist.p50(),
                c.hist.p95(),
                c.hist.p99(),
                c.hist.p999(),
                permille_pct(c.slo_permille()),
                t.shed(),
                t.timeouts,
                t.degraded,
                c.max_depth
            ));
        }
        if self.interrupted {
            out.push_str("(interrupted: cell budget exhausted; resume to finish)\n");
        }
        out
    }

    /// Per-tenant counter rows.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "config,tenant,arrivals,admitted,completed,shed_queue,shed_quota,\
             shed_breaker,timeouts,degraded,slo_ok\n",
        );
        for c in &self.cells {
            for (i, t) in c.tenants.iter().enumerate() {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{},{}\n",
                    c.config,
                    i,
                    t.arrivals,
                    t.admitted,
                    t.completed,
                    t.shed_queue,
                    t.shed_quota,
                    t.shed_breaker,
                    t.timeouts,
                    t.degraded,
                    t.slo_ok
                ));
            }
        }
        out
    }

    /// Full structured report: every journaled field per cell.
    #[must_use]
    pub fn to_json(&self) -> String {
        let cells: Vec<String> =
            self.cells.iter().map(|c| format!("{{{}}}", c.fields_json())).collect();
        format!(
            "{{\"cells\":[{}],\"interrupted\":{}}}\n",
            cells.join(","),
            self.interrupted
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_core::journal::parse_json_obj;

    fn cell() -> CellStats {
        let mut hist = LatencyHistogram::new();
        for v in [120u64, 4_000, 90_000, 90_000, 3_000_000] {
            hist.record(v);
        }
        CellStats {
            config: "tuned (+flags)".to_string(),
            end_cycles: 51_234_567,
            evacuated_pages: 128,
            retune_cycles: 36_000_000,
            slo_pre_permille: 940,
            slo_post_permille: 910,
            wasted_cycles: 420_000,
            max_depth: 17,
            hist,
            tenants: vec![
                TenantStats {
                    arrivals: 100,
                    admitted: 90,
                    completed: 85,
                    shed_queue: 6,
                    shed_quota: 3,
                    shed_breaker: 1,
                    timeouts: 5,
                    degraded: 7,
                    slo_ok: 70,
                },
                TenantStats::default(),
            ],
            epochs: vec![
                EpochRow {
                    t_cycles: 4_000_000,
                    arrivals: 50,
                    admitted: 45,
                    completed: 40,
                    shed: 5,
                    timeouts: 2,
                    slo_ok: 38,
                    depth: 3,
                    level: 1,
                },
                EpochRow { t_cycles: 8_000_000, ..EpochRow::default() },
            ],
        }
    }

    #[test]
    fn journal_fields_round_trip_exactly() {
        let c = cell();
        let line = format!("{{{}}}", c.fields_json());
        let obj = parse_json_obj(&line).expect("self-emitted JSON parses");
        let back = CellStats::from_obj(&obj).expect("decodes");
        assert_eq!(back, c);
        // Re-encoding is byte-identical — the resume guarantee.
        assert_eq!(back.fields_json(), c.fields_json());
    }

    #[test]
    fn renderers_are_pure_and_complete() {
        let report = ServeReport { cells: vec![cell()], interrupted: false };
        let table = report.table();
        assert!(table.contains("tuned (+flags)"));
        assert!(table.contains("70.0%"), "slo permille renders: {table}");
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + 2 tenants");
        assert!(csv.contains("tuned (+flags),0,100,90,85,6,3,1,5,7,70"));
        let json = report.to_json();
        assert!(json.contains("\"hist\":[["));
        assert!(json.contains("\"interrupted\":false"));
        let mut interrupted = report.clone();
        interrupted.interrupted = true;
        assert!(interrupted.table().contains("interrupted"));
    }

    #[test]
    fn totals_and_slo_accounting() {
        let c = cell();
        let t = c.totals();
        assert_eq!(t.arrivals, 100);
        assert_eq!(t.shed(), 10);
        assert_eq!(c.slo_permille(), 700);
        assert_eq!(c.recovery_gap_permille(), 30);
    }
}
