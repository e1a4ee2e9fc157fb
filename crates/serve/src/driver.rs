//! The open-loop serve driver: a deterministic discrete-event
//! simulation of multi-tenant sessions against calibrated engine
//! profiles.
//!
//! Everything runs on the model clock. Events (arrivals, phase
//! completions, epoch ticks, outage edges) live in a binary heap keyed
//! by `(cycle, sequence)`, where the sequence number is assigned at
//! push time — pushes are themselves deterministic, so ties break the
//! same way on every run, every platform, and across kill-and-resume.
//!
//! Admission pipeline, in order, for each arrival:
//!
//! 1. **circuit breaker** — a tenant whose breaker is open is shed
//!    outright; the open window reuses
//!    [`RetryPolicy::backoff_cycles`]'s doubling schedule, escalating
//!    per re-open, and the breaker re-arms half-open on expiry (one
//!    more shed re-trips it),
//! 2. **token bucket** — integer milli-tokens, lazily refilled from
//!    the model clock; an empty bucket sheds the arrival as over-quota,
//! 3. **shedding ladder** — level 1 (queues half full in aggregate)
//!    rejects the newest arrival to any half-full tenant queue; level 2
//!    (three-quarters full) also rejects tenants over their fair share;
//!    level 3 (near-full or node outage) admits but degrades service to
//!    sampled answers. The ladder is boosted one level for an epoch
//!    after any epoch that saw deadline timeouts,
//! 4. **bounded queue** — a full tenant queue sheds the newest arrival.
//!
//! Deadlines are cooperative, mirroring the engine hook
//! (`SimConfig::deadline_cycles`): a query past its deadline abandons
//! at the next phase boundary and the cycles it burned stay charged to
//! `wasted_cycles`; a query whose deadline expired while still queued
//! is timed out at dispatch without burning anything.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::collections::VecDeque;

use nqp_advisor::CircuitBreaker;
use nqp_core::executor::run_pool;
use nqp_core::runner::RetryPolicy;
use nqp_sim::{SimError, SimResult};

use crate::arrival::{ArrivalGen, SplitMix};
use crate::histogram::LatencyHistogram;
use crate::report::{CellStats, EpochRow, ServeReport, Session, TenantStats};
use crate::spec::{CellInput, ClassProfile, ServeAdvisor, ServeOutcome, ServeSpec, MCYCLE};

/// Discrete events, ordered by the heap key `(cycle, seq)` — the
/// variant order here is never used for tie-breaking.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Arrival { idx: usize },
    PhaseDone { lane: usize },
    EpochTick,
    OutageStart,
    OutageEnd,
}

/// A query occupying a service lane.
#[derive(Debug, Clone)]
struct Running {
    tenant: usize,
    class: usize,
    /// Phase costs cached at start (healthy/degraded, possibly
    /// sampled) — an outage mid-query does not reshape a running plan.
    phases: Vec<u64>,
    phase_idx: usize,
    arrival_cycle: u64,
    start_cycle: u64,
    sampled: bool,
}

#[derive(Debug, Default)]
struct TenantState {
    queue: VecDeque<usize>,
    tokens_milli: u64,
    last_refill: u64,
    consec_rejects: u64,
    breaker_open_until: u64,
    breaker_opens: u32,
    stats: TenantStats,
}

#[derive(Debug, Default, Clone, Copy)]
struct EpochAcc {
    arrivals: u64,
    admitted: u64,
    completed: u64,
    shed: u64,
    timeouts: u64,
    slo_ok: u64,
}

impl EpochAcc {
    fn is_empty(&self) -> bool {
        self.arrivals == 0
            && self.admitted == 0
            && self.completed == 0
            && self.shed == 0
            && self.timeouts == 0
    }
}

struct Serve<'a> {
    spec: &'a ServeSpec,
    profiles: &'a [ClassProfile],
    breaker: RetryPolicy,
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    arrivals: Vec<(u64, usize, usize)>,
    tenants: Vec<TenantState>,
    lanes: Vec<Option<Running>>,
    rr_cursor: usize,
    depth: u64,
    max_depth: u64,
    outage_active: bool,
    /// The outage's placement residue: evacuated pages still sit on the
    /// surviving nodes, so queries pay degraded per-phase costs. The
    /// node coming back does not clear this — only a re-tune does.
    impaired: bool,
    /// Post-outage re-arm breaker (`--advisor online`); `None` = static.
    advisor: Option<CircuitBreaker>,
    /// When the advisor re-homed the residue (0 = never).
    retune_cycles: u64,
    boost: bool,
    epoch: EpochAcc,
    hist: LatencyHistogram,
    wasted_cycles: u64,
    evacuated_pages: u64,
    epochs: Vec<EpochRow>,
    sessions: Option<Vec<Session>>,
}

impl Serve<'_> {
    fn push(&mut self, at: u64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, ev)));
    }

    /// Current shedding-ladder level (0–3).
    fn ladder_level(&self) -> u8 {
        let cap = (self.spec.tenants * self.spec.queue_cap) as u64;
        let mut level = if self.outage_active || self.depth >= cap * 15 / 16 {
            3
        } else if self.depth * 4 >= cap * 3 {
            2
        } else if self.depth * 2 >= cap {
            1
        } else {
            0
        };
        if self.boost {
            level = (level + 1).min(3);
        }
        level
    }

    fn refill_tokens(&mut self, tenant: usize) {
        let t = &mut self.tenants[tenant];
        let dt = self.now.saturating_sub(t.last_refill);
        let gained =
            (dt as u128 * self.spec.refill_milli_per_mcycle as u128 / MCYCLE as u128) as u64;
        t.tokens_milli = t.tokens_milli.saturating_add(gained).min(self.spec.bucket_cap * 1000);
        t.last_refill = self.now;
    }

    fn record_session(&mut self, s: Session) {
        if let Some(v) = self.sessions.as_mut() {
            v.push(s);
        }
    }

    fn shed(&mut self, idx: usize, outcome: ServeOutcome) {
        let (at, tenant, class) = self.arrivals[idx];
        {
            let t = &mut self.tenants[tenant];
            match outcome {
                ServeOutcome::ShedQueue => t.stats.shed_queue += 1,
                ServeOutcome::ShedQuota => t.stats.shed_quota += 1,
                ServeOutcome::ShedBreaker => t.stats.shed_breaker += 1,
                _ => {}
            }
            t.consec_rejects += 1;
            if t.consec_rejects >= self.spec.breaker_threshold
                && self.now >= t.breaker_open_until
            {
                t.breaker_opens += 1;
                let hold = self.breaker.backoff_cycles(t.breaker_opens.saturating_sub(1));
                t.breaker_open_until = self.now.saturating_add(hold);
                // Half-open on expiry: one more shed re-trips.
                t.consec_rejects = self.spec.breaker_threshold.saturating_sub(1);
            }
        }
        self.epoch.shed += 1;
        self.record_session(Session {
            tenant,
            class,
            lane: usize::MAX,
            arrival: at,
            start: at,
            end: self.now,
            outcome,
            burned: 0,
        });
    }

    fn on_arrival(&mut self, idx: usize) {
        let (_, tenant, _) = self.arrivals[idx];
        self.tenants[tenant].stats.arrivals += 1;
        self.epoch.arrivals += 1;

        // 1. circuit breaker
        if self.now < self.tenants[tenant].breaker_open_until {
            self.shed(idx, ServeOutcome::ShedBreaker);
            return;
        }
        // 2. token bucket
        self.refill_tokens(tenant);
        if self.tenants[tenant].tokens_milli < 1000 {
            self.shed(idx, ServeOutcome::ShedQuota);
            return;
        }
        // 3. shedding ladder
        let level = self.ladder_level();
        let qlen = self.tenants[tenant].queue.len();
        if level >= 1 && qlen * 2 >= self.spec.queue_cap {
            self.shed(idx, ServeOutcome::ShedQueue);
            return;
        }
        if level >= 2
            && self.depth > 0
            && (qlen as u64) * (self.spec.tenants as u64) > self.depth
        {
            self.shed(idx, ServeOutcome::ShedQuota);
            return;
        }
        // 4. bounded queue
        if qlen >= self.spec.queue_cap {
            self.shed(idx, ServeOutcome::ShedQueue);
            return;
        }

        let t = &mut self.tenants[tenant];
        t.tokens_milli -= 1000;
        t.consec_rejects = 0;
        t.stats.admitted += 1;
        t.queue.push_back(idx);
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        self.epoch.admitted += 1;
        self.dispatch();
    }

    /// Fill free lanes round-robin across tenants with queued work.
    fn dispatch(&mut self) {
        let deadline = self.spec.deadline_mcycles * MCYCLE;
        'lanes: for lane in 0..self.lanes.len() {
            if self.lanes[lane].is_some() {
                continue;
            }
            loop {
                // Next nonempty tenant queue after the cursor.
                let mut pick = None;
                for off in 0..self.spec.tenants {
                    let tn = (self.rr_cursor + off) % self.spec.tenants;
                    if !self.tenants[tn].queue.is_empty() {
                        pick = Some(tn);
                        break;
                    }
                }
                let Some(tn) = pick else { break 'lanes };
                self.rr_cursor = (tn + 1) % self.spec.tenants;
                let Some(idx) = self.tenants[tn].queue.pop_front() else {
                    break 'lanes;
                };
                self.depth -= 1;
                let (at, tenant, class) = self.arrivals[idx];
                if self.now >= at.saturating_add(deadline) {
                    // Expired while queued: timed out without burning
                    // a single engine cycle.
                    self.tenants[tenant].stats.timeouts += 1;
                    self.epoch.timeouts += 1;
                    self.record_session(Session {
                        tenant,
                        class,
                        lane: usize::MAX,
                        arrival: at,
                        start: self.now,
                        end: self.now,
                        outcome: ServeOutcome::Timeout,
                        burned: 0,
                    });
                    continue;
                }
                let sampled = self.ladder_level() >= 3;
                let profile = &self.profiles[class];
                let src = if self.impaired { &profile.degraded } else { &profile.healthy };
                let phases: Vec<u64> = src
                    .iter()
                    .map(|(_, c)| if sampled { (c / 8).max(1) } else { *c })
                    .collect();
                let first = phases.first().copied().unwrap_or(1);
                self.lanes[lane] = Some(Running {
                    tenant,
                    class,
                    phases,
                    phase_idx: 0,
                    arrival_cycle: at,
                    start_cycle: self.now,
                    sampled,
                });
                self.push(self.now.saturating_add(first), Ev::PhaseDone { lane });
                continue 'lanes;
            }
        }
    }

    fn on_phase_done(&mut self, lane: usize) {
        let Some(mut r) = self.lanes[lane].take() else { return };
        r.phase_idx += 1;
        let deadline = self.spec.deadline_mcycles * MCYCLE;
        let burned = self.now - r.start_cycle;
        if r.phase_idx < r.phases.len() {
            if self.now >= r.arrival_cycle.saturating_add(deadline) {
                // Cooperative abandon at the phase boundary; cycles
                // burned stay charged.
                self.wasted_cycles += burned;
                self.tenants[r.tenant].stats.timeouts += 1;
                self.epoch.timeouts += 1;
                self.record_session(Session {
                    tenant: r.tenant,
                    class: r.class,
                    lane,
                    arrival: r.arrival_cycle,
                    start: r.start_cycle,
                    end: self.now,
                    outcome: ServeOutcome::Timeout,
                    burned,
                });
                self.dispatch();
                return;
            }
            let next = r.phases[r.phase_idx];
            self.lanes[lane] = Some(r);
            self.push(self.now.saturating_add(next), Ev::PhaseDone { lane });
            return;
        }
        // Final phase: the query completes even if late.
        let latency = self.now - r.arrival_cycle;
        self.hist.record(latency);
        let stats = &mut self.tenants[r.tenant].stats;
        stats.completed += 1;
        self.epoch.completed += 1;
        let outcome = if r.sampled {
            stats.degraded += 1;
            ServeOutcome::Degraded
        } else if latency <= deadline {
            stats.slo_ok += 1;
            self.epoch.slo_ok += 1;
            ServeOutcome::Completed
        } else {
            ServeOutcome::Late
        };
        self.record_session(Session {
            tenant: r.tenant,
            class: r.class,
            lane,
            arrival: r.arrival_cycle,
            start: r.start_cycle,
            end: self.now,
            outcome,
            burned,
        });
        self.dispatch();
    }

    fn work_pending(&self, next_arrival_exists: bool) -> bool {
        next_arrival_exists
            || self.depth > 0
            || self.lanes.iter().any(Option::is_some)
    }

    fn flush_epoch(&mut self) {
        let acc = self.epoch;
        self.epoch = EpochAcc::default();
        self.boost = acc.timeouts > 0;
        self.epochs.push(EpochRow {
            t_cycles: self.now,
            arrivals: acc.arrivals,
            admitted: acc.admitted,
            completed: acc.completed,
            shed: acc.shed,
            timeouts: acc.timeouts,
            slo_ok: acc.slo_ok,
            depth: self.depth,
            level: u64::from(self.ladder_level()),
        });
    }
}

/// SLO attainment (permille of arrivals) over the epoch rows `keep`
/// selects; 0 when the window saw no arrivals, clamped at 1000 (a
/// completion's credit lands in its completion epoch, which at window
/// edges can differ from its arrival epoch).
fn slo_window_permille(epochs: &[EpochRow], keep: impl Fn(&EpochRow) -> bool) -> u64 {
    let (mut ok, mut arrivals) = (0u64, 0u64);
    for e in epochs.iter().filter(|e| keep(e)) {
        ok += e.slo_ok;
        arrivals += e.arrivals;
    }
    (ok * 1000).checked_div(arrivals).map_or(0, |p| p.min(1000))
}

/// Run one serve cell to completion (arrivals stop at the spec
/// duration; queued and running work drains after). Pure function of
/// `(spec, profiles)`. Errors only on an invalid arrival spec — the
/// generator re-validates, so specs that bypassed `parse` cannot reach
/// the arithmetic that used to panic on them.
pub fn run_serve(
    config: &str,
    spec: &ServeSpec,
    profiles: &[ClassProfile],
    record_sessions: bool,
) -> SimResult<(CellStats, Vec<Session>)> {
    let duration = spec.duration_mcycles * MCYCLE;
    let nclasses = profiles.len().max(1);

    // All arrival times, tenants, and classes are fixed upfront from
    // the seed — the admission pipeline cannot perturb them.
    let mut gen = ArrivalGen::new(spec.arrivals.clone(), spec.seed, 0)?;
    let mut trng = SplitMix::new(spec.seed, 1);
    let mut crng = SplitMix::new(spec.seed, 2);
    let mut arrivals = Vec::new();
    while let Some(at) = gen.next_arrival() {
        if at >= duration || arrivals.len() >= 4_000_000 {
            break;
        }
        let tenant = (trng.next_u64() % spec.tenants as u64) as usize;
        let class = (crng.next_u64() % nclasses as u64) as usize;
        arrivals.push((at, tenant, class));
    }

    let mut s = Serve {
        spec,
        profiles,
        breaker: RetryPolicy {
            max_retries: 0,
            backoff_base_cycles: spec.epoch_mcycles * MCYCLE,
        },
        now: 0,
        seq: 0,
        heap: BinaryHeap::new(),
        arrivals,
        tenants: (0..spec.tenants).map(|_| TenantState::default()).collect(),
        lanes: vec![None; spec.lanes],
        rr_cursor: 0,
        depth: 0,
        max_depth: 0,
        outage_active: false,
        impaired: false,
        advisor: match spec.advisor {
            ServeAdvisor::Static => None,
            ServeAdvisor::Online { rearm_after } => Some(CircuitBreaker::new(rearm_after)),
        },
        retune_cycles: 0,
        boost: false,
        epoch: EpochAcc::default(),
        hist: LatencyHistogram::new(),
        wasted_cycles: 0,
        evacuated_pages: 0,
        epochs: Vec::new(),
        sessions: record_sessions.then(Vec::new),
    };
    // Tenants start with full buckets.
    for t in &mut s.tenants {
        t.tokens_milli = spec.bucket_cap * 1000;
    }

    if !s.arrivals.is_empty() {
        s.push(s.arrivals[0].0, Ev::Arrival { idx: 0 });
    }
    s.push(spec.epoch_mcycles * MCYCLE, Ev::EpochTick);
    if let Some(o) = spec.outage {
        s.push(o.start_mcycles * MCYCLE, Ev::OutageStart);
        s.push(o.end_mcycles * MCYCLE, Ev::OutageEnd);
    }

    let mut next_arrival = if s.arrivals.is_empty() { None } else { Some(0usize) };
    while let Some(Reverse((at, _, ev))) = s.heap.pop() {
        s.now = at;
        match ev {
            Ev::Arrival { idx } => {
                let next = idx + 1;
                if next < s.arrivals.len() {
                    s.push(s.arrivals[next].0, Ev::Arrival { idx: next });
                    next_arrival = Some(next);
                } else {
                    next_arrival = None;
                }
                s.on_arrival(idx);
            }
            Ev::PhaseDone { lane } => s.on_phase_done(lane),
            Ev::EpochTick => {
                s.flush_epoch();
                // A frozen advisor watches each tick for quiet; enough
                // consecutive quiet epochs re-arm it, and the re-arm is
                // the re-tune that re-homes the evacuated pages.
                if let Some(b) = s.advisor.as_mut() {
                    if b.is_frozen() && b.observe(!s.outage_active) {
                        s.impaired = false;
                        s.retune_cycles = s.now;
                    }
                }
                // Keep ticking only while there is work left; otherwise
                // the tick itself would keep the run alive forever.
                if s.work_pending(next_arrival.is_some()) {
                    let next = s.now.saturating_add(spec.epoch_mcycles * MCYCLE);
                    s.push(next, Ev::EpochTick);
                }
            }
            Ev::OutageStart => {
                s.outage_active = true;
                s.impaired = true;
                if let Some(b) = s.advisor.as_mut() {
                    b.freeze();
                }
                // The engine evacuates the dark node's pages once; the
                // worst class bounds the evacuation bill.
                s.evacuated_pages = s.evacuated_pages.saturating_add(
                    s.profiles.iter().map(|p| p.evacuated_pages).max().unwrap_or(0),
                );
                s.dispatch();
            }
            Ev::OutageEnd => {
                // The node is back, but the evacuated pages still sit
                // where they landed: `impaired` stays set until an
                // online advisor re-tunes. A static advisor keeps the
                // residue for the rest of the run.
                s.outage_active = false;
                s.dispatch();
            }
        }
    }
    if !s.epoch.is_empty() {
        s.flush_epoch();
    }

    // Pre/post recovery windows: pre ends where the outage starts; post
    // begins at the advisor's re-tune, or at the outage end for static
    // runs (which then measure the residue, not a recovery). Without an
    // outage both windows cover the whole run.
    let (pre_end, post_start) = match spec.outage {
        Some(o) => {
            let recovered_at =
                if s.retune_cycles > 0 { s.retune_cycles } else { o.end_mcycles * MCYCLE };
            (o.start_mcycles * MCYCLE, recovered_at)
        }
        None => (u64::MAX, 0),
    };
    let slo_pre_permille = slo_window_permille(&s.epochs, |e| e.t_cycles <= pre_end);
    let slo_post_permille = slo_window_permille(&s.epochs, |e| e.t_cycles > post_start);

    let stats = CellStats {
        config: config.to_string(),
        end_cycles: s.now,
        evacuated_pages: s.evacuated_pages,
        retune_cycles: s.retune_cycles,
        slo_pre_permille,
        slo_post_permille,
        wasted_cycles: s.wasted_cycles,
        max_depth: s.max_depth,
        hist: s.hist,
        tenants: s.tenants.into_iter().map(|t| t.stats).collect(),
        epochs: s.epochs,
    };
    Ok((stats, s.sessions.unwrap_or_default()))
}

/// Per-cell result consumer: `(stats, profiles, sessions)` for each
/// newly computed cell, as that cell finishes (see [`run_cells`]).
pub type CellSink<'a> =
    dyn FnMut(&CellStats, &[ClassProfile], &[Session]) -> SimResult<()> + Send + 'a;

/// Run a grid of serve cells on the shared grid worker pool
/// ([`nqp_core::executor::run_pool`]), honouring adopted (resumed)
/// results and an optional cell budget.
///
/// `calibrate(i)` produces the class profiles for cell `i` (one real
/// engine run per class/health — the expensive part, so it runs inside
/// the worker). `sink` runs on the pool's journal-writer thread for each
/// *newly computed* cell the moment it finishes, before its worker moves
/// on — journal writes and session dumps go through it, so a kill loses
/// at most the cells in flight. The report is assembled in grid order,
/// so it never depends on `jobs`. The first calibration or serve error
/// in grid order wins; otherwise the first sink error is returned.
pub fn run_cells(
    cells: &[CellInput],
    adopted: &HashMap<String, CellStats>,
    jobs: usize,
    max_cells: Option<usize>,
    record_sessions: bool,
    calibrate: &(dyn Fn(usize) -> SimResult<Vec<ClassProfile>> + Sync),
    sink: &mut CellSink<'_>,
) -> SimResult<ServeReport> {
    let pending: Vec<usize> = (0..cells.len())
        .filter(|i| !adopted.contains_key(&cells[*i].config))
        .collect();
    let budget = max_cells.unwrap_or(pending.len());
    let to_run = &pending[..budget.min(pending.len())];
    let interrupted = to_run.len() < pending.len();

    let mut sink_err: Option<SimError> = None;
    let mut write = |(stats, profiles, sessions): (CellStats, Vec<ClassProfile>, Vec<Session>)| {
        if sink_err.is_none() {
            sink_err = sink(&stats, &profiles, &sessions).err();
        }
    };
    let results = run_pool(to_run, jobs, &mut write, |&i, emit| {
        let profiles = calibrate(i)?;
        let (stats, sessions) =
            run_serve(&cells[i].config, &cells[i].spec, &profiles, record_sessions)?;
        emit((stats.clone(), profiles, sessions));
        Ok(stats)
    });

    // Assemble in grid order; cells beyond the budget are left out.
    let mut fresh = to_run.iter().zip(results).peekable();
    let mut out = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        if let Some(stats) = adopted.get(&cell.config) {
            out.push(stats.clone());
        } else if let Some((_, stats)) = fresh.next_if(|(&j, _)| j == i) {
            out.push(stats?);
        }
    }
    match sink_err {
        Some(e) => Err(e),
        None => Ok(ServeReport { cells: out, interrupted }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalSpec;
    use crate::spec::OutageSpec;
    use crate::spec::ServeAdvisor;

    fn profiles() -> Vec<ClassProfile> {
        vec![
            ClassProfile {
                name: "w1".into(),
                healthy: vec![("build".into(), 40_000), ("probe".into(), 60_000)],
                degraded: vec![("build".into(), 60_000), ("probe".into(), 90_000)],
                evacuated_pages: 128,
            },
            ClassProfile {
                name: "w2".into(),
                healthy: vec![("scan".into(), 30_000)],
                degraded: vec![("scan".into(), 45_000)],
                evacuated_pages: 64,
            },
        ]
    }

    fn spec(rate_milli: u64) -> ServeSpec {
        ServeSpec {
            tenants: 4,
            duration_mcycles: 20,
            arrivals: ArrivalSpec::Poisson { rate_milli },
            lanes: 2,
            queue_cap: 8,
            bucket_cap: 16,
            refill_milli_per_mcycle: 8000,
            deadline_mcycles: 2,
            breaker_threshold: 8,
            epoch_mcycles: 4,
            outage: None,
            advisor: ServeAdvisor::default(),
            seed: 42,
        }
    }

    fn totals(stats: &CellStats) -> TenantStats {
        let mut t = TenantStats::default();
        for s in &stats.tenants {
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

    #[test]
    fn light_load_completes_everything_in_slo() {
        let (stats, _) = run_serve("cfg", &spec(5_000), &profiles(), false).unwrap();
        let t = totals(&stats);
        assert!(t.arrivals > 50, "expected ~100 arrivals, got {}", t.arrivals);
        assert_eq!(t.arrivals, t.admitted, "light load sheds nothing");
        assert_eq!(t.completed, t.admitted);
        assert_eq!(t.timeouts, 0);
        assert_eq!(t.slo_ok, t.completed, "everything inside a 2 Mcycle SLO");
        assert!(stats.hist.p99() >= stats.hist.p50());
        assert!(stats.hist.p50() >= 30_000, "p50 below min service time");
    }

    #[test]
    fn overload_sheds_but_stays_bounded_and_live() {
        // Two lanes at ~50 Kcycle mean service sustain ~40/Mcycle;
        // offer 4x that.
        let (stats, _) = run_serve("cfg", &spec(160_000), &profiles(), false).unwrap();
        let t = totals(&stats);
        let shed = t.shed_queue + t.shed_quota + t.shed_breaker;
        assert!(shed > 0, "4x overload must shed");
        assert_eq!(t.arrivals, t.admitted + shed, "every arrival is accounted for");
        assert_eq!(t.admitted, t.completed + t.timeouts, "every admit resolves");
        assert!(
            stats.max_depth <= (4 * 8) as u64,
            "queue depth bounded by tenants*cap, got {}",
            stats.max_depth
        );
        assert!(stats.hist.total() == t.completed);
        assert!(stats.hist.p99() > 0);
    }

    #[test]
    fn runs_replay_bit_identically() {
        let a = run_serve("cfg", &spec(40_000), &profiles(), true).unwrap();
        let b = run_serve("cfg", &spec(40_000), &profiles(), true).unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        let c = run_serve("cfg", &spec(40_000), &profiles(), false).unwrap();
        assert_eq!(a.0, c.0, "session recording must not perturb the run");
    }

    #[test]
    fn epoch_deltas_telescope_to_totals() {
        let (stats, _) = run_serve("cfg", &spec(80_000), &profiles(), false).unwrap();
        let t = totals(&stats);
        let ep_arrivals: u64 = stats.epochs.iter().map(|e| e.arrivals).sum();
        let ep_admitted: u64 = stats.epochs.iter().map(|e| e.admitted).sum();
        let ep_completed: u64 = stats.epochs.iter().map(|e| e.completed).sum();
        let ep_shed: u64 = stats.epochs.iter().map(|e| e.shed).sum();
        let ep_timeouts: u64 = stats.epochs.iter().map(|e| e.timeouts).sum();
        assert_eq!(ep_arrivals, t.arrivals);
        assert_eq!(ep_admitted, t.admitted);
        assert_eq!(ep_completed, t.completed);
        assert_eq!(ep_shed, t.shed_queue + t.shed_quota + t.shed_breaker);
        assert_eq!(ep_timeouts, t.timeouts);
        let ep_slo: u64 = stats.epochs.iter().map(|e| e.slo_ok).sum();
        assert_eq!(ep_slo, t.slo_ok);
        assert!(stats.epochs.windows(2).all(|w| w[0].t_cycles < w[1].t_cycles));
    }

    #[test]
    fn outage_degrades_and_recovers() {
        let mut sp = spec(40_000);
        sp.outage = Some(OutageSpec { start_mcycles: 5, end_mcycles: 10, node: 1 });
        let (stats, sessions) = run_serve("cfg", &sp, &profiles(), true).unwrap();
        assert_eq!(stats.evacuated_pages, 128, "worst-class evacuation charged once");
        let t = totals(&stats);
        assert!(t.completed > 0, "the engine keeps serving through the outage");
        // Level 3 is forced during the outage, so some queries degrade.
        assert!(t.degraded > 0, "outage window must degrade admitted queries");
        // After recovery new queries run healthy again: the last
        // completions should not all be degraded.
        let last_completed = sessions
            .iter()
            .rev()
            .find(|s| matches!(s.outcome, ServeOutcome::Completed | ServeOutcome::Late));
        assert!(last_completed.is_some(), "healthy completions resume after recovery");
    }

    /// Single-phase class whose degraded cost (1.1 Mcycles) breaks a
    /// 1 Mcycle deadline even with an idle lane, while the healthy cost
    /// (0.6 Mcycles) leaves comfortable slack — so SLO attainment reads
    /// the placement residue directly.
    fn recovery_profiles() -> Vec<ClassProfile> {
        vec![ClassProfile {
            name: "w1".into(),
            healthy: vec![("probe".into(), 600_000)],
            degraded: vec![("probe".into(), 1_100_000)],
            evacuated_pages: 96,
        }]
    }

    fn recovery_spec(advisor: ServeAdvisor) -> ServeSpec {
        let mut sp = spec(1_500);
        sp.duration_mcycles = 60;
        sp.deadline_mcycles = 1;
        sp.outage = Some(OutageSpec { start_mcycles: 20, end_mcycles: 28, node: 1 });
        sp.advisor = advisor;
        sp
    }

    #[test]
    fn static_advisor_keeps_the_placement_residue_after_the_outage() {
        let (stats, _) =
            run_serve("static", &recovery_spec(ServeAdvisor::Static), &recovery_profiles(), false)
                .unwrap();
        assert_eq!(stats.retune_cycles, 0, "static never re-tunes");
        assert!(
            stats.slo_pre_permille >= 900,
            "healthy service meets the SLO before the outage: {}",
            stats.slo_pre_permille
        );
        assert!(
            stats.slo_post_permille <= 200,
            "the residue keeps degraded costs after the node returns: {}",
            stats.slo_post_permille
        );
    }

    #[test]
    fn online_advisor_rearms_and_recovers_the_slo() {
        let online = ServeAdvisor::Online { rearm_after: 2 };
        let (stats, _) =
            run_serve("online", &recovery_spec(online), &recovery_profiles(), false).unwrap();
        // OutageEnd at 28 Mcycles was pushed at setup, so it pops before
        // the 28 Mcycle tick (same cycle, lower sequence); that tick is
        // the first quiet one, and the second — at 32 Mcycles — re-arms.
        assert_eq!(stats.retune_cycles, 32 * MCYCLE);
        assert!(stats.slo_pre_permille >= 900, "pre: {}", stats.slo_pre_permille);
        // The ISSUE acceptance bound: within 5 points (50 permille) of
        // the pre-outage baseline once the breaker re-arms.
        assert!(
            stats.recovery_gap_permille() <= 50,
            "post ({}) must recover to within 50 permille of pre ({})",
            stats.slo_post_permille,
            stats.slo_pre_permille
        );
        let (residue, _) =
            run_serve("static", &recovery_spec(ServeAdvisor::Static), &recovery_profiles(), false)
                .unwrap();
        assert!(
            stats.slo_post_permille >= residue.slo_post_permille + 300,
            "online ({}) must beat the static residue ({}) decisively",
            stats.slo_post_permille,
            residue.slo_post_permille
        );
    }

    #[test]
    fn breaker_trips_under_hammering() {
        let mut sp = spec(300_000);
        sp.queue_cap = 2;
        sp.bucket_cap = 2;
        sp.refill_milli_per_mcycle = 500;
        sp.breaker_threshold = 4;
        let (stats, _) = run_serve("cfg", &sp, &profiles(), false).unwrap();
        let t = totals(&stats);
        assert!(t.shed_breaker > 0, "sustained overload must trip breakers");
    }

    #[test]
    fn run_cells_adopts_and_budgets() {
        let cells: Vec<CellInput> = ["a", "b", "c"]
            .iter()
            .map(|n| CellInput { config: (*n).to_string(), spec: spec(20_000) })
            .collect();
        let calibrate = |_i: usize| Ok(profiles());
        // Full run, serial.
        let mut sunk = Vec::new();
        let report = run_cells(&cells, &HashMap::new(), 1, None, false, &calibrate, &mut |s, _, _| {
            sunk.push(s.config.clone());
            Ok(())
        })
        .unwrap();
        assert_eq!(report.cells.len(), 3);
        assert!(!report.interrupted);
        assert_eq!(sunk, vec!["a", "b", "c"], "sink runs in grid order");

        // Adopt "a", budget 1 → run only "b", interrupted.
        let mut adopted = HashMap::new();
        adopted.insert("a".to_string(), report.cells[0].clone());
        let mut sunk2 = Vec::new();
        let partial =
            run_cells(&cells, &adopted, 1, Some(1), false, &calibrate, &mut |s, _, _| {
                sunk2.push(s.config.clone());
                Ok(())
            })
            .unwrap();
        assert!(partial.interrupted);
        assert_eq!(sunk2, vec!["b"]);
        assert_eq!(partial.cells.len(), 2, "adopted a + fresh b");
        assert_eq!(partial.cells[0], report.cells[0]);
        assert_eq!(partial.cells[1], report.cells[1]);

        // Parallel equals serial.
        let par = run_cells(&cells, &HashMap::new(), 4, None, false, &calibrate, &mut |_, _, _| Ok(()))
            .unwrap();
        assert_eq!(par.cells, report.cells);
    }
}
