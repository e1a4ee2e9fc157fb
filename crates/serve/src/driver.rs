//! The open-loop serve driver: a deterministic discrete-event
//! simulation of multi-tenant sessions against calibrated engine
//! profiles.
//!
//! Everything runs on the model clock. Events (arrivals, phase
//! completions, epoch ticks, outage edges) are popped in `(cycle,
//! sequence)` order, where the sequence number is assigned at push
//! time — pushes are themselves deterministic, so ties break the same
//! way on every run, every platform, and across kill-and-resume. Each
//! event source has at most one event pending, so the event set is one
//! slot per source ([`Events`]).
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

/// Discrete events, popped in `(cycle, seq)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrival { tenant: usize, class: usize },
    PhaseDone { lane: usize },
    EpochTick,
    OutageStart,
    OutageEnd,
}

/// Slots of the fixed sources in [`Events`]; lane `l`'s `PhaseDone`
/// is slot `LANE_SLOTS + l`.
const ARRIVAL_SLOT: usize = 0;
const EPOCH_SLOT: usize = 1;
const OUTAGE_START_SLOT: usize = 2;
const OUTAGE_END_SLOT: usize = 3;
const LANE_SLOTS: usize = 4;

/// The pending events, one slot per source: the next arrival, the epoch
/// tick, the two outage edges, and each lane's `PhaseDone`. No source
/// ever has two events pending — the arrival stream pushes a successor
/// only when it pops, a lane holds one running phase, the tick re-arms
/// itself when it fires — so popping the least `(cycle, seq)` over the
/// lanes + 4 slots yields exactly what a binary heap of the same pushes
/// would, with no sift on either side.
struct Events {
    seq: u64,
    /// `(cycle, seq)` of each source's pending event.
    slots: Vec<Option<(u64, u64)>>,
    /// The pending arrival's `(tenant, class)`.
    arrival: (usize, usize),
}

impl Events {
    fn new(lanes: usize) -> Self {
        Events { seq: 0, slots: vec![None; LANE_SLOTS + lanes], arrival: (0, 0) }
    }

    fn push(&mut self, at: u64, ev: Ev) {
        self.seq += 1;
        let slot = match ev {
            Ev::Arrival { tenant, class } => {
                self.arrival = (tenant, class);
                ARRIVAL_SLOT
            }
            Ev::PhaseDone { lane } => LANE_SLOTS + lane,
            Ev::EpochTick => EPOCH_SLOT,
            Ev::OutageStart => OUTAGE_START_SLOT,
            Ev::OutageEnd => OUTAGE_END_SLOT,
        };
        debug_assert!(self.slots[slot].is_none(), "two pending events from one source");
        self.slots[slot] = Some((at, self.seq));
    }

    /// Remove and return the event with the least `(cycle, seq)`.
    fn pop(&mut self) -> Option<(u64, Ev)> {
        let (slot, (at, _)) = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|key| (i, key)))
            .min_by_key(|&(_, key)| key)?;
        self.slots[slot] = None;
        let ev = match slot {
            ARRIVAL_SLOT => Ev::Arrival { tenant: self.arrival.0, class: self.arrival.1 },
            EPOCH_SLOT => Ev::EpochTick,
            OUTAGE_START_SLOT => Ev::OutageStart,
            OUTAGE_END_SLOT => Ev::OutageEnd,
            lane_slot => Ev::PhaseDone { lane: lane_slot - LANE_SLOTS },
        };
        Some((at, ev))
    }
}

/// A query occupying a service lane. Its plan is read from the class
/// profile phase by phase ([`Serve::phase_cost`]); `impaired` and
/// `sampled` are captured at start, so an outage mid-query does not
/// reshape a running plan.
#[derive(Debug, Clone, Copy)]
struct Running {
    tenant: usize,
    class: usize,
    impaired: bool,
    sampled: bool,
    phase_idx: usize,
    arrival_cycle: u64,
    start_cycle: u64,
}

/// The tenants whose queues are nonempty: one bit per tenant, plus a
/// summary with one bit per nonzero 64-tenant word.
///
/// [`ReadySet::next_from`] returns exactly the tenant a linear scan
/// from the round-robin cursor would find — the first ready index at
/// or after the cursor, else the first from 0 — at a cost of one word
/// probe plus a summary scan of `tenants / 4096` words at worst. A FIFO
/// of ready tenants could not: it orders tenants by when they became
/// ready, while the cursor orders them by index.
#[derive(Debug)]
struct ReadySet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl ReadySet {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        ReadySet { words: vec![0; words], summary: vec![0; words.div_ceil(64)] }
    }

    fn insert(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] |= 1 << (i % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    fn remove(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] &= !(1 << (i % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
    }

    /// The first member at or after `from`, wrapping around to the
    /// first member from 0; `None` when the set is empty.
    fn next_from(&self, from: usize) -> Option<usize> {
        self.first_at_or_after(from).or_else(|| self.first_at_or_after(0))
    }

    fn first_at_or_after(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let bits = *self.words.get(w)? & (u64::MAX << (from % 64));
        let (w, bits) = if bits != 0 {
            (w, bits)
        } else {
            let w = self.first_word_at_or_after(w + 1)?;
            (w, self.words[w])
        };
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// The first nonzero word at or after word `from`, via the summary.
    fn first_word_at_or_after(&self, from: usize) -> Option<usize> {
        let mut s = from / 64;
        let mut bits = *self.summary.get(s)? & (u64::MAX << (from % 64));
        while bits == 0 {
            s += 1;
            bits = *self.summary.get(s)?;
        }
        Some(s * 64 + bits.trailing_zeros() as usize)
    }
}

/// The seeded arrival stream, drawn one arrival at a time. Gap, tenant
/// and class come from three independent splitmix streams, so drawing
/// lazily yields exactly the sequence an upfront draw would — and
/// arrivals cost no memory.
struct Arrivals {
    gen: ArrivalGen,
    tenant_rng: SplitMix,
    class_rng: SplitMix,
    /// Arrivals stop at the spec duration (cycles).
    end: u64,
    tenants: u64,
    classes: u64,
}

impl Arrivals {
    /// The next `(cycle, tenant, class)`, or `None` once the stream
    /// passes the spec duration.
    fn next(&mut self) -> Option<(u64, usize, usize)> {
        let at = self.gen.next_arrival().filter(|&at| at < self.end)?;
        let tenant = (self.tenant_rng.next_u64() % self.tenants) as usize;
        let class = (self.class_rng.next_u64() % self.classes) as usize;
        Some((at, tenant, class))
    }
}

#[derive(Debug, Default)]
struct TenantState {
    /// Admitted requests, oldest first: `(arrival_cycle, class)`.
    queue: VecDeque<(u64, usize)>,
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
    events: Events,
    tenants: Vec<TenantState>,
    /// Tenants with a nonempty queue, kept in step with every push
    /// and pop.
    ready: ReadySet,
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

    /// Cost of phase `i` of a `class` query planned under `impaired`
    /// (degraded costs) and `sampled` (an eighth of the cost, at least
    /// one cycle); `None` past the plan's last phase.
    fn phase_cost(&self, class: usize, impaired: bool, sampled: bool, i: usize) -> Option<u64> {
        let profile = self.profiles.get(class)?;
        let plan = if impaired { &profile.degraded } else { &profile.healthy };
        plan.get(i).map(|&(_, c)| if sampled { (c / 8).max(1) } else { c })
    }

    /// Reject the arrival `(tenant, class)` at the current cycle.
    fn shed(&mut self, tenant: usize, class: usize, outcome: ServeOutcome) {
        let at = self.now;
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

    fn on_arrival(&mut self, tenant: usize, class: usize) {
        self.tenants[tenant].stats.arrivals += 1;
        self.epoch.arrivals += 1;

        // 1. circuit breaker
        if self.now < self.tenants[tenant].breaker_open_until {
            self.shed(tenant, class, ServeOutcome::ShedBreaker);
            return;
        }
        // 2. token bucket
        self.refill_tokens(tenant);
        if self.tenants[tenant].tokens_milli < 1000 {
            self.shed(tenant, class, ServeOutcome::ShedQuota);
            return;
        }
        // 3. shedding ladder
        let level = self.ladder_level();
        let qlen = self.tenants[tenant].queue.len();
        if level >= 1 && qlen * 2 >= self.spec.queue_cap {
            self.shed(tenant, class, ServeOutcome::ShedQueue);
            return;
        }
        if level >= 2
            && self.depth > 0
            && (qlen as u64) * (self.spec.tenants as u64) > self.depth
        {
            self.shed(tenant, class, ServeOutcome::ShedQuota);
            return;
        }
        // 4. bounded queue
        if qlen >= self.spec.queue_cap {
            self.shed(tenant, class, ServeOutcome::ShedQueue);
            return;
        }

        let t = &mut self.tenants[tenant];
        t.tokens_milli -= 1000;
        t.consec_rejects = 0;
        t.stats.admitted += 1;
        if t.queue.is_empty() {
            self.ready.insert(tenant);
        }
        t.queue.push_back((self.now, class));
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
                if self.depth == 0 {
                    break 'lanes;
                }
                // Next nonempty tenant queue at or after the cursor.
                let Some(tenant) = self.ready.next_from(self.rr_cursor) else { break 'lanes };
                self.rr_cursor = (tenant + 1) % self.spec.tenants;
                let queue = &mut self.tenants[tenant].queue;
                let Some((at, class)) = queue.pop_front() else { break 'lanes };
                if queue.is_empty() {
                    self.ready.remove(tenant);
                }
                self.depth -= 1;
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
                let impaired = self.impaired;
                let first = self.phase_cost(class, impaired, sampled, 0).unwrap_or(1);
                self.lanes[lane] = Some(Running {
                    tenant,
                    class,
                    impaired,
                    sampled,
                    phase_idx: 0,
                    arrival_cycle: at,
                    start_cycle: self.now,
                });
                self.events.push(self.now.saturating_add(first), Ev::PhaseDone { lane });
                continue 'lanes;
            }
        }
    }

    fn on_phase_done(&mut self, lane: usize) {
        let Some(mut r) = self.lanes[lane].take() else { return };
        r.phase_idx += 1;
        let deadline = self.spec.deadline_mcycles * MCYCLE;
        let burned = self.now - r.start_cycle;
        if let Some(next) = self.phase_cost(r.class, r.impaired, r.sampled, r.phase_idx) {
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
            self.lanes[lane] = Some(r);
            self.events.push(self.now.saturating_add(next), Ev::PhaseDone { lane });
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
/// `(spec, profiles)`. Memory grows with tenants and in-flight
/// requests, not with the arrival count. Errors only on an invalid
/// arrival spec — the generator re-validates, so specs that bypassed
/// `parse` cannot reach the arithmetic that used to panic on them.
pub fn run_serve(
    config: &str,
    spec: &ServeSpec,
    profiles: &[ClassProfile],
    record_sessions: bool,
) -> SimResult<(CellStats, Vec<Session>)> {
    // Arrival times, tenants, and classes are a function of the seed
    // alone — the admission pipeline cannot perturb them.
    let mut arrivals = Arrivals {
        gen: ArrivalGen::new(spec.arrivals.clone(), spec.seed, 0)?,
        tenant_rng: SplitMix::new(spec.seed, 1),
        class_rng: SplitMix::new(spec.seed, 2),
        end: spec.duration_mcycles * MCYCLE,
        tenants: spec.tenants as u64,
        classes: profiles.len().max(1) as u64,
    };

    let mut s = Serve {
        spec,
        profiles,
        breaker: RetryPolicy {
            max_retries: 0,
            backoff_base_cycles: spec.epoch_mcycles * MCYCLE,
        },
        now: 0,
        events: Events::new(spec.lanes),
        tenants: (0..spec.tenants).map(|_| TenantState::default()).collect(),
        ready: ReadySet::new(spec.tenants),
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

    let first = arrivals.next();
    if let Some((at, tenant, class)) = first {
        s.events.push(at, Ev::Arrival { tenant, class });
    }
    s.events.push(spec.epoch_mcycles * MCYCLE, Ev::EpochTick);
    if let Some(o) = spec.outage {
        s.events.push(o.start_mcycles * MCYCLE, Ev::OutageStart);
        s.events.push(o.end_mcycles * MCYCLE, Ev::OutageEnd);
    }

    // Exactly one arrival is pending while the stream lasts: each pop
    // draws and pushes its successor before admitting itself.
    let mut arrival_pending = first.is_some();
    while let Some((at, ev)) = s.events.pop() {
        s.now = at;
        match ev {
            Ev::Arrival { tenant, class } => {
                let next = arrivals.next();
                if let Some((at, tenant, class)) = next {
                    s.events.push(at, Ev::Arrival { tenant, class });
                }
                arrival_pending = next.is_some();
                s.on_arrival(tenant, class);
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
                if s.work_pending(arrival_pending) {
                    let next = s.now.saturating_add(spec.epoch_mcycles * MCYCLE);
                    s.events.push(next, Ev::EpochTick);
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

    /// The linear-scan dispatcher's pick for every cursor: the first
    /// ready tenant at or after it, else the first from 0.
    fn scan_picks(ready: &[bool]) -> Vec<Option<usize>> {
        let mut next = vec![None; ready.len() + 1];
        for i in (0..ready.len()).rev() {
            next[i] = if ready[i] { Some(i) } else { next[i + 1] };
        }
        (0..ready.len()).map(|i| next[i].or(next[0])).collect()
    }

    /// `ReadySet::next_from` agrees with the linear scan at every
    /// cursor — so at every word and summary boundary and across the
    /// wrap — through random insert/remove sequences that sweep the set
    /// from dense to empty, with half the touches on a boundary.
    #[test]
    fn ready_set_matches_the_linear_scan() {
        let mut rng = SplitMix::new(7, 0);
        for n in [1usize, 63, 64, 65, 4_095, 4_096, 4_097, 100_003] {
            let mut set = ReadySet::new(n);
            let mut oracle = vec![false; n];
            let check = |set: &ReadySet, oracle: &[bool]| {
                for (from, want) in scan_picks(oracle).into_iter().enumerate() {
                    assert_eq!(set.next_from(from), want, "n={n} from={from}");
                }
            };
            let check_every = (n / 64).max(1);
            for insert_permille in [900, 500, 100, 0] {
                for step in 0..2 * n.min(4_096) {
                    let i = if rng.next_u64() & 1 == 0 {
                        (rng.next_u64() % n as u64) as usize
                    } else {
                        let stride = if rng.next_u64() & 1 == 0 { 64 } else { 4_096 };
                        let b = (rng.next_u64() % (n / stride + 1) as u64) as usize * stride;
                        (b + n - 1 + (rng.next_u64() % 3) as usize) % n
                    };
                    let insert = rng.next_u64() % 1000 < insert_permille;
                    if insert {
                        set.insert(i);
                    } else {
                        set.remove(i);
                    }
                    oracle[i] = insert;
                    if step % check_every == 0 {
                        check(&set, &oracle);
                    }
                }
                check(&set, &oracle);
            }
            for i in 0..n {
                set.remove(i);
            }
            assert_eq!(set.next_from(0), None, "n={n}: emptied set");
            // Lone members at either end: every cursor past the low one
            // wraps, and every cursor finds the high one.
            set.insert(0);
            assert_eq!(set.next_from(n - 1), Some(0), "n={n}: wrap to 0");
            set.remove(0);
            set.insert(n - 1);
            assert_eq!(set.next_from(0), Some(n - 1), "n={n}: last tenant");
        }
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
