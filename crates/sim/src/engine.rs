//! The simulation engine: logical threads, per-access cost resolution, and
//! the region-level bandwidth/oversubscription solver.
//!
//! # Execution model
//!
//! A parallel region runs one closure per logical thread, sequentially and
//! deterministically; each thread accumulates *model cycles* on its own
//! clock as it touches memory, computes, allocates, and takes locks. When
//! all threads have run, the region resolver combines:
//!
//! * the slowest thread's latency chain (compute + cache/TLB/DRAM latency
//!   with NUMA factors),
//! * per-core busy time (threads time-share a core when the scheduler
//!   packs them — oversubscription),
//! * per-memory-controller and per-interconnect-link busy time
//!   (lines transferred ÷ bandwidth — the roofline that makes
//!   consolidated placements collapse), and
//! * analytic lock waits,
//!
//! into the region's elapsed time: `max(latency, core, controller, link)`.
//! This reproduces the latency-vs-bandwidth tension at the heart of the
//! paper: local placement minimises latency, interleaved placement
//! minimises controller pressure, and which wins depends on machine and
//! workload.

use crate::cache::{access_in, slot_of, Llc, Tags};
use crate::config::{MemPolicy, SimConfig};
use crate::error::{SimError, SimResult};
use crate::fault::{ActiveFaults, FaultPlan};
use crate::lock::{resolve_waits, LockId, LockTable, ThreadLockUse};
use crate::mem::{
    tlb_tag, MemDelta, Memory, PageTable, ShardMemView, TouchResolution, VAddr, LINE, SMALL_PAGE,
};
use crate::mix::MixBuildHasher;
use crate::metrics::{Bottleneck, Counters, RegionStats};
use crate::sched::{plan_region, ThreadSchedule};
use crate::tlb::Tlb;
use crate::trace::{TraceEvent, TraceLog, NO_TID};
use crate::tune::{EpochView, PageHeat, RegionHook, TuneAction};
use nqp_topology::{CoreId, NodeId};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Barrier, PoisonError, RwLock};

/// Read or write; counted identically by the current cost model but kept
/// distinct in the API for workloads that want to annotate intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Read,
    Write,
}

/// How often AutoNUMA's scanner considers a touch for migration
/// bookkeeping (modelling its periodic page-table scans rather than
/// per-access hooks).
const AUTONUMA_SAMPLE_EVERY: u64 = 32;

/// Kernel cost of an `mmap`/`munmap` call in model cycles.
const MMAP_SYSCALL_CYCLES: u64 = 800;

/// Per-thread L1 size in cache lines (32 KB).
const L1_LINES: u64 = 512;

/// Lines past a detected sequential stream whose model-table slots are
/// prefetched on the host (a host-side hint; no model effect).
const STREAM_LOOKAHEAD: u64 = 4;

/// Words `read_u64_run`/`write_u64_run` move through the byte store per
/// call (a stack buffer of 256 bytes).
const RUN_CHUNK_WORDS: usize = 32;

/// Index bits of the global last-writer table used to model coherence
/// invalidations (collisions cause occasional spurious invalidations).
const WRITER_SLOT_BITS: u32 = 20;

/// Slots in the last-writer table.
const WRITER_TABLE_SLOTS: usize = 1 << WRITER_SLOT_BITS;

/// Low bits of a writer-table entry: the writer's `tid + 1`, 0 in an
/// empty slot. [`mix_line`] is a bijection and a line's slot is the low
/// `WRITER_SLOT_BITS` of its mix, so the entry's remaining high bits
/// (the rest of the mix) identify the line exactly and the low bits are
/// free for the writer.
const WRITER_TID_MASK: u64 = (1 << WRITER_SLOT_BITS) - 1;

/// The most simulated threads one region can run: every `tid + 1` must
/// fit in a writer-table entry's low bits.
pub const MAX_THREADS: usize = WRITER_TID_MASK as usize;

/// Fail with [`SimError::ThreadCount`] unless a region can run
/// `threads` simulated threads: at least one, at most [`MAX_THREADS`].
pub fn check_threads(threads: usize) -> SimResult<()> {
    if threads == 0 || threads > MAX_THREADS {
        return Err(SimError::ThreadCount { threads: threads as u64, max: MAX_THREADS as u64 });
    }
    Ok(())
}

/// The writer-table entry recording a store to the line that mixes to
/// `mixed` by thread `tid`.
#[inline]
fn writer_entry(mixed: u64, tid: usize) -> u64 {
    (mixed & !WRITER_TID_MASK) | (tid as u64 + 1)
}

/// Whether `entry`, read from the slot of the line that mixes to
/// `mixed`, records a store to that line by a thread other than `tid`:
/// an L1 copy of the line held by `tid` is invalid.
#[inline]
fn written_by_other(entry: u64, mixed: u64, tid: usize) -> bool {
    let writer = entry & WRITER_TID_MASK;
    (entry ^ mixed) & !WRITER_TID_MASK == 0 && writer != 0 && writer != tid as u64 + 1
}

/// A copy of the per-node LLCs and the last-writer table.
type TableCopy = (Vec<Llc>, Vec<u64>);

/// The NUMA machine simulator.
#[derive(Debug)]
pub struct NumaSim {
    cfg: SimConfig,
    memory: Memory,
    caches: Vec<Llc>,
    /// Per logical-thread TLBs, persistent across regions: `(4k, 2m)`.
    tlbs: Vec<(Tlb, Tlb)>,
    /// Per logical-thread L1 caches, persistent across regions.
    l1s: Vec<Tlb>,
    /// Persistent schedules for unpinned threads: a process's threads
    /// keep their cores *across* parallel regions (re-planning every
    /// region would teleport them away from the memory they faulted in).
    sched_plans: Vec<ThreadSchedule>,
    /// Coherence model: the line and last writer of each slot, packed by
    /// [`writer_entry`], so one thread's write invalidates other
    /// threads' L1 copies of the line.
    writer_table: Vec<u64>,
    /// The table copies host shards 1..N−1 of a sharded region run on,
    /// refreshed from the canonical tables every region and kept in
    /// between so their pages stay mapped.
    shard_copies: Vec<TableCopy>,
    locks: LockTable,
    counters: Counters,
    region_idx: u64,
    now_cycles: u64,
    /// `link_paths[a][b]` = link indices along the a→b route.
    link_paths: Vec<Vec<Vec<u16>>>,
    num_links: usize,
    /// Deterministic trace recorder (None unless `SimConfig::trace` is
    /// set — the pay-for-what-you-use switch: every hook is one branch
    /// on this Option and hooks never charge cycles).
    trace: Option<Box<TraceLog>>,
    /// Runtime-tuning hook (None unless `SimConfig::tune` is set).
    /// Called after every region resolves; its actions are applied and
    /// charged before the next region runs.
    hook: Option<HookBox>,
    /// Whether the installed tune factory asked for per-page heat
    /// (`TuneFactory::wants_page_heat`): workers then count touches per
    /// page and the merged, home-annotated vector is handed to the hook
    /// in `EpochView::page_heat`. Strictly opt-in — collecting costs
    /// host time on the touch hot path, never model cycles.
    heat_on: bool,
}

/// Debug-opaque container for the installed tuning hook.
struct HookBox(Box<dyn RegionHook + Send>);

impl std::fmt::Debug for HookBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RegionHook(..)")
    }
}

impl NumaSim {
    /// Build a simulator for the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let machine = &cfg.machine;
        let nodes = machine.topology.num_nodes();
        let caches = (0..nodes)
            .map(|_| Llc::new(machine.llc.num_lines()))
            .collect();
        let links = machine.topology.links();
        let link_index = |a: NodeId, b: NodeId| -> u16 {
            let key = (a.min(b), a.max(b));
            links
                .iter()
                .position(|&(x, y)| (x.min(y), x.max(y)) == key)
                .unwrap_or_else(|| panic!("adjacent nodes {key:?} share no link"))
                as u16
        };
        let link_paths = (0..nodes)
            .map(|a| {
                (0..nodes)
                    .map(|b| {
                        let path = machine.topology.shortest_path(a, b);
                        path.windows(2).map(|w| link_index(w[0], w[1])).collect()
                    })
                    .collect()
            })
            .collect();
        let memory = Memory::new(machine);
        let trace = cfg.trace.as_ref().map(|tc| Box::new(TraceLog::new(tc.clone())));
        let hook = cfg.tune.as_ref().map(|f| HookBox(f.build()));
        let heat_on = cfg.tune.as_ref().is_some_and(|f| f.wants_page_heat());
        NumaSim {
            memory,
            trace,
            hook,
            heat_on,
            caches,
            tlbs: Vec::new(),
            l1s: Vec::new(),
            sched_plans: Vec::new(),
            writer_table: vec![0; WRITER_TABLE_SLOTS],
            shard_copies: Vec::new(),
            locks: LockTable::default(),
            counters: Counters::default(),
            region_idx: 0,
            now_cycles: 0,
            link_paths,
            num_links: links.len(),
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Cumulative counters since construction.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Total simulated cycles elapsed across all regions so far.
    pub fn now_cycles(&self) -> u64 {
        self.now_cycles
    }

    /// Register a modelled lock (used by allocator models).
    pub fn new_lock(&mut self) -> LockId {
        self.locks.new_lock()
    }

    /// Whether deterministic tracing is recording.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Open a named phase span at the current model cycle. No-op when
    /// tracing is disabled.
    pub fn phase_begin(&mut self, name: &str) {
        let now = self.now_cycles;
        if let Some(t) = self.trace.as_deref_mut() {
            t.phase_begin(name, now);
        }
    }

    /// Close the innermost open phase span at the current model cycle.
    /// No-op when tracing is disabled or no phase is open.
    pub fn phase_end(&mut self) {
        let now = self.now_cycles;
        if let Some(t) = self.trace.as_deref_mut() {
            t.phase_end(now);
        }
    }

    /// Detach the trace log, finalising it first: the residual counter
    /// delta since the last region boundary is flushed into a final
    /// epoch sample and the live totals/elapsed are recorded, so
    /// `sum(samples) == totals` holds bit-for-bit. Returns `None` when
    /// tracing is disabled (or the log was already taken).
    pub fn take_trace(&mut self) -> Option<TraceLog> {
        let now = self.now_cycles;
        let totals = self.counters;
        self.trace.take().map(|mut t| {
            t.finish(now, totals);
            *t
        })
    }

    /// Invalidate all LLCs and TLBs (cold-run experiments).
    pub fn flush_caches(&mut self) {
        for c in &mut self.caches {
            c.flush();
        }
        for (t4, t2) in &mut self.tlbs {
            t4.flush();
            t2.flush();
        }
        for l1 in &mut self.l1s {
            l1.flush();
        }
    }

    /// Pages currently resident on each node.
    pub fn node_used_pages(&self) -> &[u64] {
        self.memory.node_used_pages()
    }

    /// Home node of the page holding `addr`, if assigned.
    pub fn node_of(&self, addr: VAddr) -> Option<NodeId> {
        self.memory.node_of(addr)
    }

    /// Whether `addr` lies inside a live mapping.
    pub fn is_mapped(&self, addr: VAddr) -> bool {
        self.memory.is_mapped(addr)
    }

    /// Whether `addr` is backed by a 2 MB huge frame (THP).
    pub fn is_huge(&self, addr: VAddr) -> bool {
        self.memory.is_huge(addr)
    }

    /// High-water of mapped simulated address space, in bytes.
    pub fn mapped_high_water(&self) -> u64 {
        self.memory.mapped_high_water()
    }

    /// 4 KB pages of host memory holding the bytes the run wrote.
    pub fn data_pages(&self) -> u64 {
        self.memory.data_pages()
    }

    /// Number of locks registered with the contention model.
    pub fn num_locks(&self) -> usize {
        self.locks.len()
    }

    /// Run `threads` logical threads through `f`, sequentially and
    /// deterministically, then resolve the region's elapsed time.
    ///
    /// `shared` is handed to every thread in turn — the model of shared
    /// mutable state (a global hash table, an allocator) that real threads
    /// would synchronise on.
    ///
    /// Workers do not unwind on failure: the first fault *poisons* the
    /// worker — every subsequent operation on it becomes a cheap no-op, so
    /// the workload closure runs to completion structurally (fast-forward)
    /// — and the region reports the lowest-tid fault here instead of
    /// resolving stats. A failed region charges no elapsed time and no
    /// counters; the experiment runner decides whether to retry. Faults
    /// are an OOM under `Bind`, an injected fault, a blown cycle budget,
    /// a passed deadline, or an invalid mapping; a region of 0 or more
    /// than [`MAX_THREADS`] threads fails with [`SimError::ThreadCount`]
    /// before it runs.
    pub fn try_parallel<S, F>(
        &mut self,
        threads: usize,
        shared: &mut S,
        mut f: F,
    ) -> SimResult<RegionStats>
    where
        F: FnMut(&mut Worker<'_>, &mut S),
    {
        let mut setup = self.begin_region(threads)?;
        let schedules = std::mem::take(&mut setup.schedules);
        let mut finished: Vec<ThreadOutcome2> = Vec::with_capacity(threads);
        for (tid, sched) in schedules.into_iter().enumerate() {
            let seat = self.take_seat(tid, sched);
            let trace = match self.trace.as_deref_mut() {
                Some(t) => TraceLink::Live(t),
                None => TraceLink::Off,
            };
            let mut w = make_worker(
                &self.cfg,
                &self.link_paths,
                &setup,
                seat,
                MemLink::Direct(&mut self.memory),
                CacheLink::Direct(&mut self.caches),
                WriterLink::Direct(&mut self.writer_table),
                trace,
                self.num_links,
                self.now_cycles,
            );
            f(&mut w, shared);
            let outcome = w.finish();
            let (stats, _) = self.return_seat(tid, setup.unpinned, outcome);
            finished.push(stats);
        }

        if let Some(e) = self.region_fault(&finished) {
            return Err(e);
        }
        let heat = self.collect_heat(&mut finished);
        let stats = self.resolve(setup.region, finished, setup.total_cores, &setup.active);
        self.run_hook(setup.region, &stats, &setup.active, &heat)?;
        Ok(stats)
    }

    /// Run one parallel region with its logical threads sharded across
    /// up to [`SimConfig::shards`] host threads, with per-worker
    /// isolated state and a deterministic merge at the region boundary.
    ///
    /// Each worker executes against the *frozen* region-start memory,
    /// LLC, and writer-table state plus its own effects, so its
    /// execution (and every cycle it charges) is a pure function of
    /// that frozen state — independent of how workers are partitioned
    /// across host threads. Every host shard runs its contiguous tid
    /// chunk in place on one arena of LLC tags and writer-table slots
    /// (shard 0 on the canonical tables, shards 1.. on one region-start
    /// copy each); a worker undo-logs the first write of every slot and,
    /// when it finishes, rolls the arena back and keeps the redo set
    /// (DESIGN.md §4h). Redo sets and memory overlays are merged back
    /// in ascending-tid order when every worker has finished. Counters,
    /// region stats, trace logs, and downstream journal/advisor
    /// decisions are therefore byte-identical for every shard count,
    /// including `shards = 1` (which runs the same isolated-worker
    /// semantics inline, without spawning).
    ///
    /// This is a *declared model* for phases that adopt sharding, with
    /// three visible differences from [`NumaSim::try_parallel`]:
    ///
    /// * workers never observe a same-region peer's LLC insertions,
    ///   writer-table stores, or page-fault/migration effects (e.g. two
    ///   workers that both first-touch a shared boundary page each pay
    ///   the fault);
    /// * the closure takes `&S` (read-only shared state) and returns a
    ///   per-worker value `R`; cross-worker mutation happens by folding
    ///   the returned values after the merge;
    /// * mapping and unmapping inside the region fault the worker with
    ///   [`SimError::Harness`] — address space must be settled in a
    ///   serial region first.
    ///
    /// On a region fault nothing is merged: a failed trial charges no
    /// elapsed time, no counters, and no state changes.
    pub fn try_parallel_sharded<S, R, F>(
        &mut self,
        threads: usize,
        shared: &S,
        f: F,
    ) -> SimResult<(RegionStats, Vec<R>)>
    where
        S: Sync + ?Sized,
        R: Send,
        F: Fn(&mut Worker<'_>, &S) -> R + Sync,
    {
        let mut setup = self.begin_region(threads)?;
        let schedules = std::mem::take(&mut setup.schedules);

        // Pull per-thread host state out so seats can move across host
        // threads; restored from the outcomes below.
        let seats: Vec<Seat> = schedules
            .into_iter()
            .enumerate()
            .map(|(tid, sched)| self.take_seat(tid, sched))
            .collect();
        // Contiguous balanced tid chunks, one per host shard; collecting
        // results in shard order is collecting them in ascending-tid
        // order.
        let shard_count = self.cfg.shards.max(1).min(threads);
        let (base, extra) = (threads / shard_count, threads % shard_count);
        let mut seats = seats.into_iter();
        let chunks: Vec<Vec<Seat>> = (0..shard_count)
            .map(|s| seats.by_ref().take(base + usize::from(s < extra)).collect())
            .collect();

        let cfg = &self.cfg;
        let link_paths = &self.link_paths;
        let num_links = self.num_links;
        let sim_now = self.now_cycles;
        let trace_on = self.trace.is_some();
        let memory = &self.memory;
        let setup_ref = &setup;
        let f_ref = &f;
        let run_chunk = move |chunk: Vec<Seat>, mut arena: Arena<'_>| {
            let mut out: Vec<(ThreadOutcome, R)> = Vec::with_capacity(chunk.len());
            // The chunk's latest toucher of each node's LLC, so a
            // superseded LLC redo set is dropped as soon as a later tid
            // touches that node (only the last toucher's survives the
            // merge).
            let mut last_toucher: Vec<Option<usize>> = vec![None; arena.caches.len()];
            for seat in chunk {
                let trace = if trace_on {
                    TraceLink::Buffer(Vec::new())
                } else {
                    TraceLink::Off
                };
                let (caches, writer) = arena.links();
                let mut w = make_worker(
                    cfg,
                    link_paths,
                    setup_ref,
                    seat,
                    MemLink::Shard(ShardMemView::new(memory)),
                    caches,
                    writer,
                    trace,
                    num_links,
                    sim_now,
                );
                let r = f_ref(&mut w, shared);
                let outcome = w.finish();
                if let Some(delta) = &outcome.shard {
                    for (node, redo) in delta.llcs.iter().enumerate() {
                        if redo.is_none() {
                            continue;
                        }
                        if let Some(prev) = last_toucher[node].replace(out.len()) {
                            if let Some(d) = out[prev].0.shard.as_mut() {
                                d.llcs[node] = None;
                            }
                        }
                    }
                }
                out.push((outcome, r));
            }
            out
        };

        let mut outcomes: Vec<(ThreadOutcome, R)> = Vec::with_capacity(threads);
        let mut chunks = chunks.into_iter();
        let first = chunks.next().unwrap_or_default();
        if shard_count <= 1 {
            // Same isolated-worker semantics, no host threads spawned.
            outcomes = run_chunk(first, Arena::new(&mut self.caches, &mut self.writer_table));
        } else {
            // Shard 0 runs in place on the canonical tables. Every other
            // shard copies them (the region-start image) into its kept
            // copy in its own host thread, so the copies are made in
            // parallel; shard 0 starts once all of them are made.
            let mut copies = std::mem::take(&mut self.shard_copies);
            copies.resize_with(copies.len().max(shard_count - 1), Default::default);
            let tables = RwLock::new((&mut self.caches, &mut self.writer_table));
            let copied = Barrier::new(shard_count);
            let mut host_panic = false;
            std::thread::scope(|scope| {
                let (run_chunk, tables, copied) = (&run_chunk, &tables, &copied);
                let mut handles = vec![scope.spawn(move || {
                    copied.wait();
                    let mut canonical = tables.write().unwrap_or_else(PoisonError::into_inner);
                    let (caches, writer) = &mut *canonical;
                    run_chunk(first, Arena::new(caches, writer))
                })];
                for (chunk, (caches, writer)) in chunks.zip(copies.iter_mut()) {
                    handles.push(scope.spawn(move || {
                        {
                            let canonical = tables.read().unwrap_or_else(PoisonError::into_inner);
                            caches.clone_from(canonical.0);
                            writer.clone_from(canonical.1);
                        }
                        copied.wait();
                        run_chunk(chunk, Arena::new(caches, writer))
                    }));
                }
                for h in handles {
                    match h.join() {
                        Ok(batch) => outcomes.extend(batch),
                        Err(_) => host_panic = true,
                    }
                }
            });
            self.shard_copies = copies;
            if host_panic {
                // The trial's state is torn (a panicking worker never
                // rolled its arena back); surface a typed fault so the
                // supervisor re-runs it on a fresh simulator instead of
                // unwinding through the harness.
                return Err(SimError::Harness {
                    what: "a shard host thread panicked mid-region".to_string(),
                });
            }
        }

        let mut finished: Vec<ThreadOutcome2> = Vec::with_capacity(threads);
        let mut deltas: Vec<ShardDelta> = Vec::with_capacity(threads);
        let mut returns: Vec<R> = Vec::with_capacity(threads);
        for (tid, (outcome, r)) in outcomes.into_iter().enumerate() {
            let (stats, shard) = self.return_seat(tid, setup.unpinned, outcome);
            match shard {
                Some(delta) => deltas.push(delta),
                // Unreachable by construction (every seat runs behind
                // Shard links), but a typed fault beats a panic if the
                // invariant ever breaks.
                None => {
                    return Err(SimError::Harness {
                        what: format!("sharded worker {tid} returned no merge delta"),
                    })
                }
            }
            finished.push(stats);
            returns.push(r);
        }
        if let Some(e) = self.region_fault(&finished) {
            return Err(e);
        }

        // Deterministic epoch-boundary merge, ascending tid order, onto
        // the region-start image every worker rolled back to: the last
        // toucher of a node's LLC wins it wholesale (its insertions on
        // the region-start image, even if it only hit), later tids win
        // conflicting writer slots, exactly like the serial path's
        // last-writer ordering.
        let mut llc_winners: Vec<Option<Vec<(u32, u64)>>> = vec![None; self.caches.len()];
        for delta in deltas {
            for (node, redo) in delta.llcs.into_iter().enumerate() {
                if redo.is_some() {
                    llc_winners[node] = redo;
                }
            }
            for (slot, value) in delta.writer {
                self.writer_table[slot as usize] = value;
            }
            self.memory.merge_shard(delta.mem);
            if let Some(t) = self.trace.as_deref_mut() {
                for (at, tid, ev) in delta.trace {
                    t.push(at, tid, ev);
                }
            }
        }
        for (llc, redo) in self.caches.iter_mut().zip(llc_winners) {
            let (_, tags) = llc.parts_mut();
            for (slot, tag) in redo.unwrap_or_default() {
                tags[slot as usize] = tag;
            }
        }
        let heat = self.collect_heat(&mut finished);
        let stats = self.resolve(setup.region, finished, setup.total_cores, &setup.active);
        self.run_hook(setup.region, &stats, &setup.active, &heat)?;
        Ok((stats, returns))
    }

    /// Take `tid`'s TLBs and L1 out of the simulator into a seat for
    /// one region worker; [`NumaSim::return_seat`] puts them back. Shared
    /// by the serial and sharded paths, like [`make_worker`].
    fn take_seat(&mut self, tid: usize, sched: ThreadSchedule) -> Seat {
        let (tlb4, tlb2) = std::mem::replace(&mut self.tlbs[tid], (Tlb::new(0), Tlb::new(0)));
        let l1 = std::mem::replace(&mut self.l1s[tid], Tlb::new(0));
        (tid, sched, tlb4, tlb2, l1)
    }

    /// Restore a finished worker's TLBs and L1 to `tid` and, when the
    /// region's threads are unpinned, carry its schedule forward from
    /// its clock. Returns the worker's stats and its merge delta (a
    /// sharded worker's only).
    fn return_seat(
        &mut self,
        tid: usize,
        unpinned: bool,
        outcome: ThreadOutcome,
    ) -> (ThreadOutcome2, Option<ShardDelta>) {
        let ThreadOutcome { stats, tlb4, tlb2, l1, mut sched, shard } = outcome;
        self.tlbs[tid] = (tlb4, tlb2);
        self.l1s[tid] = l1;
        if unpinned {
            sched.rebase(stats.clock);
            self.sched_plans[tid] = sched;
        }
        (stats, shard)
    }

    /// Region fault precedence, shared by the serial and sharded paths.
    ///
    /// A blown trial budget dominates every other fault. A poisoned
    /// worker keeps charging cycles but records only its *first* fault,
    /// so a thread that faulted early and then sailed past the budget
    /// would otherwise report the fault — conflating a timeout with
    /// `Faulted` in sweep tables even though the watchdog would have
    /// killed the attempt either way.
    fn region_fault(&self, finished: &[ThreadOutcome2]) -> Option<SimError> {
        if let Some(e) = finished
            .iter()
            .filter_map(|t| t.fault.as_ref())
            .find(|e| matches!(e, SimError::Timeout { .. }))
        {
            return Some(e.clone());
        }
        if finished.iter().any(|t| t.fault.is_some()) {
            if let Some(budget) = self.cfg.trial_budget_cycles {
                let elapsed = self
                    .now_cycles
                    .saturating_add(finished.iter().map(|t| t.clock).max().unwrap_or(0));
                if elapsed >= budget {
                    return Some(SimError::Timeout {
                        budget_cycles: budget,
                        elapsed_cycles: elapsed,
                    });
                }
            }
        }
        finished.iter().find_map(|t| t.fault.clone())
    }

    /// The shared region prologue: deadline check, fault activation,
    /// node-outage evacuation, schedule planning, TLB/L1 growth, the
    /// per-region integer latency tables, and the `RegionBegin` trace
    /// event. Byte-identical to the historical `try_parallel` prologue.
    fn begin_region(&mut self, threads: usize) -> SimResult<RegionSetup> {
        check_threads(threads)?;
        if let Some(deadline) = self.cfg.deadline_cycles {
            // Cooperative cancellation: a query whose deadline has
            // passed abandons *between* phases, never mid-region, and
            // the cycles burned so far stay charged (`now_cycles` is
            // not rolled back).
            if self.now_cycles >= deadline {
                let elapsed = self.now_cycles;
                if let Some(t) = self.trace.as_deref_mut() {
                    t.push(
                        elapsed,
                        NO_TID,
                        TraceEvent::DeadlineAbandon {
                            deadline_cycles: deadline,
                            elapsed_cycles: elapsed,
                        },
                    );
                }
                return Err(SimError::DeadlineExceeded {
                    deadline_cycles: deadline,
                    elapsed_cycles: elapsed,
                });
            }
        }
        let region = self.region_idx;
        self.region_idx += 1;
        let quiet_plan = FaultPlan::default();
        let active = self
            .cfg
            .fault_plan
            .as_ref()
            .unwrap_or(&quiet_plan)
            .active(
                region,
                self.cfg.fault_attempt,
                self.num_links,
                self.cfg.machine.topology.num_nodes(),
            );
        if active.any_node_offline() {
            // Node outages apply before the region's threads run: pages
            // are evacuated (charged as kernel migration traffic) and the
            // evacuation itself can blow the trial budget.
            self.apply_node_offline(&active)?;
        }
        let budget_limit = self
            .cfg
            .trial_budget_cycles
            .map(|b| b.saturating_sub(self.now_cycles));
        let unpinned = matches!(self.cfg.thread_placement, crate::config::ThreadPlacement::None);
        let schedules = if unpinned {
            // Reuse persistent schedules so threads stay where they were.
            if self.sched_plans.len() < threads {
                self.sched_plans = plan_region(&self.cfg, threads, 0);
            }
            let mut taken = Vec::with_capacity(threads);
            for tid in 0..threads {
                taken.push(std::mem::replace(
                    &mut self.sched_plans[tid],
                    ThreadSchedule::Pinned(0),
                ));
            }
            taken
        } else {
            plan_region(&self.cfg, threads, region)
        };
        let schedules = if active.any_node_offline() {
            self.remap_offline_schedules(schedules, &active)
        } else {
            schedules
        };
        while self.tlbs.len() < threads {
            let (t4, t2) = (
                Tlb::new(self.cfg.machine.tlb_4k.total_entries()),
                Tlb::new(self.cfg.machine.tlb_2m.total_entries()),
            );
            self.tlbs.push((t4, t2));
            self.l1s.push(Tlb::new(L1_LINES));
        }

        let total_cores = self.cfg.machine.total_hw_threads();
        let nodes = self.cfg.machine.topology.num_nodes();

        // Integer DRAM-latency tables for this region, indexed by
        // [(running_node * nodes + home_node) * 2 + is_write]: the f64
        // latency-factor chain (fault-degradation multipliers and the
        // home node's memory-tier read/write factor folded in) is
        // evaluated once per (node pair, direction) instead of once per
        // LLC miss. The expressions mirror the reference model's
        // per-miss math operation for operation, so the values are
        // bit-identical; on an all-DRAM machine both tier factors are
        // exactly 1.0 and the table degenerates to the untiered model.
        let mut lat_full = vec![0u64; nodes * nodes * 2];
        let mut lat_seq = vec![0u64; nodes * nodes * 2];
        for a in 0..nodes {
            for h in 0..nodes {
                let mut factor = self.cfg.machine.topology.latency_factor(a, h);
                if !active.is_quiet() && h != a {
                    factor *= active.path_latency_mult(&self.link_paths[a][h]);
                }
                let tier = self.cfg.machine.tier_of(h);
                for (dir, tf) in [(0, tier.read_factor()), (1, tier.write_factor())] {
                    let full = (self.cfg.machine.dram_latency_cycles as f64 * (factor * tf))
                        as u64;
                    lat_full[(a * nodes + h) * 2 + dir] = full;
                    lat_seq[(a * nodes + h) * 2 + dir] = full / self.cfg.costs.mlp.max(1);
                }
            }
        }
        let tier_slow: Vec<bool> =
            (0..nodes).map(|n| self.memory.is_slow_node(n)).collect();

        if let Some(t) = self.trace.as_deref_mut() {
            t.push(
                self.now_cycles,
                NO_TID,
                TraceEvent::RegionBegin { region, threads: threads as u32 },
            );
        }

        Ok(RegionSetup {
            region,
            active,
            budget_limit,
            unpinned,
            schedules,
            total_cores,
            nodes,
            lat_full,
            lat_seq,
            tier_slow,
            heat_on: self.heat_on,
        })
    }

    /// Run a single logical thread (setup phases, coordinators): a
    /// one-thread [`NumaSim::try_parallel`] region.
    pub fn try_serial<S, F>(&mut self, shared: &mut S, f: F) -> SimResult<RegionStats>
    where
        F: FnMut(&mut Worker<'_>, &mut S),
    {
        self.try_parallel(1, shared, f)
    }

    /// Apply node-offline faults that have not been applied yet: evacuate
    /// each newly-dead node's pages to the nearest live node and charge
    /// the copies like kernel page migrations. Outages are sticky — a
    /// node already offline is skipped. Fails typed when the last live
    /// node dies, the survivors cannot absorb the pages, or the
    /// evacuation cost blows the trial budget.
    fn apply_node_offline(&mut self, active: &ActiveFaults) -> SimResult<()> {
        let nodes = self.cfg.machine.topology.num_nodes();
        for node in 0..nodes {
            if !active.node_offline(node) || self.memory.is_node_offline(node) {
                continue;
            }
            let moved = self.memory.set_node_offline(node)?;
            let costs = &self.cfg.costs;
            let cost = costs.page_migration_fixed_cycles
                + costs.page_migration_per_line_cycles * (SMALL_PAGE / LINE) * moved;
            self.now_cycles += cost;
            self.counters.kernel_cycles += cost;
            self.counters.page_migrations += moved;
            self.counters.evacuated_pages += moved;
            self.counters.nodes_offlined += 1;
            if let Some(t) = self.trace.as_deref_mut() {
                t.push(
                    self.now_cycles,
                    NO_TID,
                    TraceEvent::NodeOffline { node, evacuated_pages: moved },
                );
            }
        }
        if let Some(budget) = self.cfg.trial_budget_cycles {
            if self.now_cycles >= budget {
                return Err(SimError::Timeout {
                    budget_cycles: budget,
                    elapsed_cycles: self.now_cycles,
                });
            }
        }
        Ok(())
    }

    /// Install a runtime-tuning hook on a live simulator (tests and
    /// ad-hoc drivers; sweeps install one via [`SimConfig::with_tune`],
    /// which builds a fresh hook per `NumaSim::new`).
    pub fn install_hook(&mut self, hook: Box<dyn RegionHook + Send>) {
        self.hook = Some(HookBox(hook));
    }

    /// Toggle per-page heat collection on a live simulator (pairs with
    /// [`NumaSim::install_hook`] for tests and ad-hoc drivers; sweeps
    /// opt in via [`crate::TuneFactory::with_page_heat`]).
    pub fn collect_page_heat(&mut self, on: bool) {
        self.heat_on = on;
    }

    /// Run the installed tuning hook against the region that just
    /// resolved and apply its actions. The hook sees only model-cycle
    /// state (an [`EpochView`]), so its decision sequence is a
    /// deterministic function of the simulated execution; every action
    /// it returns is applied *and charged* here, before the next region
    /// runs — the one point where the machine is quiescent (the same
    /// boundary node-offline evacuation uses), so no cache, TLB, or
    /// walk-memo invalidation is needed.
    fn run_hook(
        &mut self,
        region: u64,
        stats: &RegionStats,
        active: &ActiveFaults,
        page_heat: &[PageHeat],
    ) -> SimResult<()> {
        let Some(mut hook) = self.hook.take() else { return Ok(()) };
        let view = EpochView {
            region,
            now_cycles: self.now_cycles,
            elapsed_cycles: stats.elapsed_cycles,
            counters: self.counters,
            node_used_pages: self.memory.node_used_pages(),
            mem_policy: self.cfg.mem_policy,
            thread_placement: self.cfg.thread_placement,
            autonuma: self.cfg.autonuma,
            threads: stats.threads,
            fault_active: !active.is_quiet(),
            page_heat,
        };
        let actions = hook.0.on_region_end(&view);
        self.hook = Some(hook);
        for action in actions {
            self.apply_action(region, stats.threads, action)?;
        }
        Ok(())
    }

    /// Merge the per-worker page-touch maps into one additively merged
    /// heat vector sorted by page, annotated with each page's canonical
    /// home node — read *after* any sharded merge, so serial and
    /// sharded runs report identical heat. Pages unmapped by region end
    /// are dropped (nothing a hook could migrate). Empty (and free)
    /// unless heat collection is on.
    fn collect_heat(&self, finished: &mut [ThreadOutcome2]) -> Vec<PageHeat> {
        if !self.heat_on {
            return Vec::new();
        }
        let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
        for t in finished.iter_mut() {
            for &(page, touches) in &t.heat {
                *merged.entry(page).or_insert(0) += touches;
            }
            t.heat = Vec::new();
        }
        merged
            .into_iter()
            .filter_map(|(page, touches)| {
                self.memory
                    .node_of(page * SMALL_PAGE)
                    .map(|home| PageHeat { page, home, touches })
            })
            .collect()
    }

    /// Apply one hook action, charge its model-cycle cost, and record
    /// it as a trace event. Page moves are charged at the same
    /// `CostParams` rates as kernel migrations, and — like node-offline
    /// evacuation — the charge can blow the trial budget.
    fn apply_action(&mut self, region: u64, threads: usize, action: TuneAction) -> SimResult<()> {
        let mut tier_event = false;
        let decision = match action {
            TuneAction::SetMemPolicy(policy) => {
                self.cfg.mem_policy = policy;
                format!("policy={}", policy.label())
            }
            TuneAction::SetThreadPlacement(placement) => {
                if placement != self.cfg.thread_placement {
                    self.cfg.thread_placement = placement;
                    // Every seat can move when the placement regime
                    // changes: charge one migration per logical thread.
                    let cost = self.cfg.costs.thread_migration_cycles * threads as u64;
                    self.now_cycles += cost;
                    self.counters.kernel_cycles += cost;
                    self.counters.thread_migrations += threads as u64;
                }
                format!("placement={}", placement.label())
            }
            TuneAction::SetAutonuma(on) => {
                self.cfg.autonuma = on;
                format!("autonuma={}", if on { "on" } else { "off" })
            }
            TuneAction::RehomePages { policy, max_pages } => {
                let moved = self.memory.rehome_pages(policy, max_pages);
                if moved > 0 {
                    let costs = &self.cfg.costs;
                    let cost = costs.page_migration_fixed_cycles
                        + costs.page_migration_per_line_cycles * (SMALL_PAGE / LINE) * moved;
                    self.now_cycles += cost;
                    self.counters.kernel_cycles += cost;
                    self.counters.page_migrations += moved;
                }
                format!("rehome={}:moved={moved}", policy.label())
            }
            TuneAction::PromotePages { pages, max_pages } => {
                tier_event = true;
                let moved = self.memory.retier_pages(&pages, false, max_pages);
                self.charge_retier(moved);
                self.counters.promotions += moved;
                format!("promote:moved={moved}")
            }
            TuneAction::DemotePages { pages, max_pages } => {
                tier_event = true;
                let moved = self.memory.retier_pages(&pages, true, max_pages);
                self.charge_retier(moved);
                self.counters.demotions += moved;
                format!("demote:moved={moved}")
            }
            TuneAction::Note(token) => token,
        };
        if let Some(t) = self.trace.as_deref_mut() {
            let event = if tier_event {
                TraceEvent::TierDecision { region, decision }
            } else {
                TraceEvent::AdvisorDecision { region, decision }
            };
            t.push(self.now_cycles, NO_TID, event);
        }
        if let Some(budget) = self.cfg.trial_budget_cycles {
            if self.now_cycles >= budget {
                return Err(SimError::Timeout {
                    budget_cycles: budget,
                    elapsed_cycles: self.now_cycles,
                });
            }
        }
        Ok(())
    }

    /// Bill one promotion/demotion batch: kernel migration rates for
    /// the copies, plus the copied lines as slow-tier traffic (one
    /// endpoint of every moved page is a slow-tier node by definition).
    fn charge_retier(&mut self, moved: u64) {
        if moved == 0 {
            return;
        }
        let costs = &self.cfg.costs;
        let cost = costs.page_migration_fixed_cycles
            + costs.page_migration_per_line_cycles * (SMALL_PAGE / LINE) * moved;
        self.now_cycles += cost;
        self.counters.kernel_cycles += cost;
        self.counters.page_migrations += moved;
        self.counters.slow_tier_lines += (SMALL_PAGE / LINE) * moved;
    }

    /// Re-place threads scheduled onto offline cores, following the
    /// active placement policy over the surviving nodes: `Sparse` spreads
    /// displaced threads round-robin across live nodes, every other
    /// policy packs them node-major. Roaming pools are filtered to live
    /// cores. Each displaced thread is charged a migration.
    fn remap_offline_schedules(
        &mut self,
        mut schedules: Vec<ThreadSchedule>,
        active: &ActiveFaults,
    ) -> Vec<ThreadSchedule> {
        let machine = &self.cfg.machine;
        // Displaced threads can only land on compute nodes: memory-only
        // slow-tier nodes have no cores.
        let nodes = machine.compute_nodes();
        let tpn = machine.threads_per_node;
        let live: Vec<NodeId> = (0..nodes).filter(|&n| !active.node_offline(n)).collect();
        let sparse =
            matches!(self.cfg.thread_placement, crate::config::ThreadPlacement::Sparse);
        let order: Vec<CoreId> = if sparse {
            (0..tpn)
                .flat_map(|slot| live.iter().map(move |&n| n * tpn + slot))
                .collect()
        } else {
            live.iter().flat_map(|&n| (0..tpn).map(move |slot| n * tpn + slot)).collect()
        };
        let mut displaced = 0u64;
        let mut next = 0usize;
        let now = self.now_cycles;
        for (tid, s) in schedules.iter_mut().enumerate() {
            match s {
                ThreadSchedule::Pinned(c) => {
                    if active.node_offline(machine.node_of_core(*c)) {
                        let from = *c;
                        *c = order[next % order.len()];
                        next += 1;
                        displaced += 1;
                        if let Some(t) = self.trace.as_deref_mut() {
                            t.push(
                                now,
                                tid as u32,
                                TraceEvent::ThreadMigration { from_core: from, to_core: *c },
                            );
                        }
                    }
                }
                ThreadSchedule::Roaming { pool, idx, .. } => {
                    let cur = pool[*idx];
                    if pool.iter().all(|&c| active.node_offline(machine.node_of_core(c))) {
                        // The whole pool died: fall back to every live core.
                        *pool = order.clone();
                    } else {
                        pool.retain(|&c| !active.node_offline(machine.node_of_core(c)));
                    }
                    if active.node_offline(machine.node_of_core(cur)) {
                        *idx = next % pool.len();
                        next += 1;
                        displaced += 1;
                        if let Some(t) = self.trace.as_deref_mut() {
                            t.push(
                                now,
                                tid as u32,
                                TraceEvent::ThreadMigration {
                                    from_core: cur,
                                    to_core: pool[*idx],
                                },
                            );
                        }
                    } else {
                        *idx = pool.iter().position(|&c| c == cur).unwrap_or(0);
                    }
                }
            }
        }
        if displaced > 0 {
            let cost = self.cfg.costs.thread_migration_cycles * displaced;
            self.now_cycles += cost;
            self.counters.kernel_cycles += cost;
            self.counters.thread_migrations += displaced;
        }
        schedules
    }

    fn resolve(
        &mut self,
        region: u64,
        mut threads: Vec<ThreadOutcome2>,
        total_cores: usize,
        faults: &ActiveFaults,
    ) -> RegionStats {
        let t0 = threads.iter().map(|t| t.clock).max().unwrap_or(0);

        // Analytic lock waits.
        let uses: Vec<ThreadLockUse> = threads.iter().map(|t| t.locks.clone()).collect();
        let waits = resolve_waits(&uses, t0);
        for (t, w) in threads.iter_mut().zip(&waits) {
            t.clock += w;
            t.counters.lock_wait_cycles += w;
        }
        let latency_bound = threads.iter().map(|t| t.clock).max().unwrap_or(0);

        // Core oversubscription: threads sharing a core serialise.
        let mut core_busy = vec![0u64; total_cores];
        for t in &threads {
            for &(core, cycles) in &t.core_time {
                core_busy[core] += cycles;
            }
        }
        let core_bound = core_busy.iter().copied().max().unwrap_or(0);

        // Bandwidth rooflines.
        let machine = &self.cfg.machine;
        let nodes = machine.topology.num_nodes();
        let mut node_lines = vec![0u64; nodes];
        let mut link_lines = vec![0u64; self.num_links];
        let mut counters = Counters::default();
        for t in &threads {
            counters += t.counters;
            for (n, l) in t.dram_lines_by_node.iter().enumerate() {
                node_lines[n] += l;
            }
            for (l, c) in t.link_lines.iter().enumerate() {
                link_lines[l] += c;
            }
        }
        // A slow-tier controller delivers a fraction of DRAM bandwidth
        // (`bandwidth_factor`); ×1.0 on DRAM nodes keeps the division
        // bit-identical to the untiered model.
        let ctrl_busy: Vec<f64> = node_lines
            .iter()
            .enumerate()
            .map(|(n, &l)| {
                l as f64
                    / (machine.controller_lines_per_cycle
                        * machine.tier_of(n).bandwidth_factor())
            })
            .collect();
        // A degraded link's effective bandwidth is divided by the fault
        // plan's divisor, inflating its busy time.
        let link_busy: Vec<f64> = link_lines
            .iter()
            .enumerate()
            .map(|(i, &l)| l as f64 * faults.link_bw_div[i] / machine.link_lines_per_cycle)
            .collect();

        // Queueing: a resource whose busy time exceeds the latency-bound
        // window is overloaded; its backlog is distributed to the threads
        // that used it, proportionally to their line counts. This keeps
        // saturation *additive* — threads still pay their compute and
        // other-latency costs on top of the stalls — instead of a flat
        // roofline max that would hide everything else.
        let t0 = latency_bound as f64;
        let ctrl_backlog: Vec<f64> =
            ctrl_busy.iter().map(|&b| (b - t0).max(0.0)).collect();
        let link_backlog: Vec<f64> =
            link_busy.iter().map(|&b| (b - t0).max(0.0)).collect();
        // A saturated resource is serial: every thread queueing on it sees
        // the full backlog, scaled down only when the thread uses the
        // resource less than an even share.
        let ctrl_users: Vec<f64> = (0..nodes)
            .map(|n| threads.iter().filter(|t| t.dram_lines_by_node[n] > 0).count() as f64)
            .collect();
        let link_users: Vec<f64> = (0..self.num_links)
            .map(|l| threads.iter().filter(|t| t.link_lines[l] > 0).count() as f64)
            .collect();
        let mut stalled_max = latency_bound;
        let mut any_ctrl_overload = None;
        let mut any_link_overload = None;
        for t in &mut threads {
            let mut extra = 0.0f64;
            for (n, &bl) in ctrl_backlog.iter().enumerate() {
                if bl > 0.0 && node_lines[n] > 0 {
                    let share = t.dram_lines_by_node[n] as f64 / node_lines[n] as f64;
                    extra += bl * (share * ctrl_users[n]).min(1.0);
                    any_ctrl_overload = Some(n);
                }
            }
            for (l, &bl) in link_backlog.iter().enumerate() {
                if bl > 0.0 && link_lines[l] > 0 {
                    let share = t.link_lines[l] as f64 / link_lines[l] as f64;
                    extra += bl * (share * link_users[l]).min(1.0);
                    any_link_overload = Some(l);
                }
            }
            t.clock += extra.round() as u64;
            stalled_max = stalled_max.max(t.clock);
        }

        let mut elapsed = stalled_max;
        let mut bottleneck = Bottleneck::ThreadLatency;
        if let Some(n) = any_ctrl_overload {
            bottleneck = Bottleneck::MemoryController(n);
        }
        if let Some(l) = any_link_overload {
            bottleneck = Bottleneck::InterconnectLink(l);
        }
        if core_bound > elapsed {
            elapsed = core_bound;
            bottleneck = Bottleneck::CoreOversubscription;
        }
        let elapsed = elapsed.max(1);

        self.counters += counters;
        self.now_cycles += elapsed;

        if let Some(t) = self.trace.as_deref_mut() {
            for (tid, &w) in waits.iter().enumerate() {
                if w > 0 {
                    t.push(
                        self.now_cycles,
                        tid as u32,
                        TraceEvent::LockContention { wait_cycles: w },
                    );
                }
            }
            t.push(
                self.now_cycles,
                NO_TID,
                TraceEvent::RegionEnd { region, elapsed_cycles: elapsed },
            );
            // Epoch sample at the region boundary: the delta since the
            // previous boundary telescopes, so bins sum to the totals.
            t.sample(self.now_cycles, self.counters, &node_lines, &link_lines);
        }

        RegionStats {
            elapsed_cycles: elapsed,
            max_thread_cycles: latency_bound,
            bottleneck,
            controller_utilisation: ctrl_busy.iter().map(|b| b / elapsed as f64).collect(),
            link_utilisation: link_busy.iter().map(|b| b / elapsed as f64).collect(),
            counters,
            threads: threads.len(),
        }
    }
}

/// Final per-thread record handed to the resolver.
#[derive(Debug)]
struct ThreadOutcome2 {
    clock: u64,
    core_time: Vec<(CoreId, u64)>,
    counters: Counters,
    locks: ThreadLockUse,
    dram_lines_by_node: Vec<u64>,
    link_lines: Vec<u64>,
    /// Per-page touch counts `(page, touches)` sorted by page; empty
    /// unless heat collection is on.
    heat: Vec<(u64, u64)>,
    /// The fault that poisoned this thread, if any.
    fault: Option<SimError>,
}

struct ThreadOutcome {
    stats: ThreadOutcome2,
    tlb4: Tlb,
    tlb2: Tlb,
    l1: Tlb,
    sched: ThreadSchedule,
    /// The memory overlay and redo sets of a sharded-region worker
    /// (None on the serial path, which mutates canonical state
    /// directly).
    shard: Option<ShardDelta>,
}

/// A seat is one logical thread's host state, handed to its region
/// worker and back; a sharded region moves it onto whichever host
/// thread runs that worker.
type Seat = (usize, ThreadSchedule, Tlb, Tlb, Tlb);

/// Region prologue products shared by the serial and sharded paths.
struct RegionSetup {
    region: u64,
    active: ActiveFaults,
    budget_limit: Option<u64>,
    unpinned: bool,
    schedules: Vec<ThreadSchedule>,
    total_cores: usize,
    nodes: usize,
    lat_full: Vec<u64>,
    lat_seq: Vec<u64>,
    /// Per-node "is a slow memory tier" flags, for the hit counters.
    tier_slow: Vec<bool>,
    /// Whether workers should count per-page touches this region.
    heat_on: bool,
}

/// Construct one region worker over the given state links. Shared by
/// the serial path (direct links into the simulator) and the sharded
/// path (isolated per-worker views), so the two cannot drift.
#[allow(clippy::too_many_arguments)]
fn make_worker<'a>(
    cfg: &'a SimConfig,
    link_paths: &'a Vec<Vec<Vec<u16>>>,
    setup: &'a RegionSetup,
    seat: Seat,
    memory: MemLink<'a>,
    caches: CacheLink<'a>,
    writer_table: WriterLink<'a>,
    trace: TraceLink<'a>,
    num_links: usize,
    sim_now: u64,
) -> Worker<'a> {
    let (tid, sched, tlb4, tlb2, l1) = seat;
    let core = sched.initial_core();
    let node = cfg.machine.node_of_core(core);
    let mut w = Worker {
        cfg,
        memory,
        caches,
        link_paths,
        tid,
        core,
        node,
        clock: 0,
        sched,
        next_sched_at: 0,
        next_scan_at: 0,
        horizon: 0,
        core_since: 0,
        core_time: Vec::new(),
        tlb4,
        tlb2,
        l1,
        writer_table,
        counters: Counters::default(),
        locks: ThreadLockUse::default(),
        dram_lines_by_node: vec![0; setup.nodes],
        link_lines: vec![0; num_links],
        autonuma_countdown: AUTONUMA_SAMPLE_EVERY,
        last_line: u64::MAX - 1,
        uwalk: UWalk::EMPTY,
        lat_full: &setup.lat_full,
        lat_seq: &setup.lat_seq,
        num_nodes: setup.nodes,
        tier_slow: &setup.tier_slow,
        heat_on: setup.heat_on,
        heat_page: u64::MAX,
        heat_run: 0,
        heat: HashMap::default(),
        reference: cfg.reference_model,
        epoch_cur: 0,
        epoch_valid_until: 0,
        faults: &setup.active,
        faults_quiet: setup.active.is_quiet(),
        region: setup.region,
        alloc_seq: 0,
        next_preempt_at: setup.active.preempt_period.unwrap_or(u64::MAX),
        budget_limit: setup.budget_limit,
        sim_now,
        fault: None,
        trace,
    };
    w.next_sched_at = w.sched.next_event_at();
    w.next_scan_at = if cfg.autonuma {
        cfg.costs.autonuma_scan_period_cycles
    } else {
        u64::MAX
    };
    w.horizon = w.event_horizon();
    w
}

// ---- per-worker state links for sharded regions ---------------------

/// Worker handle on simulated memory: direct mutable access on the
/// serial path, an isolated copy-on-write view on the sharded path.
/// Each operation is one match whose arms call the same rule — a
/// [`PageTable`] default method, or the byte store's one read rule —
/// over either store, so the two paths cannot drift apart; only the
/// copy-on-write `write_bytes` differs, and mapping is serial-only.
enum MemLink<'a> {
    Direct(&'a mut Memory),
    Shard(ShardMemView<'a>),
}

impl MemLink<'_> {
    fn map(
        &mut self,
        bytes: u64,
        policy: MemPolicy,
        node: NodeId,
        thp: bool,
    ) -> SimResult<VAddr> {
        match self {
            MemLink::Direct(m) => m.map(bytes, policy, node, thp),
            MemLink::Shard(_) => Err(shard_map_fault()),
        }
    }

    fn map_shared(
        &mut self,
        bytes: u64,
        policy: MemPolicy,
        node: NodeId,
        thp: bool,
    ) -> SimResult<VAddr> {
        match self {
            MemLink::Direct(m) => m.map_shared(bytes, policy, node, thp),
            MemLink::Shard(_) => Err(shard_map_fault()),
        }
    }

    fn unmap(&mut self, addr: VAddr, bytes: u64) -> SimResult<()> {
        match self {
            MemLink::Direct(m) => m.unmap(addr, bytes),
            MemLink::Shard(_) => Err(shard_map_fault()),
        }
    }

    #[inline]
    fn resolve_touch(&mut self, addr: VAddr, node: NodeId) -> SimResult<TouchResolution> {
        match self {
            MemLink::Direct(m) => m.resolve_touch(addr, node),
            MemLink::Shard(v) => v.resolve_touch(addr, node),
        }
    }

    #[inline]
    fn autonuma_touch(
        &mut self,
        addr: VAddr,
        node: NodeId,
        threshold: u32,
        allow_migrate: bool,
    ) -> (u64, bool) {
        match self {
            MemLink::Direct(m) => m.autonuma_touch(addr, node, threshold, allow_migrate),
            MemLink::Shard(v) => v.autonuma_touch(addr, node, threshold, allow_migrate),
        }
    }

    #[inline]
    fn hint_fault_due(&mut self, addr: VAddr, epoch: u8) -> bool {
        match self {
            MemLink::Direct(m) => m.hint_fault_due(addr, epoch),
            MemLink::Shard(v) => v.hint_fault_due(addr, epoch),
        }
    }

    #[inline]
    fn prefetch_page(&self, addr: VAddr) {
        match self {
            MemLink::Direct(m) => m.prefetch_page(addr),
            MemLink::Shard(v) => v.prefetch_page(addr),
        }
    }

    #[inline]
    fn prefetch_bytes(&self, addr: VAddr) {
        match self {
            MemLink::Direct(m) => m.prefetch_bytes(addr),
            MemLink::Shard(v) => v.prefetch_bytes(addr),
        }
    }

    #[inline]
    fn write_bytes(&mut self, addr: VAddr, data: &[u8]) {
        match self {
            MemLink::Direct(m) => m.write_bytes(addr, data),
            MemLink::Shard(v) => v.write_bytes(addr, data),
        }
    }

    #[inline]
    fn read_bytes(&self, addr: VAddr, out: &mut [u8]) {
        match self {
            MemLink::Direct(m) => m.read_bytes(addr, out),
            MemLink::Shard(v) => v.read_bytes(addr, out),
        }
    }
}

/// The fault a sharded-region worker takes on `map`/`unmap`: address
/// space must be settled in a serial region before workers shard.
fn shard_map_fault() -> SimError {
    SimError::Harness {
        what: "mmap/munmap inside a sharded parallel region \
               (settle address space in a serial region first)"
            .into(),
    }
}

/// One host shard's working state in a sharded region: the LLC tag
/// arrays and the last-writer table its workers run on *in place* —
/// the simulator's canonical tables for shard 0, a region-start copy
/// for every other shard — plus one dirty bitmap per table. Every
/// worker rolls its changes back when it finishes, so between workers
/// the tables hold the region-start image and the bitmaps are clear.
struct Arena<'a> {
    caches: &'a mut [Llc],
    writer: &'a mut [u64],
    llc_dirty: Vec<Vec<u64>>,
    writer_dirty: Vec<u64>,
}

impl<'a> Arena<'a> {
    fn new(caches: &'a mut [Llc], writer: &'a mut [u64]) -> Self {
        // Logs and redo sets store slot indices as u32.
        let slots_fit = |n: usize| u32::try_from(n).is_ok();
        assert!(
            slots_fit(writer.len()) && caches.iter().all(|c| slots_fit(c.capacity_lines())),
            "a table has more than 2^32 slots"
        );
        let llc_dirty = caches
            .iter()
            .map(|c| vec![0; c.capacity_lines().div_ceil(64)])
            .collect();
        let writer_dirty = vec![0; writer.len().div_ceil(64)];
        Arena { caches, writer, llc_dirty, writer_dirty }
    }

    /// The next worker's undo-logged views of every table.
    fn links(&mut self) -> (CacheLink<'_>, WriterLink<'_>) {
        let views = self
            .caches
            .iter_mut()
            .zip(&mut self.llc_dirty)
            .map(|(llc, dirty)| {
                let (mask, tags) = llc.parts_mut();
                LlcView { mask, tags: UndoTable::new(tags, dirty), touched: false }
            })
            .collect();
        let writer = UndoTable::new(self.writer, &mut self.writer_dirty);
        (CacheLink::Shard(views), WriterLink::Shard(writer))
    }
}

/// A sharded worker's in-place view of one arena table. The first write
/// of every slot logs `(slot, region-start value)`, found by the dirty
/// bitmap; [`UndoTable::finish`] swaps the logged values back, which
/// restores the arena and turns the log into the worker's redo set.
/// The host cost is proportional to the slots the worker changes, and
/// since each slot is logged at most once the log never holds more
/// entries than the table has slots.
struct UndoTable<'a> {
    arena: &'a mut [u64],
    dirty: &'a mut [u64],
    log: Vec<(u32, u64)>,
}

impl<'a> UndoTable<'a> {
    fn new(arena: &'a mut [u64], dirty: &'a mut [u64]) -> Self {
        UndoTable { arena, dirty, log: Vec::new() }
    }

    /// The worker's current value of slot `i`.
    #[inline]
    fn slot(&self, i: usize) -> &u64 {
        &self.arena[i]
    }

    /// Store `value` in slot `i`. Every store counts as a write for the
    /// merge, including one equal to the slot's current value.
    #[inline]
    fn set(&mut self, i: usize, value: u64) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.dirty[word] & bit == 0 {
            self.dirty[word] |= bit;
            self.log.push((i as u32, self.arena[i]));
        }
        self.arena[i] = value;
    }

    /// Roll the arena back to the region-start image, clear the dirty
    /// bitmap, and return the redo set: `(slot, value)` once for every
    /// slot the worker stored to.
    fn finish(self) -> Vec<(u32, u64)> {
        let UndoTable { arena, dirty, mut log } = self;
        for (i, value) in &mut log {
            std::mem::swap(&mut arena[*i as usize], value);
            dirty[*i as usize / 64] = 0;
        }
        log
    }
}

impl Tags for UndoTable<'_> {
    #[inline]
    fn tag(&self, slot: usize) -> u64 {
        *self.slot(slot)
    }

    #[inline]
    fn set_tag(&mut self, slot: usize, line_addr: u64) {
        self.set(slot, line_addr);
    }
}

/// A sharded worker's view of one node's LLC: [`access_in`] over an
/// undo-logged tag array.
struct LlcView<'a> {
    mask: u64,
    tags: UndoTable<'a>,
    /// Whether the worker accessed this LLC at all, hits included: the
    /// last toucher of a node's LLC wins it wholesale at the merge.
    touched: bool,
}

/// Worker handle on the per-node LLCs: the canonical caches on the
/// serial path, undo-logged views of the shard's arena on the sharded
/// path.
enum CacheLink<'a> {
    Direct(&'a mut [Llc]),
    Shard(Vec<LlcView<'a>>),
}

impl CacheLink<'_> {
    /// [`Llc::access`] on `node`'s LLC: `true` on a hit, insert on a
    /// miss.
    #[inline]
    fn access(&mut self, node: NodeId, line: u64) -> bool {
        match self {
            CacheLink::Direct(c) => c[node].access(line),
            CacheLink::Shard(views) => {
                let v = &mut views[node];
                v.touched = true;
                access_in(v.mask, &mut v.tags, line)
            }
        }
    }

    /// [`Llc::prefetch`] on `node`'s LLC.
    #[inline]
    fn prefetch(&self, node: NodeId, line: u64) {
        match self {
            CacheLink::Direct(c) => c[node].prefetch(line),
            CacheLink::Shard(views) => {
                let v = &views[node];
                crate::mix::prefetch(v.tags.slot(slot_of(v.mask, line)));
            }
        }
    }
}

/// Worker handle on the last-writer table: the canonical table on the
/// serial path, an undo-logged view of the shard's arena on the
/// sharded path.
enum WriterLink<'a> {
    Direct(&'a mut [u64]),
    Shard(UndoTable<'a>),
}

impl WriterLink<'_> {
    #[inline]
    fn slot(&self, i: usize) -> &u64 {
        match self {
            WriterLink::Direct(v) => &v[i],
            WriterLink::Shard(t) => t.slot(i),
        }
    }

    #[inline]
    fn set(&mut self, i: usize, value: u64) {
        match self {
            WriterLink::Direct(v) => v[i] = value,
            WriterLink::Shard(t) => t.set(i, value),
        }
    }
}

/// Worker handle on the trace recorder: a live borrow on the serial
/// path, a local buffer replayed at merge time on the sharded path
/// (the serial path emits each worker's events as one ascending-tid
/// block anyway, so the replay is byte-identical).
enum TraceLink<'a> {
    Off,
    Live(&'a mut TraceLog),
    Buffer(Vec<(u64, u32, TraceEvent)>),
}

impl TraceLink<'_> {
    #[inline]
    fn enabled(&self) -> bool {
        !matches!(self, TraceLink::Off)
    }

    #[inline]
    fn push(&mut self, at: u64, tid: u32, event: TraceEvent) {
        match self {
            TraceLink::Off => {}
            TraceLink::Live(t) => t.push(at, tid, event),
            TraceLink::Buffer(b) => b.push((at, tid, event)),
        }
    }
}

/// Everything a sharded-region worker mutated, detached from the view
/// borrows so the engine can merge it into `&mut self` state.
struct ShardDelta {
    mem: MemDelta,
    /// Per node, the LLC redo set if the worker accessed that LLC at
    /// all (`None` also once a later tid has superseded it).
    llcs: Vec<Option<Vec<(u32, u64)>>>,
    writer: Vec<(u32, u64)>,
    trace: Vec<(u64, u32, TraceEvent)>,
}

/// One-entry translation memo (the "uWalk cache"): the last 4 KB page
/// this worker resolved, so the other lines of that page skip the page
/// table, the TLB model, and the AutoNUMA hint check. Sound because
/// logical threads execute sequentially — nothing else mutates page
/// state while a worker runs — and every skip it enables replaces an
/// operation the reference model performs *without side effects*
/// (`resolve_touch` on a faulted page is a pure read, a guaranteed TLB
/// hit mutates nothing, `hint_fault_due` with a matching epoch mutates
/// nothing), so skipping is bit-identical. Invalidated on unmap;
/// `node` is resynced across AutoNUMA migration; `tlb_ok` is cleared
/// whenever the TLBs are flushed (thread migration, preemption storm).
#[derive(Clone, Copy)]
struct UWalk {
    /// 4 KB page index (`addr / SMALL_PAGE`); `u64::MAX` = empty.
    page: u64,
    /// The page's home node (kept in sync across AutoNUMA migration).
    node: NodeId,
    /// Whether the page lives in a huge (2 MB) frame.
    huge: bool,
    /// The page's TLB tag is known resident: a probe would hit without
    /// mutating the TLB. Never set by `dma_lines` fills (kernel copies
    /// bypass the TLBs), so the first demand touch still probes.
    tlb_ok: bool,
    /// Last AutoNUMA scan epoch synced into the page entry; `u16::MAX`
    /// means "not synced" (valid epochs are 0..=255, hence the widening).
    hint_epoch: u16,
}

impl UWalk {
    const EMPTY: UWalk = UWalk {
        page: u64::MAX,
        node: 0,
        huge: false,
        tlb_ok: false,
        hint_epoch: u16::MAX,
    };
}

/// Handle through which workload code executes on one logical thread.
pub struct Worker<'a> {
    cfg: &'a SimConfig,
    memory: MemLink<'a>,
    caches: CacheLink<'a>,
    link_paths: &'a Vec<Vec<Vec<u16>>>,
    tid: usize,
    core: CoreId,
    node: NodeId,
    clock: u64,
    sched: ThreadSchedule,
    next_sched_at: u64,
    next_scan_at: u64,
    /// The earliest of `next_sched_at`, `next_preempt_at`,
    /// `next_scan_at` and the budget limit: below it no event is due,
    /// so `check_events` is one compare. Only `make_worker` and
    /// `check_events_slow` write the event fields, and both refresh it.
    horizon: u64,
    core_since: u64,
    core_time: Vec<(CoreId, u64)>,
    tlb4: Tlb,
    tlb2: Tlb,
    l1: Tlb,
    writer_table: WriterLink<'a>,
    counters: Counters,
    locks: ThreadLockUse,
    dram_lines_by_node: Vec<u64>,
    link_lines: Vec<u64>,
    autonuma_countdown: u64,
    /// Last line index touched, for the streaming detector.
    last_line: u64,
    /// Page-granular fast-path memo (unused when `reference` is set).
    uwalk: UWalk,
    /// Per-region `[running * num_nodes + home]` DRAM latency for
    /// dependent misses, fault degradation folded in.
    lat_full: &'a [u64],
    /// Same, divided by MLP for sequential (pipelined) misses.
    lat_seq: &'a [u64],
    /// Node count; the latency tables are indexed
    /// `[(running * num_nodes + home) * 2 + is_write]`.
    num_nodes: usize,
    /// Per-node slow-tier flags, for the slow-tier hit counters.
    tier_slow: &'a [bool],
    /// Count per-page touches for `EpochView::page_heat` this region.
    heat_on: bool,
    /// One-entry run memo batching consecutive same-page heat counts
    /// (`u64::MAX` = empty).
    heat_page: u64,
    /// Touches accumulated on `heat_page` since the memo last spilled.
    heat_run: u64,
    /// Spilled per-page touch counts (sorted into `ThreadOutcome2::heat`
    /// at `finish`).
    heat: HashMap<u64, u64, MixBuildHasher>,
    /// Run the per-line reference model instead of the fast path.
    reference: bool,
    /// Cached AutoNUMA scan epoch (`(clock / period) & 0xFF`) ...
    epoch_cur: u8,
    /// ... valid until the thread clock reaches this cycle.
    epoch_valid_until: u64,
    /// Faults active this region (quiet view when no plan is configured).
    faults: &'a ActiveFaults,
    /// Fast-path guard: nothing is degraded this region.
    faults_quiet: bool,
    /// The region index, for fault attribution.
    region: u64,
    /// Allocations performed so far this region (fault-decision key).
    alloc_seq: u64,
    /// Next forced preemption (preemption storm), or `u64::MAX`.
    next_preempt_at: u64,
    /// Thread-clock ceiling derived from the trial cycle budget.
    budget_limit: Option<u64>,
    /// Simulator cycles elapsed before this region (for timeout reports).
    sim_now: u64,
    /// Poison: the first fault this thread hit. All subsequent operations
    /// fast-forward (cheap no-ops) so the workload closure completes
    /// structurally without unwinding.
    fault: Option<SimError>,
    /// Trace recorder: a live borrow of the simulator's log on the
    /// serial path, a local buffer on the sharded path (replayed in tid
    /// order at the merge), `Off` when tracing is disabled — every hook
    /// is one branch and never charges cycles.
    trace: TraceLink<'a>,
}

impl<'a> Worker<'a> {
    /// Logical thread id within the region, `0..threads`.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The NUMA node the thread currently runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The hardware thread currently hosting this logical thread.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// This thread's accumulated model cycles so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &nqp_topology::MachineSpec {
        &self.cfg.machine
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        self.cfg
    }

    /// The fault that poisoned this worker, if any. Once set, every
    /// operation on the worker is a cheap no-op; [`NumaSim::try_parallel`]
    /// surfaces the fault when the region ends.
    pub fn fault(&self) -> Option<&SimError> {
        self.fault.as_ref()
    }

    /// Poison this worker with `fault` (used by allocator models and
    /// harness code that detect failure conditions of their own).
    pub fn fail(&mut self, fault: SimError) {
        if self.fault.is_none() {
            self.fault = Some(fault);
        }
    }

    /// Charge pure compute work.
    #[inline]
    pub fn compute(&mut self, cycles: u64) {
        if self.fault.is_some() {
            return;
        }
        self.clock += cycles;
        self.counters.compute_cycles += cycles;
        self.check_events();
    }

    /// Map fresh address space under the configured placement policy.
    ///
    /// On failure (strict `Bind` OOM, machine-wide exhaustion, or an
    /// injected transient fault) the worker is poisoned and the null
    /// address 0 is returned; subsequent accesses through it are no-ops.
    pub fn map_pages(&mut self, bytes: u64) -> VAddr {
        if self.fault.is_some() {
            return 0;
        }
        self.clock += MMAP_SYSCALL_CYCLES;
        self.counters.kernel_cycles += MMAP_SYSCALL_CYCLES;
        if self.alloc_fault_injected() {
            return 0;
        }
        match self
            .memory
            .map(bytes, self.cfg.mem_policy, self.node, self.cfg.thp)
        {
            Ok(addr) => addr,
            Err(e) => {
                self.fail(e);
                0
            }
        }
    }

    /// Map fresh address space that concurrent workers will fault in
    /// uniformly (see `Memory::map_shared` for the modelling rationale).
    /// Fails like [`Worker::map_pages`].
    pub fn map_pages_shared(&mut self, bytes: u64) -> VAddr {
        if self.fault.is_some() {
            return 0;
        }
        self.clock += MMAP_SYSCALL_CYCLES;
        self.counters.kernel_cycles += MMAP_SYSCALL_CYCLES;
        if self.alloc_fault_injected() {
            return 0;
        }
        match self
            .memory
            .map_shared(bytes, self.cfg.mem_policy, self.node, self.cfg.thp)
        {
            Ok(addr) => addr,
            Err(e) => {
                self.fail(e);
                0
            }
        }
    }

    /// Decide (deterministically) whether the fault plan fails this
    /// allocation; poisons the worker and counts the injection if so.
    #[inline]
    fn alloc_fault_injected(&mut self) -> bool {
        let seq = self.alloc_seq;
        self.alloc_seq += 1;
        if self.faults_quiet || !self.faults.alloc_should_fail(self.tid, seq) {
            return false;
        }
        self.counters.alloc_fault_injections += 1;
        if self.trace.enabled() {
            let region = self.region;
            self.trace_event(TraceEvent::AllocFaultInjected { region });
        }
        self.fail(SimError::InjectedAllocFault {
            region: self.region,
            attempt: self.faults.attempt(),
        });
        true
    }

    /// Release a mapping. An invalid range poisons the worker.
    pub fn unmap_pages(&mut self, addr: VAddr, bytes: u64) {
        if self.fault.is_some() {
            return;
        }
        self.clock += MMAP_SYSCALL_CYCLES;
        self.counters.kernel_cycles += MMAP_SYSCALL_CYCLES;
        // The memoized page may be inside the released range; its entry
        // is reset, so the memo must not outlive it.
        self.uwalk = UWalk::EMPTY;
        if let Err(e) = self.memory.unmap(addr, bytes) {
            self.fail(e);
        }
    }

    /// Charge the cost of touching `[addr, addr+len)` without moving data.
    ///
    /// An empty touch is a no-op. (It used to be a `debug_assert!`, which
    /// meant a release build computed `addr + len - 1` with `len == 0`,
    /// wrapped, and walked on the order of 2^58 lines.)
    pub fn touch(&mut self, addr: VAddr, len: u64, access: Access) {
        if self.fault.is_some() || len == 0 {
            return;
        }
        let first = addr / LINE;
        let last = (addr + len - 1) / LINE;
        if self.reference {
            for line in first..=last {
                self.touch_line(line * LINE, access);
                if self.fault.is_some() {
                    return;
                }
            }
        } else {
            self.touch_run(first, last, access);
        }
    }

    /// Group-prefetch hint for a later access to `addr`: issues host
    /// prefetches for the line's LLC tag slot, its writer-table slot (on
    /// `Access::Write`), its page-table entry and the stored bytes. An
    /// operator holding a batch of independent addresses calls this for
    /// the whole batch before charging any of them, so the host misses
    /// of the batch overlap (group prefetching, Chen et al., ICDE 2004).
    ///
    /// Charges nothing and writes nothing: no clock, counter, heat note,
    /// trace event or uWalk change, so any program computes the same
    /// cycles and counters with or without it (DESIGN.md §4e). Safe on
    /// any address, mapped or not, and a no-op on a poisoned worker.
    #[inline]
    pub fn prefetch(&self, addr: VAddr, access: Access) {
        if self.fault.is_some() {
            return;
        }
        self.prefetch_line(addr / LINE * LINE, access);
        self.memory.prefetch_bytes(addr);
    }

    /// Second-level group-prefetch hint: read the `u64` stored at `addr`
    /// on the host, without charging, and [`Worker::prefetch`] the
    /// address it holds when that is nonzero — a bucket head's chain
    /// entry, a slot's chain node. Best after a `prefetch` pass over the
    /// same batch has pulled `addr`'s bytes in.
    ///
    /// The stored value is used only as a prefetch target and never
    /// returned, so it cannot reach a plan: like `prefetch`, this moves
    /// host time only. Safe on any address (unwritten bytes read as
    /// zero, so nothing is followed), a no-op on a poisoned worker.
    #[inline]
    pub fn prefetch_deref(&self, addr: VAddr, access: Access) {
        if self.fault.is_some() || addr > VAddr::MAX - 8 {
            return;
        }
        let mut buf = [0u8; 8];
        self.memory.read_bytes(addr, &mut buf);
        let target = u64::from_le_bytes(buf);
        if target != 0 {
            self.prefetch(target, access);
        }
    }

    /// Group prefetch of a batch of independent addresses: one
    /// [`Worker::prefetch`] pass over all of `addrs`, then one
    /// [`Worker::prefetch_deref`] pass, so the first-level misses of the
    /// whole batch overlap and have landed before their stored pointers
    /// are read. Call it before the charging loop over the same batch;
    /// like both hints, it charges and writes nothing.
    #[inline]
    pub fn prefetch_group(&self, addrs: impl Iterator<Item = VAddr> + Clone, access: Access) {
        for addr in addrs.clone() {
            self.prefetch(addr, access);
        }
        for addr in addrs {
            self.prefetch_deref(addr, access);
        }
    }

    /// Fast-path bulk touch of lines `first..=last`. The L1, writer
    /// table, and LLC are still probed per line (they are cheap
    /// direct-mapped array ops whose per-line state transitions the
    /// model depends on), but all page-invariant work — fault charging,
    /// TLB residency, AutoNUMA hint checks, home-node resolution, and
    /// the DRAM latency arithmetic (precomputed integer tables, so the
    /// sequential-MLP division never runs per line) — is amortised to
    /// once per 4 KB page through the uWalk memo.
    #[inline]
    fn touch_run(&mut self, first: u64, last: u64, access: Access) {
        // Software-pipeline the host-cache misses: the model structures a
        // line needs (LLC tag slot, page-table entry, writer-table slot)
        // live in multi-megabyte host arrays, and walking them serially
        // costs one dependent miss after another. Prefetching the next
        // line's slots while the current line is processed overlaps
        // those misses without touching any model state.
        self.prefetch_line(first * LINE, access);
        for line in first..=last {
            if line < last {
                self.prefetch_line((line + 1) * LINE, access);
            }
            self.touch_line_fast(line * LINE, access);
            if self.fault.is_some() {
                return;
            }
        }
    }

    /// Issue host prefetches for the model structures `touch_line_fast`
    /// will index for `line_addr`. Purely a latency hint (see
    /// [`crate::mix::prefetch`]); model state is never read or written.
    #[inline]
    fn prefetch_line(&self, line_addr: VAddr, access: Access) {
        let line = line_addr / LINE;
        self.caches.prefetch(self.node, line);
        if access == Access::Write {
            let slot = (mix_line(line) as usize) & (WRITER_TABLE_SLOTS - 1);
            crate::mix::prefetch(self.writer_table.slot(slot));
        }
        if self.uwalk.page != line_addr / SMALL_PAGE {
            self.memory.prefetch_page(line_addr);
        }
    }

    /// Prefetch the LLC tag slots and writer-table slots of the
    /// [`STREAM_LOOKAHEAD`] lines after `line`. Called on an L1 miss
    /// whose previous line is still in L1 — a sequential stream, which
    /// will index those slots next, possibly through separate `touch`
    /// calls that `touch_run`'s one-line prefetch cannot see ahead of.
    /// A pure host hint: it reads and writes no model state, so it
    /// cannot change a result. Random probes rarely find their previous
    /// line in L1, so they seldom pay for it.
    #[inline]
    fn stream_lookahead(&self, line: u64) {
        for ahead in line + 1..=line + STREAM_LOOKAHEAD {
            self.caches.prefetch(self.node, ahead);
            let slot = (mix_line(ahead) as usize) & (WRITER_TABLE_SLOTS - 1);
            crate::mix::prefetch(self.writer_table.slot(slot));
        }
    }

    /// The per-line reference model (`SimConfig::reference_model`): the
    /// oracle the page-granular fast path is differentially tested
    /// against. [`Worker::touch_line_fast`] must stay bit-identical to
    /// this function — edit them together.
    #[inline]
    fn touch_line(&mut self, line_addr: VAddr, access: Access) {
        let costs = &self.cfg.costs;
        self.clock += costs.touch_base_cycles;
        if self.heat_on {
            self.heat_note(line_addr / SMALL_PAGE);
        }

        // Private L1 with MESI-style invalidation: a hit is only valid if
        // no other thread wrote the line since we cached it.
        let line = line_addr / LINE;
        let mixed = mix_line(line);
        let slot = (mixed as usize) & (WRITER_TABLE_SLOTS - 1);
        let l1_hit = self.l1.access(line);
        let invalidated = written_by_other(*self.writer_table.slot(slot), mixed, self.tid);
        if access == Access::Write {
            self.writer_table.set(slot, writer_entry(mixed, self.tid));
        }
        if l1_hit && !invalidated {
            self.counters.l1_hits += 1;
            self.last_line = line;
            self.check_events();
            return;
        }

        let res = match self.memory.resolve_touch(line_addr, self.node) {
            Ok(r) => r,
            Err(e) => {
                self.fail(e);
                return;
            }
        };
        if res.faulted {
            let lines_per_page = SMALL_PAGE / LINE;
            let cost = costs.fault_fixed_cycles
                + costs.fault_per_line_cycles * lines_per_page * res.fault_pages;
            self.clock += cost;
            self.counters.kernel_cycles += cost;
            self.counters.page_faults += res.fault_pages;
            if self.trace.enabled() {
                self.trace_event(TraceEvent::PageFault {
                    node: res.node,
                    pages: res.fault_pages,
                });
            }
        }

        // TLB.
        let tag = tlb_tag(line_addr, res.huge);
        let (hit, walk) = if res.huge {
            (self.tlb2.access(tag), costs.walk_2m_cycles)
        } else {
            (self.tlb4.access(tag), costs.walk_4k_cycles)
        };
        if hit {
            self.counters.tlb_hits += 1;
        } else {
            self.clock += walk;
            if res.huge {
                self.counters.tlb_misses_2m += 1;
            } else {
                self.counters.tlb_misses_4k += 1;
            }
        }

        // AutoNUMA sampling.
        let mut home = res.node;
        if self.cfg.autonuma {
            // NUMA-hinting faults: the scanner unmaps each page once per
            // scan period; the first touch afterwards traps, walks page
            // tables, and touches page metadata (real traffic at the
            // page's home controller).
            let epoch = ((self.clock / costs.autonuma_scan_period_cycles) & 0xFF) as u8;
            if self.memory.hint_fault_due(line_addr, epoch) {
                self.clock += costs.autonuma_hint_fault_cycles;
                self.counters.kernel_cycles += costs.autonuma_hint_fault_cycles;
                self.counters.page_faults += 1;
                self.dma_lines(line_addr, 4);
            }
            self.autonuma_countdown -= 1;
            if self.autonuma_countdown == 0 {
                self.autonuma_countdown = AUTONUMA_SAMPLE_EVERY;
                let (migrated, blocked) = self.memory.autonuma_touch(
                    line_addr,
                    self.node,
                    costs.autonuma_migrate_threshold,
                    !self.faults.block_migrations,
                );
                if blocked {
                    // The kernel tried and failed (injected migration
                    // fault): isolate/copy setup was paid, the page stayed.
                    let cost = costs.page_migration_fixed_cycles / 2;
                    self.clock += cost;
                    self.counters.kernel_cycles += cost;
                    self.counters.page_migration_failures += 1;
                    if self.trace.enabled() {
                        self.trace_event(TraceEvent::PageMigrationBlocked { node: home });
                    }
                }
                if migrated > 0 {
                    // One migration event: the kernel rate-limits the
                    // copy work, so a huge frame costs a bounded burst,
                    // not 512 page-sized copies.
                    let cost = costs.page_migration_fixed_cycles;
                    self.clock += cost;
                    self.counters.kernel_cycles += cost;
                    self.counters.page_migrations += migrated;
                    if self.trace.enabled() {
                        self.trace_event(TraceEvent::PageMigration {
                            from_node: home,
                            to_node: self.node,
                            pages: migrated,
                        });
                    }
                    let lines_per_page = SMALL_PAGE / LINE;
                    self.dma_lines(line_addr, lines_per_page * migrated.min(8));
                    home = self.node;
                }
            }
        }

        // LLC of the node the thread currently runs on.
        if self.caches.access(self.node, line_addr / LINE) {
            self.clock += self.cfg.machine.llc.hit_cycles;
            self.counters.cache_hits += 1;
        } else {
            self.counters.cache_misses += 1;
            let mut factor = self.cfg.machine.topology.latency_factor(self.node, home);
            if !self.faults_quiet && home != self.node {
                // Degraded links slow every access routed across them.
                factor *= self
                    .faults
                    .path_latency_mult(&self.link_paths[self.node][home]);
            }
            // The home node's memory tier scales the miss: a slow tier
            // (NVM/CXL) serves reads and writes at asymmetric latency;
            // ×1.0 for DRAM homes, bit-identical to the untiered model.
            let tier = self.cfg.machine.tier_of(home);
            factor *= match access {
                Access::Read => tier.read_factor(),
                Access::Write => tier.write_factor(),
            };
            let mut dram = (self.cfg.machine.dram_latency_cycles as f64 * factor) as u64;
            if line_addr / LINE == self.last_line + 1 {
                // Sequential miss: prefetched/pipelined.
                dram /= self.cfg.costs.mlp.max(1);
            }
            self.clock += dram;
            self.counters.dram_cycles += dram;
            self.dram_lines_by_node[home] += 1;
            if self.tier_slow[home] {
                self.counters.slow_tier_hits += 1;
                self.counters.slow_tier_lines += 1;
            }
            if home == self.node {
                self.counters.local_accesses += 1;
            } else {
                self.counters.remote_accesses += 1;
                for &l in &self.link_paths[self.node][home] {
                    self.link_lines[l as usize] += 1;
                }
            }
        }

        self.last_line = line_addr / LINE;
        self.check_events();
    }

    /// Page-granular fast path, bit-identical to [`Worker::touch_line`]
    /// (see DESIGN.md §4e for the identity argument): page-invariant
    /// work is memoized in the uWalk entry and DRAM latency comes from
    /// the per-region integer tables. Every probe that mutates per-line
    /// state (L1, writer table, LLC) still runs per line.
    #[inline]
    fn touch_line_fast(&mut self, line_addr: VAddr, access: Access) {
        let costs = &self.cfg.costs;
        self.clock += costs.touch_base_cycles;
        if self.heat_on {
            self.heat_note(line_addr / SMALL_PAGE);
        }

        // The writer-table probe is a random read into a multi-megabyte
        // host array. Its value only matters when the line is stored
        // (writes) or when an L1 hit must be checked for invalidation —
        // an L1-missing read never consumes it, so skipping the pure
        // read there is exact and saves the hottest host cache miss on
        // read-dominated scans and probe chains.
        let line = line_addr / LINE;
        let l1_hit = self.l1.access(line);
        if !l1_hit && self.l1.contains(line.wrapping_sub(1)) {
            self.stream_lookahead(line);
        }
        if access == Access::Write {
            let mixed = mix_line(line);
            let slot = (mixed as usize) & (WRITER_TABLE_SLOTS - 1);
            if l1_hit {
                let invalidated = written_by_other(*self.writer_table.slot(slot), mixed, self.tid);
                self.writer_table.set(slot, writer_entry(mixed, self.tid));
                if !invalidated {
                    self.counters.l1_hits += 1;
                    self.last_line = line;
                    self.check_events();
                    return;
                }
            } else {
                // L1-miss write: the previous entry is never consumed, so
                // store without the dependent load — the store retires
                // asynchronously instead of stalling on a cache miss.
                self.writer_table.set(slot, writer_entry(mixed, self.tid));
            }
        } else if l1_hit {
            let mixed = mix_line(line);
            let slot = (mixed as usize) & (WRITER_TABLE_SLOTS - 1);
            if !written_by_other(*self.writer_table.slot(slot), mixed, self.tid) {
                self.counters.l1_hits += 1;
                self.last_line = line;
                self.check_events();
                return;
            }
        }

        // uWalk memo: page resolution and fault charging once per page.
        // A hit is pure to skip — the reference's `resolve_touch` on an
        // already-faulted page only reads, and the fault could only have
        // been charged at the fill below (or silently absorbed by a DMA
        // resolve, which the reference also charges nothing for).
        let page = line_addr / SMALL_PAGE;
        if self.uwalk.page != page {
            let res = match self.memory.resolve_touch(line_addr, self.node) {
                Ok(r) => r,
                Err(e) => {
                    self.fail(e);
                    return;
                }
            };
            if res.faulted {
                let lines_per_page = SMALL_PAGE / LINE;
                let cost = costs.fault_fixed_cycles
                    + costs.fault_per_line_cycles * lines_per_page * res.fault_pages;
                self.clock += cost;
                self.counters.kernel_cycles += cost;
                self.counters.page_faults += res.fault_pages;
                if self.trace.enabled() {
                    self.trace_event(TraceEvent::PageFault {
                        node: res.node,
                        pages: res.fault_pages,
                    });
                }
            }
            self.uwalk = UWalk {
                page,
                node: res.node,
                huge: res.huge,
                tlb_ok: false,
                hint_epoch: u16::MAX,
            };
        }
        let huge = self.uwalk.huge;

        // TLB: with `tlb_ok` the tag is resident and the reference's
        // probe would record a hit without mutating anything.
        if self.uwalk.tlb_ok {
            self.counters.tlb_hits += 1;
        } else {
            let tag = tlb_tag(line_addr, huge);
            let (hit, walk) = if huge {
                (self.tlb2.access(tag), costs.walk_2m_cycles)
            } else {
                (self.tlb4.access(tag), costs.walk_4k_cycles)
            };
            if hit {
                self.counters.tlb_hits += 1;
            } else {
                self.clock += walk;
                if huge {
                    self.counters.tlb_misses_2m += 1;
                } else {
                    self.counters.tlb_misses_4k += 1;
                }
            }
            self.uwalk.tlb_ok = true;
        }

        // AutoNUMA sampling: the hint check runs only when the memoized
        // epoch is stale (`hint_fault_due` with a matching epoch returns
        // false without mutating, so the skip is exact).
        let mut home = self.uwalk.node;
        if self.cfg.autonuma {
            let epoch = self.autonuma_epoch();
            if self.uwalk.hint_epoch != epoch as u16 {
                if self.memory.hint_fault_due(line_addr, epoch) {
                    self.clock += costs.autonuma_hint_fault_cycles;
                    self.counters.kernel_cycles += costs.autonuma_hint_fault_cycles;
                    self.counters.page_faults += 1;
                    self.dma_lines(line_addr, 4);
                }
                self.uwalk.hint_epoch = epoch as u16;
            }
            self.autonuma_countdown -= 1;
            if self.autonuma_countdown == 0 {
                self.autonuma_countdown = AUTONUMA_SAMPLE_EVERY;
                let (migrated, blocked) = self.memory.autonuma_touch(
                    line_addr,
                    self.node,
                    costs.autonuma_migrate_threshold,
                    !self.faults.block_migrations,
                );
                if blocked {
                    let cost = costs.page_migration_fixed_cycles / 2;
                    self.clock += cost;
                    self.counters.kernel_cycles += cost;
                    self.counters.page_migration_failures += 1;
                    if self.trace.enabled() {
                        self.trace_event(TraceEvent::PageMigrationBlocked { node: home });
                    }
                }
                if migrated > 0 {
                    let cost = costs.page_migration_fixed_cycles;
                    self.clock += cost;
                    self.counters.kernel_cycles += cost;
                    self.counters.page_migrations += migrated;
                    if self.trace.enabled() {
                        self.trace_event(TraceEvent::PageMigration {
                            from_node: home,
                            to_node: self.node,
                            pages: migrated,
                        });
                    }
                    // The home moves before the copy traffic is charged
                    // (the reference's nested resolve sees the
                    // post-migration node), so resync the memo first.
                    self.uwalk.node = self.node;
                    let lines_per_page = SMALL_PAGE / LINE;
                    self.dma_lines(line_addr, lines_per_page * migrated.min(8));
                    home = self.node;
                }
            }
        }

        // LLC of the node the thread currently runs on.
        if self.caches.access(self.node, line) {
            self.clock += self.cfg.machine.llc.hit_cycles;
            self.counters.cache_hits += 1;
        } else {
            self.counters.cache_misses += 1;
            let idx = (self.node * self.num_nodes + home) * 2
                + usize::from(access == Access::Write);
            let dram = if line == self.last_line + 1 {
                // Sequential miss: prefetched/pipelined.
                self.lat_seq[idx]
            } else {
                self.lat_full[idx]
            };
            self.clock += dram;
            self.counters.dram_cycles += dram;
            self.dram_lines_by_node[home] += 1;
            if self.tier_slow[home] {
                self.counters.slow_tier_hits += 1;
                self.counters.slow_tier_lines += 1;
            }
            if home == self.node {
                self.counters.local_accesses += 1;
            } else {
                self.counters.remote_accesses += 1;
                for &l in &self.link_paths[self.node][home] {
                    self.link_lines[l as usize] += 1;
                }
            }
        }

        self.last_line = line;
        self.check_events();
    }

    /// Current AutoNUMA scan epoch — the reference's per-line
    /// `(clock / period) & 0xFF`, but paying the division only when the
    /// thread clock crosses into a new period.
    #[inline]
    #[must_use]
    fn autonuma_epoch(&mut self) -> u8 {
        if self.clock >= self.epoch_valid_until {
            let period = self.cfg.costs.autonuma_scan_period_cycles;
            let q = self.clock / period;
            self.epoch_cur = (q & 0xFF) as u8;
            self.epoch_valid_until = q.saturating_add(1).saturating_mul(period);
        }
        self.epoch_cur
    }

    /// Count one page touch for the heat map. Both touch paths call
    /// this at the same point (once per line touched), so heat is
    /// identical under the fast and reference models; it never charges
    /// cycles, so collection cannot perturb results. The one-entry run
    /// memo batches consecutive same-page touches into one map update.
    #[inline]
    fn heat_note(&mut self, page: u64) {
        if page == self.heat_page {
            self.heat_run += 1;
        } else {
            self.heat_flush();
            self.heat_page = page;
            self.heat_run = 1;
        }
    }

    /// Spill the heat run memo into the per-page map.
    fn heat_flush(&mut self) {
        if self.heat_run > 0 {
            *self.heat.entry(self.heat_page).or_insert(0) += self.heat_run;
        }
        self.heat_run = 0;
    }

    /// Charge an uncached, streamed kernel copy of `lines` cache lines
    /// starting at `addr` (page-migration copies, khugepaged compaction):
    /// pipelined DRAM latency per line plus full controller/link demand,
    /// bypassing the caches.
    pub fn dma_lines(&mut self, addr: VAddr, lines: u64) {
        if self.fault.is_some() {
            return;
        }
        // Fast path: a uWalk hit implies the page is faulted, so the
        // reference's resolve would be a pure read of the same node.
        let home = if !self.reference && self.uwalk.page == addr / SMALL_PAGE {
            self.uwalk.node
        } else {
            let res = match self.memory.resolve_touch(addr, self.node) {
                Ok(r) => r,
                Err(e) => {
                    self.fail(e);
                    return;
                }
            };
            if !self.reference {
                // A DMA resolve fills the memo for subsequent demand
                // touches but says nothing about TLB residency (kernel
                // copies bypass the TLBs): `tlb_ok` stays false.
                self.uwalk = UWalk {
                    page: addr / SMALL_PAGE,
                    node: res.node,
                    huge: res.huge,
                    tlb_ok: false,
                    hint_epoch: u16::MAX,
                };
            }
            res.node
        };
        // Kernel copies stream as reads: the slow tier's read factor
        // applies (its write half is charged where the copy lands, a
        // refinement the model folds into the read-side charge).
        let per_line = if self.reference {
            let mut factor = self.cfg.machine.topology.latency_factor(self.node, home);
            if !self.faults_quiet && home != self.node {
                factor *= self
                    .faults
                    .path_latency_mult(&self.link_paths[self.node][home]);
            }
            factor *= self.cfg.machine.tier_of(home).read_factor();
            ((self.cfg.machine.dram_latency_cycles as f64 * factor) as u64
                / self.cfg.costs.mlp.max(1))
            .max(1)
        } else {
            self.lat_seq[(self.node * self.num_nodes + home) * 2].max(1)
        };
        self.clock += per_line * lines;
        self.counters.dram_cycles += per_line * lines;
        self.dram_lines_by_node[home] += lines;
        if self.tier_slow[home] {
            self.counters.slow_tier_lines += lines;
        }
        // Kernel copies consume bandwidth (and cross links) but are not
        // application memory accesses: they stay out of the LAR counters.
        if home != self.node {
            for &l in &self.link_paths[self.node][home] {
                self.link_lines[l as usize] += lines;
            }
        }
        self.check_events();
    }

    /// Write raw bytes, charging access costs. No-op on a poisoned worker.
    pub fn write_bytes(&mut self, addr: VAddr, data: &[u8]) {
        self.touch(addr, data.len() as u64, Access::Write);
        if self.fault.is_none() {
            self.memory.write_bytes(addr, data);
        }
    }

    /// Read raw bytes, charging access costs. A poisoned worker reads
    /// zeroes (the data is discarded with the failed trial anyway).
    pub fn read_bytes(&mut self, addr: VAddr, out: &mut [u8]) {
        self.touch(addr, out.len() as u64, Access::Read);
        if self.fault.is_none() {
            self.memory.read_bytes(addr, out);
        } else {
            out.fill(0);
        }
    }

    /// Read a little-endian `u64`, charging access costs.
    #[inline]
    pub fn read_u64(&mut self, addr: VAddr) -> u64 {
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Write a little-endian `u64`, charging access costs.
    #[inline]
    pub fn write_u64(&mut self, addr: VAddr, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Read a little-endian `u32`, charging access costs.
    #[inline]
    pub fn read_u32(&mut self, addr: VAddr) -> u32 {
        let mut buf = [0u8; 4];
        self.read_bytes(addr, &mut buf);
        u32::from_le_bytes(buf)
    }

    /// Write a little-endian `u32`, charging access costs.
    #[inline]
    pub fn write_u32(&mut self, addr: VAddr, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Read one byte, charging access costs.
    #[inline]
    pub fn read_u8(&mut self, addr: VAddr) -> u8 {
        let mut buf = [0u8; 1];
        self.read_bytes(addr, &mut buf);
        buf[0]
    }

    /// Write one byte, charging access costs.
    #[inline]
    pub fn write_u8(&mut self, addr: VAddr, value: u8) {
        self.write_bytes(addr, &[value]);
    }

    /// Read `out.len()` consecutive little-endian `u64`s with a single
    /// ranged touch — the bulk path hot operators use for tuple-at-once
    /// reads instead of one access charge per field. A poisoned worker
    /// fills `out` with zeroes.
    #[inline]
    pub fn read_u64_run(&mut self, addr: VAddr, out: &mut [u64]) {
        self.touch(addr, (out.len() as u64) * 8, Access::Read);
        if self.fault.is_some() {
            out.fill(0);
            return;
        }
        let mut buf = [0u8; RUN_CHUNK_WORDS * 8];
        for (k, words) in out.chunks_mut(RUN_CHUNK_WORDS).enumerate() {
            let bytes = &mut buf[..words.len() * 8];
            self.memory.read_bytes(addr + (k * RUN_CHUNK_WORDS * 8) as u64, bytes);
            for (v, b) in words.iter_mut().zip(bytes.chunks_exact(8)) {
                *v = b.try_into().map_or(0, u64::from_le_bytes);
            }
        }
    }

    /// Read two consecutive `u64`s (e.g. a 16-byte tuple) in one touch.
    #[inline]
    #[must_use]
    pub fn read_u64_pair(&mut self, addr: VAddr) -> (u64, u64) {
        let mut out = [0u64; 2];
        self.read_u64_run(addr, &mut out);
        (out[0], out[1])
    }

    /// Read three consecutive `u64`s (e.g. a 24-byte hash-table entry)
    /// in one touch.
    #[inline]
    #[must_use]
    pub fn read_u64_triple(&mut self, addr: VAddr) -> (u64, u64, u64) {
        let mut out = [0u64; 3];
        self.read_u64_run(addr, &mut out);
        (out[0], out[1], out[2])
    }

    /// Write `values` as consecutive little-endian `u64`s with a single
    /// ranged touch (e.g. initialising a fresh hash-table entry).
    #[inline]
    pub fn write_u64_run(&mut self, addr: VAddr, values: &[u64]) {
        self.touch(addr, (values.len() as u64) * 8, Access::Write);
        if self.fault.is_some() {
            return;
        }
        let mut buf = [0u8; RUN_CHUNK_WORDS * 8];
        for (k, words) in values.chunks(RUN_CHUNK_WORDS).enumerate() {
            for (v, b) in words.iter().zip(buf.chunks_exact_mut(8)) {
                b.copy_from_slice(&v.to_le_bytes());
            }
            let at = addr + (k * RUN_CHUNK_WORDS * 8) as u64;
            self.memory.write_bytes(at, &buf[..words.len() * 8]);
        }
    }

    /// Read-modify-write one `u64` as a single write-intent access
    /// (an in-place counter bump is one memory operation, not a read
    /// charge plus a write charge). Returns the value written; a
    /// poisoned worker returns 0 without calling `f`.
    #[inline]
    pub fn rmw_u64(&mut self, addr: VAddr, f: impl FnOnce(u64) -> u64) -> u64 {
        self.touch(addr, 8, Access::Write);
        if self.fault.is_some() {
            return 0;
        }
        let mut buf = [0u8; 8];
        self.memory.read_bytes(addr, &mut buf);
        let v = f(u64::from_le_bytes(buf));
        self.memory.write_bytes(addr, &v.to_le_bytes());
        v
    }

    /// Acquire a modelled lock whose critical section lasts `hold_cycles`.
    ///
    /// Charges only the uncontended acquisition cost (an atomic RMW) to
    /// this thread — the critical-section *work* is whatever the caller
    /// does while holding the lock and is charged by those operations
    /// themselves. `hold_cycles` feeds the analytic contention model: at
    /// region resolution every thread is charged an expected wait based
    /// on how heavily other threads held the same lock.
    pub fn lock(&mut self, lock: LockId, hold_cycles: u64) {
        if self.fault.is_some() {
            return;
        }
        const LOCK_ACQUIRE_CYCLES: u64 = 20;
        self.clock += LOCK_ACQUIRE_CYCLES;
        self.locks.record(lock, hold_cycles);
        self.check_events();
    }

    /// Counters accumulated by this thread so far in the region.
    pub fn thread_counters(&self) -> Counters {
        self.counters
    }

    /// Record a trace event at this thread's current model cycle.
    /// A no-op single branch when tracing is disabled; never charges
    /// cycles, so tracing cannot perturb results.
    #[inline]
    fn trace_event(&mut self, event: TraceEvent) {
        let at = self.sim_now + self.clock;
        let tid = self.tid as u32;
        self.trace.push(at, tid, event);
    }

    /// Run the scheduling, preemption, AutoNUMA-scan and budget events
    /// the thread clock has reached. Below the event horizon none is
    /// due, so the common case is one compare.
    #[inline]
    fn check_events(&mut self) {
        if self.clock >= self.horizon {
            self.check_events_slow();
        } else {
            debug_assert!(!self.event_due(), "an event is due below the horizon");
        }
    }

    /// The earliest cycle at which `check_events` has anything to do.
    fn event_horizon(&self) -> u64 {
        self.next_sched_at
            .min(self.next_preempt_at)
            .min(self.next_scan_at)
            .min(self.budget_limit.unwrap_or(u64::MAX))
    }

    /// Whether any rung of the `check_events_slow` ladder would fire
    /// now: the condition the horizon compare stands in for. (The ladder
    /// itself can leave a rung due — a preemption's cycles can carry the
    /// clock past the next migration — which the next check runs, as it
    /// always has.)
    fn event_due(&self) -> bool {
        self.clock >= self.next_sched_at
            || self.clock >= self.next_preempt_at
            || self.clock >= self.next_scan_at
            || self.budget_limit.is_some_and(|limit| self.clock >= limit && self.fault.is_none())
    }

    #[inline(never)]
    fn check_events_slow(&mut self) {
        while self.clock >= self.next_sched_at {
            // OS load balancer migrates this thread.
            self.core_time.push((self.core, self.clock - self.core_since));
            self.core_since = self.clock;
            let from_core = self.core;
            self.core = self.sched.migrate();
            self.node = self.cfg.machine.node_of_core(self.core);
            self.next_sched_at = self.sched.next_event_at();
            self.clock += self.cfg.costs.thread_migration_cycles;
            self.counters.kernel_cycles += self.cfg.costs.thread_migration_cycles;
            self.counters.thread_migrations += 1;
            if self.trace.enabled() {
                let to_core = self.core;
                self.trace_event(TraceEvent::ThreadMigration { from_core, to_core });
            }
            self.tlb4.flush();
            self.tlb2.flush();
            self.l1.flush();
            // The memoized page/node/huge stay correct (migrating the
            // thread moves no pages), but its TLB residency is gone.
            self.uwalk.tlb_ok = false;
        }
        while self.clock >= self.next_preempt_at {
            // Preemption storm: an antagonist process steals the core for
            // a scheduling slice. The thread resumes on the same core but
            // pays the context switch and comes back to cold L1/TLBs.
            self.next_preempt_at = self
                .next_preempt_at
                .saturating_add(self.faults.preempt_period.unwrap_or(u64::MAX));
            self.clock += self.cfg.costs.thread_migration_cycles;
            self.counters.kernel_cycles += self.cfg.costs.thread_migration_cycles;
            self.counters.preemptions += 1;
            if self.trace.enabled() {
                let core = self.core;
                self.trace_event(TraceEvent::Preemption { core });
            }
            self.tlb4.flush();
            self.tlb2.flush();
            self.l1.flush();
            self.uwalk.tlb_ok = false;
        }
        if self.clock >= self.next_scan_at {
            self.clock += self.cfg.costs.autonuma_scan_cycles;
            self.counters.kernel_cycles += self.cfg.costs.autonuma_scan_cycles;
            self.next_scan_at =
                self.clock + self.cfg.costs.autonuma_scan_period_cycles;
        }
        if let Some(limit) = self.budget_limit {
            if self.clock >= limit && self.fault.is_none() {
                self.fault = Some(SimError::Timeout {
                    budget_cycles: self.cfg.trial_budget_cycles.unwrap_or(limit),
                    elapsed_cycles: self.sim_now + self.clock,
                });
            }
        }
        self.horizon = self.event_horizon();
    }

    fn finish(mut self) -> ThreadOutcome {
        self.core_time.push((self.core, self.clock - self.core_since));
        self.heat_flush();
        let Worker {
            clock,
            core_time,
            counters,
            locks,
            dram_lines_by_node,
            link_lines,
            heat,
            fault,
            tlb4,
            tlb2,
            l1,
            sched,
            memory,
            caches,
            writer_table,
            trace,
            ..
        } = self;
        // A sharded worker rolls its arena back and carries its memory
        // overlay and redo sets out for the engine's tid-order merge; a
        // serial worker mutated canonical state in place and carries
        // nothing.
        let shard = match (memory, caches, writer_table) {
            (MemLink::Shard(view), CacheLink::Shard(views), WriterLink::Shard(writer)) => {
                Some(ShardDelta {
                    mem: view.into_delta(),
                    // Every view rolls its arena back, touched or not.
                    llcs: views
                        .into_iter()
                        .map(|v| {
                            let redo = v.tags.finish();
                            v.touched.then_some(redo)
                        })
                        .collect(),
                    writer: writer.finish(),
                    trace: match trace {
                        TraceLink::Buffer(b) => b,
                        _ => Vec::new(),
                    },
                })
            }
            _ => None,
        };
        let mut heat: Vec<(u64, u64)> = heat.into_iter().collect();
        heat.sort_unstable();
        ThreadOutcome {
            stats: ThreadOutcome2 {
                clock,
                core_time,
                counters,
                locks,
                dram_lines_by_node,
                link_lines,
                heat,
                fault,
            },
            tlb4,
            tlb2,
            l1,
            sched,
            shard,
        }
    }
}

/// Mixer for the writer-table slot index.
#[inline]
fn mix_line(x: u64) -> u64 {
    crate::mix::xor_mul_shift(x, 30, 0xbf58_476d_1ce4_e5b9, 27)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MemPolicy, ThreadPlacement};
    use nqp_topology::machines;
    use std::collections::HashSet;

    fn quiet_cfg(machine: nqp_topology::MachineSpec) -> SimConfig {
        SimConfig::os_default(machine)
            .with_threads(ThreadPlacement::Sparse)
            .with_autonuma(false)
            .with_thp(false)
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut sim = NumaSim::new(SimConfig::os_default(machines::machine_a()));
            let stats = sim.try_parallel(4, &mut (), |w, _| {
                let a = w.map_pages(1 << 16);
                for i in 0..256 {
                    w.write_u64(a + i * 64, i);
                }
                w.compute(1000);
            }).unwrap();
            (stats.elapsed_cycles, sim.counters())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn first_touch_places_pages_on_toucher() {
        let mut sim = NumaSim::new(quiet_cfg(machines::machine_b()));
        let mut addrs = Vec::new();
        sim.try_parallel(4, &mut addrs, |w, addrs| {
            let a = w.map_pages(SMALL_PAGE);
            w.write_u64(a, w.tid() as u64);
            addrs.push((w.tid(), a, w.node()));
        }).unwrap();
        for (_, addr, node) in addrs {
            assert_eq!(sim.node_of(addr), Some(node));
        }
    }

    #[test]
    fn interleave_spreads_one_threads_pages() {
        let cfg = quiet_cfg(machines::machine_b()).with_policy(MemPolicy::Interleave);
        let mut sim = NumaSim::new(cfg);
        let mut addr = 0;
        sim.try_serial(&mut addr, |w, addr| {
            *addr = w.map_pages(SMALL_PAGE * 8);
            for p in 0..8 {
                w.write_u64(*addr + p * SMALL_PAGE, p);
            }
        }).unwrap();
        let nodes: Vec<_> = (0..8)
            .map(|p| sim.node_of(addr + p * SMALL_PAGE).unwrap())
            .collect();
        assert_eq!(nodes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // 3 of 4 pages are remote for the node-0 thread.
        let c = sim.counters();
        assert!(c.remote_accesses > c.local_accesses);
    }

    #[test]
    fn repeated_access_hits_cache() {
        let mut sim = NumaSim::new(quiet_cfg(machines::machine_b()));
        let mut addr = 0;
        sim.try_serial(&mut addr, |w, addr| {
            *addr = w.map_pages(SMALL_PAGE);
            w.write_u64(*addr, 1);
        }).unwrap();
        let before = sim.counters();
        sim.try_serial(&mut addr, |w, addr| {
            for _ in 0..100 {
                w.read_u64(*addr);
            }
        }).unwrap();
        let delta = sim.counters() - before;
        // Repeats are served by the L1 (or the LLC after a migration);
        // DRAM is never touched again.
        assert!(delta.l1_hits + delta.cache_hits >= 99, "{delta:?}");
        assert_eq!(delta.cache_misses, 0);
    }

    #[test]
    fn flush_caches_forces_misses() {
        let mut sim = NumaSim::new(quiet_cfg(machines::machine_b()));
        let mut addr = 0;
        sim.try_serial(&mut addr, |w, addr| {
            *addr = w.map_pages(SMALL_PAGE);
            w.write_u64(*addr, 1);
        }).unwrap();
        sim.flush_caches();
        let before = sim.counters().cache_misses;
        sim.try_serial(&mut addr, |w, addr| {
            w.read_u64(*addr);
        }).unwrap();
        assert_eq!(sim.counters().cache_misses - before, 1);
    }

    #[test]
    fn byte_data_round_trips_through_workers() {
        let mut sim = NumaSim::new(quiet_cfg(machines::machine_b()));
        let mut addr = 0;
        sim.try_serial(&mut addr, |w, addr| {
            *addr = w.map_pages(SMALL_PAGE);
            w.write_u64(*addr + 16, 0xdead_beef);
            w.write_u32(*addr + 24, 7);
            w.write_u8(*addr + 28, 9);
        }).unwrap();
        sim.try_serial(&mut addr, |w, addr| {
            assert_eq!(w.read_u64(*addr + 16), 0xdead_beef);
            assert_eq!(w.read_u32(*addr + 24), 7);
            assert_eq!(w.read_u8(*addr + 28), 9);
            assert_eq!(w.read_u64(*addr), 0, "untouched memory reads zero");
        }).unwrap();
    }

    #[test]
    fn unbound_threads_migrate_affinitized_do_not() {
        let long_run = |placement| {
            let cfg = SimConfig::os_default(machines::machine_a())
                .with_threads(placement)
                .with_autonuma(false)
                .with_thp(false);
            let mut sim = NumaSim::new(cfg);
            sim.try_parallel(8, &mut (), |w, _| {
                let a = w.map_pages(1 << 20);
                for rep in 0..4u64 {
                    for i in 0..(1 << 14) {
                        w.write_u64(a + (i * 64) % (1 << 20), rep + i);
                    }
                }
            }).unwrap();
            sim.counters().thread_migrations
        };
        assert_eq!(long_run(ThreadPlacement::Sparse), 0);
        assert!(long_run(ThreadPlacement::None) > 0);
    }

    #[test]
    fn autonuma_migrates_remotely_hammered_pages() {
        let cfg = quiet_cfg(machines::machine_b()).with_autonuma(true);
        let mut sim = NumaSim::new(cfg);
        let mut addr = 0;
        // Thread on node 0 faults the pages...
        sim.try_serial(&mut addr, |w, addr| {
            *addr = w.map_pages(SMALL_PAGE * 16);
            for p in 0..16 {
                w.write_u64(*addr + p * SMALL_PAGE, p);
            }
        }).unwrap();
        // ...then threads on other nodes hammer them.
        sim.try_parallel(4, &mut addr, |w, addr| {
            if w.tid() == 1 {
                for rep in 0..200u64 {
                    for p in 0..16 {
                        w.read_u64(*addr + p * SMALL_PAGE + (rep % 8) * 64);
                    }
                }
            }
        }).unwrap();
        assert!(
            sim.counters().page_migrations > 0,
            "AutoNUMA never migrated a page"
        );
    }

    #[test]
    fn preferred_saturates_one_controller() {
        let run = |policy| {
            let cfg = quiet_cfg(machines::machine_a()).with_policy(policy);
            let mut sim = NumaSim::new(cfg);
            let stats = sim.try_parallel(16, &mut (), |w, _| {
                let a = w.map_pages(1 << 22);
                // Stream far beyond LLC to force DRAM traffic.
                for i in 0..(1 << 16) {
                    w.write_u64(a + i * 64, i);
                }
            }).unwrap();
            stats
        };
        let pref = run(MemPolicy::Preferred(0));
        let inter = run(MemPolicy::Interleave);
        // Preferred funnels all demand to node 0; Interleave spreads it.
        assert!(
            pref.controller_utilisation[1..].iter().all(|&u| u < 0.05),
            "pref={:?}",
            pref.controller_utilisation
        );
        let spread = inter
            .controller_utilisation
            .iter()
            .filter(|&&u| u > 0.01)
            .count();
        assert!(spread >= 4, "inter={:?}", inter.controller_utilisation);
        assert!(pref.elapsed_cycles > inter.elapsed_cycles);
    }

    #[test]
    fn oversubscription_extends_elapsed_time() {
        // 32 threads on machine A's 16 hardware threads must take ~2x the
        // per-thread time.
        let cfg = quiet_cfg(machines::machine_a());
        let mut sim = NumaSim::new(cfg);
        let stats = sim.try_parallel(32, &mut (), |w, _| {
            w.compute(100_000);
        }).unwrap();
        assert!(stats.elapsed_cycles >= 200_000);
        assert_eq!(stats.max_thread_cycles, 100_000);
    }

    #[test]
    fn lock_contention_charges_waits() {
        let cfg = quiet_cfg(machines::machine_b());
        let mut sim = NumaSim::new(cfg);
        let lock = sim.new_lock();
        let stats = sim.try_parallel(8, &mut (), |w, _| {
            for _ in 0..100 {
                w.lock(lock, 500);
                w.compute(100);
            }
        }).unwrap();
        assert!(stats.counters.lock_wait_cycles > 0);
        assert!(stats.elapsed_cycles > stats.counters.lock_wait_cycles / 8);
    }

    #[test]
    fn thp_reduces_tlb_misses_on_big_scans() {
        let run = |thp: bool| {
            let cfg = quiet_cfg(machines::machine_a()).with_thp(thp);
            let mut sim = NumaSim::new(cfg);
            sim.try_serial(&mut (), |w, _| {
                let a = w.map_pages(64 << 20);
                // Touch one line per page over 16k pages, twice: the second
                // pass exceeds the 4k TLB (544 entries) but fits the 2M
                // side (8 entries x 2MB... it does not fit either, but far
                // fewer distinct huge tags exist).
                for _ in 0..2 {
                    for p in 0..(16 << 10) {
                        w.read_u64(a + p * SMALL_PAGE);
                    }
                }
            }).unwrap();
            let c = sim.counters();
            (c.tlb_misses_4k, c.tlb_misses_2m)
        };
        let (m4_off, m2_off) = run(false);
        let (m4_on, m2_on) = run(true);
        assert_eq!(m2_off, 0);
        assert_eq!(m4_on, 0);
        assert!(
            m2_on < m4_off / 4,
            "huge pages should slash TLB misses: 4k={m4_off} 2m={m2_on}"
        );
    }

    #[test]
    fn unpinned_placement_persists_across_regions() {
        // A thread that faults pages in one region must still be local to
        // them in the next (the settled-server property): re-reading its
        // own page produces zero remote accesses.
        let cfg = SimConfig::os_default(machines::machine_b())
            .with_autonuma(false)
            .with_thp(false)
            .with_settled_scheduler(true);
        let mut sim = NumaSim::new(cfg);
        let mut addrs = vec![0u64; 4];
        sim.try_parallel(4, &mut addrs, |w, addrs| {
            let a = w.map_pages(SMALL_PAGE);
            w.write_u64(a, 1);
            addrs[w.tid()] = a;
        }).unwrap();
        sim.flush_caches();
        let before = sim.counters();
        sim.try_parallel(4, &mut addrs, |w, addrs| {
            w.read_u64(addrs[w.tid()]);
        }).unwrap();
        let delta = sim.counters() - before;
        assert_eq!(delta.remote_accesses, 0, "threads moved between regions");
        assert_eq!(delta.local_accesses, 4);
    }

    #[test]
    fn dma_lines_add_demand_without_lar_noise() {
        let mut sim = NumaSim::new(quiet_cfg(machines::machine_b()));
        let mut addr = 0;
        sim.try_serial(&mut addr, |w, addr| {
            *addr = w.map_pages(SMALL_PAGE);
            w.write_u64(*addr, 1);
        }).unwrap();
        let before = sim.counters();
        let stats = sim.try_serial(&mut addr, |w, addr| {
            w.dma_lines(*addr, 16);
        }).unwrap();
        let delta = sim.counters() - before;
        // Demand shows on the controller; LAR counters stay untouched.
        assert!(stats.controller_utilisation.iter().any(|&u| u > 0.0));
        assert_eq!(delta.remote_accesses, 0);
        assert!(delta.dram_cycles > 0);
    }

    #[test]
    fn map_pages_shared_spreads_under_first_touch() {
        let cfg = quiet_cfg(machines::machine_b());
        let mut sim = NumaSim::new(cfg);
        let mut addr = 0;
        sim.try_serial(&mut addr, |w, addr| {
            *addr = w.map_pages_shared(SMALL_PAGE * 4);
        }).unwrap();
        let nodes: Vec<_> = (0..4)
            .map(|p| sim.node_of(addr + p * SMALL_PAGE).unwrap())
            .collect();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn region_stats_report_threads_and_bottleneck() {
        let mut sim = NumaSim::new(quiet_cfg(machines::machine_b()));
        let stats = sim.try_parallel(3, &mut (), |w, _| w.compute(10)).unwrap();
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.bottleneck, Bottleneck::ThreadLatency);
        assert_eq!(stats.elapsed_cycles, 10);
    }

    #[test]
    fn bind_policy_fails_strictly_when_node_is_full() {
        let mut machine = machines::machine_b();
        machine.mem_per_node_bytes = 4 * SMALL_PAGE;
        let cfg = quiet_cfg(machine).with_policy(MemPolicy::Bind(1));
        let mut sim = NumaSim::new(cfg);
        let err = sim
            .try_serial(&mut (), |w, _| {
                let a = w.map_pages(SMALL_PAGE * 8);
                w.write_u64(a, 1);
            })
            .unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { node: 1, .. }), "{err}");
        // Nothing leaked from the failed strict allocation.
        assert!(sim.node_used_pages().iter().all(|&p| p == 0));
    }

    #[test]
    fn injected_alloc_fault_poisons_and_clears_on_retry_attempt() {
        let run = |attempt: u32| {
            let plan = FaultPlan::new(3).with_alloc_fail(0, 0, 1);
            let cfg = quiet_cfg(machines::machine_b())
                .with_faults(plan)
                .with_fault_attempt(attempt);
            let mut sim = NumaSim::new(cfg);
            let mut writes = 0u64;
            let r = sim.try_serial(&mut writes, |w, writes| {
                let a = w.map_pages(SMALL_PAGE);
                w.write_u64(a, 7);
                if w.fault().is_none() {
                    *writes += 1;
                }
            });
            (r, writes)
        };
        let (r0, writes0) = run(0);
        let err = r0.unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(writes0, 0, "poisoned worker must not report progress");
        let (r1, writes1) = run(1);
        assert!(r1.is_ok(), "fault must clear on the retry attempt");
        assert_eq!(writes1, 1);
    }

    #[test]
    fn trial_budget_times_out_long_regions() {
        let cfg = quiet_cfg(machines::machine_b()).with_trial_budget(50_000);
        let mut sim = NumaSim::new(cfg);
        let err = sim
            .try_serial(&mut (), |w, _| {
                for _ in 0..100 {
                    w.compute(10_000);
                }
            })
            .unwrap_err();
        assert!(matches!(err, SimError::Timeout { budget_cycles: 50_000, .. }), "{err}");
        // An under-budget region still succeeds.
        let cfg = quiet_cfg(machines::machine_b()).with_trial_budget(50_000);
        let mut sim = NumaSim::new(cfg);
        assert!(sim.try_serial(&mut (), |w, _| w.compute(10_000)).is_ok());
    }

    #[test]
    fn budget_timeout_dominates_earlier_faults() {
        // The region error used to be the lowest-tid fault: when
        // thread 0 caught an injected fault and thread 1 blew the
        // trial budget, the trial reported `Faulted` — conflating a
        // timeout the watchdog would have killed the attempt for
        // anyway. Timeout must dominate.
        let run = |budget: u64| {
            let plan = FaultPlan::new(3).with_alloc_fail(0, 0, 1);
            let cfg = quiet_cfg(machines::machine_b())
                .with_faults(plan)
                .with_trial_budget(budget);
            let mut sim = NumaSim::new(cfg);
            sim.try_parallel(2, &mut (), |w, _| {
                if w.tid() == 0 {
                    let a = w.map_pages(SMALL_PAGE); // injected fault fires here
                    w.write_u64(a, 1);
                } else {
                    for _ in 0..100 {
                        w.compute(10_000); // blows a 50k budget
                    }
                }
            })
            .unwrap_err()
        };
        let err = run(50_000);
        assert!(matches!(err, SimError::Timeout { budget_cycles: 50_000, .. }), "{err}");
        // Under an ample budget, the injected fault still wins.
        let err = run(50_000_000);
        assert!(err.is_transient(), "{err}");
    }

    #[test]
    fn deadline_abandons_at_region_boundary_charging_burned_cycles() {
        let cfg = quiet_cfg(machines::machine_b()).with_deadline(10_000);
        let mut sim = NumaSim::new(cfg);
        // The first region runs to completion even though it crosses
        // the deadline mid-region — cancellation is cooperative.
        let stats = sim.try_serial(&mut (), |w, _| w.compute(25_000)).unwrap();
        assert!(stats.elapsed_cycles >= 25_000);
        let burned = sim.now_cycles();
        // The next region boundary observes the passed deadline.
        let err = sim.try_serial(&mut (), |w, _| w.compute(1)).unwrap_err();
        match err {
            SimError::DeadlineExceeded { deadline_cycles, elapsed_cycles } => {
                assert_eq!(deadline_cycles, 10_000);
                assert_eq!(elapsed_cycles, burned, "burned cycles stay charged");
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        // A fresh sim with an ample deadline never trips.
        let cfg = quiet_cfg(machines::machine_b()).with_deadline(10_000_000);
        let mut sim = NumaSim::new(cfg);
        assert!(sim.try_serial(&mut (), |w, _| w.compute(1_000)).is_ok());
        assert!(sim.try_serial(&mut (), |w, _| w.compute(1_000)).is_ok());
    }

    #[test]
    fn preemption_storm_flushes_and_counts() {
        let plan = FaultPlan::new(0).with_event(
            0,
            0,
            crate::fault::FaultKind::PreemptionStorm { period_cycles: 5_000 },
        );
        let cfg = quiet_cfg(machines::machine_b()).with_faults(plan);
        let mut sim = NumaSim::new(cfg);
        let stats = sim
            .try_serial(&mut (), |w, _| w.compute(50_000))
            .unwrap();
        assert!(stats.counters.preemptions >= 5, "{:?}", stats.counters);
        assert_eq!(stats.counters.thread_migrations, 0, "storms are not migrations");
    }

    #[test]
    fn migration_failure_blocks_autonuma_and_counts() {
        let run = |migfail: bool| {
            let mut plan = FaultPlan::new(0);
            if migfail {
                plan = plan.with_event(0, u64::MAX, crate::fault::FaultKind::MigrationFail);
            }
            let cfg = quiet_cfg(machines::machine_b())
                .with_autonuma(true)
                .with_faults(plan);
            let mut sim = NumaSim::new(cfg);
            let mut addr = 0;
            sim.try_serial(&mut addr, |w, addr| {
                *addr = w.map_pages(SMALL_PAGE * 16);
                for p in 0..16 {
                    w.write_u64(*addr + p * SMALL_PAGE, p);
                }
            })
            .unwrap();
            sim.try_parallel(4, &mut addr, |w, addr| {
                if w.tid() == 1 {
                    for rep in 0..200u64 {
                        for p in 0..16 {
                            w.read_u64(*addr + p * SMALL_PAGE + (rep % 8) * 64);
                        }
                    }
                }
            })
            .unwrap();
            sim.counters()
        };
        let healthy = run(false);
        let degraded = run(true);
        assert!(healthy.page_migrations > 0);
        assert_eq!(healthy.page_migration_failures, 0);
        assert_eq!(degraded.page_migrations, 0, "blocked migrations must not move pages");
        assert!(degraded.page_migration_failures > 0);
    }

    #[test]
    fn link_degradation_slows_remote_traffic() {
        let run = |lat: f64| {
            let mut cfg = quiet_cfg(machines::machine_b())
                .with_policy(MemPolicy::Preferred(1));
            if lat > 1.0 {
                let num_links = cfg.machine.topology.links().len();
                let mut plan = FaultPlan::new(0);
                for l in 0..num_links {
                    plan = plan.with_event(
                        0,
                        u64::MAX,
                        crate::fault::FaultKind::LinkDegrade {
                            link: l,
                            latency_x: lat,
                            bandwidth_div: 1.0,
                        },
                    );
                }
                cfg = cfg.with_faults(plan);
            }
            let mut sim = NumaSim::new(cfg);
            sim.try_serial(&mut (), |w, _| {
                let a = w.map_pages(1 << 20);
                for i in 0..(1 << 12) {
                    // Strided reads defeat the streaming detector: full
                    // remote latency on every miss.
                    w.read_u64(a + (i * 8192) % (1 << 20));
                }
            })
            .unwrap()
            .elapsed_cycles
        };
        let healthy = run(1.0);
        let degraded = run(4.0);
        assert!(
            degraded > healthy + healthy / 4,
            "degraded links must slow remote-heavy runs: {healthy} vs {degraded}"
        );
    }

    #[test]
    fn touch_with_len_zero_is_a_noop() {
        // Regression: `addr + len - 1` used to wrap in release builds
        // (the guard was only a debug_assert) and walk ~2^58 lines.
        let mut sim = NumaSim::new(quiet_cfg(machines::machine_b()));
        let mut addr = 0;
        sim.try_serial(&mut addr, |w, addr| {
            *addr = w.map_pages(SMALL_PAGE);
            w.write_u64(*addr, 1);
        }).unwrap();
        let before = sim.counters();
        let empty = sim.try_serial(&mut (), |_, _| {}).unwrap().elapsed_cycles;
        let elapsed = sim
            .try_serial(&mut addr, |w, addr| {
                w.touch(*addr, 0, Access::Read);
                w.read_bytes(*addr, &mut []);
                w.write_bytes(*addr, &[]);
            }).unwrap()
            .elapsed_cycles;
        assert_eq!(elapsed, empty, "an empty touch must charge nothing");
        assert_eq!(sim.counters(), before);
    }

    /// Differential harness: the same workload under the fast path and
    /// the per-line reference model must agree on every cycle and
    /// counter. The heavy mixed-workload sweep lives in
    /// `tests/hotpath.rs`; this is the in-crate smoke version.
    fn assert_paths_agree(cfg: SimConfig, threads: usize) {
        let run = |reference: bool| {
            let mut sim = NumaSim::new(cfg.clone().with_reference_model(reference));
            let mut stats = Vec::new();
            for round in 0..3u64 {
                let s = sim.try_parallel(threads, &mut (), |w, _| {
                    let a = w.map_pages(SMALL_PAGE * 32);
                    for i in 0..(SMALL_PAGE * 32 / 64) {
                        w.touch(a + i * 64, 64, Access::Write);
                    }
                    // Strided re-reads, cross-line and page-crossing
                    // ranged touches, an unmap, and a DMA burst.
                    for i in 0..512u64 {
                        w.read_u64(a + (i * 4096 + round * 24) % (SMALL_PAGE * 31));
                    }
                    w.touch(a + SMALL_PAGE - 8, 4096, Access::Read);
                    w.dma_lines(a + SMALL_PAGE, 16);
                    w.unmap_pages(a, SMALL_PAGE * 32);
                    let b = w.map_pages(SMALL_PAGE * 4);
                    w.read_u64_run(b, &mut [0u64; 8]);
                    w.rmw_u64(b + 64, |v| v + 1);
                }).unwrap();
                stats.push((s.elapsed_cycles, s.counters));
            }
            (sim.now_cycles(), sim.counters(), stats)
        };
        let fast = run(false);
        let reference = run(true);
        assert_eq!(fast.0, reference.0, "elapsed cycles diverge");
        assert_eq!(fast.1, reference.1, "counters diverge");
        assert_eq!(fast.2, reference.2, "per-region stats diverge");
    }

    #[test]
    fn fast_path_matches_reference_quiet() {
        assert_paths_agree(quiet_cfg(machines::machine_b()), 4);
    }

    #[test]
    fn fast_path_matches_reference_os_default() {
        // AutoNUMA on, THP on, unpinned threads: hint faults, epoch
        // math, migrations, and TLB flushes all in play.
        assert_paths_agree(SimConfig::os_default(machines::machine_b()), 4);
    }

    #[test]
    fn fast_path_matches_reference_under_faults() {
        let plan = FaultPlan::new(9)
            .with_event(
                0,
                u64::MAX,
                crate::fault::FaultKind::LinkDegrade {
                    link: 0,
                    latency_x: 3.0,
                    bandwidth_div: 2.0,
                },
            )
            .with_event(
                1,
                u64::MAX,
                crate::fault::FaultKind::PreemptionStorm { period_cycles: 40_000 },
            )
            .with_event(2, u64::MAX, crate::fault::FaultKind::MigrationFail);
        assert_paths_agree(
            SimConfig::os_default(machines::machine_b()).with_faults(plan),
            4,
        );
    }

    // ---- sharded-region merge rules, at shards 1, 2 and 3 -----------

    /// What one worker of a merge-rule region touches: `(first line,
    /// lines, access)`, in lines from the arena base (0 lines = nothing).
    type LinePlan = (u64, u64, Access);

    /// A machine-B simulator with three threads packed on node 0 and
    /// `lines` lines mapped, the first `warm` of them written in a
    /// serial region (LLC-resident and in the writer table at the next
    /// region's start).
    fn merge_sim(shards: usize, lines: u64, warm: u64) -> (NumaSim, VAddr) {
        let cfg = quiet_cfg(machines::machine_b())
            .with_threads(ThreadPlacement::Dense)
            .with_shards(shards);
        let mut sim = NumaSim::new(cfg);
        let mut base = 0;
        sim.try_serial(&mut base, |w, base| {
            *base = w.map_pages(lines * LINE);
            w.touch(*base, warm * LINE, Access::Write);
        })
        .unwrap();
        (sim, base)
    }

    /// One three-thread sharded region running `plans[tid]` per worker.
    fn run_plans(sim: &mut NumaSim, base: VAddr, plans: &[LinePlan]) -> SimResult<RegionStats> {
        sim.try_parallel_sharded(plans.len(), plans, |w, plans| {
            let (first, lines, access) = plans[w.tid()];
            w.touch(base + first * LINE, lines * LINE, access);
        })
        .map(|(stats, _)| stats)
    }

    fn writer_slot(line: u64) -> usize {
        (mix_line(line) as usize) & (WRITER_TABLE_SLOTS - 1)
    }

    /// The packed entry of `line` last written by `tid`.
    fn entry(line: u64, tid: usize) -> u64 {
        writer_entry(mix_line(line), tid)
    }

    /// Distinct LLC slots a run of `lines` lines from line `first` maps to.
    fn distinct_llc_slots(sim: &NumaSim, base: VAddr, first: u64, lines: u64) -> usize {
        let mask = sim.caches[0].capacity_lines() as u64 - 1;
        let line0 = base / LINE + first;
        let llc: HashSet<usize> = (line0..line0 + lines).map(|l| slot_of(mask, l)).collect();
        llc.len()
    }

    #[test]
    fn sharded_llc_goes_to_the_last_toucher_even_when_it_only_hit() {
        const W: Access = Access::Write;
        const R: Access = Access::Read;
        for shards in 1..=3 {
            // tid 2 re-reads the 64 warm lines, which sit in 64 distinct
            // slots: every access hits, so node 0's LLC ends at the
            // region-start image and tids 0 and 1's insertions are gone.
            let (mut sim, base) = merge_sim(shards, 4096, 64);
            assert_eq!(distinct_llc_slots(&sim, base, 0, 64), 64);
            let start = sim.caches.clone();
            let misses = sim.counters().cache_misses;
            run_plans(&mut sim, base, &[(1000, 500, W), (2000, 500, R), (0, 64, R)]).unwrap();
            assert_eq!(sim.counters().cache_misses - misses, 1000, "shards={shards}");
            assert_eq!(sim.caches, start, "shards={shards}: hit-only last toucher");

            // tid 2 inserts: node 0's LLC is the region-start image plus
            // tid 2's insertions alone — what a run of tid 2 by itself
            // leaves.
            let (mut sim, base) = merge_sim(shards, 4096, 64);
            run_plans(&mut sim, base, &[(1000, 500, W), (2000, 500, R), (3000, 500, R)]).unwrap();
            let (mut solo, base) = merge_sim(shards, 4096, 64);
            run_plans(&mut solo, base, &[(0, 0, W), (0, 0, R), (3000, 500, R)]).unwrap();
            assert_ne!(solo.caches, start);
            assert_eq!(sim.caches, solo.caches, "shards={shards}: last toucher's image");
        }
    }

    #[test]
    fn sharded_writer_slots_go_to_the_later_tid() {
        const W: Access = Access::Write;
        for shards in 1..=3 {
            let (mut sim, base) = merge_sim(shards, 4096, 0);
            let (l10, l20) = (base / LINE + 10, base / LINE + 20);
            assert_ne!(writer_slot(l10), writer_slot(l20));
            run_plans(&mut sim, base, &[(0, 0, W), (10, 1, W), (0, 0, W)]).unwrap();
            assert_eq!(sim.writer_table[writer_slot(l10)], entry(l10, 1));
            // tid 0 stores (l10, 0); tid 1 stores (l10, 1), the slot's
            // prior value, and still wins as the later tid.
            run_plans(&mut sim, base, &[(10, 1, W), (10, 1, W), (20, 1, W)]).unwrap();
            assert_eq!(sim.writer_table[writer_slot(l10)], entry(l10, 1), "shards={shards}");
            assert_eq!(sim.writer_table[writer_slot(l20)], entry(l20, 2), "shards={shards}");
            // With tid 1 not writing, tid 0's store lands.
            run_plans(&mut sim, base, &[(10, 1, W), (0, 0, W), (0, 0, W)]).unwrap();
            assert_eq!(sim.writer_table[writer_slot(l10)], entry(l10, 0), "shards={shards}");
        }
    }

    #[test]
    fn undo_table_restores_the_arena_and_returns_every_store() {
        let start: Vec<u64> = (0..1024).map(|i| i << 20 | 7).collect();
        let mut arena = start.clone();
        let mut dirty = vec![0u64; 16];
        let mut table = UndoTable::new(&mut arena, &mut dirty);
        let mut expect = BTreeMap::new();
        // Slot (k * 37) % 1024 is distinct for every k < 1024; every
        // fifth store rewrites the slot's region-start value, and the
        // first ten slots are stored twice.
        for k in (0..900usize).chain(0..10) {
            let i = (k * 37) % 1024;
            let value = if k % 5 == 0 { start[i] } else { (k as u64) << 20 | (k as u64 + 1) };
            table.set(i, value);
            assert_eq!(*table.slot(i), value);
            expect.insert(i as u32, value);
        }
        let mut redo = table.finish();
        redo.sort_unstable_by_key(|&(i, _)| i);
        assert_eq!(redo, expect.into_iter().collect::<Vec<_>>());
        assert_eq!(arena, start, "arena not rolled back");
        assert!(dirty.iter().all(|&w| w == 0), "bitmap not cleared");
    }

    /// The `(line, tid)` entry the packed one replaced, with its rule.
    #[derive(Clone, Copy)]
    struct Unpacked(u64, u32);
    const UNPACKED_EMPTY: Unpacked = Unpacked(u64::MAX, u32::MAX);

    fn unpacked_invalidates(e: Unpacked, line: u64, tid: usize) -> bool {
        e.0 == line && e.1 != tid as u32
    }

    #[test]
    fn packed_writer_entries_follow_the_unpacked_rule() {
        // Two lines colliding in one slot: same low bits of the mix.
        let a = 4096u64;
        let b = (a + 1..)
            .find(|&l| writer_slot(l) == writer_slot(a))
            .expect("a colliding line");
        let other = (a + 1..).find(|&l| writer_slot(l) != writer_slot(a)).expect("a line");
        let tids = [0, 1, 7, MAX_THREADS - 1];
        // The slot of `a` after each history, packed and unpacked.
        let mut histories: Vec<(u64, Unpacked)> = vec![(0, UNPACKED_EMPTY)];
        for &line in &[a, b] {
            for &t in &tids {
                histories.push((entry(line, t), Unpacked(line, t as u32)));
            }
        }
        for (packed, unpacked) in histories {
            for &probe in &[a, b, other] {
                // Probe only lines sharing the slot (the engine never
                // reads another line's slot); `other` checks the empty
                // slot against a foreign mix.
                if writer_slot(probe) != writer_slot(a) && packed != 0 {
                    continue;
                }
                for &t in &tids {
                    assert_eq!(
                        written_by_other(packed, mix_line(probe), t),
                        unpacked_invalidates(unpacked, probe, t),
                        "entry {packed:#x}, line {probe}, tid {t}"
                    );
                }
            }
        }
        // A tid at the bound keeps its own bits and stays distinct from
        // the empty slot and from its neighbour.
        let top = entry(a, MAX_THREADS - 1);
        assert_eq!(top & WRITER_TID_MASK, MAX_THREADS as u64);
        assert!(written_by_other(top, mix_line(a), MAX_THREADS - 2));
        assert!(!written_by_other(top, mix_line(a), MAX_THREADS - 1));
    }

    #[test]
    fn thread_counts_past_the_packed_tid_fail_typed() {
        assert_eq!(MAX_THREADS, 1_048_575);
        assert!(check_threads(1).is_ok());
        assert!(check_threads(0).is_err());
        assert!(check_threads(MAX_THREADS).is_ok());
        assert_eq!(
            check_threads(MAX_THREADS + 1),
            Err(SimError::ThreadCount { threads: 1 << 20, max: MAX_THREADS as u64 })
        );
    }

    #[test]
    fn faulted_sharded_region_leaves_the_region_start_state() {
        const MANY: u64 = 4096;
        for shards in 1..=3 {
            let (mut sim, base) = merge_sim(shards, MANY, 0);
            let caches = sim.caches.clone();
            let writer = sim.writer_table.clone();
            let memory = sim.memory.clone();
            // tid 0 writes many lines, faulting pages in; tid 1 writes a
            // few, then faults.
            let out = sim.try_parallel_sharded(3, &(), |w, ()| match w.tid() {
                0 => w.touch(base, MANY * LINE, Access::Write),
                1 => {
                    w.touch(base + 100 * LINE, 50 * LINE, Access::Write);
                    w.fail(SimError::Harness { what: "injected".into() });
                }
                _ => w.touch(base, 64 * LINE, Access::Read),
            });
            assert!(matches!(out, Err(SimError::Harness { .. })), "shards={shards}");
            assert!(sim.caches == caches, "shards={shards}: LLCs moved");
            assert!(sim.writer_table == writer, "shards={shards}: writer table moved");
            assert!(sim.memory == memory, "shards={shards}: memory moved");
        }
    }

    // ---- group-prefetch hints ----------------------------------------

    /// Hint every kind of address: null, unmapped (just past the
    /// mapping, far past it, and at the top of the address space),
    /// mapped but never written, and written — `base` holds a pointer to
    /// an unmapped address, `base + 8` a pointer to `base`. Asserts the
    /// hints leave the worker's clock and counters where they were.
    fn hint_everywhere(w: &Worker<'_>, base: VAddr) {
        let before = (w.clock(), w.thread_counters());
        let addrs = [
            0,
            base,
            base + 8,
            base + 3 * SMALL_PAGE,
            base + 4 * SMALL_PAGE,
            base + (1 << 40),
            VAddr::MAX - 8,
            VAddr::MAX,
        ];
        for access in [Access::Read, Access::Write] {
            for addr in addrs {
                w.prefetch(addr, access);
                w.prefetch_deref(addr, access);
            }
            w.prefetch_group(addrs.into_iter(), access);
        }
        assert_eq!((w.clock(), w.thread_counters()), before, "a hint charged");
    }

    /// A simulator with four pages mapped at `base`, the first written
    /// with two pointers (see [`hint_everywhere`]).
    fn hint_sim(shards: usize) -> (NumaSim, VAddr) {
        let mut sim = NumaSim::new(quiet_cfg(machines::machine_b()).with_shards(shards));
        let mut base = 0;
        sim.try_serial(&mut base, |w, base| {
            *base = w.map_pages(4 * SMALL_PAGE);
            w.write_u64(*base, *base + (1 << 40));
            w.write_u64(*base + 8, *base);
        })
        .unwrap();
        (sim, base)
    }

    #[test]
    fn prefetch_hints_charge_and_change_nothing_on_either_link() {
        // `sharded`: the shard-view link (`try_parallel_sharded`, 1 and
        // 2 host shards) or the direct link (`try_parallel`).
        for (shards, sharded) in [(1, false), (1, true), (2, true)] {
            let run = |hints: bool| {
                let (mut sim, base) = hint_sim(shards);
                let body = |w: &mut Worker<'_>| {
                    if hints {
                        hint_everywhere(w, base);
                    }
                    let held = w.read_u64(base + 8);
                    w.touch(base + 3 * SMALL_PAGE, LINE, Access::Read);
                    if hints {
                        hint_everywhere(w, base);
                    }
                    held
                };
                let held = if sharded {
                    sim.try_parallel_sharded(2, &(), |w, ()| body(w)).unwrap().1
                } else {
                    let mut held = Vec::new();
                    sim.try_parallel(2, &mut held, |w, held| held.push(body(w))).unwrap();
                    held
                };
                assert_eq!(held, vec![base; 2], "shards={shards} sharded={sharded}");
                sim
            };
            let (plain, hinted) = (run(false), run(true));
            let tag = format!("shards={shards} sharded={sharded}");
            assert_eq!(hinted.now_cycles(), plain.now_cycles(), "{tag}: cycles");
            assert_eq!(hinted.counters(), plain.counters(), "{tag}: counters");
            assert!(hinted.memory == plain.memory, "{tag}: memory");
            assert!(hinted.caches == plain.caches, "{tag}: LLCs");
            assert!(hinted.writer_table == plain.writer_table, "{tag}: writer table");
        }
    }

    #[test]
    fn prefetch_hints_on_a_poisoned_worker_are_no_ops() {
        for (shards, sharded) in [(1, false), (2, true)] {
            let (mut sim, base) = hint_sim(shards);
            let body = |w: &mut Worker<'_>| {
                w.fail(SimError::Harness { what: "injected".into() });
                hint_everywhere(w, base);
            };
            let out = if sharded {
                sim.try_parallel_sharded(2, &(), |w, ()| body(w)).map(|_| ())
            } else {
                sim.try_parallel(2, &mut (), |w, ()| body(w)).map(|_| ())
            };
            assert!(matches!(out, Err(SimError::Harness { .. })), "shards={shards}");
        }
    }
}
