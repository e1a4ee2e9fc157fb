//! Integration tests for the capacity-and-faults layer: deterministic
//! fault injection, leak-free page accounting, the finite-capacity
//! policy story, and the fallible retrying sweep harness end-to-end.

use nqp::core::{sweep_supervised, Outcome, SupervisorPolicy, TuningConfig};
use nqp::datagen::generate;
use nqp::datagen::tpch::TpchData;
use nqp::engines::{DbSystem, EngineError, SystemKind, QUERY_COUNT};
use nqp::query::{try_run_aggregation_on, AggConfig, WorkloadEnv};
use nqp::sim::{
    Access, FaultPlan, MemPolicy, NumaSim, SimConfig, SimError, ThreadPlacement, VAddr,
    SMALL_PAGE,
};
use nqp::topology::machines;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Determinism: same seed + same FaultPlan => bit-identical runs.
// ---------------------------------------------------------------------

/// A degraded machine (slow link, preemption storm, failing AutoNUMA
/// migrations) must still be a *deterministic* machine: two runs with
/// the same seed and plan produce bit-identical counters and cycles.
#[test]
fn same_seed_and_plan_give_bit_identical_counters() {
    let plan = FaultPlan::parse(
        "link@0..99:link=0,lat=3.0,bw=2.0;preempt@0..99:period=50000;migfail@0..99",
        7,
    )
    .expect("well-formed spec");
    let cfg = TuningConfig::os_default(machines::machine_a())
        .with_autonuma(true)
        .with_faults(plan);
    let acfg = AggConfig::w1(40_000, 8_000, 11);
    let records = generate(acfg.dataset, 40_000, 8_000, 11);
    let run = || {
        try_run_aggregation_on(&cfg.env(8), &acfg, &records)
            .expect("degraded but survivable")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.counters, b.counters, "counters must be bit-identical");
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert!(a.counters.preemptions > 0, "the storm must actually fire");
}

/// Failures replay exactly too: an uncleared transient allocation fault
/// yields the same typed error (same region, same attempt) every run.
#[test]
fn injected_failures_replay_identically() {
    let cfg = TuningConfig::os_default(machines::machine_b())
        .with_faults(FaultPlan::new(3).with_alloc_fail(0, 99, u32::MAX));
    let acfg = AggConfig::w2(20_000, 2_000, 9);
    let records = generate(acfg.dataset, 20_000, 2_000, 9);
    let run = || {
        try_run_aggregation_on(&cfg.env(4), &acfg, &records)
            .expect_err("the plan never clears")
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "the fault must be reproducible");
    assert!(matches!(a, SimError::InjectedAllocFault { .. }));
}

/// Whole sweeps are deterministic: per-trial outcomes, attempt counts,
/// and recorded cycles all match between two identical invocations.
#[test]
fn sweeps_replay_outcome_for_outcome() {
    let machine = machines::machine_b();
    let configs = vec![
        TuningConfig::os_default(machine.clone())
            .named("flaky")
            .with_faults(FaultPlan::new(5).with_alloc_fail(2, 2, 1)),
        TuningConfig::tuned(machine).named("strangled").with_trial_budget(10_000),
    ];
    let acfg = AggConfig::w2(20_000, 2_000, 9);
    let records = generate(acfg.dataset, 20_000, 2_000, 9);
    let policy = SupervisorPolicy::default();
    let run = || {
        let report = sweep_supervised(&configs, 4, 2, &policy, &[], &mut |_| {}, |env, _| {
            try_run_aggregation_on(env, &acfg, &records).map(|o| o.exec_cycles.into())
        });
        report
            .trials
            .iter()
            .map(|t| (t.config.clone(), t.outcome, t.attempts, t.cycles))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

// ---------------------------------------------------------------------
// Capacity accounting: no page leaks across map/touch/unmap.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-node used-page accounting returns to exactly zero once every
    /// mapping is released, under every placement policy, with and
    /// without THP, whether or not the pages were ever touched.
    #[test]
    fn page_accounting_returns_to_zero_after_unmap(
        mappings in prop::collection::vec((1u64..600, any::<bool>()), 1..12),
        policy_idx in 0usize..5,
        thp in any::<bool>(),
    ) {
        let policy = [
            MemPolicy::FirstTouch,
            MemPolicy::Interleave,
            MemPolicy::Localalloc,
            MemPolicy::Preferred(1),
            MemPolicy::Bind(0),
        ][policy_idx];
        let mut sim = NumaSim::new(
            SimConfig::os_default(machines::machine_b())
                .with_policy(policy)
                .with_autonuma(false)
                .with_thp(thp),
        );
        let mut state: (Vec<(VAddr, u64)>, Vec<(u64, bool)>) = (Vec::new(), mappings);
        sim.try_serial(&mut state, |w, (maps, mappings)| {
            for (pages, touch) in mappings.iter() {
                let bytes = pages * SMALL_PAGE;
                let addr = w.map_pages(bytes);
                if *touch {
                    w.touch(addr, bytes, Access::Read);
                }
                maps.push((addr, bytes));
            }
        }).expect("fault-free region");
        let mut maps = state.0;
        sim.try_serial(&mut maps, |w, maps| {
            for (addr, bytes) in maps.iter() {
                w.unmap_pages(*addr, *bytes);
            }
        }).expect("fault-free region");
        prop_assert!(
            sim.node_used_pages().iter().all(|&used| used == 0),
            "page leak: {:?}", sim.node_used_pages()
        );
    }
}

// ---------------------------------------------------------------------
// Paper-findings regression: the Figure 4/5 capacity story.
// ---------------------------------------------------------------------

/// First-Touch on a capacity-capped node spills, in zone order, to the
/// nearest node with free pages — and the spilled (most recently
/// allocated, i.e. hot) data then lives *entirely* remote, so repeated
/// scans of it show higher remote-access counters than Interleave at
/// the same footprint, where only `1/num_nodes` of any slice is remote.
#[test]
fn capped_first_touch_spills_and_goes_remote() {
    const CAP_PAGES: u64 = 256;
    const FOOTPRINT_PAGES: u64 = 512;
    const TAIL_PAGES: u64 = 256;
    let mut machine = machines::machine_b();
    machine.mem_per_node_bytes = CAP_PAGES * SMALL_PAGE;
    let num_nodes = machine.topology.num_nodes();
    assert!(num_nodes >= 2, "the spill story needs a second zone");

    let run = |policy: MemPolicy| {
        let mut sim = NumaSim::new(
            SimConfig::os_default(machine.clone())
                .with_threads(ThreadPlacement::Sparse)
                .with_policy(policy)
                .with_autonuma(false)
                .with_thp(false),
        );
        let mut addr: VAddr = 0;
        // Allocation pass: fault in the whole footprint from node 0.
        sim.try_serial(&mut addr, |w, addr| {
            *addr = w.map_pages(FOOTPRINT_PAGES * SMALL_PAGE);
            w.touch(*addr, FOOTPRINT_PAGES * SMALL_PAGE, Access::Write);
        }).expect("fault-free region");
        // Hot phase: rescan the most recently allocated tail.
        let tail = addr + (FOOTPRINT_PAGES - TAIL_PAGES) * SMALL_PAGE;
        for _ in 0..8 {
            sim.flush_caches();
            sim.try_serial(&mut (), |w, _| {
                w.touch(tail, TAIL_PAGES * SMALL_PAGE, Access::Read);
            }).expect("fault-free region");
        }
        let used = sim.node_used_pages().to_vec();
        (sim.counters(), used)
    };

    let (ft, ft_used) = run(MemPolicy::FirstTouch);
    let (il, il_used) = run(MemPolicy::Interleave);

    // First-Touch fills node 0 to its cap and spills the remainder to
    // exactly one other zone (the nearest), instead of failing.
    assert_eq!(ft_used[0], CAP_PAGES, "node 0 must fill to its budget");
    assert_eq!(ft_used.iter().sum::<u64>(), FOOTPRINT_PAGES, "nothing lost");
    let spill_nodes = ft_used[1..].iter().filter(|&&u| u > 0).count();
    assert_eq!(spill_nodes, 1, "spill goes zone-order to one neighbour: {ft_used:?}");

    // Interleave spreads the same footprint across all nodes.
    assert!(
        il_used.iter().all(|&u| u > 0),
        "interleave must use every node: {il_used:?}"
    );

    // The hot tail is 100% remote under capped First-Touch but only
    // (n-1)/n remote under Interleave.
    assert!(
        ft.remote_accesses > il.remote_accesses,
        "capped First-Touch must show more remote accesses than \
         Interleave at the same footprint: FT {} vs IL {}",
        ft.remote_accesses,
        il.remote_accesses
    );
}

/// The same footprint under strict `Bind` does not spill: it fails with
/// a typed OOM naming the bound node, like `numactl --membind`.
#[test]
fn strict_bind_reports_oom_instead_of_spilling() {
    const CAP_PAGES: u64 = 256;
    let mut machine = machines::machine_b();
    machine.mem_per_node_bytes = CAP_PAGES * SMALL_PAGE;
    let mut sim = NumaSim::new(
        SimConfig::os_default(machine)
            .with_policy(MemPolicy::Bind(0))
            .with_autonuma(false)
            .with_thp(false),
    );
    let err = sim
        .try_serial(&mut (), |w, _| {
            let addr = w.map_pages(2 * CAP_PAGES * SMALL_PAGE);
            w.touch(addr, SMALL_PAGE, Access::Write);
        })
        .expect_err("twice the node budget cannot bind");
    assert!(
        matches!(err, SimError::OutOfMemory { node: 0, .. }),
        "want OutOfMemory on the bound node, got {err}"
    );
}

// ---------------------------------------------------------------------
// Acceptance: a sweep survives injected faults and budget timeouts.
// ---------------------------------------------------------------------

/// The ISSUE's acceptance sweep: one config hits a transient allocation
/// fault (retried successfully with backoff), one exhausts its cycle
/// budget every trial, one is healthy — and the sweep completes without
/// panicking, reporting a per-trial outcome for every cell.
#[test]
fn sweep_survives_transient_faults_and_timeouts() {
    let machine = machines::machine_b();
    let configs = vec![
        TuningConfig::os_default(machine.clone())
            .named("flaky")
            .with_faults(FaultPlan::new(3).with_alloc_fail(2, 2, 1)),
        TuningConfig::tuned(machine.clone()).named("strangled").with_trial_budget(10_000),
        TuningConfig::tuned(machine).named("healthy"),
    ];
    let acfg = AggConfig::w2(20_000, 2_000, 9);
    let records = generate(acfg.dataset, 20_000, 2_000, 9);
    let policy = SupervisorPolicy::default();
    let report = sweep_supervised(&configs, 4, 2, &policy, &[], &mut |_| {}, |env, _| {
        try_run_aggregation_on(env, &acfg, &records).map(|o| o.exec_cycles.into())
    });

    assert_eq!(report.trials.len(), 6, "every (config, trial) cell is recorded");

    // The transient fault cleared on the retry: two attempts, then Ok.
    for t in report.trials.iter().filter(|t| t.config == "flaky") {
        assert_eq!(t.outcome, Outcome::Ok, "transient fault must be survivable");
        assert_eq!(t.attempts, 2, "one failing attempt, one clean retry");
        assert!(t.cycles.is_some());
    }
    // The strangled config times out on every trial, which is the one
    // condition that marks a configuration as failed.
    for t in report.trials.iter().filter(|t| t.config == "strangled") {
        assert_eq!(t.outcome, Outcome::Timeout);
        assert!(matches!(t.error, Some(SimError::Timeout { .. })));
    }
    assert_eq!(report.failed_configs(), vec!["strangled"]);
    assert!(report.mean_cycles("healthy").is_some());

    // Surviving trials still feed the result tables.
    let flaky = report.mean_cycles("flaky").expect("flaky trials succeeded");
    let healthy = report.mean_cycles("healthy").expect("healthy trials succeeded");
    assert!(flaky > 0 && healthy > 0);

    let table = report.table();
    assert!(table.contains("ok") && table.contains("timeout"), "table:\n{table}");
}

// ---------------------------------------------------------------------
// TPC-H engines: faults come back as typed errors, never panics.
// ---------------------------------------------------------------------

/// Boot a TPC-H system under `sim` and run queries until one fails,
/// returning how many succeeded first, the error, and the system.
fn first_tpch_error(sim: impl Fn(SimConfig) -> SimConfig) -> (usize, EngineError, DbSystem) {
    let data = TpchData::generate(0.002, 11);
    let mut env = WorkloadEnv::tuned(machines::machine_b()).with_threads(4);
    env.sim = sim(env.sim);
    let mut db = DbSystem::boot(SystemKind::MonetDbLike, &env, &data);
    for q in 1..=QUERY_COUNT {
        if let Err(e) = db.try_run(q) {
            return (q - 1, e, db);
        }
    }
    panic!("every query completed under a plan that must fail");
}

/// A trial budget, an injected allocation fault and a deadline each stop
/// a TPC-H system with the simulator's typed error. A budget or deadline
/// that trips during the load poisons the booted system — every query
/// returns that same fault — and a fault in a later region fails the
/// query it lands in.
#[test]
fn tpch_faults_surface_as_typed_engine_errors() {
    let (ran, e, mut db) = first_tpch_error(|s| s.with_trial_budget(50_000));
    assert_eq!(ran, 0, "the budget trips during the load");
    assert!(matches!(e, EngineError::Sim(SimError::Timeout { .. })), "{e:?}");
    assert_eq!(db.try_run(QUERY_COUNT).expect_err("poisoned"), e, "the boot fault sticks");

    let plan = FaultPlan::parse("alloc@80:attempts=9", 1).expect("well-formed spec");
    let (ran, e, _) = first_tpch_error(|s| s.with_faults(plan.clone()));
    assert!(ran > 0, "region 80 lies past the load");
    assert!(
        matches!(e, EngineError::Sim(SimError::InjectedAllocFault { region: 80, .. })),
        "{e:?}"
    );

    let (ran, e, mut db) = first_tpch_error(|s| s.with_deadline(1));
    assert_eq!(ran, 0, "the deadline passes during the load");
    assert!(matches!(e, EngineError::Sim(SimError::DeadlineExceeded { .. })), "{e:?}");
    assert_eq!(db.try_run(QUERY_COUNT).expect_err("poisoned"), e, "the boot fault sticks");
}

/// The CLI sweep records an allocator-construction fault as a retried
/// trial outcome: SuperMalloc maps its lookup table in the very first
/// region, so `alloc@0` hits it, and the retry clears it — exactly like
/// any other allocator.
#[test]
fn cli_sweep_retries_a_fault_in_allocator_setup() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nqp-cli"))
        .args([
            "sweep", "w1", "--machine", "B", "--threads", "4", "--n", "4000", "--card", "400",
            "--trials", "2", "--alloc", "supermalloc", "--faults", "alloc@0:attempts=1",
        ])
        .output()
        .expect("the CLI runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let rows: Vec<&str> = stdout.lines().filter(|l| l.contains(" ok ")).collect();
    assert_eq!(rows.len(), 4, "both configs, both trials ok:\n{stdout}");
    for row in rows {
        let attempts: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(attempts[attempts.len() - 2], "2", "one failed attempt, one retry: {row}");
    }
}
