//! Gates for the epoch-driven online advisor (ISSUE 7 acceptance):
//!
//! * on the phase-shifting workload, `--advisor online` beats the best
//!   static configuration's mean cycles (with slack);
//! * a seeded adversarial re-tune is rolled back within one probation
//!   epoch and the knob is quarantined;
//! * controller decisions are byte-identical across serial, parallel,
//!   and killed-then-resumed sweeps, and unchanged by tracing on/off.

use nqp::advisor::{ControllerConfig, Knob, OnlineController};
use nqp::core::{
    sweep_parallel, sweep_supervised, AdvisorMode, SupervisorPolicy, TrialMeasurement,
    TuningConfig,
};
use nqp::query::{try_run_phase_shift, PhaseShiftConfig, WorkloadEnv};
use nqp::sim::{MemPolicy, NumaSim, RegionHook, SimError, TraceConfig, TraceEvent};
use nqp::topology::machines;

fn shift_cfg() -> PhaseShiftConfig {
    PhaseShiftConfig::small(11)
}

/// The contenders of the headline experiment: three static placements
/// (FirstTouch, Interleave, FirstTouch+AutoNUMA) and the online
/// controller starting from FirstTouch.
fn contenders() -> Vec<TuningConfig> {
    let m = machines::numa_small;
    vec![
        TuningConfig::tuned(m()).named("static-firsttouch").with_policy(MemPolicy::FirstTouch),
        TuningConfig::tuned(m()).named("static-interleave"),
        TuningConfig::tuned(m())
            .named("static-autonuma")
            .with_policy(MemPolicy::FirstTouch)
            .with_autonuma(true),
        TuningConfig::tuned(m())
            .named("online")
            .with_policy(MemPolicy::FirstTouch)
            .with_advisor(AdvisorMode::Online(ControllerConfig::default())),
    ]
}

fn run_shift(env: &WorkloadEnv) -> Result<TrialMeasurement, SimError> {
    let out = try_run_phase_shift(env, &shift_cfg())?;
    Ok(TrialMeasurement::from(out.exec_cycles))
}

#[test]
fn online_beats_every_static_config_on_the_phase_shift() {
    let configs = contenders();
    let report = sweep_supervised(
        &configs,
        4,
        2,
        &SupervisorPolicy::default(),
        &[],
        &mut |_| {},
        |env, _| run_shift(env),
    );
    let mean = |name: &str| {
        report
            .mean_cycles(name)
            .unwrap_or_else(|| panic!("{name} produced no clean trials:\n{}", report.table()))
    };
    let online = mean("online");
    for name in ["static-firsttouch", "static-interleave", "static-autonuma"] {
        let static_mean = mean(name);
        // 2% slack: the win must be real, not a rounding artefact.
        assert!(
            online * 100 < static_mean * 98,
            "online ({online}) must beat {name} ({static_mean}) by >2%:\n{}",
            report.table()
        );
    }
}

#[test]
fn checksum_is_advisor_independent() {
    // Re-tuning mid-run must never change answers, only cycles.
    let m = machines::numa_small;
    let static_ft =
        TuningConfig::tuned(m()).named("s").with_policy(MemPolicy::FirstTouch).env(4);
    let online = TuningConfig::tuned(m())
        .named("o")
        .with_policy(MemPolicy::FirstTouch)
        .with_advisor(AdvisorMode::Online(ControllerConfig::default()))
        .env(4);
    let a = try_run_phase_shift(&static_ft, &shift_cfg()).expect("static run completes");
    let b = try_run_phase_shift(&online, &shift_cfg()).expect("online run completes");
    assert_eq!(a.checksum, b.checksum);
}

/// Decision sequence of one online run, reconstructed from the trace.
fn decisions(trace_on: bool) -> (u64, Vec<String>) {
    let mut cfg = TuningConfig::tuned(machines::numa_small())
        .named("online")
        .with_policy(MemPolicy::FirstTouch)
        .with_advisor(AdvisorMode::Online(ControllerConfig::default()));
    if trace_on {
        cfg.sim = cfg.sim.with_trace(TraceConfig::default());
    }
    let out = try_run_phase_shift(&cfg.env(4), &shift_cfg()).expect("run completes");
    let mut seq = Vec::new();
    if let Some(log) = &out.trace {
        for r in log.events() {
            if let TraceEvent::AdvisorDecision { region, decision } = &r.event {
                seq.push(format!("{region}:{decision}"));
            }
        }
    }
    (out.exec_cycles, seq)
}

#[test]
fn tracing_does_not_change_controller_decisions() {
    let (cycles_off, _) = decisions(false);
    let (cycles_on, seq) = decisions(true);
    assert_eq!(
        cycles_off, cycles_on,
        "tracing must not perturb the model clock or the controller"
    );
    assert!(
        seq.iter().any(|d| d.contains("policy=interleave")),
        "the controller re-tuned to interleave: {seq:?}"
    );
    assert!(
        seq.iter().any(|d| d.contains("commit:placement")),
        "the probation epoch committed: {seq:?}"
    );
}

#[test]
fn online_sweep_is_byte_identical_serial_parallel_and_resumed() {
    let configs: Vec<TuningConfig> = contenders()
        .into_iter()
        .filter(|c| c.name == "online" || c.name == "static-interleave")
        .collect();
    let run_serial = |resume: &[nqp::core::TrialRecord]| {
        let mut journal = Vec::new();
        let report = sweep_supervised(
            &configs,
            4,
            2,
            &SupervisorPolicy::default(),
            resume,
            &mut |r| journal.push(r.clone()),
            |env, _| run_shift(env),
        );
        (report, journal)
    };
    let (serial, _) = run_serial(&[]);
    let parallel = sweep_parallel(
        &configs,
        4,
        2,
        &SupervisorPolicy::default(),
        &[],
        3,
        &mut |_| {},
        |env, _| run_shift(env),
    );
    assert_eq!(serial.table(), parallel.table(), "serial vs --jobs 3");
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.to_json(), parallel.to_json());

    // Kill after 1 cell, then resume from the journal.
    let interrupted = SupervisorPolicy { max_cells: Some(1), ..Default::default() };
    let mut journal = Vec::new();
    let partial = sweep_supervised(
        &configs,
        4,
        2,
        &interrupted,
        &[],
        &mut |r| journal.push(r.clone()),
        |env, _| run_shift(env),
    );
    assert!(partial.interrupted);
    let (resumed, _) = run_serial(&journal);
    assert_eq!(serial.table(), resumed.table(), "kill-and-resume differs");
    assert_eq!(serial.to_csv(), resumed.to_csv());
}

#[test]
fn adversarial_retune_rolls_back_within_one_epoch_and_quarantines() {
    // Force a deliberately bad candidate (Bind(0)) at a healthy build
    // epoch; the next epoch must roll it back and quarantine the knob.
    let cc = ControllerConfig { adversarial_epoch: Some(4), ..Default::default() };
    let mut cfg = TuningConfig::tuned(machines::numa_small())
        .named("adversarial")
        .with_policy(MemPolicy::FirstTouch)
        .with_advisor(AdvisorMode::Online(cc));
    cfg.sim = cfg.sim.with_trace(TraceConfig::default());
    let out = try_run_phase_shift(&cfg.env(4), &shift_cfg()).expect("run completes");
    let log = out.trace.expect("trace was recorded");
    let seq: Vec<(u64, String)> = log
        .events()
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::AdvisorDecision { region, decision } => {
                Some((*region, decision.clone()))
            }
            _ => None,
        })
        .collect();
    let bad = seq
        .iter()
        .position(|(_, d)| d == "adversarial")
        .unwrap_or_else(|| panic!("adversarial epoch fired: {seq:?}"));
    let bad_region = seq[bad].0;
    let rollback = seq
        .iter()
        .find(|(_, d)| d == "rollback:placement")
        .unwrap_or_else(|| panic!("bad re-tune was rolled back: {seq:?}"));
    assert_eq!(
        rollback.0,
        bad_region + 1,
        "rollback must land on the probation epoch itself: {seq:?}"
    );
    assert!(
        seq.iter().any(|(_, d)| d == "quarantine:placement"),
        "knob quarantined: {seq:?}"
    );
    // Quarantine holds: no later placement action, even though the probe
    // phase would normally trigger one.
    assert!(
        !seq.iter().any(|(r, d)| *r > rollback.0 && d.starts_with("policy=")),
        "quarantined knob must stay untouched: {seq:?}"
    );
}

#[test]
fn controller_unit_state_machine_is_reachable_from_the_integration_crate() {
    // Cheap smoke that the public API surface composes: a controller is
    // a RegionHook and can be installed on a bare simulator.
    let mut sim = NumaSim::new(
        TuningConfig::tuned(machines::numa_small()).sim.clone(),
    );
    let ctl = OnlineController::new(ControllerConfig::default());
    assert!(!ctl.is_quarantined(Knob::Placement));
    sim.install_hook(Box::new(ctl) as Box<dyn RegionHook + Send>);
    sim.try_parallel(2, &mut (), |w, _| {
        w.compute(10);
    }).expect("fault-free region");
}
