//! The experiment runner behind every table and figure: named tuning
//! configurations, sweep helpers, and speedup arithmetic.

use nqp_advisor::{ControllerConfig, OnlineController};
use nqp_alloc::AllocatorKind;
use nqp_query::{EngineKind, WorkloadEnv};
use nqp_sim::{HookChain, MemPolicy, RegionHook, SimConfig, ThreadPlacement, TuneFactory};
use nqp_tier::{TierDaemon, TierSpec};
use nqp_topology::MachineSpec;

/// Whether a configuration's knobs are fixed for the whole trial (the
/// paper's setting, and the default) or re-tuned mid-trial by the
/// epoch-driven online controller.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum AdvisorMode {
    /// Knobs are set once, up front.
    #[default]
    Static,
    /// An [`OnlineController`] runs at every region boundary; every
    /// decision and migration it makes is charged in model cycles.
    Online(ControllerConfig),
}

/// One point in the Table IV parameter space, with a display name.
#[derive(Debug, Clone)]
pub struct TuningConfig {
    /// Label shown in result tables.
    pub name: String,
    /// The OS/machine side of the configuration.
    pub sim: SimConfig,
    /// The preloaded allocator.
    pub allocator: AllocatorKind,
    /// Static knobs or online re-tuning.
    pub advisor: AdvisorMode,
    /// Tiered-memory policy; [`TierSpec::NONE`] (the default) installs
    /// no daemon and leaves pages where placement put them.
    pub tier: TierSpec,
    /// Operator architecture: tuple-at-a-time (the default and the
    /// differential oracle) or the vectorized batch-at-a-time path.
    pub engine: EngineKind,
}

impl TuningConfig {
    /// The out-of-the-box configuration the paper starts every
    /// comparison from.
    pub fn os_default(machine: MachineSpec) -> Self {
        Self::static_preset("os-default", WorkloadEnv::os_default(machine))
    }

    /// The paper's fully tuned configuration for standalone workloads.
    pub fn tuned(machine: MachineSpec) -> Self {
        Self::static_preset("tuned", WorkloadEnv::tuned(machine))
    }

    /// A static, untiered configuration with `env`'s knobs.
    fn static_preset(name: &str, env: WorkloadEnv) -> Self {
        TuningConfig {
            name: name.into(),
            sim: env.sim,
            allocator: env.allocator,
            advisor: AdvisorMode::Static,
            tier: TierSpec::NONE,
            engine: env.engine,
        }
    }

    /// Builder-style rename.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Builder-style allocator override.
    pub fn with_allocator(mut self, allocator: AllocatorKind) -> Self {
        self.allocator = allocator;
        self
    }

    /// Builder-style memory-policy override.
    pub fn with_policy(mut self, policy: MemPolicy) -> Self {
        self.sim = self.sim.with_policy(policy);
        self
    }

    /// Builder-style thread-placement override.
    pub fn with_threads(mut self, placement: ThreadPlacement) -> Self {
        self.sim = self.sim.with_threads(placement);
        self
    }

    /// Builder-style AutoNUMA toggle.
    pub fn with_autonuma(mut self, on: bool) -> Self {
        self.sim = self.sim.with_autonuma(on);
        self
    }

    /// Builder-style THP toggle.
    pub fn with_thp(mut self, on: bool) -> Self {
        self.sim = self.sim.with_thp(on);
        self
    }

    /// Builder-style deterministic fault plan (see
    /// [`nqp_sim::FaultPlan`]); trials under this configuration replay
    /// the same injected faults on every run.
    pub fn with_faults(mut self, plan: nqp_sim::FaultPlan) -> Self {
        self.sim = self.sim.with_faults(plan);
        self
    }

    /// Builder-style per-trial cycle budget: a trial whose simulated
    /// clock exceeds it ends with [`crate::runner::Outcome::Timeout`].
    pub fn with_trial_budget(mut self, cycles: u64) -> Self {
        self.sim = self.sim.with_trial_budget(cycles);
        self
    }

    /// Builder-style advisor mode: `AdvisorMode::Online` installs the
    /// epoch-driven controller on every environment this configuration
    /// builds (one fresh controller per trial attempt, so retries and
    /// resumed sweeps see identical decision sequences).
    pub fn with_advisor(mut self, advisor: AdvisorMode) -> Self {
        self.advisor = advisor;
        self
    }

    /// Builder-style tiering policy: an active [`TierSpec`] installs
    /// the [`TierDaemon`] on every environment this configuration
    /// builds, alongside (after) the online advisor if one is set.
    pub fn with_tier(mut self, tier: TierSpec) -> Self {
        self.tier = tier;
        self
    }

    /// Builder-style engine override: `EngineKind::Vectorized` routes
    /// every workload this configuration runs through the batch-at-a-
    /// time operator path (same results, different cycle profile).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Convert to the workload environment the W1–W4 runners take.
    pub fn env(&self, threads: usize) -> WorkloadEnv {
        let mut sim = self.sim.clone();
        let advisor = match &self.advisor {
            AdvisorMode::Online(cc) => Some(cc.clone()),
            AdvisorMode::Static => None,
        };
        let tier = self.tier;
        // The daemon only exists on machines with a slow tier; `--tier
        // none` and all-DRAM machines install no factory at all, so
        // those runs stay byte-identical to a tier-unaware build.
        let tier_active = TierDaemon::new(tier, &sim.machine).is_some();
        if advisor.is_some() || tier_active {
            let machine = sim.machine.clone();
            let mut factory = TuneFactory::new(move || {
                let mut hooks: Vec<Box<dyn RegionHook + Send>> = Vec::new();
                if let Some(cc) = &advisor {
                    hooks.push(Box::new(OnlineController::new(cc.clone())));
                }
                if let Some(daemon) = TierDaemon::new(tier, &machine) {
                    hooks.push(Box::new(daemon));
                }
                Box::new(HookChain(hooks))
            });
            if tier_active {
                factory = factory.with_page_heat();
            }
            sim = sim.with_tune(factory);
        }
        WorkloadEnv {
            sim,
            allocator: self.allocator,
            threads,
            engine: self.engine,
        }
    }
}

/// The two presets every grid starts from: `base` (the OS default
/// plus overrides) and the paper's tuned knobs over the same base, so
/// an injected fault or budget stresses the whole grid, not one column.
pub fn preset_configs(base: TuningConfig) -> Vec<TuningConfig> {
    let preset = TuningConfig::tuned(base.sim.machine.clone());
    let tuned = base
        .clone()
        .named("tuned (+flags)")
        .with_threads(preset.sim.thread_placement)
        .with_policy(preset.sim.mem_policy)
        .with_autonuma(preset.sim.autonuma)
        .with_thp(preset.sim.thp)
        .with_allocator(preset.allocator);
    vec![base.named("os-default (+flags)"), tuned]
}

/// The runtime-adaptive contender `online` or `autonuma`: `tuned`
/// pinned to FirstTouch (the placement the phase shift punishes), for
/// the epoch-driven controller or the kernel's AutoNUMA to fix mid-run.
pub fn advisor_contender(tuned: &TuningConfig, name: &str) -> Option<TuningConfig> {
    let first_touch = tuned.clone().with_policy(MemPolicy::FirstTouch);
    Some(match name {
        "online" => first_touch
            .with_autonuma(false)
            .named("online (+flags)")
            .with_advisor(AdvisorMode::Online(ControllerConfig::default())),
        "autonuma" => first_touch.with_autonuma(true).named("autonuma (+flags)"),
        _ => return None,
    })
}

/// Cross every contender with each tiering policy, then with each
/// operator path. A `none` tier or the `tuple` engine keeps the column
/// as it is (same name, default behaviour); any other entry appends
/// ` tier=…` / ` engine=…` to the name.
pub fn cross_grid(
    configs: Vec<TuningConfig>,
    tiers: &[TierSpec],
    engines: &[EngineKind],
) -> Vec<TuningConfig> {
    let configs = cross(configs, tiers, TierSpec::is_none, |cfg, t| {
        let name = format!("{} tier={}", cfg.name, t.label());
        cfg.with_tier(*t).named(name)
    });
    cross(configs, engines, |e| *e == EngineKind::Tuple, |cfg, e| {
        let name = format!("{} engine={}", cfg.name, e.as_str());
        cfg.with_engine(*e).named(name)
    })
}

/// One axis of [`cross_grid`]; a base value keeps the config as it is.
fn cross<T>(
    configs: Vec<TuningConfig>,
    axis: &[T],
    is_base: impl Fn(&T) -> bool,
    apply: impl Fn(TuningConfig, &T) -> TuningConfig,
) -> Vec<TuningConfig> {
    if axis.iter().all(&is_base) {
        return configs;
    }
    configs
        .iter()
        .flat_map(|cfg| {
            axis.iter()
                .map(|v| if is_base(v) { cfg.clone() } else { apply(cfg.clone(), v) })
        })
        .collect()
}

/// Speedup of `b` relative to `a` (how many times faster `b` is).
pub fn speedup(a_cycles: u64, b_cycles: u64) -> f64 {
    a_cycles as f64 / b_cycles.max(1) as f64
}

/// Latency reduction of `tuned` vs `default`, in percent — the metric of
/// Figure 8.
pub fn reduction_pct(default_cycles: u64, tuned_cycles: u64) -> f64 {
    (1.0 - tuned_cycles as f64 / default_cycles.max(1) as f64) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_topology::machines;

    #[test]
    fn presets_differ() {
        let d = TuningConfig::os_default(machines::machine_a());
        let t = TuningConfig::tuned(machines::machine_a());
        assert_eq!(d.allocator, AllocatorKind::Ptmalloc);
        assert_eq!(t.allocator, AllocatorKind::Tbbmalloc);
        assert!(d.sim.autonuma && !t.sim.autonuma);
        assert_eq!(d.name, "os-default");
    }

    #[test]
    fn builders_compose() {
        let c = TuningConfig::os_default(machines::machine_b())
            .named("experiment-7")
            .with_allocator(AllocatorKind::Hoard)
            .with_policy(MemPolicy::Interleave)
            .with_threads(ThreadPlacement::Dense)
            .with_autonuma(false)
            .with_thp(false);
        assert_eq!(c.name, "experiment-7");
        assert_eq!(c.allocator, AllocatorKind::Hoard);
        assert_eq!(c.sim.mem_policy, MemPolicy::Interleave);
        assert_eq!(c.sim.thread_placement, ThreadPlacement::Dense);
        assert!(!c.sim.autonuma && !c.sim.thp);
        let env = c.env(8);
        assert_eq!(env.threads, 8);
        assert_eq!(env.allocator, AllocatorKind::Hoard);
    }

    #[test]
    fn cross_grid_keeps_base_columns_and_crosses_tiers_then_engines() {
        let names = |grid: &[TuningConfig]| grid.iter().map(|c| c.name.clone()).collect::<Vec<_>>();
        let (tuple, vec) = (EngineKind::Tuple, EngineKind::Vectorized);
        let presets = preset_configs(TuningConfig::os_default(machines::machine_b()));
        assert_eq!(names(&presets), ["os-default (+flags)", "tuned (+flags)"]);

        // A `none` tier and the `tuple` engine keep each column as it is.
        let same = cross_grid(presets.clone(), &[TierSpec::NONE], &[tuple]);
        assert_eq!(names(&same), names(&presets));
        assert!(same.iter().all(|c| c.tier.is_none() && c.engine == tuple));

        // Tiers cross first, then engines; each non-base entry is named.
        let hot = TierSpec::parse("hot-watermark").unwrap();
        let grid = cross_grid(presets, &[TierSpec::NONE, hot], &[tuple, vec]);
        let h = hot.label();
        let mut want = Vec::new();
        for preset in ["os-default (+flags)", "tuned (+flags)"] {
            want.push(preset.to_string());
            want.push(format!("{preset} engine=vec"));
            want.push(format!("{preset} tier={h}"));
            want.push(format!("{preset} tier={h} engine=vec"));
        }
        assert_eq!(names(&grid), want);
        let knobs: Vec<(bool, EngineKind)> =
            grid.iter().map(|c| (c.tier == hot, c.engine)).collect();
        let column = [(false, tuple), (false, vec), (true, tuple), (true, vec)];
        assert_eq!(knobs, [column, column].concat());
        assert!(grid[4].allocator == AllocatorKind::Tbbmalloc && !grid[4].sim.autonuma);
    }

    #[test]
    fn speedup_and_reduction_arithmetic() {
        assert!((speedup(200, 100) - 2.0).abs() < 1e-12);
        assert!((reduction_pct(200, 100) - 50.0).abs() < 1e-12);
        assert!(reduction_pct(100, 120) < 0.0);
        // Degenerate zero denominators stay finite.
        assert!(speedup(100, 0).is_finite());
        assert!(reduction_pct(0, 10).is_finite());
    }
}
