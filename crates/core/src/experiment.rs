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
        TuningConfig {
            name: "os-default".into(),
            sim: SimConfig::os_default(machine),
            allocator: AllocatorKind::Ptmalloc,
            advisor: AdvisorMode::Static,
            tier: TierSpec::NONE,
            engine: EngineKind::Tuple,
        }
    }

    /// The paper's fully tuned configuration for standalone workloads.
    pub fn tuned(machine: MachineSpec) -> Self {
        TuningConfig {
            name: "tuned".into(),
            sim: SimConfig::tuned(machine),
            allocator: AllocatorKind::Tbbmalloc,
            advisor: AdvisorMode::Static,
            tier: TierSpec::NONE,
            engine: EngineKind::Tuple,
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
    fn speedup_and_reduction_arithmetic() {
        assert!((speedup(200, 100) - 2.0).abs() < 1e-12);
        assert!((reduction_pct(200, 100) - 50.0).abs() < 1e-12);
        assert!(reduction_pct(100, 120) < 0.0);
        // Degenerate zero denominators stay finite.
        assert!(speedup(100, 0).is_finite());
        assert!(reduction_pct(0, 10).is_finite());
    }
}
