//! Serve-run specification: everything a cell needs to be a pure
//! function of its inputs.

use crate::arrival::ArrivalSpec;
use nqp_sim::{SimError, SimResult};

/// Cycles per Mcycle — spec durations are given in Mcycles.
pub const MCYCLE: u64 = 1_000_000;

/// The most arrivals a serve spec may expect at its peak rate. The
/// driver draws arrivals lazily, so this bounds run time, not memory:
/// it keeps a typo from turning into a multi-minute spin.
pub const MAX_EXPECTED_ARRIVALS: u128 = 64_000_000;

/// Calibrated cost profile for one query class under one engine
/// configuration. Captured once from a real simulator run (per-phase
/// cycles from the trace spans); the serve loop replays it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassProfile {
    /// Query class name (e.g. `w1`).
    pub name: String,
    /// Per-phase `(label, cycles)` under healthy hardware.
    pub healthy: Vec<(String, u64)>,
    /// Per-phase costs while a node is offline (post-evacuation).
    pub degraded: Vec<(String, u64)>,
    /// Pages the engine evacuates when the outage hits mid-serve.
    pub evacuated_pages: u64,
}

impl ClassProfile {
    /// Total healthy service cycles.
    #[must_use]
    pub fn healthy_cycles(&self) -> u64 {
        self.healthy.iter().map(|(_, c)| *c).sum()
    }
}

/// A planned node outage inside the serve window, parsed from
/// `--outage T1..T2:node=N` (times in Mcycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageSpec {
    /// Outage onset, Mcycles.
    pub start_mcycles: u64,
    /// Recovery, Mcycles.
    pub end_mcycles: u64,
    /// Which NUMA node goes dark.
    pub node: usize,
}

impl OutageSpec {
    /// Parse `T1..T2:node=N`. Errors are typed [`SimError::BadSpec`]
    /// carrying the offending token verbatim, so the CLI error names
    /// exactly what to fix — truncated and garbage input never panics.
    pub fn parse(s: &str) -> SimResult<OutageSpec> {
        let bad = |token: &str, why: &str| SimError::BadSpec {
            flag: "--outage".to_string(),
            token: token.to_string(),
            why: format!("{why} (expected T1..T2:node=N, Mcycles)"),
        };
        let (range, node) =
            s.split_once(':').ok_or_else(|| bad(s, "missing `:node=N`"))?;
        let node = node
            .strip_prefix("node=")
            .ok_or_else(|| bad(node, "expected `node=N`"))?;
        let (t1, t2) = range
            .split_once("..")
            .ok_or_else(|| bad(range, "expected a `T1..T2` window"))?;
        let start_mcycles: u64 =
            t1.trim().parse().map_err(|_| bad(t1, "bad window start"))?;
        let end_mcycles: u64 =
            t2.trim().parse().map_err(|_| bad(t2, "bad window end"))?;
        let node: usize = node.trim().parse().map_err(|_| bad(node, "bad node id"))?;
        if end_mcycles <= start_mcycles {
            return Err(bad(range, "the window must end after it starts"));
        }
        Ok(OutageSpec { start_mcycles, end_mcycles, node })
    }

    /// Canonical form (round-trips through [`OutageSpec::parse`]).
    #[must_use]
    pub fn canonical(&self) -> String {
        format!("{}..{}:node={}", self.start_mcycles, self.end_mcycles, self.node)
    }
}

/// Engine-side runtime advisor for a serve run, parsed from
/// `--advisor static|online[:rearm=N]`.
///
/// A mid-serve outage evacuates the dark node's pages onto the
/// survivors; when the node returns, nothing moves them back. Under
/// [`ServeAdvisor::Static`] that placement residue persists — service
/// keeps paying the degraded per-phase costs for the rest of the run.
/// Under [`ServeAdvisor::Online`] the epoch-driven controller's fault
/// circuit breaker ([`nqp_advisor::CircuitBreaker`]) freezes during
/// the outage, re-arms after `rearm_after` consecutive quiet epochs,
/// and the re-arm epoch re-homes the evacuated pages — healthy costs
/// resume from the next dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeAdvisor {
    /// No runtime re-tuning: outage placement residue persists.
    #[default]
    Static,
    /// Guarded re-tuning behind the fault circuit breaker.
    Online {
        /// Quiet epochs required after the outage before the breaker
        /// re-arms and the re-home runs.
        rearm_after: u64,
    },
}

impl ServeAdvisor {
    /// Parse `static` or `online[:rearm=N]`. Errors are typed
    /// [`SimError::BadSpec`] naming the offending token.
    pub fn parse(s: &str) -> SimResult<ServeAdvisor> {
        let bad = |token: &str, why: &str| SimError::BadSpec {
            flag: "--advisor".to_string(),
            token: token.to_string(),
            why: format!("{why} (expected static or online[:rearm=N])"),
        };
        let (kind, rest) = match s.split_once(':') {
            Some((k, r)) => (k.trim(), Some(r)),
            None => (s.trim(), None),
        };
        match kind {
            "static" => match rest {
                Some(r) => Err(bad(r, "static takes no parameters")),
                None => Ok(ServeAdvisor::Static),
            },
            "online" => {
                let rearm_after = match rest {
                    Some(r) => {
                        let v = r
                            .strip_prefix("rearm=")
                            .ok_or_else(|| bad(r, "unknown parameter"))?;
                        v.trim().parse().map_err(|_| bad(v, "bad rearm count"))?
                    }
                    None => 2,
                };
                Ok(ServeAdvisor::Online { rearm_after })
            }
            other => Err(bad(other, "unknown advisor mode")),
        }
    }

    /// Canonical form (round-trips through [`ServeAdvisor::parse`]).
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            ServeAdvisor::Static => "static".to_string(),
            ServeAdvisor::Online { rearm_after } => format!("online:rearm={rearm_after}"),
        }
    }
}

/// What happened to one session, end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// Completed at full fidelity within its deadline.
    Completed,
    /// Completed at full fidelity but past its deadline (SLO miss).
    Late,
    /// Completed as a sampled (degraded) answer under ladder level 3.
    Degraded,
    /// Abandoned at a phase boundary after its deadline passed.
    Timeout,
    /// Rejected before admission (queue full).
    ShedQueue,
    /// Rejected because its tenant exceeded fair share under pressure.
    ShedQuota,
    /// Rejected by its tenant's open circuit breaker.
    ShedBreaker,
}

impl ServeOutcome {
    /// Short stable label used in traces and session dumps.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ServeOutcome::Completed => "completed",
            ServeOutcome::Late => "late",
            ServeOutcome::Degraded => "degraded",
            ServeOutcome::Timeout => "timeout",
            ServeOutcome::ShedQueue => "shed-queue",
            ServeOutcome::ShedQuota => "shed-quota",
            ServeOutcome::ShedBreaker => "shed-breaker",
        }
    }
}

/// Full specification of one serve run — the driver is a pure function
/// of this struct plus the class profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSpec {
    /// Number of simulated tenants.
    pub tenants: usize,
    /// Serve window length, Mcycles.
    pub duration_mcycles: u64,
    /// Aggregate arrival process across all tenants.
    pub arrivals: ArrivalSpec,
    /// Concurrent service lanes (engine admission width).
    pub lanes: usize,
    /// Bounded per-tenant queue capacity.
    pub queue_cap: usize,
    /// Token-bucket capacity per tenant (whole tokens).
    pub bucket_cap: u64,
    /// Token refill rate per tenant, milli-tokens per Mcycle.
    pub refill_milli_per_mcycle: u64,
    /// Per-query deadline, Mcycles from arrival. Also the SLO target.
    pub deadline_mcycles: u64,
    /// Consecutive rejections that trip a tenant's circuit breaker.
    pub breaker_threshold: u64,
    /// Telescoping-counter epoch length, Mcycles.
    pub epoch_mcycles: u64,
    /// Optional mid-serve node outage.
    pub outage: Option<OutageSpec>,
    /// Runtime advisor mode (outage recovery behaviour).
    pub advisor: ServeAdvisor,
    /// Seed for arrivals and tenant/class assignment.
    pub seed: u64,
}

impl ServeSpec {
    /// The one bound on a serve spec: one that can never produce work
    /// is an error, and so is one expecting more than
    /// [`MAX_EXPECTED_ARRIVALS`] arrivals. The driver never truncates
    /// the arrival stream itself.
    pub fn validate(&self) -> SimResult<()> {
        let harness = |what: String| SimError::Harness { what };
        if self.tenants == 0 {
            return Err(harness("serve spec is empty: 0 tenants".into()));
        }
        if self.duration_mcycles == 0 {
            return Err(harness("serve spec is empty: 0 duration".into()));
        }
        if self.arrivals.base_rate_milli() == 0 {
            return Err(harness("serve spec is empty: arrival rate 0".into()));
        }
        if self.lanes == 0 || self.queue_cap == 0 {
            return Err(harness("serve spec needs at least 1 lane and queue slot".into()));
        }
        if self.epoch_mcycles == 0 {
            return Err(harness("serve epoch must be nonzero".into()));
        }
        let expected =
            self.arrivals.peak_rate_milli() as u128 * self.duration_mcycles as u128 / 1000;
        if expected > MAX_EXPECTED_ARRIVALS {
            return Err(harness(format!(
                "serve spec would generate ~{expected} arrivals \
                 (cap {MAX_EXPECTED_ARRIVALS}); lower the rate or duration"
            )));
        }
        Ok(())
    }
}

/// One serve cell: a named engine configuration plus the spec it runs
/// under. `run_cells` calibrates profiles per cell via a caller-supplied
/// closure, so this crate never depends on the workload layer.
#[derive(Debug, Clone)]
pub struct CellInput {
    /// Engine-configuration name (e.g. `tuned (+flags)`).
    pub config: String,
    /// The serve spec (usually shared across cells).
    pub spec: ServeSpec,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServeSpec {
        ServeSpec {
            tenants: 4,
            duration_mcycles: 10,
            arrivals: ArrivalSpec::Poisson { rate_milli: 20_000 },
            lanes: 2,
            queue_cap: 8,
            bucket_cap: 8,
            refill_milli_per_mcycle: 4000,
            deadline_mcycles: 5,
            breaker_threshold: 8,
            epoch_mcycles: 2,
            outage: None,
            advisor: ServeAdvisor::default(),
            seed: 42,
        }
    }

    #[test]
    fn outage_spec_round_trips() {
        let o = OutageSpec::parse("12..20:node=1").unwrap();
        assert_eq!(o, OutageSpec { start_mcycles: 12, end_mcycles: 20, node: 1 });
        assert_eq!(OutageSpec::parse(&o.canonical()).unwrap(), o);
        for bad in ["", "12..20", "20..12:node=1", "12:node=1", "a..b:node=1"] {
            assert!(OutageSpec::parse(bad).is_err(), "{bad:?}");
        }
    }

    /// Satellite gate: truncated and garbage `--outage` input yields a
    /// typed error naming the offending token — never a panic.
    #[test]
    fn outage_errors_name_the_offending_token() {
        let token = |s: &str| match OutageSpec::parse(s).unwrap_err() {
            SimError::BadSpec { flag, token, .. } => {
                assert_eq!(flag, "--outage");
                token
            }
            other => panic!("expected BadSpec, got {other}"),
        };
        assert_eq!(token("12..20"), "12..20", "missing node clause");
        assert_eq!(token("12..20:core=1"), "core=1", "wrong clause keyword");
        assert_eq!(token("12..junk:node=1"), "junk", "garbage window end");
        assert_eq!(token("oops..20:node=1"), "oops", "garbage window start");
        assert_eq!(token("12..20:node=x"), "x", "garbage node id");
        assert_eq!(token("20..12:node=1"), "20..12", "inverted window");
        assert_eq!(token(""), "", "empty spec is truncated input, not a panic");
    }

    #[test]
    fn advisor_spec_round_trips_and_rejects_garbage() {
        assert_eq!(ServeAdvisor::parse("static").unwrap(), ServeAdvisor::Static);
        assert_eq!(
            ServeAdvisor::parse("online").unwrap(),
            ServeAdvisor::Online { rearm_after: 2 }
        );
        let o = ServeAdvisor::parse("online:rearm=5").unwrap();
        assert_eq!(o, ServeAdvisor::Online { rearm_after: 5 });
        assert_eq!(ServeAdvisor::parse(&o.canonical()).unwrap(), o);
        assert_eq!(ServeAdvisor::Static.canonical(), "static");
        for (bad, tok) in [
            ("offline", "offline"),
            ("online:rearm=x", "x"),
            ("online:x=2", "x=2"),
            ("static:rearm=2", "rearm=2"),
            ("", ""),
        ] {
            match ServeAdvisor::parse(bad).unwrap_err() {
                SimError::BadSpec { flag, token, .. } => {
                    assert_eq!(flag, "--advisor");
                    assert_eq!(token, tok, "{bad:?}");
                }
                other => panic!("expected BadSpec for {bad:?}, got {other}"),
            }
        }
    }

    #[test]
    fn empty_specs_fail_validation() {
        assert!(spec().validate().is_ok());
        let mut s = spec();
        s.tenants = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.duration_mcycles = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.arrivals = ArrivalSpec::Poisson { rate_milli: 0 };
        assert!(s.validate().is_err());
        let mut s = spec();
        s.duration_mcycles = 500_000;
        assert!(s.validate().is_ok(), "~10M expected arrivals are within the cap");
        let mut s = spec();
        s.duration_mcycles = 1_000_000_000;
        let err = s.validate().unwrap_err().to_string();
        assert!(
            err.contains(&MAX_EXPECTED_ARRIVALS.to_string()),
            "runaway arrival counts are rejected, naming the cap: {err}"
        );
        for tweak in [
            |s: &mut ServeSpec| s.lanes = 0,
            |s: &mut ServeSpec| s.queue_cap = 0,
            |s: &mut ServeSpec| s.epoch_mcycles = 0,
        ] {
            let mut s = spec();
            tweak(&mut s);
            assert!(s.validate().is_err());
        }
    }
}
