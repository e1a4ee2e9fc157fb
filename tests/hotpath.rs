//! Differential tests for the page-granular fast path (DESIGN.md §4e).
//!
//! The fast path must be *bit-identical* to the per-line reference
//! model (`SimConfig::reference_model`): same cycles, same counters,
//! same trace artifacts, byte for byte. These tests drive the two
//! models with identical inputs and assert exact equality — first over
//! proptest-generated mixed workloads through the library, then over
//! real `sweep --trace-dir` artifacts written by the real `nqp-cli`
//! binary with `NQP_REFERENCE=1` flipping the model.

use nqp::sim::{
    Access, FaultKind, FaultPlan, NumaSim, SimConfig, ThreadPlacement, TraceConfig, LINE,
    SMALL_PAGE,
};
use nqp::topology::machines;
use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One interpreted step of the generated workload: an opcode plus two
/// operand words, decoded in `run_ops` below. Keeping the program a
/// flat data vector (rather than a strategy per variant) lets proptest
/// shrink failures to short readable traces.
type Op = (u8, u64, u64);

/// The configurations under test. Spanning pinned/unpinned threads,
/// THP, AutoNUMA, both machines, and an active fault plan covers every
/// invalidation edge of the uWalk memo: hint faults, migrations, TLB
/// flushes, epoch rollover, and fault-event reroutes.
fn config(idx: usize) -> SimConfig {
    match idx {
        0 => SimConfig::os_default(machines::machine_b())
            .with_threads(ThreadPlacement::Sparse)
            .with_autonuma(false)
            .with_thp(false),
        1 => SimConfig::os_default(machines::machine_a()),
        2 => SimConfig::os_default(machines::machine_b()).with_faults(
            FaultPlan::new(17)
                .with_event(
                    0,
                    u64::MAX,
                    FaultKind::LinkDegrade { link: 1, latency_x: 2.5, bandwidth_div: 2.0 },
                )
                .with_event(
                    0,
                    u64::MAX,
                    FaultKind::PreemptionStorm { period_cycles: 30_000 },
                ),
        ),
        _ => SimConfig::os_default(machines::machine_b())
            .with_trace(TraceConfig::default().with_epoch_cycles(25_000).with_label("hotpath")),
    }
}

/// Interpret the op program inside a worker. Every worker starts with
/// one 16-page arena and grows/shrinks a local region list, so maps,
/// unmaps, ranged touches, typed reads/writes, RMWs, DMA bursts,
/// interleaved line-by-line streams and batched probes mix — with
/// addresses perturbed per thread. With `hints`, group-prefetch hints
/// are interleaved everywhere: `prefetch` / `prefetch_deref` before
/// each op on its address and on the raw operand words (mostly unmapped
/// addresses), and `prefetch_group` over the batched probe's slots.
/// Hints must not change anything the program observes.
fn run_ops(w: &mut nqp::sim::Worker<'_>, ops: &[Op], hints: bool) {
    let mut regions: Vec<(u64, u64)> = vec![(w.map_pages(SMALL_PAGE * 16), SMALL_PAGE * 16)];
    let salt = w.tid() as u64 * 0x9e37_79b9;
    for &(op, a, b) in ops {
        let (base, bytes) = regions[(a.wrapping_add(salt) % regions.len() as u64) as usize];
        // Keep 640 bytes of headroom so multi-word accesses stay mapped.
        let off = b.wrapping_add(salt) % (bytes - 640);
        if hints {
            let access = if op & 1 == 1 { Access::Write } else { Access::Read };
            w.prefetch(base + off, access);
            w.prefetch_deref(base + (off & !7), access);
            w.prefetch(a, access);
            w.prefetch_deref(b, access);
        }
        match op % 9 {
            0 => w.touch(base + off, a % 600 + 1, Access::Read),
            1 => w.touch(base + off, b % 600 + 1, Access::Write),
            2 => {
                let mut buf = [0u64; 16];
                let n = (a % 16 + 1) as usize;
                w.read_u64_run(base + (off & !7), &mut buf[..n]);
            }
            3 => {
                w.rmw_u64(base + (off & !7), |v| v.wrapping_add(1));
            }
            4 => {
                let sz = SMALL_PAGE * (a % 8 + 1);
                regions.push((w.map_pages(sz), sz));
            }
            5 => {
                if regions.len() > 1 {
                    let (addr, sz) = regions.swap_remove(regions.len() - 1);
                    w.unmap_pages(addr, sz);
                } else {
                    w.dma_lines(base + off, b % 32 + 1);
                }
            }
            6 => {
                w.write_u64_run(base + (off & !7), &[a, b, a ^ b]);
            }
            7 => {
                // Batched probe: eight independent slots, hinted as a
                // group (heads, then what they hold), then charged in
                // order; the last slot is written with what was read.
                let slots: Vec<u64> = (0..8u32)
                    .map(|k| base + (b.rotate_left(k * 7).wrapping_add(salt) % (bytes - 640) & !7))
                    .collect();
                if hints {
                    w.prefetch_group(slots.iter().copied(), Access::Read);
                }
                let sum = slots.iter().fold(a, |acc, &slot| acc.wrapping_add(w.read_u64(slot)));
                w.write_u64(slots[7], sum);
            }
            _ => {
                // Interleaved streams: 2–3 cursors each advance one line
                // per step with single-line touches, crossing page
                // boundaries, so the stream lookahead fires and the
                // other cursors' lines land between its steps.
                let lines = bytes / LINE;
                let len = (a % 96 + 16).min(lines / 2);
                let cursors = 2 + (a / 96) % 2;
                let cell = (a >> 8) % 8 * 8;
                for step in 0..len {
                    for c in 0..cursors {
                        let start = (b >> (c * 16)) % (lines - len);
                        let access =
                            if (b >> (48 + c)) & 1 == 1 { Access::Write } else { Access::Read };
                        w.touch(base + (start + step) * LINE + cell, 8, access);
                    }
                }
            }
        }
        if w.fault().is_some() {
            return;
        }
    }
    for (addr, sz) in regions {
        w.unmap_pages(addr, sz);
    }
}

/// Run the op program under one model and return everything observable:
/// final clock, machine-wide counters, per-region stats, and the trace
/// log (when the config records one).
#[allow(clippy::type_complexity)]
fn observe(
    cfg: SimConfig,
    threads: usize,
    ops: &[Op],
    reference: bool,
    hints: bool,
) -> (u64, nqp::sim::Counters, Vec<(u64, nqp::sim::Counters)>, Option<nqp::sim::TraceLog>) {
    let mut sim = NumaSim::new(cfg.with_reference_model(reference));
    let mut stats = Vec::new();
    let mut shared = ops.to_vec();
    for _ in 0..2 {
        let s = sim.try_parallel(threads, &mut shared, |w, ops| run_ops(w, ops, hints))
            .expect("fault-free region");
        stats.push((s.elapsed_cycles, s.counters));
    }
    (sim.now_cycles(), sim.counters(), stats, sim.take_trace())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The heavy differential property: arbitrary mixed workloads —
    /// ranged touches, typed bulk reads/writes, RMWs, maps, unmaps,
    /// DMA — under every configuration class must produce *identical*
    /// cycles, counters, per-region stats, and trace logs on the fast
    /// path and the per-line reference model.
    #[test]
    fn fast_path_is_bit_identical_to_reference(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..80),
        cfg_idx in 0usize..4,
        threads in 1usize..5,
    ) {
        let fast = observe(config(cfg_idx), threads, &ops, false, false);
        let reference = observe(config(cfg_idx), threads, &ops, true, false);
        prop_assert_eq!(fast.0, reference.0, "final clock diverges");
        prop_assert_eq!(fast.1, reference.1, "counters diverge");
        prop_assert_eq!(fast.2, reference.2, "per-region stats diverge");
        prop_assert_eq!(fast.3, reference.3, "trace logs diverge");
    }

    /// Group-prefetch hints are pure: the same program with hints
    /// interleaved (batched probes included) produces the cycles,
    /// counters, per-region stats and trace log of the program without
    /// them, on the fast path and on the reference model alike.
    #[test]
    fn prefetch_hints_change_nothing(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..80),
        cfg_idx in 0usize..4,
        threads in 1usize..5,
    ) {
        let plain = observe(config(cfg_idx), threads, &ops, false, false);
        let hinted = observe(config(cfg_idx), threads, &ops, false, true);
        let hinted_reference = observe(config(cfg_idx), threads, &ops, true, true);
        prop_assert_eq!(&hinted, &plain, "hints moved the fast path");
        prop_assert_eq!(&hinted_reference, &plain, "hinted reference diverges from the fast path");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("nqp-hotpath-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_artifacts(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Through the real binary: a traced sweep run under `NQP_REFERENCE=1`
/// must write byte-identical CSV and `.trace` artifacts to the default
/// fast-path run — the model switch is invisible in every artifact.
#[test]
fn sweep_artifacts_identical_under_reference_model() {
    let run = |reference: bool| {
        let dir = temp_dir(if reference { "ref" } else { "fast" });
        let csv = dir.join("sweep.csv");
        let trace_dir = dir.join("traces");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_nqp-cli"));
        cmd.args([
            "sweep", "w1", "--machine", "B", "--threads", "4", "--n", "6000", "--card",
            "600", "--trials", "2",
        ]);
        cmd.arg("--csv").arg(&csv);
        cmd.arg("--trace-dir").arg(&trace_dir);
        if reference {
            cmd.env("NQP_REFERENCE", "1");
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "sweep failed (reference={reference}): {out:?}");
        (out.stdout, std::fs::read(&csv).unwrap(), read_artifacts(&trace_dir))
    };
    let fast = run(false);
    let reference = run(true);
    assert_eq!(
        String::from_utf8_lossy(&fast.0),
        String::from_utf8_lossy(&reference.0),
        "sweep stdout diverges between models"
    );
    assert_eq!(fast.1, reference.1, "sweep CSV diverges between models");
    assert_eq!(fast.2.len(), 4, "expected 2 configs x 2 trials of trace artifacts");
    assert_eq!(fast.2, reference.2, "trace artifacts diverge between models");
}
