//! Integration tests for the open-loop serve driver: bit-identical
//! replay across serial / parallel / kill-and-resume execution, chaos
//! behaviour under a mid-serve node outage, and the journal round-trip
//! of serve cells — the same discipline `tests/parallel.rs` and
//! `tests/resume.rs` pin for sweeps.

use nqp::core::journal::{grid_fingerprint, read_journal, JournalWriter};
use nqp::serve::{
    run_cells, ArrivalSpec, CellInput, CellStats, ClassProfile, OutageSpec, ServeAdvisor,
    ServeReport, ServeSpec,
};
use nqp::sim::SimResult;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_journal(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("nqp-serve-{}-{tag}-{n}.jsonl", std::process::id()))
}

/// Synthetic calibrated profiles: two classes with different service
/// shapes (a cheap scan and a two-phase join), degraded variants ~50%
/// slower, nonzero evacuation bills.
fn profiles() -> Vec<ClassProfile> {
    vec![
        ClassProfile {
            name: "w1".into(),
            healthy: vec![("agg:build".into(), 500_000), ("agg:finalize".into(), 120_000)],
            degraded: vec![("agg:build".into(), 760_000), ("agg:finalize".into(), 180_000)],
            evacuated_pages: 96,
        },
        ClassProfile {
            name: "w3".into(),
            healthy: vec![("hj:build".into(), 300_000), ("hj:probe".into(), 900_000)],
            degraded: vec![("hj:build".into(), 450_000), ("hj:probe".into(), 1_350_000)],
            evacuated_pages: 160,
        },
    ]
}

fn spec(rate_milli: u64, outage: Option<OutageSpec>) -> ServeSpec {
    ServeSpec {
        tenants: 6,
        duration_mcycles: 40,
        arrivals: ArrivalSpec::Burst {
            rate_milli,
            mult: 6,
            on_mcycles: 6,
            off_mcycles: 10,
        },
        lanes: 3,
        queue_cap: 8,
        bucket_cap: 12,
        refill_milli_per_mcycle: 6_000,
        deadline_mcycles: 4,
        breaker_threshold: 6,
        epoch_mcycles: 4,
        outage,
        advisor: ServeAdvisor::default(),
        seed: 1234,
    }
}

fn cells(rate_milli: u64, outage: Option<OutageSpec>) -> Vec<CellInput> {
    ["os-default", "tuned"]
        .iter()
        .map(|n| CellInput { config: (*n).to_string(), spec: spec(rate_milli, outage) })
        .collect()
}

/// The tuned cell gets faster profiles — cells must not share state.
fn calibrate(i: usize) -> SimResult<Vec<ClassProfile>> {
    let mut p = profiles();
    if i == 1 {
        for c in &mut p {
            for ph in c.healthy.iter_mut().chain(c.degraded.iter_mut()) {
                ph.1 = (ph.1 * 2) / 3;
            }
        }
    }
    Ok(p)
}

fn run(
    grid: &[CellInput],
    adopted: &HashMap<String, CellStats>,
    jobs: usize,
    max_cells: Option<usize>,
    journal: Option<&PathBuf>,
) -> ServeReport {
    let fp = grid_fingerprint("serve test grid");
    let mut writer = journal.map(|p| {
        JournalWriter::create(p, &fp, "serve test grid").expect("create journal")
    });
    let mut sink = |stats: &CellStats, _: &[ClassProfile], _: &[nqp::serve::Session]| {
        if let Some(w) = writer.as_mut() {
            w.record(stats).expect("journal append");
        }
        Ok(())
    };
    run_cells(grid, adopted, jobs, max_cells, false, &calibrate, &mut sink)
        .expect("serve run")
}

#[test]
fn serial_parallel_and_resumed_runs_are_bit_identical() {
    let grid = cells(4_000, None);
    let serial = run(&grid, &HashMap::new(), 1, None, None);
    let parallel = run(&grid, &HashMap::new(), 4, None, None);
    assert_eq!(serial, parallel, "--jobs N must not change a single byte");

    // Kill after one cell (the deterministic interruption), then adopt
    // the journaled cell and finish: report and re-rendered outputs
    // must match the uninterrupted run exactly.
    let jpath = temp_journal("kill-resume");
    let partial = run(&grid, &HashMap::new(), 1, Some(1), Some(&jpath));
    assert!(partial.interrupted);
    assert_eq!(partial.cells.len(), 1);

    let contents = read_journal::<CellStats>(&jpath).expect("read journal back");
    assert!(!contents.torn);
    let mut adopted = HashMap::new();
    for cell in contents.records {
        adopted.insert(cell.config.clone(), cell);
    }
    assert_eq!(adopted.len(), 1);

    let resumed = run(&grid, &adopted, 1, None, None);
    assert!(!resumed.interrupted);
    assert_eq!(resumed, serial, "kill-and-resume must reproduce the full run");
    assert_eq!(resumed.table(), serial.table());
    assert_eq!(resumed.to_csv(), serial.to_csv());
    assert_eq!(resumed.to_json(), serial.to_json());
    let _ = std::fs::remove_file(&jpath);
}

#[test]
fn torn_journal_tail_is_discarded_and_rerun() {
    let grid = cells(4_000, None);
    let jpath = temp_journal("torn");
    let full = run(&grid, &HashMap::new(), 1, None, Some(&jpath));

    // Tear the last record mid-line, as a crash mid-append would.
    let data = std::fs::read(&jpath).expect("journal bytes");
    std::fs::write(&jpath, &data[..data.len() - 37]).expect("tear journal");
    let contents = read_journal::<CellStats>(&jpath).expect("read torn journal");
    assert!(contents.torn);
    assert_eq!(contents.records.len(), 1, "only the intact cell survives");

    let mut adopted = HashMap::new();
    for cell in contents.records {
        adopted.insert(cell.config.clone(), cell);
    }
    let resumed = run(&grid, &adopted, 1, None, None);
    assert_eq!(resumed, full, "re-running the torn cell reconverges");
    let _ = std::fs::remove_file(&jpath);
}

/// Each cell is journaled the moment it finishes, not when the grid
/// does: calibrating cell 1 (serially, after cell 0) already finds cell
/// 0's record durable on disk — so a kill at that point loses nothing
/// that finished.
#[test]
fn each_cell_is_durable_before_the_next_one_starts() {
    let grid = cells(4_000, None);
    let jpath = temp_journal("write-ahead");
    let fp = grid_fingerprint("serve test grid");
    let mut writer = JournalWriter::create(&jpath, &fp, "serve test grid").expect("create");
    let mut sink = |stats: &CellStats, _: &[ClassProfile], _: &[nqp::serve::Session]| {
        writer.record(stats).expect("journal append");
        Ok(())
    };
    let on_disk_at_cell_1 = std::sync::Mutex::new(None);
    let calibrate_and_peek = |i: usize| {
        if i == 1 {
            let contents = read_journal::<CellStats>(&jpath).expect("journal readable mid-run");
            let configs: Vec<String> = contents.records.into_iter().map(|c| c.config).collect();
            *on_disk_at_cell_1.lock().unwrap() = Some(configs);
        }
        calibrate(i)
    };
    let report = run_cells(&grid, &HashMap::new(), 1, None, false, &calibrate_and_peek, &mut sink)
        .expect("serve run");
    assert_eq!(report.cells.len(), 2);
    assert_eq!(
        on_disk_at_cell_1.into_inner().unwrap(),
        Some(vec!["os-default".to_string()]),
        "cell 0 must be journaled before cell 1 calibrates"
    );
    let _ = std::fs::remove_file(&jpath);
}

#[test]
fn node_offline_mid_serve_sheds_evacuates_and_recovers() {
    // Chaos drill: node 1 dies at 12 Mcycles, comes back at 24, while a
    // burst is in flight. The contract: the run drains (not a wedged
    // queue), load is shed, the evacuation is charged, and service
    // recovers after the window.
    let outage = Some(OutageSpec { start_mcycles: 12, end_mcycles: 24, node: 1 });
    let grid = cells(8_000, outage);
    let report = run(&grid, &HashMap::new(), 1, None, None);

    assert!(!report.interrupted, "an outage is not an interruption");
    for cell in &report.cells {
        let t = cell.totals();
        assert!(t.arrivals > 100, "burst grid produced work ({})", t.arrivals);
        assert_eq!(
            t.arrivals,
            t.admitted + t.shed(),
            "every arrival resolves to admit-or-shed"
        );
        assert_eq!(t.admitted, t.completed + t.timeouts, "no session is lost");
        assert!(t.shed() > 0, "overload plus outage must shed ({:?})", t);
        assert_eq!(
            cell.evacuated_pages, 160,
            "worst-class evacuation charged exactly once"
        );
        assert!(t.degraded > 0, "outage window serves sampled answers");
        assert!(
            cell.max_depth <= (6 * 8) as u64,
            "queue depth stays bounded: {}",
            cell.max_depth
        );
        assert!(cell.hist.p99() > 0, "p99 is still reported under chaos");
        // Recovery: the last epoch with arrivals runs below ladder
        // level 3 (the outage tier) once the node is back.
        let last_active =
            cell.epochs.iter().rev().find(|e| e.arrivals > 0).expect("active epochs");
        assert!(
            last_active.level < 3,
            "ladder must come back down after the outage: {:?}",
            last_active
        );
    }
}

#[test]
fn epoch_rows_telescope_and_ladder_reacts_to_load() {
    let grid = cells(10_000, None);
    let report = run(&grid, &HashMap::new(), 1, None, None);
    for cell in &report.cells {
        let t = cell.totals();
        let sum = |f: fn(&nqp::serve::EpochRow) -> u64| -> u64 {
            cell.epochs.iter().map(f).sum()
        };
        assert_eq!(sum(|e| e.arrivals), t.arrivals);
        assert_eq!(sum(|e| e.admitted), t.admitted);
        assert_eq!(sum(|e| e.completed), t.completed);
        assert_eq!(sum(|e| e.shed), t.shed());
        assert_eq!(sum(|e| e.timeouts), t.timeouts);
        // Under a 6x burst the ladder must leave level 0 at some point.
        assert!(
            cell.epochs.iter().any(|e| e.level > 0),
            "burst overload never moved the ladder: {:?}",
            cell.epochs
        );
    }
}
