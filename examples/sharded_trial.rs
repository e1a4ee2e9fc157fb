//! Sharded trial: run the same parallel region at several shard counts
//! and verify the simulator's promise — shard count changes host
//! wall-clock, never a single byte of the model's output (DESIGN.md
//! §4h). The CLI flag `--shards N` is this API surfaced on sweeps and
//! serve; here we drive `try_parallel_sharded` directly.
//!
//! ```sh
//! cargo run --release --example sharded_trial
//! ```

use nqp::sim::{Counters, NumaSim, SimConfig, VAddr, SMALL_PAGE};
use nqp::topology::machines;

const WORKERS: usize = 8;
const ARENA: u64 = SMALL_PAGE * 64;

/// One trial: map per-worker arenas serially, then hammer them in a
/// sharded region (random-ish reads, writes, and read-modify-writes),
/// merging per-worker checksums at the epoch boundary. Returns
/// everything the region observed, so the caller can diff runs.
fn trial(shards: usize) -> (u64, u64, Counters) {
    let cfg = SimConfig::tuned(machines::machine_b()).with_shards(shards);
    let mut sim = NumaSim::new(cfg);

    // Structural work (map/unmap) happens outside sharded regions —
    // inside one it would be a typed `SimError::Harness` fault.
    let mut bases: Vec<VAddr> = Vec::new();
    sim.try_serial(&mut bases, |w, bases| {
        for _ in 0..WORKERS {
            bases.push(w.map_pages(ARENA));
        }
    })
    .expect("the arenas map");

    let (stats, partials) = sim
        .try_parallel_sharded(WORKERS, &bases[..], |w, bases| {
            let base = bases[w.tid()];
            let salt = w.tid() as u64 * 0x9e37_79b9;
            let mut sum = 0u64;
            for i in 0..512u64 {
                let at = base + (i * 1193) % (ARENA - 8);
                w.write_u64(at, i ^ salt);
                sum = sum.wrapping_add(w.read_u64(at));
                sum ^= w.rmw_u64(at, |v| v.rotate_left(7));
            }
            sum
        })
        .expect("the sharded region completes");

    let merged = partials
        .into_iter()
        .fold(0u64, |acc, p| acc.rotate_left(9) ^ p);
    (merged, stats.elapsed_cycles, stats.counters)
}

fn main() {
    let (sum1, cycles1, counters1) = trial(1);
    println!("shards=1: checksum {sum1:#018x}, {cycles1} model cycles");
    for shards in [2, 4, 7] {
        let (sum, cycles, counters) = trial(shards);
        let same = sum == sum1 && cycles == cycles1 && counters == counters1;
        println!(
            "shards={shards}: checksum {sum:#018x}, {cycles} model cycles — identical: {same}"
        );
        assert!(same, "shard count must be invisible in the model output");
    }
    println!("byte-identical at every shard count (host threads differ, bytes never)");
}
