//! Criterion microbenchmarks of the core data structures (real wall-time
//! of the implementation, complementing the simulated-cycle harnesses).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use nqp_alloc::AllocatorKind;
use nqp_datagen::{generate, Dataset, JoinDataset, Zipf};
use nqp_indexes::{build_index, IndexKind};
use nqp_query::{try_run_aggregation_on, try_run_hash_join_on, AggConfig, WorkloadEnv};
use nqp_sim::{NumaSim, SimConfig};
use nqp_storage::SimHeap;
use nqp_topology::machines;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench_indexes(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_insert_1k");
    group.measurement_time(Duration::from_secs(2)).sample_size(10);
    for kind in IndexKind::ALL {
        group.bench_function(kind.label(), |b| {
            b.iter_batched(
                || {
                    let mut sim = NumaSim::new(SimConfig::tuned(machines::machine_b()));
                    let heap = SimHeap::new(AllocatorKind::Tbbmalloc, &mut sim).expect("heap");
                    (sim, heap)
                },
                |(mut sim, mut heap)| {
                    let mut index = build_index(kind);
                    sim.try_serial(&mut heap, |w, heap| {
                        for k in 0..1_000u64 {
                            index.insert(w, heap, k.wrapping_mul(0x9e37_79b9), k);
                        }
                    }).expect("fault-free region");
                    index.len()
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("workloads_small");
    group.measurement_time(Duration::from_secs(2)).sample_size(10);
    let env = WorkloadEnv::tuned(machines::machine_b()).with_threads(4);
    let records = generate(Dataset::MovingCluster, 20_000, 2_000, 1);
    let cfg = AggConfig::w1(20_000, 2_000, 1);
    group.bench_function("w1_aggregation_20k", |b| {
        b.iter(|| try_run_aggregation_on(&env, &cfg, &records).expect("fault-free run").exec_cycles)
    });
    let data = JoinDataset::generate(2_000, 1);
    group.bench_function("w3_hash_join_2k_x16", |b| {
        b.iter(|| try_run_hash_join_on(&env, &data).expect("fault-free run").matches)
    });
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("datagen");
    group.measurement_time(Duration::from_secs(2)).sample_size(10);
    group.bench_function("zipf_sample_10k", |b| {
        let z = Zipf::new(100_000, 0.5);
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| (0..10_000).map(|_| z.sample(&mut rng)).sum::<u64>())
    });
    group.bench_function("moving_cluster_100k", |b| {
        b.iter(|| generate(Dataset::MovingCluster, 100_000, 10_000, 7).len())
    });
    group.finish();
}

criterion_group!(benches, bench_indexes, bench_workloads, bench_generators);
criterion_main!(benches);
