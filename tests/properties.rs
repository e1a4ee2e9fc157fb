//! Property-based tests (proptest) on the core data structures and
//! invariants, spanning crates.

use nqp::alloc::{build, AllocatorKind};
use nqp::datagen::tpch::dates;
use nqp::datagen::{generate, Dataset, JoinDataset, Zipf};
use nqp::indexes::{build_index, IndexKind};
use nqp::sim::{MemPolicy, NumaSim, SimConfig, ThreadPlacement};
use nqp::storage::SimHeap;
use nqp::topology::{fully_connected, machines, ring, twisted_ladder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn quiet_sim() -> NumaSim {
    NumaSim::new(
        SimConfig::os_default(machines::machine_b())
            .with_threads(ThreadPlacement::Sparse)
            .with_autonuma(false)
            .with_thp(false),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every index behaves exactly like a BTreeMap under arbitrary
    /// insert/lookup interleavings.
    #[test]
    fn indexes_match_btreemap(
        ops in prop::collection::vec((any::<bool>(), 0u64..300, any::<u64>()), 1..200),
        kind_idx in 0usize..4,
    ) {
        let kind = IndexKind::ALL[kind_idx];
        let mut sim = quiet_sim();
        let heap = SimHeap::new(AllocatorKind::Tbbmalloc, &mut sim).expect("heap");
        let mut shared = (heap, build_index(kind), BTreeMap::new(), ops);
        sim.try_serial(&mut shared, |w, (heap, index, model, ops)| {
            for (is_insert, key, value) in ops.iter() {
                if *is_insert {
                    index.insert(w, heap, *key, *value);
                    model.insert(*key, *value);
                } else {
                    assert_eq!(index.get(w, *key), model.get(key).copied());
                }
            }
            assert_eq!(index.len(), model.len() as u64);
        }).expect("fault-free region");
    }

    /// Allocators never hand out overlapping live blocks, never lose
    /// track of requested bytes, and resident >= requested.
    #[test]
    fn allocators_preserve_block_disjointness(
        sizes in prop::collection::vec(1u64..5000, 1..80),
        kind_idx in 0usize..7,
    ) {
        let kind = AllocatorKind::ALL[kind_idx];
        let mut sim = quiet_sim();
        let alloc = build(kind, &mut sim).expect("allocator");
        let mut shared = (alloc, sizes);
        sim.try_parallel(2, &mut shared, |w, (alloc, sizes)| {
            let mut live: Vec<(u64, u64)> = Vec::new();
            for &size in sizes.iter() {
                let p = alloc.alloc(w, size);
                for &(q, qs) in &live {
                    assert!(p + size <= q || q + qs <= p,
                        "overlap: [{p},{size}) vs [{q},{qs})");
                }
                live.push((p, size));
            }
            let expect: u64 = sizes.iter().sum::<u64>() * (w.tid() as u64 + 1);
            assert!(alloc.live_requested() >= expect / 2);
            for (p, s) in live {
                alloc.free(w, p, s);
            }
        }).expect("fault-free region");
        prop_assert_eq!(shared.0.live_requested(), 0, "leak in {:?}", kind);
        prop_assert!(shared.0.peak_resident() >= shared.0.peak_requested());
    }

    /// Dataset generators stay in their key domain and produce exactly n
    /// records, for every distribution and parameter combination.
    #[test]
    fn generators_respect_domain(
        n in 1usize..3000,
        card in 1u64..500,
        seed in any::<u64>(),
        which in 0usize..5,
    ) {
        let dataset = [
            Dataset::MovingCluster,
            Dataset::Sequential,
            Dataset::Zipfian,
            Dataset::HeavyHitter,
            Dataset::Uniform,
        ][which];
        let records = generate(dataset, n, card, seed);
        prop_assert_eq!(records.len(), n);
        prop_assert!(records.iter().all(|r| r.key < card));
        // Determinism.
        prop_assert_eq!(&records, &generate(dataset, n, card, seed));
    }

    /// Zipf samples stay in-domain for arbitrary cardinalities/exponents.
    #[test]
    fn zipf_stays_in_domain(card in 1u64..2000, exp in 0.0f64..3.0, seed in any::<u64>()) {
        let z = Zipf::new(card, exp);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(z.sample(&mut rng) < card);
        }
    }

    /// Date parse/format round-trips across the whole TPC-H range.
    #[test]
    fn dates_round_trip(days in 0i32..2500) {
        let text = dates::format(days);
        prop_assert_eq!(dates::parse(&text), Ok(days));
        // Month arithmetic inverts (for non-clamped days).
        let d = dates::parse(&format!("{}-{:02}-01", 1992 + days / 900, 1 + (days % 12) as u32))
            .expect("well-formed literal");
        prop_assert_eq!(dates::add_months(dates::add_months(d, 5), -5), d);
    }

    /// Join datasets: R is a permutation, S references only R's keys.
    #[test]
    fn join_dataset_integrity(r in 1usize..500, ratio in 1usize..8, seed in any::<u64>()) {
        let d = JoinDataset::generate_with_ratio(r, ratio, seed);
        prop_assert_eq!(d.r.len(), r);
        prop_assert_eq!(d.s.len(), r * ratio);
        let mut keys: Vec<u64> = d.r.iter().map(|t| t.key).collect();
        keys.sort_unstable();
        prop_assert!(keys.iter().enumerate().all(|(i, &k)| k == i as u64));
        prop_assert!(d.s.iter().all(|t| t.key < r as u64));
    }

    /// Topology invariants: symmetric hop distances, zero diagonal, and
    /// shortest paths of matching length, for three builder families.
    #[test]
    fn topology_invariants(n in 2usize..9, which in 0usize..3) {
        let tiers: Vec<f64> = (0..16).map(|i| 1.0 + 0.2 * i as f64).collect();
        let topo = match which {
            0 => fully_connected(n, tiers).unwrap(),
            1 => ring(n, tiers).unwrap(),
            _ => twisted_ladder(tiers).unwrap(),
        };
        let nodes = topo.num_nodes();
        for a in 0..nodes {
            prop_assert_eq!(topo.hops(a, a), 0);
            for b in 0..nodes {
                prop_assert_eq!(topo.hops(a, b), topo.hops(b, a));
                let path = topo.shortest_path(a, b);
                prop_assert_eq!(path.len(), topo.hops(a, b) + 1);
                prop_assert_eq!(path[0], a);
                prop_assert_eq!(*path.last().unwrap(), b);
            }
        }
    }

    /// The simulator is a pure function of its configuration: identical
    /// seeds give identical counters, different policies still give
    /// identical *data*.
    #[test]
    fn sim_data_integrity_under_any_policy(
        values in prop::collection::vec(any::<u64>(), 1..100),
        policy_idx in 0usize..4,
    ) {
        let policy = MemPolicy::ALL[policy_idx];
        let mut sim = NumaSim::new(
            SimConfig::os_default(machines::machine_a()).with_policy(policy),
        );
        let mut shared = (0u64, values);
        sim.try_serial(&mut shared, |w, (base, values)| {
            *base = w.map_pages(values.len() as u64 * 8);
            for (i, v) in values.iter().enumerate() {
                w.write_u64(*base + i as u64 * 8, *v);
            }
        }).expect("fault-free region");
        sim.try_parallel(4, &mut shared, |w, (base, values)| {
            for (i, v) in values.iter().enumerate() {
                assert_eq!(w.read_u64(*base + i as u64 * 8), *v);
            }
        }).expect("fault-free region");
    }
}
