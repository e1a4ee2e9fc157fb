//! NUMA playground: build a custom machine, place memory three ways, and
//! watch the counters — a tour of the simulator's mechanics.
//!
//! ```sh
//! cargo run --release --example numa_playground
//! ```

use nqp::sim::{MemPolicy, NumaSim, SimConfig, ThreadPlacement};
use nqp::topology::{ring, CacheSpec, MachineSpec, TlbSpec};

/// A hypothetical 6-node ring machine (not in the paper) to show the
/// library is not hard-wired to Table II.
fn ring_machine() -> MachineSpec {
    MachineSpec {
        name: "RING6".into(),
        cpu_model: "6x Hypothetical".into(),
        cpu_mhz: 2000,
        topology: ring(6, vec![1.0, 1.3, 1.6, 1.9]).expect("ring topology is valid"),
        threads_per_node: 4,
        cores_per_node: 4,
        llc: CacheSpec { size_bytes: 4 << 20, line_bytes: 64, hit_cycles: 40 },
        tlb_4k: TlbSpec { l1_entries: 64, l2_entries: 512 },
        tlb_2m: TlbSpec { l1_entries: 32, l2_entries: 0 },
        mem_per_node_bytes: 8 << 30,
        dram_latency_cycles: 250,
        controller_lines_per_cycle: 0.01,
        link_lines_per_cycle: 0.02,
        mem_tiers: vec![],
        memory_only_nodes: 0,
        slow_mem_per_node_bytes: None,
    }
}

fn main() {
    let machine = ring_machine();
    println!("{}", nqp::topology::render_ascii(&machine.topology));

    for policy in MemPolicy::ALL {
        let cfg = SimConfig::os_default(machine.clone())
            .with_threads(ThreadPlacement::Sparse)
            .with_policy(policy)
            .with_autonuma(false)
            .with_thp(false);
        let mut sim = NumaSim::new(cfg);
        // 24 threads each stream through a shared buffer.
        let mut buf = 0;
        sim.try_serial(&mut buf, |w, buf| {
            *buf = w.map_pages(8 << 20);
        })
        .expect("the buffer maps");
        let stats = sim
            .try_parallel(24, &mut buf, |w, buf| {
                for i in 0..(1 << 13) {
                    w.write_u64(*buf + (i * 997 * 64) % (8 << 20), i);
                }
            })
            .expect("the streaming region completes");
        let c = stats.counters;
        println!(
            "{:<12} elapsed={:>9}  LAR={:>4.0}%  peak-controller={:>4.0}%  bottleneck={:?}",
            policy.label(),
            stats.elapsed_cycles,
            c.local_access_ratio() * 100.0,
            stats.peak_controller_utilisation() * 100.0,
            stats.bottleneck
        );
    }
    println!(
        "\nPreferred(0) funnels everything through one controller; Interleave\n\
         spreads it; First Touch follows whoever faults a page first."
    );
}
