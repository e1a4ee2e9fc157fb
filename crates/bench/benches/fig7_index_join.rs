//! Figure 7: the index nested-loop join (W4) — join time per index ×
//! allocator × memory placement on Machine A, and build+join times at
//! each index's best configuration (7e).

use nqp_alloc::AllocatorKind;
use nqp_bench::{banner, gcyc, join_r_size, scale, Scale, Tbl, SEED};
use nqp_core::TuningConfig;
use nqp_datagen::JoinDataset;
use nqp_indexes::IndexKind;
use nqp_query::try_run_inl_join_on;
use nqp_sim::{MemPolicy, ThreadPlacement};
use nqp_topology::machines;

fn main() {
    banner("Figure 7 — Index nested-loop join (W4, Machine A)");
    let r_size = match scale() {
        Scale::Quick => join_r_size() / 2,
        Scale::Full => join_r_size(),
    };
    let data = JoinDataset::generate(r_size, SEED);
    let policies = [MemPolicy::FirstTouch, MemPolicy::Interleave, MemPolicy::Localalloc];

    let mut best: Vec<(IndexKind, u64, u64, String)> = Vec::new();
    for index in IndexKind::ALL {
        let mut t = Tbl::new(["allocator", "First Touch", "Interleave", "Localalloc"]);
        let mut best_for_index: Option<(u64, u64, String)> = None;
        for alloc in AllocatorKind::MAIN {
            let mut row = vec![alloc.label().to_string()];
            for policy in policies {
                let c = TuningConfig::os_default(machines::machine_a())
                    .with_threads(ThreadPlacement::Sparse)
                    .with_policy(policy)
                    .with_autonuma(false)
                    .with_thp(false)
                    .with_allocator(alloc);
                let out = try_run_inl_join_on(&c.env(16), index, &data).expect("fault-free run");
                row.push(gcyc(out.join_cycles));
                let label = format!("{}+{}", alloc.label(), policy.label());
                if best_for_index
                    .as_ref()
                    .is_none_or(|(j, _, _)| out.join_cycles < *j)
                {
                    best_for_index = Some((out.join_cycles, out.build_cycles, label));
                }
            }
            t.row(row);
        }
        t.print(&format!("Figure 7 — {} index, join time (Gcyc)", index.label()));
        let (join, build, label) = best_for_index.expect("at least one configuration ran");
        best.push((index, join, build, label));
    }

    let mut t = Tbl::new(["index", "build (Gcyc)", "join (Gcyc)", "best configuration"]);
    for (index, join, build, label) in best {
        t.row([index.label().to_string(), gcyc(build), gcyc(join), label]);
    }
    t.print("Figure 7e — Build and join times at each index's best configuration");
    println!(
        "\nPaper shape: ART's varied node sizes reward jemalloc/tbbmalloc; \
         Masstree and B+tree favour superblock-style allocation; the \
         pre-built index makes W4's allocator gains smaller than W3's; ART \
         and B+tree are the two fastest indexes."
    );
}
