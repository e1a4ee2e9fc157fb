//! Host-process facts: peak resident memory and system CPU time read
//! from `/proc`, and the host's current speed, timed on a fixed
//! reference kernel.

use std::fs;
use std::time::Instant;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// System (kernel) CPU seconds this process has used so far; 0 when
/// `/proc` is unreadable (the value is a diagnostic only).
pub fn sys_secs() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3,
    // stime field 15.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(12))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Words in the reference kernel's table: 32 MiB, larger than a host
/// core's private caches and a sizeable share of a shared LLC, like the
/// simulator's own tables.
const REFERENCE_WORDS: usize = 1 << 22;
/// Random read-modify-write updates per reference run.
const REFERENCE_UPDATES: usize = 3_000_000;

/// The reference kernel's seconds at the nominal host speed: about its
/// time on a quiet 2.0 GHz Xeon vCPU. Host times are reported as if the
/// host had run at that speed.
pub const REFERENCE_NOMINAL_SECS: f64 = 0.04;

/// A fixed piece of benchmark code whose run time tracks how fast the
/// host runs the simulator at the moment: random read-modify-writes over
/// a 32 MiB table. Other tenants of the host slow the simulator by a
/// third or more for minutes at a time, and slow this kernel alike; the
/// library never runs it, so a change to the library cannot move it.
pub struct Reference {
    table: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            table: vec![0; REFERENCE_WORDS],
        }
    }

    /// Run the kernel once and return its host seconds.
    pub fn secs(&mut self) -> f64 {
        let t = Instant::now();
        let mask = self.table.len() - 1;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..REFERENCE_UPDATES {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize & mask];
            *slot = slot.wrapping_add(x);
        }
        std::hint::black_box(&mut self.table);
        t.elapsed().as_secs_f64()
    }
}
