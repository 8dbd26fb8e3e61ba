//! How fast the host runs while a pass runs.
//!
//! On a shared VM the same work can run a third faster or slower for
//! seconds to minutes at a time, as other tenants load the machine. A run
//! of the benchmark lasts less than such a phase, so its wall time says as
//! much about the phase as about the program. Before each operation a
//! pass therefore runs a fixed kernel that uses nothing from the program:
//! a pseudo-random read-modify-write walk over a table, with a
//! data-dependent branch. The kernel slows with the host, though by less
//! than the program does, and a pass's times are scaled by
//! [`KERNEL_REF_S`] over the kernel's median time in that pass. The
//! kernel runs outside every timed region.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's table: 2^TABLE_BITS words.
const TABLE_BITS: u32 = 17;

/// Steps of one kernel call.
const STEPS: u64 = 800_000;

/// Nominal duration of one kernel call, in seconds: about its median on
/// the reference 2-vCPU VM. A pass whose kernel calls take this long has
/// its times reported as measured.
pub const KERNEL_REF_S: f64 = 0.010;

/// Runs the kernel once and returns its duration in seconds.
pub fn kernel() -> f64 {
    let start = Instant::now();
    let mut table: Vec<u64> = (0..1u64 << TABLE_BITS)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mask = table.len() - 1;
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        acc = match x >> 62 {
            0 => acc.wrapping_add(table[i]),
            1 => acc ^ table[i].rotate_left(7),
            2 => {
                table[i] = acc;
                acc.wrapping_mul(3)
            }
            _ => acc.wrapping_sub(x),
        };
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}
