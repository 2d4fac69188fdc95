//! The host calibration: a kernel independent of the code under test
//! whose time tracks the host's momentary speed.

use std::time::Instant;

/// What one calibration sample takes on the reference host (a quiet
/// run of the 2-vCPU virtual machine this benchmark was defined on). Timed
/// metrics are scaled by `CALIBRATION_REFERENCE_MS / measured` so that
/// they read as times on that host; the constant never changes, so two
/// commits measured anywhere compare like for like.
pub const CALIBRATION_REFERENCE_MS: f64 = 0.8;

/// Wall time between calibration samples inside a timed loop.
pub const CALIBRATION_EVERY_S: f64 = 0.05;

/// One calibration sample in ms: a fixed amount of hashing and
/// data-dependent table access on a 64 KiB table, the same mix of
/// branchy integer work and cache traffic the simulators do.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut table = vec![0u32; 1 << 14];
    let (mut x, mut acc) = (0x1234_5678u64, 0u64);
    for i in 0..200_000u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        let idx = ((z ^ acc) as usize) & (table.len() - 1);
        acc = acc.wrapping_add(u64::from(table[idx]));
        table[idx] = (z as u32).wrapping_add(i as u32);
        if z & 7 == 0 {
            acc ^= z;
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_takes_measurable_time() {
        let ms = calibration_ms();
        assert!(ms > 0.0 && ms < 1_000.0, "{ms} ms");
    }
}
