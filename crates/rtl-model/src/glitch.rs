//! Combinational hazard (glitch) modeling.
//!
//! A gate-level simulation sees wires settle through intermediate values:
//! when the inputs of the address decoder or a data multiplexer change,
//! unequal path delays make some output bits toggle momentarily before the
//! cone settles. Those hazard transitions dissipate real energy that a
//! cycle-boundary view (the layer-1 TLM energy model) cannot observe —
//! they are the main reason layer 1 *under*estimates against the
//! gate-level reference (Table 2).
//!
//! The model: when a wire group is about to change, each *stable* bit
//! (same value before and after the cycle) may glitch with probability
//! `rate × changed_bits / width` — hazards are caused by activity on the
//! cone's inputs, so more switching means more glitching. The draw is a
//! deterministic hash of (salt, cycle, old, new), keeping runs exactly
//! reproducible.

/// Configuration of the hazard model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlitchConfig {
    /// Master enable; disabled means an ideal zero-hazard netlist.
    pub enabled: bool,
    /// Base glitch probability for a stable bit when *every* other bit in
    /// the group changes (scaled down by actual activity).
    pub rate: f64,
    /// Salt mixed into the hash (distinct per wire group).
    pub salt: u64,
}

impl GlitchConfig {
    /// The default hazard intensity calibrated so the layer-1 model's
    /// cycle-boundary transition count misses high-single-digit percent of
    /// gate-level energy, as in the paper's Table 2.
    pub const DEFAULT_RATE: f64 = 0.08;

    /// Enabled, default rate.
    pub fn on(salt: u64) -> Self {
        GlitchConfig {
            enabled: true,
            rate: Self::DEFAULT_RATE,
            salt,
        }
    }

    /// Disabled (ideal netlist).
    pub fn off() -> Self {
        GlitchConfig {
            enabled: false,
            rate: 0.0,
            salt: 0,
        }
    }

    /// Computes the hazard mask for a group transition `old → new` in
    /// `cycle`: a subset of the bits that are stable across the transition
    /// which momentarily toggle. Returns 0 when disabled or nothing
    /// changes.
    pub(crate) fn hazard_mask(&self, cycle: u64, old: u64, new: u64, width: u32) -> u64 {
        if !self.enabled {
            return 0;
        }
        let changed = old ^ new;
        if changed == 0 {
            return 0;
        }
        let activity = changed.count_ones() as f64 / width as f64;
        let p = self.rate * activity;
        // Threshold for a 16-bit per-bit hash draw.
        let threshold = (p * 65536.0) as u64;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let stable = !changed & mask;
        let mut hazards = 0u64;
        let mut bits = stable;
        while bits != 0 {
            let b = bits.trailing_zeros() as u64;
            let h = splitmix64(
                self.salt
                    ^ cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ old.rotate_left(17)
                    ^ new.rotate_left(31)
                    ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9),
            );
            if (h & 0xFFFF) < threshold {
                hazards |= 1 << b;
            }
            bits &= bits - 1;
        }
        hazards
    }
}

impl Default for GlitchConfig {
    fn default() -> Self {
        GlitchConfig::on(0x917c_4e11)
    }
}

/// SplitMix64 finalizer — a cheap, well-mixed deterministic hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_never_glitches() {
        let g = GlitchConfig::off();
        assert_eq!(g.hazard_mask(1, 0, u64::MAX, 64), 0);
    }

    #[test]
    fn no_input_change_no_hazard() {
        let g = GlitchConfig::on(7);
        assert_eq!(g.hazard_mask(5, 0xABCD, 0xABCD, 32), 0);
    }

    #[test]
    fn hazards_hit_only_stable_bits() {
        let g = GlitchConfig {
            enabled: true,
            rate: 1.0, // maximum intensity for the test
            salt: 3,
        };
        for cycle in 0..100 {
            let old = 0x0F0F_0F0F_u64;
            let new = 0xFF0F_0F00_u64;
            let m = g.hazard_mask(cycle, old, new, 32);
            assert_eq!(m & (old ^ new), 0, "hazard on a changing bit");
        }
    }

    #[test]
    fn hazard_rate_tracks_activity() {
        let g = GlitchConfig {
            enabled: true,
            rate: 0.5,
            salt: 11,
        };
        let mut low_activity = 0u32;
        let mut high_activity = 0u32;
        for cycle in 0..2000 {
            low_activity += g.hazard_mask(cycle, 0, 0b1, 32).count_ones();
            high_activity += g.hazard_mask(cycle, 0, 0x0000_FFFF, 32).count_ones();
        }
        assert!(
            high_activity > 4 * low_activity,
            "high {high_activity} vs low {low_activity}"
        );
    }

    #[test]
    fn deterministic_per_inputs() {
        let g = GlitchConfig::default();
        let a = g.hazard_mask(42, 0x1234, 0x4321, 36);
        let b = g.hazard_mask(42, 0x1234, 0x4321, 36);
        assert_eq!(a, b);
    }

    #[test]
    fn nonzero_at_default_rate_over_many_cycles() {
        let g = GlitchConfig::default();
        let total: u32 = (0..5000)
            .map(|c| {
                g.hazard_mask(c, 0xAAAA_AAAA, 0x5555_5555 ^ (c & 0xFF), 32)
                    .count_ones()
            })
            .sum();
        assert!(total > 0);
    }
}
