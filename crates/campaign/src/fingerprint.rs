//! A reusable FNV-1a fingerprint builder.
//!
//! The serve daemon's result cache needs a stable, dependency-free
//! content hash over scenario specifications, and the characterization
//! database identity needs the same thing. Both use this builder, so
//! the hash form (64-bit FNV-1a, 16 hex digits) and the out-of-band
//! field separator stay identical everywhere a fingerprint appears.
//!
//! Fields are terminated with an `0xff` byte that cannot appear in
//! UTF-8 text, so moving a boundary between adjacent fields always
//! changes the hash (`["ab", "c"]` and `["a", "bc"]` differ).

/// Incremental 64-bit FNV-1a over a sequence of delimited fields.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    hash: u64,
}

impl Fingerprint {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprint {
            hash: Self::OFFSET_BASIS,
        }
    }

    /// Absorbs one field (its bytes plus the out-of-band terminator);
    /// builder-style.
    pub fn field(mut self, s: &str) -> Self {
        self.eat(s);
        self
    }

    /// Absorbs one field, in-place — for loops over collections.
    pub fn eat(&mut self, s: &str) {
        for b in s.bytes().chain([0xff]) {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs an `f64` bit-exactly (the raw IEEE-754 bits, so `-0.0`
    /// and `0.0` differ and every NaN payload is distinguished) — used
    /// to fingerprint characterization databases.
    pub fn eat_f64(&mut self, v: f64) {
        self.eat(&format!("{:016x}", v.to_bits()));
    }

    /// The finished 16-hex-digit fingerprint.
    pub fn finish(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_across_invocations() {
        let a = Fingerprint::new().field("abc").field("def").finish();
        let b = Fingerprint::new().field("abc").field("def").finish();
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn field_boundaries_are_out_of_band() {
        let joined = Fingerprint::new().field("abcdef").finish();
        let split = Fingerprint::new().field("abc").field("def").finish();
        let shifted = Fingerprint::new().field("abcd").field("ef").finish();
        assert_ne!(joined, split);
        assert_ne!(split, shifted);
    }

    #[test]
    fn f64_fields_are_bit_exact() {
        let mut pos = Fingerprint::new();
        pos.eat_f64(0.0);
        let mut neg = Fingerprint::new();
        neg.eat_f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());
    }

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(Fingerprint::new().finish(), "cbf29ce484222325");
    }
}
