//! The one stable hash of the workspace.

use std::fmt::{self, Write};
use std::hash::Hasher;

/// FNV-1a, 64-bit, streaming: stable across platforms and processes
/// (unlike `DefaultHasher`). Bytes go in through [`Hasher::write`], text
/// through [`fmt::Write`], so `write!` hashes a rendering without a
/// `String`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// A hasher that has seen no byte: the FNV offset basis.
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The hash of `value`'s `Debug` rendering; nothing is allocated.
    pub fn debug_digest(value: &impl fmt::Debug) -> u64 {
        let mut h = Fnv1a::default();
        write!(h, "{value:?}").expect("hashing cannot fail");
        h.finish()
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 vectors; a `Debug` rendering, streamed
    /// through `fmt::Write` in pieces, hashes as its bytes.
    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(Fnv1a::default().finish(), 0xcbf2_9ce4_8422_2325);
        for (bytes, want) in [
            (&b"a"[..], 0xaf63_dc4c_8601_ec8c),
            (b"foo", 0xdcb2_7518_fed9_d577),
        ] {
            let mut h = Fnv1a::default();
            h.write(bytes);
            assert_eq!(h.finish(), want);
        }
        let mut h = Fnv1a::default();
        h.write(b"(1, \"a\")");
        assert_eq!(Fnv1a::debug_digest(&(1, "a")), h.finish());
    }
}
