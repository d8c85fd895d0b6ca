//! A multiply–xor hasher for the simulator's hot integer key sets.
//!
//! The cache model dedups write-combining lines on every non-temporal
//! store, the heap's transaction paths insert into sets on every word
//! access (undo-logged addresses, touched lines, read stripes), and 2PC
//! recovery indexes every log record by transaction id. The default
//! SipHash is DoS-resistant but costs more than those sets' whole probe.
//! Keys here are addresses, line indices and txids the simulator itself
//! generates, so a statistical mix is enough. Unlike std's randomly
//! seeded `RandomState`, the hasher is fixed, so iteration order over
//! these sets is the same in every process.
//!
//! ```
//! use wsp_units::fasthash::FastSet;
//!
//! let mut lines: FastSet<u64> = FastSet::default();
//! assert!(lines.insert(7));
//! assert!(!lines.insert(7));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci-multiply + xor-shift hasher for `u64`/`usize` keys.
#[derive(Default, Clone)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback for non-integer keys (unused on the hot paths).
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let z = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = z ^ (z >> 29);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashSet` keyed by the simulator's own integers, with the cheap
/// hasher.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// A `HashMap` keyed by the simulator's own integers, with the cheap
/// hasher.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_roundtrip_and_distribution() {
        let mut s: FastSet<u64> = FastSet::default();
        for k in 0..10_000u64 {
            assert!(s.insert(k * 8));
        }
        for k in 0..10_000u64 {
            assert!(s.contains(&(k * 8)));
            assert!(!s.contains(&(k * 8 + 1)));
        }
        assert_eq!(s.len(), 10_000);
    }

    #[test]
    fn usize_and_byte_keys_hash() {
        let mut s: FastSet<usize> = FastSet::default();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        let mut t: FastSet<String> = FastSet::default();
        assert!(t.insert("a".into()));
        assert!(t.contains("a"));
    }
}
