//! Hash maps keyed by small integers: stream ids and child indices.
//!
//! std's default SipHash resists hash flooding by keys an attacker
//! picks. No key of these maps comes from a child: stream ids come from
//! the front-end or a parent's `NewStream`, and child indices from the
//! routing table. A hostile child's stream id only probes a map, and a
//! probe inserts nothing. So one multiply stands in for SipHash on the
//! per-packet path.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hash (the 64-bit golden ratio): consecutive keys
/// spread over both the low bits, which pick a bucket, and the high
/// bits, which the table keeps as a tag.
#[derive(Default)]
pub(crate) struct IntHasher(u64);

const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` over integer keys, hashed by [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` over integer keys, hashed by [`IntHasher`].
pub(crate) type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;
