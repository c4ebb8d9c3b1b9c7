//! Strongly-typed identifiers.
//!
//! The simulator juggles hundreds of thousands of databases spread over
//! nodes and clusters; newtype wrappers prevent the classic
//! "passed a node index where a database id was expected" bug at zero
//! runtime cost.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal, $inner:ty) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw numeric value.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            #[inline]
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// Identifies one serverless database (`d ∈ 𝔻` in Table 1).
    DatabaseId,
    "db-",
    u64
);

impl DatabaseId {
    /// The shard (of `shard_count`) this database belongs to.
    ///
    /// Sharding is a pure function of the id: the id is mixed through
    /// SplitMix64 and reduced with a multiply-shift, so the assignment is
    /// stable across runs and uniform even for dense sequential ids (a
    /// plain `id % shard_count` would put every database of a
    /// sequentially-numbered fleet with `shard_count` aligned strides on
    /// the same worker).
    ///
    /// # Panics
    ///
    /// Panics when `shard_count` is zero.
    #[inline]
    pub fn shard_of(self, shard_count: usize) -> usize {
        assert!(shard_count > 0, "shard_count must be positive");
        // Multiply-shift reduction: unbiased bucket in [0, shard_count).
        ((mix64(self.0) as u128 * shard_count as u128) >> 64) as usize
    }
}

/// SplitMix64 finaliser (Steele et al.): the mixing function behind
/// [`DatabaseId::shard_of`], the id hasher and the workload generators.
#[inline]
const fn mix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hasher for maps keyed by one id: the key's integer through the
/// SplitMix64 finaliser, a handful of ALU operations where SipHash costs
/// tens of nanoseconds per probe.  It gives up SipHash's resistance to keys
/// crafted to collide, so use it only where the keys are the ids a
/// driver registered itself, never for ids read off a request.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = mix64(self.0 ^ v);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// A `HashMap` keyed by [`DatabaseId`] under [`IdHasher`].
pub type DbMap<V> = HashMap<DatabaseId, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of [`DatabaseId`]s under [`IdHasher`].
pub type DbSet = HashSet<DatabaseId, BuildHasherDefault<IdHasher>>;

id_type!(
    /// Identifies one compute node within a cluster.
    NodeId,
    "node-",
    u32
);

id_type!(
    /// Identifies one cluster (ring of nodes) within a region.
    ClusterId,
    "cluster-",
    u32
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_format_with_prefix() {
        assert_eq!(DatabaseId(7).to_string(), "db-7");
        assert_eq!(NodeId(3).to_string(), "node-3");
        assert_eq!(ClusterId(1).to_string(), "cluster-1");
        assert_eq!(format!("{:?}", DatabaseId(7)), "db-7");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(DatabaseId(1));
        set.insert(DatabaseId(1));
        set.insert(DatabaseId(2));
        assert_eq!(set.len(), 2);
        assert!(DatabaseId(1) < DatabaseId(2));
    }

    #[test]
    fn from_raw_roundtrips() {
        let id: DatabaseId = 42u64.into();
        assert_eq!(id.raw(), 42);
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for id in 0..1_000u64 {
            let s = DatabaseId(id).shard_of(8);
            assert!(s < 8);
            assert_eq!(s, DatabaseId(id).shard_of(8), "pure function of the id");
        }
        assert_eq!(DatabaseId(123).shard_of(1), 0);
    }

    #[test]
    fn shard_assignment_spreads_sequential_ids() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for id in 0..8_000u64 {
            counts[DatabaseId(id).shard_of(shards)] += 1;
        }
        // Uniform expectation is 1000 per shard; a good mix stays well
        // within ±20%.
        for (s, c) in counts.iter().enumerate() {
            assert!((800..1_200).contains(c), "shard {s} got {c} of 8000");
        }
    }

    #[test]
    fn id_hasher_spreads_dense_and_strided_ids() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        for stride in [1u64, 1 << 10, 1 << 32] {
            // hashbrown indexes buckets by the low bits and tags by the
            // top seven: both must vary under any id spacing.
            let low: HashSet<u64> = (0..4_096u64)
                .map(|i| build.hash_one(DatabaseId(i * stride)) & 0xFFF)
                .collect();
            let top: HashSet<u64> = (0..4_096u64)
                .map(|i| build.hash_one(DatabaseId(i * stride)) >> 57)
                .collect();
            assert!(low.len() > 2_000, "stride {stride}: {} buckets", low.len());
            assert_eq!(top.len(), 128, "stride {stride}");
        }
        let mut map: DbMap<u64> = DbMap::default();
        for i in 0..1_000 {
            *map.entry(DatabaseId(i % 10)).or_insert(0) += 1;
        }
        assert_eq!(map.len(), 10);
        assert!(map.values().all(|&n| n == 100));
    }

    #[test]
    #[should_panic(expected = "shard_count must be positive")]
    fn zero_shards_panics() {
        let _ = DatabaseId(1).shard_of(0);
    }
}
