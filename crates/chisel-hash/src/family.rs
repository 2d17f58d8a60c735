use crate::digest::{DerivedHasher, Digester, KeyDigest};
use crate::SplitMix64;

/// `k` hash functions over 128-bit keys — the *hash neighborhood*
/// generator of a Bloomier filter, plus the partition selector used for
/// `d`-way logical Index Table partitioning.
///
/// Internally the family is a one-pass [`Digester`] front end plus `k + 1`
/// cheap [`DerivedHasher`] mixers: the key is read and fully avalanched
/// once, and every hash value (all `k` neighborhood functions and the
/// selector) is derived from that digest with two multiplies. Families
/// built with [`HashFamily::with_shared_digest`] from the same digest seed
/// share the front end, so one digest computed via [`HashFamily::digest`]
/// can be replayed through the `*_digest` methods of *every* such family —
/// this is how a sub-cell's selector and all of its partitions consume a
/// single key pass per lookup.
///
/// The family is cheap to clone (a few `u64`s per function) and fully
/// deterministic given `(k, digest_seed, seed)`.
#[derive(Debug, Clone)]
pub struct HashFamily {
    digester: Digester,
    hashers: Vec<DerivedHasher>,
    selector: DerivedHasher,
    seed: u64,
}

impl HashFamily {
    /// Creates a family of `k` hash functions from a master seed. The
    /// digest front end and the derived mixers both come from `seed`
    /// (equivalent to `with_shared_digest(k, seed, seed)`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        Self::with_shared_digest(k, seed, seed)
    }

    /// Creates a family whose digest front end comes from `digest_seed`
    /// while the `k + 1` derived mixers come from `seed`. All families
    /// sharing a `digest_seed` accept each other's [`KeyDigest`]s: rebuild
    /// retries (salted `seed`s) change only the cheap mixers, never the
    /// one-pass front end.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_shared_digest(k: usize, digest_seed: u64, seed: u64) -> Self {
        assert!(k > 0, "a hash family needs at least one function");
        let mut rng = SplitMix64::new(seed);
        let hashers = (0..k).map(|_| DerivedHasher::from_rng(&mut rng)).collect();
        let selector = DerivedHasher::from_rng(&mut rng);
        HashFamily {
            digester: Digester::new(digest_seed),
            hashers,
            selector,
            seed,
        }
    }

    /// Number of hash functions.
    #[inline]
    pub fn k(&self) -> usize {
        self.hashers.len()
    }

    /// The master seed the derived mixers came from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The seed of the one-pass digest front end.
    #[inline]
    pub fn digest_seed(&self) -> u64 {
        self.digester.seed()
    }

    /// The one-pass digest of `key`: the single full mixing pass behind
    /// every hash this family (and any family sharing its digest seed)
    /// produces. Compute it once per key and replay it through the
    /// `*_digest` methods.
    #[inline]
    pub fn digest(&self, key: u128) -> KeyDigest {
        self.digester.digest(key)
    }

    /// The `i`-th hash of `key` in range `0..m`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    #[inline]
    pub fn hash_one(&self, i: usize, key: u128, m: usize) -> usize {
        self.hash_one_digest(i, self.digest(key), m)
    }

    /// The `i`-th hash derived from an already-computed digest, in range
    /// `0..m`. Equal to [`HashFamily::hash_one`] when the digest came from
    /// a family with the same digest seed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    #[inline]
    pub fn hash_one_digest(&self, i: usize, d: KeyDigest, m: usize) -> usize {
        self.hashers[i].hash_range(d, m)
    }

    /// Fills `out` (length exactly `k`) with the key's hash neighborhood in
    /// range `0..m`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != k`.
    #[inline]
    pub fn hash_into(&self, key: u128, m: usize, out: &mut [usize]) {
        self.hash_into_digest(self.digest(key), m, out);
    }

    /// Fills `out` (length exactly `k`) with the neighborhood derived from
    /// an already-computed digest.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != k`.
    #[inline]
    pub fn hash_into_digest(&self, d: KeyDigest, m: usize, out: &mut [usize]) {
        assert_eq!(out.len(), self.k(), "output slice must have length k");
        for (slot, h) in out.iter_mut().zip(&self.hashers) {
            *slot = h.hash_range(d, m);
        }
    }

    /// The key's hash neighborhood as a fresh vector (convenience form of
    /// [`HashFamily::hash_into`]).
    pub fn neighborhood(&self, key: u128, m: usize) -> Vec<usize> {
        self.neighborhood_digest(self.digest(key), m)
    }

    /// The neighborhood derived from an already-computed digest, as a
    /// fresh vector.
    pub fn neighborhood_digest(&self, d: KeyDigest, m: usize) -> Vec<usize> {
        self.hashers.iter().map(|h| h.hash_range(d, m)).collect()
    }

    /// The partition selector: a `log2(d)`-bit checksum assigning `key` to
    /// one of `d` logical partitions (paper Section 4.4.2). Independent of
    /// the `k` neighborhood functions.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `d == 0`.
    #[inline]
    pub fn partition(&self, key: u128, d: usize) -> usize {
        self.partition_digest(self.digest(key), d)
    }

    /// The partition selector applied to an already-computed digest.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `d == 0`.
    #[inline]
    pub fn partition_digest(&self, d: KeyDigest, parts: usize) -> usize {
        self.selector.hash_range(d, parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighborhood_matches_hash_one() {
        let f = HashFamily::new(4, 123);
        let n = f.neighborhood(0xABCD, 999);
        assert_eq!(n.len(), 4);
        for (i, &h) in n.iter().enumerate() {
            assert_eq!(h, f.hash_one(i, 0xABCD, 999));
        }
    }

    #[test]
    fn hash_into_agrees_with_neighborhood() {
        let f = HashFamily::new(3, 55);
        let mut out = [0usize; 3];
        f.hash_into(77, 1 << 16, &mut out);
        assert_eq!(out.to_vec(), f.neighborhood(77, 1 << 16));
    }

    #[test]
    fn digest_replay_matches_direct() {
        // A digest computed once must reproduce every key-taking method.
        let f = HashFamily::new(3, 0xFEED);
        for key in [0u128, 1, u128::MAX, 0xDEAD_BEEF] {
            let d = f.digest(key);
            for i in 0..3 {
                assert_eq!(
                    f.hash_one_digest(i, d, 1 << 20),
                    f.hash_one(i, key, 1 << 20)
                );
            }
            assert_eq!(f.neighborhood_digest(d, 999), f.neighborhood(key, 999));
            assert_eq!(f.partition_digest(d, 16), f.partition(key, 16));
        }
    }

    #[test]
    fn shared_digest_families_accept_each_others_digests() {
        // Same digest seed, different derive seeds: digests interchange,
        // hash values differ.
        let a = HashFamily::with_shared_digest(3, 0xD1CE, 1);
        let b = HashFamily::with_shared_digest(3, 0xD1CE, 2);
        let mut differ = 0;
        for key in 0..1000u128 {
            let d = a.digest(key);
            assert_eq!(a.digest(key), b.digest(key), "front ends must agree");
            // b consuming a's digest equals b hashing the key directly.
            assert_eq!(
                b.hash_one_digest(0, d, 1 << 20),
                b.hash_one(0, key, 1 << 20)
            );
            if a.hash_one(0, key, 1 << 20) != b.hash_one(0, key, 1 << 20) {
                differ += 1;
            }
        }
        assert!(differ > 900, "derive seeds should decorrelate: {differ}");
    }

    #[test]
    #[should_panic]
    fn hash_into_wrong_len_panics() {
        let f = HashFamily::new(3, 55);
        let mut out = [0usize; 2];
        f.hash_into(77, 16, &mut out);
    }

    #[test]
    fn partition_is_uniform() {
        let f = HashFamily::new(3, 9);
        let d = 16;
        let mut counts = vec![0usize; d];
        let n = 16_000u128;
        for key in 0..n {
            counts[f.partition(key, d)] += 1;
        }
        let expected = n as usize / d;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.2,
                "partition {i} has {c}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn partition_independent_of_neighborhood() {
        // Keys with equal first-hash should not all share a partition.
        let f = HashFamily::new(1, 11);
        let m = 4;
        let mut parts = std::collections::HashSet::new();
        for key in 0..10_000u128 {
            if f.hash_one(0, key, m) == 0 {
                parts.insert(f.partition(key, 8));
            }
        }
        assert!(parts.len() > 4, "selector correlated with hash 0");
    }

    #[test]
    fn functions_pairwise_decorrelated() {
        // Distinct derived functions of one family should collide at
        // roughly chance rate even in a small range.
        let f = HashFamily::new(3, 77);
        let m = 64;
        let mut same = 0usize;
        for key in 0..10_000u128 {
            if f.hash_one(0, key, m) == f.hash_one(1, key, m) {
                same += 1;
            }
        }
        let expected = 10_000 / m;
        assert!(
            (same as i64 - expected as i64).unsigned_abs() < 100,
            "functions 0/1 correlated: {same} collisions vs ~{expected}"
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let a = HashFamily::new(3, 42);
        let b = HashFamily::new(3, 42);
        for key in [0u128, 1, u128::MAX, 0xDEADBEEF] {
            assert_eq!(a.neighborhood(key, 1 << 20), b.neighborhood(key, 1 << 20));
            assert_eq!(a.partition(key, 32), b.partition(key, 32));
        }
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        HashFamily::new(0, 1);
    }
}
