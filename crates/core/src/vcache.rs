//! The DRAM verified-generation cache: remembers which objects were
//! checksum-verified since their last library mutation, so repeated
//! verified reads skip the whole-object copy + Adler32 pass and read only
//! the requested range from NVMM.
//!
//! # What an entry means
//!
//! `offset ∈ cache` asserts: *some* path (micro-buffer load, scrub pass,
//! `read_verified`, online recovery) verified the object's checksum after
//! the last time the library mutated its bytes. Under that assertion a
//! reader may serve any sub-range of the object without re-verifying —
//! the bytes it reads are the very bytes the verification covered.
//!
//! # Coherence rules (who bumps)
//!
//! The assertion is kept true by **bumping** (invalidating) the entry at
//! every point the library changes an object's NVMM bytes:
//!
//! * transaction commit write-back, under the object's parity span guard
//!   (every object's spans);
//! * construction write-back of a fresh allocation (the offset may have
//!   carried a cached entry from a previously freed object);
//! * `free` publication (the slot's size/type may change at realloc);
//! * online object recovery (`recover_object`), which rewrites pages from
//!   parity — after a repair the pre-repair verification no longer covers
//!   the bytes on media;
//! * scrub repairs (they run through `recover_object`).
//!
//! Media-error page reconstruction does **not** bump: it restores the
//! parity-consistent content, i.e. exactly the bytes the verification
//! covered. Scribbles (corruption outside the library) naturally cannot
//! bump; a cache-hit read may therefore serve a scribble that landed
//! *after* the last verification — the same exposure window the Default
//! policy accepts for every unverified `pgl_get`, but now bounded by the
//! mutation rate and scrub cadence. [`crate::detect::Vuln`] accounts
//! those bytes in a dedicated `verified_cached` bucket so Table 4 stays
//! derivable.
//!
//! # Why hits are race-free
//!
//! Verification itself runs without the parity range-locks, so insertion
//! uses an optimistic stamp: the verifier takes the shard's **mutation
//! stamp** before reading object data and publishes the entry only if the
//! stamp is unchanged — any concurrent commit/repair/free of an object in
//! the shard forces the (cheap) conservative outcome of not caching.
//! Readers racing a *same-object* writer are excluded by the paper's §3.4
//! ownership rule, exactly as for unverified `pgl_get`s; cross-object
//! races are covered by the stamp.
//!
//! The table is lock-striped: offsets hash onto `shards` (a power of
//! two), each a small mutex-protected map with a bounded entry count —
//! overflow clears the shard (absence is always safe, it only costs a
//! re-verification).
//!
//! # Parity-shard affinity
//!
//! With multiple parity shards ([`crate::parity::ShardMap`]) the stripe
//! array is partitioned into one group per parity shard and an offset
//! hashes *within its parity shard's group*. Mutation stamps are
//! shard-wide pessimism: a commit bumping a stripe defeats every
//! in-flight verification hashing onto it. Affinity confines that
//! aliasing to the parity shard where the mutation happened — a commit
//! in shard A's zones can never invalidate a concurrent verification of
//! an object in shard B, matching the engine's promise that shards are
//! independent contention domains.

use parking_lot::Mutex;

use crate::parity::ShardMap;
use crate::scratch::OffMap;

/// Lock stripes of the table: more stripes cut contention between
/// concurrent readers and committers; each costs one mutex + map.
const STRIPES: usize = 64;

/// One shard: verified sizes keyed by object offset, plus the mutation
/// stamp that makes optimistic insertion safe.
#[derive(Default)]
struct Shard {
    /// Object offset → user size at verification time. Presence means
    /// "verified since the last mutation".
    entries: OffMap<u64>,
    /// Monotonic count of mutations (bumps) in this shard. An insert is
    /// valid only if no mutation happened between the verifier's data
    /// read and the publish — compared shard-wide, which can only err
    /// toward *not* caching.
    mutations: u64,
}

/// A sharded map `object offset → verified generation` (see module docs).
pub(crate) struct VCache {
    shards: Box<[Mutex<Shard>]>,
    mask: u64,
    /// Max entries per shard; a full shard is cleared on insert.
    per_shard: usize,
    /// `false` disables every operation (modes without checksums, or
    /// `vcache_capacity == 0`).
    enabled: bool,
    /// Parity-shard router: when present (and the pool runs more than
    /// one parity shard), stripes are partitioned per parity shard so
    /// mutation stamps never alias across shards (module docs).
    affinity: Option<ShardMap>,
}

/// The stamp a verifier takes before reading object data (see
/// [`VCache::begin_verify`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct VerifyStamp(u64);

impl VCache {
    /// Builds a cache of `capacity` total entries
    /// ([`crate::config::PglConfig::vcache_capacity`]) across [`STRIPES`]
    /// lock stripes; `enabled == false` yields a no-op cache.
    pub fn new(capacity: usize, enabled: bool) -> VCache {
        Self::striped(STRIPES, capacity, enabled)
    }

    /// [`VCache::new`] with an explicit stripe count (rounded up to a
    /// power of two).
    fn striped(shards: usize, capacity: usize, enabled: bool) -> VCache {
        let shards = shards.next_power_of_two().max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        let table = (0..shards).map(|_| Mutex::new(Shard::default())).collect();
        VCache {
            shards: table,
            mask: shards as u64 - 1,
            per_shard,
            enabled: enabled && capacity > 0,
            affinity: None,
        }
    }

    /// Routes stripe selection by parity shard (module docs). A
    /// single-shard map is a no-op: plain hashing spreads better.
    pub fn with_affinity(mut self, map: ShardMap) -> VCache {
        if map.n_shards() > 1 {
            self.affinity = Some(map);
        }
        self
    }

    #[inline]
    fn shard(&self, off: u64) -> &Mutex<Shard> {
        // Same multiply-xorshift the transaction maps use: offsets are
        // unique with low-entropy low bits.
        let mut h = off.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        let i = match &self.affinity {
            Some(m) => {
                // Group the stripe array by parity shard; hash within
                // the group. When parity shards outnumber stripes the
                // groups wrap (modulo), which degrades gracefully to
                // partial isolation.
                let n = self.shards.len() as u64;
                let groups = m.n_shards().min(n);
                let per = n / groups;
                (m.shard_of_off(off) % groups) * per + h % per
            }
            None => h & self.mask,
        };
        &self.shards[i as usize]
    }

    /// Cache lookup: `Some(user_size)` when the object at `off` is
    /// verified-fresh, `None` otherwise.
    #[inline]
    pub fn probe(&self, off: u64) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        self.shard(off).lock().entries.get(&off).copied()
    }

    /// Takes the mutation stamp a subsequent [`VCache::publish`] for
    /// `off` will be validated against. Call **before** reading the
    /// object bytes that will be checksummed.
    #[inline]
    pub fn begin_verify(&self, off: u64) -> VerifyStamp {
        if !self.enabled {
            return VerifyStamp(0);
        }
        VerifyStamp(self.shard(off).lock().mutations)
    }

    /// Publishes a successful verification of the `size`-byte object at
    /// `off`, unless a mutation raced in since `stamp` was taken.
    pub fn publish(&self, off: u64, size: u64, stamp: VerifyStamp) {
        if !self.enabled {
            return;
        }
        let mut s = self.shard(off).lock();
        if s.mutations != stamp.0 {
            return; // something in the shard mutated mid-verify
        }
        if s.entries.len() >= self.per_shard && !s.entries.contains_key(&off) {
            s.entries.clear(); // bounded memory; absence is always safe
        }
        s.entries.insert(off, size);
    }

    /// Records a mutation of the object at `off`: drops its entry and
    /// advances the shard stamp so in-flight verifications of shard
    /// neighbours cannot publish stale entries.
    #[inline]
    pub fn bump(&self, off: u64) {
        if !self.enabled {
            return;
        }
        let mut s = self.shard(off).lock();
        s.mutations += 1;
        s.entries.remove(&off);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> VCache {
        VCache::striped(4, 64, true)
    }

    #[test]
    fn probe_publish_bump_roundtrip() {
        let c = cache();
        assert_eq!(c.probe(4096), None);
        let st = c.begin_verify(4096);
        c.publish(4096, 128, st);
        assert_eq!(c.probe(4096), Some(128));
        c.bump(4096);
        assert_eq!(c.probe(4096), None);
    }

    #[test]
    fn racing_mutation_defeats_publish() {
        let c = cache();
        let st = c.begin_verify(4096);
        c.bump(4096); // a commit lands while the verifier checksums
        c.publish(4096, 128, st);
        assert_eq!(c.probe(4096), None, "stale verification must not publish");
    }

    #[test]
    fn disabled_cache_is_inert() {
        let c = VCache::striped(4, 0, true);
        let st = c.begin_verify(64);
        c.publish(64, 8, st);
        assert_eq!(c.probe(64), None);
        let c = VCache::striped(4, 64, false);
        let st = c.begin_verify(64);
        c.publish(64, 8, st);
        assert_eq!(c.probe(64), None);
    }

    #[test]
    fn overflow_clears_shard_but_stays_correct() {
        // 1 shard × capacity 4: the 5th distinct offset clears the shard.
        let c = VCache::striped(1, 4, true);
        for off in [1u64, 2, 3, 4] {
            let st = c.begin_verify(off);
            c.publish(off, 16, st);
        }
        assert_eq!(c.probe(1), Some(16));
        let st = c.begin_verify(5);
        c.publish(5, 16, st);
        assert_eq!(c.probe(5), Some(16));
        assert_eq!(c.probe(1), None, "evicted on overflow");
    }

    #[test]
    fn parity_affinity_isolates_mutation_stamps() {
        use pgl_pmemobj::{Layout, PoolConfig};
        let mut cfg = PoolConfig::small();
        cfg.size = 16 << 20;
        cfg.zone_size = 2 << 20;
        let layout = Layout::new(cfg).unwrap();
        let map = ShardMap::new(&layout, 2);
        assert!(map.n_shards() > 1, "geometry must give multiple shards");
        let c = VCache::striped(8, 64, true).with_affinity(map);
        // One offset per parity shard (zone 0 → shard 0, zone 1 → shard 1).
        let a = layout.heap_off + 4096;
        let b = layout.heap_off + layout.cfg.zone_size as u64 + 4096;
        // A mutation storm in shard 0 must not defeat a concurrent
        // verification of shard 1's object, whatever the hash says.
        let st = c.begin_verify(b);
        for _ in 0..64 {
            c.bump(a);
        }
        c.publish(b, 32, st);
        assert_eq!(c.probe(b), Some(32), "cross-shard bump must not alias");
    }

    #[test]
    fn republish_of_resident_key_keeps_others() {
        let c = VCache::striped(1, 2, true);
        for off in [1u64, 2] {
            let st = c.begin_verify(off);
            c.publish(off, 16, st);
        }
        // Re-publishing a resident key at capacity must not clear.
        let st = c.begin_verify(1);
        c.publish(1, 32, st);
        assert_eq!(c.probe(1), Some(32));
        assert_eq!(c.probe(2), Some(16));
    }
}
