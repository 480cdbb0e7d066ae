//! The DRAM verified-generation cache: remembers which segments of which
//! objects ([`crate::segment`]) were checksum-verified since their last
//! library mutation, so a load or a verified read of those segments skips
//! the segment-sized read and its Adler32 pass and reads only the
//! requested range from NVMM.
//!
//! # What an entry means
//!
//! An entry is an object's user size and a **mask** of verified segments.
//! Bit `b` set asserts: *some* path (micro-buffer load, scrub pass,
//! verified read, online recovery) verified every segment of group `b`
//! after the last time the library mutated them. A group is one segment
//! for objects of up to 64 segments; past that one bit covers a run of
//! `⌈n/64⌉` segments (`Entry::group`), and is set only when the whole
//! run was checked. Under that assertion a reader may serve any range of
//! the covered segments without re-verifying — the bytes it reads are the
//! very bytes the verification covered.
//!
//! # Coherence rules (who clears)
//!
//! The assertion is kept true by **clearing** bits (or bumping the whole
//! entry) at every point the library changes an object's NVMM bytes:
//!
//! * transaction commit write-back, under the object's parity span guard:
//!   only the segments it dirtied (`VCache::clear`);
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
//! stamp** before reading object data and publishes the segments it
//! checked only if the stamp is unchanged — any concurrent
//! commit/repair/free of an object in the shard (a clear advances the
//! stamp just like a bump) forces the (cheap) conservative outcome of not
//! caching.
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
use crate::segment;

/// Lock stripes of the table: more stripes cut contention between
/// concurrent readers and committers; each costs one mutex + map.
const STRIPES: usize = 64;

/// Bits of an entry's segment mask.
const BITS: u64 = 64;

/// What the cache knows about one object: its user size at verification
/// time and which segment groups are verified (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    /// The object's user size.
    pub size: u64,
    /// Bit `b`: every segment of group `b` is verified.
    mask: u64,
}

impl Entry {
    /// Segments per mask bit for a `size`-byte object.
    fn group(size: u64) -> u64 {
        segment::count(size).div_ceil(BITS)
    }

    /// The bits of the groups segments `k0..=k1` touch.
    fn touched(size: u64, k0: u64, k1: u64) -> u64 {
        match Self::group(size) {
            1 => bit_range(k0, k1),
            g => bit_range(k0 / g, k1 / g),
        }
    }

    /// The bits of the groups segments `k0..=k1` cover entirely (group `b`
    /// ends at segment `(b+1)·g − 1`, or at the last one).
    fn covered(size: u64, k0: u64, k1: u64) -> u64 {
        let (g, last) = (Self::group(size), segment::count(size) - 1);
        if g == 1 {
            return bit_range(k0, k1);
        }
        let lo = k0.div_ceil(g);
        let hi = if k1 >= last { Some(last / g) } else { ((k1 + 1) / g).checked_sub(1) };
        match hi {
            Some(hi) if hi >= lo => bit_range(lo, hi),
            _ => 0,
        }
    }

    /// `true` when every segment of `k0..=k1` is verified.
    pub fn covers(&self, k0: u64, k1: u64) -> bool {
        let want = Self::touched(self.size, k0, k1);
        self.mask & want == want
    }

    /// `true` when every segment of the bytes `[off, off+len)` is
    /// verified (an empty range is).
    pub fn covers_range(&self, off: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let (k0, k1) = segment::covering(off, len);
        self.covers(k0, k1)
    }
}

/// Bits `lo..=hi` of a mask.
fn bit_range(lo: u64, hi: u64) -> u64 {
    let upper = if hi >= BITS - 1 { u64::MAX } else { (1 << (hi + 1)) - 1 };
    upper & !((1u64 << lo) - 1)
}

/// One shard: verified segments keyed by object offset, plus the mutation
/// stamp that makes optimistic insertion safe.
#[derive(Default)]
struct Shard {
    /// Object offset → verified segments. Presence means "something
    /// verified since the last mutation".
    entries: OffMap<Entry>,
    /// Monotonic count of mutations (clears and bumps) in this shard. A
    /// publish is valid only if no mutation happened between the
    /// verifier's data read and the publish — compared shard-wide, which
    /// can only err toward *not* caching.
    mutations: u64,
}

/// A sharded map `object offset → verified segments` (see module docs).
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

    /// Cache lookup: what is verified of the object at `off`, if anything.
    #[inline]
    pub fn probe(&self, off: u64) -> Option<Entry> {
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

    /// [`VCache::begin_verify`] and [`VCache::probe`] under one lock: the
    /// stamp a load's publish is validated against, and what the cache
    /// vouches for at that moment.
    #[inline]
    pub fn begin_verify_probe(&self, off: u64) -> (VerifyStamp, Option<Entry>) {
        if !self.enabled {
            return (VerifyStamp(0), None);
        }
        let s = self.shard(off).lock();
        (VerifyStamp(s.mutations), s.entries.get(&off).copied())
    }

    /// Publishes a successful verification of segments `k0..=k1` of the
    /// `size`-byte object at `off`, unless a mutation raced in since
    /// `stamp` was taken. Groups the range covers only in part stay as
    /// they were.
    pub fn publish(&self, off: u64, size: u64, k0: u64, k1: u64, stamp: VerifyStamp) {
        if !self.enabled {
            return;
        }
        let bits = Entry::covered(size, k0, k1);
        if bits == 0 {
            return;
        }
        let mut s = self.shard(off).lock();
        if s.mutations != stamp.0 {
            return; // something in the shard mutated mid-verify
        }
        if let Some(e) = s.entries.get_mut(&off).filter(|e| e.size == size) {
            e.mask |= bits;
            return;
        }
        if s.entries.len() >= self.per_shard && !s.entries.contains_key(&off) {
            s.entries.clear(); // bounded memory; absence is always safe
        }
        s.entries.insert(off, Entry { size, mask: bits });
    }

    /// Records a commit that dirtied segments `k0..=k1` of the object at
    /// `off`: drops their groups (the entry goes when none is left) and
    /// advances the shard stamp so in-flight verifications of shard
    /// neighbours cannot publish stale segments.
    #[inline]
    pub fn clear(&self, off: u64, k0: u64, k1: u64) {
        if !self.enabled {
            return;
        }
        let mut s = self.shard(off).lock();
        s.mutations += 1;
        if let Some(e) = s.entries.get_mut(&off) {
            e.mask &= !Entry::touched(e.size, k0, k1);
            if e.mask == 0 {
                s.entries.remove(&off);
            }
        }
    }

    /// Records a mutation of the whole object at `off` (construction,
    /// free, repair): drops its entry and advances the shard stamp.
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

    /// Publishes segments `k0..=k1` of a `size`-byte object at `off`.
    fn verify(c: &VCache, off: u64, size: u64, k0: u64, k1: u64) {
        let st = c.begin_verify(off);
        c.publish(off, size, k0, k1, st);
    }

    fn whole(c: &VCache, off: u64, size: u64) {
        verify(c, off, size, 0, segment::count(size) - 1);
    }

    #[test]
    fn probe_publish_bump_roundtrip() {
        let c = cache();
        assert_eq!(c.probe(4096), None);
        whole(&c, 4096, 128);
        assert!(c.probe(4096).is_some_and(|e| e.size == 128 && e.covers(0, 0)));
        c.bump(4096);
        assert_eq!(c.probe(4096), None);
    }

    #[test]
    fn racing_mutation_defeats_publish() {
        let c = cache();
        let st = c.begin_verify(4096);
        c.bump(4096); // a commit lands while the verifier checksums
        c.publish(4096, 128, 0, 0, st);
        assert_eq!(c.probe(4096), None, "stale verification must not publish");
    }

    #[test]
    fn segment_masks_publish_and_clear_per_segment() {
        let c = cache();
        // 4 136 B: 17 segments, one bit each.
        verify(&c, 64, 4136, 3, 5);
        verify(&c, 64, 4136, 16, 16);
        let e = c.probe(64).unwrap();
        assert!(e.covers(3, 5) && e.covers(16, 16) && !e.covers(2, 3) && !e.covers(0, 0));
        assert!(e.covers_range(3 * 256 + 10, 2 * 256) && !e.covers_range(3 * 256, 4 * 256));
        c.clear(64, 4, 4); // a commit dirtied segment 4
        let e = c.probe(64).unwrap();
        assert!(e.covers(3, 3) && e.covers(5, 5) && e.covers(16, 16) && !e.covers(4, 4));
        c.clear(64, 0, 16);
        assert_eq!(c.probe(64), None, "an entry with nothing verified goes");
    }

    #[test]
    fn past_64_segments_a_bit_covers_a_run() {
        let c = cache();
        const BIG: u64 = 256 << 10; // 1 024 segments, 16 per bit
        verify(&c, 64, BIG, 20, 30); // inside group 1 but not all of it
        assert_eq!(c.probe(64), None, "a partly checked group publishes nothing");
        verify(&c, 64, BIG, 15, 48); // groups 1 and 2 in full
        let e = c.probe(64).unwrap();
        assert!(e.covers(16, 47) && !e.covers(15, 15) && !e.covers(48, 48));
        verify(&c, 64, BIG, 1000, 1023); // the last group ends at the last segment
        assert!(c.probe(64).unwrap().covers(1008, 1023));
        c.clear(64, 40, 40);
        let e = c.probe(64).unwrap();
        assert!(e.covers(16, 31) && !e.covers(32, 32) && e.covers(1023, 1023));
        // An object whose last group is short: 100 segments, 2 per bit.
        verify(&c, 128, 100 * 256, 98, 99);
        assert!(c.probe(128).unwrap().covers(98, 99));
    }

    #[test]
    fn mask_publish_and_clear_round_trip_against_a_racing_bump() {
        // Every order of a verifier's stamp (S) and publish (P) of segment
        // 3 against one racing mutation (M) — a bump of a shard neighbour,
        // a clear of another segment, a clear of segment 3 itself. A
        // mutation between S and P defeats the publish; one after P drops
        // exactly what it names.
        const SIZE: u64 = 4136;
        type Mutate = fn(&VCache);
        let mutations: [(&str, Mutate, bool); 3] = [
            ("neighbour bump", |c| c.bump(4096), true),
            ("other segment", |c| c.clear(64, 9, 9), true),
            ("same segment", |c| c.clear(64, 3, 3), false),
        ];
        for (what, mutate, survives) in mutations {
            for m_at in 0..3 {
                let c = VCache::striped(1, 64, true);
                verify(&c, 64, SIZE, 9, 9); // something else already cached
                if m_at == 0 {
                    mutate(&c);
                }
                let st = c.begin_verify(64);
                if m_at == 1 {
                    mutate(&c);
                }
                c.publish(64, SIZE, 3, 3, st);
                if m_at == 2 {
                    mutate(&c);
                }
                let got = c.probe(64).is_some_and(|e| e.covers(3, 3));
                let want = match m_at {
                    0 => true,
                    1 => false,
                    _ => survives,
                };
                assert_eq!(got, want, "{what}, mutation at step {m_at}");
                let nine = c.probe(64).is_some_and(|e| e.covers(9, 9));
                assert_eq!(nine, what != "other segment", "{what}: segment 9");
            }
        }
        // The same race on two threads: the cache never ends up claiming a
        // segment the last clear named, and never panics.
        let c = std::sync::Arc::new(VCache::striped(1, 64, true));
        let committer = {
            let c = c.clone();
            std::thread::spawn(move || {
                for k in 0..20_000u64 {
                    c.clear(64, k % 17, k % 17);
                    c.bump(4096);
                }
            })
        };
        for round in 0..20_000u64 {
            verify(&c, 64, SIZE, round % 17, round % 17);
        }
        committer.join().unwrap();
        c.clear(64, 0, 16);
        assert_eq!(c.probe(64), None);
        whole(&c, 64, SIZE);
        c.clear(64, 7, 7);
        let e = c.probe(64).unwrap();
        assert!(e.covers(0, 6) && e.covers(8, 16) && !e.covers(7, 7));
    }

    #[test]
    fn disabled_cache_is_inert() {
        let c = VCache::striped(4, 0, true);
        whole(&c, 64, 8);
        assert_eq!(c.probe(64), None);
        let c = VCache::striped(4, 64, false);
        whole(&c, 64, 8);
        assert_eq!(c.probe(64), None);
    }

    #[test]
    fn overflow_clears_shard_but_stays_correct() {
        // 1 shard × capacity 4: the 5th distinct offset clears the shard.
        let c = VCache::striped(1, 4, true);
        for off in [1u64, 2, 3, 4] {
            whole(&c, off, 16);
        }
        assert!(c.probe(1).is_some());
        whole(&c, 5, 16);
        assert!(c.probe(5).is_some());
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
        c.publish(b, 32, 0, 0, st);
        assert!(c.probe(b).is_some(), "cross-shard bump must not alias");
    }

    #[test]
    fn republish_of_resident_key_keeps_others() {
        let c = VCache::striped(1, 2, true);
        for off in [1u64, 2] {
            whole(&c, off, 16);
        }
        // Re-publishing a resident key at capacity must not clear.
        whole(&c, 1, 32);
        assert_eq!(c.probe(1).map(|e| e.size), Some(32));
        assert_eq!(c.probe(2).map(|e| e.size), Some(16));
    }
}
