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
//! mutation rate and scrub cadence. The pool's counters
//! ([`crate::counters`]) account those bytes in a dedicated
//! `verified_cached` bucket so Table 4 stays derivable.
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
//! # Stripes, stamps and eviction
//!
//! The table is lock-striped: every offset hashes onto one of 64
//! stripes, each a mutex over a slab of at most `⌈capacity / 64⌉` slots
//! and an offset → slot map, so the whole configured capacity is usable
//! whatever parity shard a working set sits in. Mutation stamps are
//! stripe-wide pessimism — a commit defeats every in-flight verification
//! on its stripe — so a stripe keeps one stamp **per parity shard**
//! ([`crate::parity::ShardMap`]; up to 64 shards, past that they share
//! stamps, wrapping): a commit in shard A's zones never defeats a
//! concurrent verification of an object in shard B, even on the same
//! stripe, matching the engine's promise that shards are independent
//! contention domains.
//!
//! A full stripe makes room by second chance (CLOCK): a hit sets its
//! slot's referenced bit under the lock the probe takes anyway, and an
//! insert advances the stripe's hand, clearing set bits, until it
//! reaches a slot not referenced since the hand last passed; that one
//! entry goes. Hot objects (tree tops) stay resident under a scan of cold
//! ones, and the choice is a pure function of the operation order, so
//! device counts repeat run to run. Absence is always safe: an evicted
//! entry only costs a re-verification.

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

/// Mutation stamps per stripe: one per parity shard, shards past this
/// many sharing one (module docs).
const STAMPS: usize = 64;

/// One cached object: where it is, what of it is verified, and CLOCK's
/// referenced bit (set by a hit, cleared as the hand passes).
struct Slot {
    off: u64,
    entry: Entry,
    referenced: bool,
}

/// One lock stripe: its cached objects, plus the mutation stamps that
/// make optimistic insertion safe.
struct Stripe {
    /// The resident entries, never more than the stripe's capacity.
    /// Presence means "something verified since the last mutation".
    slots: Vec<Slot>,
    /// Object offset → its index in `slots`.
    index: OffMap<usize>,
    /// CLOCK's hand: the next slot an insert into a full stripe looks at.
    hand: usize,
    /// Monotonic count of mutations (clears and bumps) per parity shard
    /// in this stripe. A publish is valid only if no mutation of its
    /// shard happened between the verifier's data read and the publish —
    /// compared stripe-wide, which can only err toward *not* caching.
    mutations: [u64; STAMPS],
}

impl Default for Stripe {
    fn default() -> Stripe {
        Stripe { slots: Vec::new(), index: OffMap::default(), hand: 0, mutations: [0; STAMPS] }
    }
}

impl Stripe {
    /// The entry at `off`, marked referenced: a hit.
    fn hit(&mut self, off: u64) -> Option<Entry> {
        let &i = self.index.get(&off)?;
        let slot = &mut self.slots[i];
        slot.referenced = true;
        Some(slot.entry)
    }

    /// Drops the entry at `off`, if any: the last slot moves into its
    /// place.
    fn remove(&mut self, off: u64) {
        let Some(i) = self.index.remove(&off) else { return };
        self.slots.swap_remove(i);
        if let Some(moved) = self.slots.get(i) {
            self.index.insert(moved.off, i);
        }
    }

    /// Adds an entry for `off`, which has none, evicting one by second
    /// chance when the stripe already holds `cap`.
    fn insert(&mut self, off: u64, entry: Entry, cap: usize) {
        let new = Slot { off, entry, referenced: false };
        if self.slots.len() < cap {
            self.index.insert(off, self.slots.len());
            self.slots.push(new);
            return;
        }
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            let slot = &mut self.slots[self.hand];
            if !std::mem::take(&mut slot.referenced) {
                self.index.remove(&slot.off);
                *slot = new;
                self.index.insert(off, self.hand);
                self.hand += 1;
                return;
            }
            self.hand += 1;
        }
    }
}

/// A striped map `object offset → verified segments` (see module docs).
pub(crate) struct VCache {
    stripes: Box<[Mutex<Stripe>]>,
    mask: u64,
    /// Max entries per stripe; a full stripe evicts one on insert.
    per_stripe: usize,
    /// `false` disables every operation (modes without checksums, or
    /// `vcache_capacity == 0`).
    enabled: bool,
    /// Which parity shard's mutation stamp guards an offset: present
    /// when the pool runs more than one parity shard (module docs).
    stamp_map: Option<ShardMap>,
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
    fn striped(stripes: usize, capacity: usize, enabled: bool) -> VCache {
        let stripes = stripes.next_power_of_two().max(1);
        let per_stripe = capacity.div_ceil(stripes).max(1);
        let table = (0..stripes).map(|_| Mutex::new(Stripe::default())).collect();
        VCache {
            stripes: table,
            mask: stripes as u64 - 1,
            per_stripe,
            enabled: enabled && capacity > 0,
            stamp_map: None,
        }
    }

    /// Ties each offset's mutation stamp to its parity shard in `map`
    /// (module docs); where an offset is cached does not depend on it. A
    /// single-shard map is a no-op.
    pub fn with_affinity(mut self, map: ShardMap) -> VCache {
        if map.n_shards() > 1 {
            self.stamp_map = Some(map);
        }
        self
    }

    /// The stripe `off` hashes onto.
    #[inline]
    fn stripe(&self, off: u64) -> &Mutex<Stripe> {
        // Same multiply-xorshift the transaction maps use: offsets are
        // unique with low-entropy low bits.
        let mut h = off.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        &self.stripes[(h & self.mask) as usize]
    }

    /// Which of its stripe's mutation stamps guards `off`: its parity
    /// shard's, wrapping past [`STAMPS`].
    #[inline]
    fn stamp_of(&self, off: u64) -> usize {
        self.stamp_map.map_or(0, |m| (m.shard_of_off(off) % STAMPS as u64) as usize)
    }

    /// Cache lookup: what is verified of the object at `off`, if anything.
    #[inline]
    pub fn probe(&self, off: u64) -> Option<Entry> {
        if !self.enabled {
            return None;
        }
        self.stripe(off).lock().hit(off)
    }

    /// Takes the mutation stamp a subsequent [`VCache::publish`] for
    /// `off` will be validated against. Call **before** reading the
    /// object bytes that will be checksummed.
    #[inline]
    pub fn begin_verify(&self, off: u64) -> VerifyStamp {
        if !self.enabled {
            return VerifyStamp(0);
        }
        VerifyStamp(self.stripe(off).lock().mutations[self.stamp_of(off)])
    }

    /// [`VCache::begin_verify`] and [`VCache::probe`] under one lock: the
    /// stamp a load's publish is validated against, and what the cache
    /// vouches for at that moment.
    #[inline]
    pub fn begin_verify_probe(&self, off: u64) -> (VerifyStamp, Option<Entry>) {
        if !self.enabled {
            return (VerifyStamp(0), None);
        }
        let mut s = self.stripe(off).lock();
        (VerifyStamp(s.mutations[self.stamp_of(off)]), s.hit(off))
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
        let mut s = self.stripe(off).lock();
        if s.mutations[self.stamp_of(off)] != stamp.0 {
            return; // something in the shard mutated mid-verify
        }
        match s.index.get(&off) {
            Some(&i) => {
                let e = &mut s.slots[i].entry;
                if e.size == size {
                    e.mask |= bits;
                } else {
                    *e = Entry { size, mask: bits };
                }
            }
            None => s.insert(off, Entry { size, mask: bits }, self.per_stripe),
        }
    }

    /// Records a commit that dirtied segments `k0..=k1` of the object at
    /// `off`: drops their groups (the entry goes when none is left) and
    /// advances the shard's stamp so in-flight verifications of stripe
    /// neighbours in the shard cannot publish stale segments.
    #[inline]
    pub fn clear(&self, off: u64, k0: u64, k1: u64) {
        if !self.enabled {
            return;
        }
        let mut s = self.stripe(off).lock();
        s.mutations[self.stamp_of(off)] += 1;
        let Some(&i) = s.index.get(&off) else { return };
        let e = &mut s.slots[i].entry;
        e.mask &= !Entry::touched(e.size, k0, k1);
        if e.mask == 0 {
            s.remove(off);
        }
    }

    /// Records a mutation of the whole object at `off` (construction,
    /// free, repair): drops its entry and advances the shard's stamp.
    #[inline]
    pub fn bump(&self, off: u64) {
        if !self.enabled {
            return;
        }
        let mut s = self.stripe(off).lock();
        s.mutations[self.stamp_of(off)] += 1;
        s.remove(off);
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

    /// The stripe's slab and its offset map agree: no stale slot, no
    /// index without its slot, never more than the stripe's capacity.
    fn assert_consistent(c: &VCache) {
        for stripe in c.stripes.iter() {
            let s = stripe.lock();
            assert!(s.slots.len() <= c.per_stripe, "stripe over capacity");
            assert_eq!(s.index.len(), s.slots.len(), "stale slot or dangling index");
            for (i, slot) in s.slots.iter().enumerate() {
                assert_eq!(s.index.get(&slot.off), Some(&i), "slot {i} not indexed");
            }
        }
    }

    // The name is historical: a full stripe was once cleared whole.
    #[test]
    fn overflow_clears_shard_but_stays_correct() {
        // 1 stripe × capacity 4: the 5th distinct offset evicts exactly
        // one entry no probe referenced since the hand last passed; the
        // probed ones stay.
        let c = VCache::striped(1, 4, true);
        for off in [1u64, 2, 3, 4] {
            whole(&c, off, 16);
        }
        assert!(c.probe(1).is_some() && c.probe(3).is_some());
        whole(&c, 5, 16);
        assert!(c.probe(5).is_some(), "the new entry is in");
        assert!(c.probe(1).is_some() && c.probe(3).is_some(), "probed entries survive");
        let gone: Vec<u64> = [2u64, 4].into_iter().filter(|&o| c.probe(o).is_none()).collect();
        assert_eq!(gone.len(), 1, "exactly one unreferenced entry goes: {gone:?}");
        assert_consistent(&c);
        // Everything referenced: the hand clears every bit, comes round
        // and takes the first slot it cleared.
        for off in 6..64u64 {
            for o in [1u64, 3, 5] {
                c.probe(o);
            }
            whole(&c, off, 16);
            assert!(c.probe(off).is_some());
            assert_consistent(&c);
        }
    }

    #[test]
    fn clock_keeps_a_hot_set_under_a_cold_scan() {
        // A hot set of half the capacity, probed between every cold
        // insert, survives a scan of 100× the capacity.
        let c = VCache::striped(2, 16, true);
        let hot: Vec<u64> = (0..8u64).map(|i| 64 * (i + 1)).collect();
        for &off in &hot {
            whole(&c, off, 64);
        }
        for cold in 0..1_600u64 {
            for &off in &hot {
                assert!(c.probe(off).is_some(), "hot {off} evicted at cold {cold}");
            }
            whole(&c, (1 << 20) + cold * 64, 64);
        }
        assert_consistent(&c);
        // Clears and bumps of resident and evicted entries leave the slab
        // and its map in step.
        for (i, off) in (0..1_600u64).map(|k| (1 << 20) + k * 64).enumerate() {
            if i % 2 == 0 {
                c.bump(off);
            } else {
                c.clear(off, 0, 0);
            }
        }
        for &off in &hot {
            c.bump(off);
        }
        assert_consistent(&c);
        assert!(c.stripes.iter().all(|s| s.lock().slots.is_empty()));
    }

    #[test]
    fn one_parity_shard_reaches_every_stripe() {
        use pgl_pmemobj::{Layout, PoolConfig};
        let mut cfg = PoolConfig::small();
        cfg.size = 16 << 20;
        cfg.zone_size = 2 << 20;
        let layout = Layout::new(cfg).unwrap();
        let c = VCache::striped(8, 64, true).with_affinity(ShardMap::new(&layout, 2));
        // Every object in zone 0 (parity shard 0): the whole capacity is
        // there for them.
        for k in 0..48u64 {
            whole(&c, layout.heap_off + 4096 + 64 * k, 32);
        }
        assert!(c.stripes.iter().all(|s| !s.lock().slots.is_empty()), "a stripe unused");
        assert_consistent(&c);
    }

    #[test]
    fn stale_publishes_never_land_under_eviction_pressure() {
        // Two parity shards, two stripes of 4: readers publish a stream of
        // objects from both shards, so every publish evicts. A committer
        // mutates objects of one parity shard that share one stripe,
        // advancing each object's version before its clear or bump; a
        // reader publishes the version it read after taking its stamp
        // (as the entry's size). Once the committer's mutation returns,
        // a publish whose stamp predates it must not land: the object is
        // then absent or carries the version the committer wrote.
        use pgl_pmemobj::{Layout, PoolConfig};
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        let mut cfg = PoolConfig::small();
        cfg.size = 16 << 20;
        cfg.zone_size = 2 << 20;
        let layout = Layout::new(cfg).unwrap();
        let c = Arc::new(VCache::striped(2, 8, true).with_affinity(ShardMap::new(&layout, 2)));
        let (base, zone_size) = (layout.heap_off, layout.cfg.zone_size as u64);
        let zone = move |z: u64, k: u64| base + z * zone_size + 64 * k;
        let stripe_of = |off: u64| c.stripe(off) as *const _ as usize;
        let first = zone(0, 1);
        let hot: Vec<u64> = (1..10_000)
            .map(|k| zone(0, k))
            .filter(|&o| stripe_of(o) == stripe_of(first))
            .take(4)
            .collect();
        assert_eq!(hot.len(), 4);
        let versions: Arc<Vec<AtomicU64>> =
            Arc::new(hot.iter().map(|_| AtomicU64::new(0)).collect());
        // One segment whatever the version: sizes 1..=255.
        let size_of = |v: u64| v % 255 + 1;
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(std::sync::Barrier::new(3));
        let readers: Vec<_> = (0..2u64)
            .map(|t| {
                let (c, hot, versions) = (c.clone(), hot.clone(), versions.clone());
                let (stop, start) = (stop.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let mut k = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let i = (k % hot.len() as u64) as usize;
                        let st = c.begin_verify(hot[i]);
                        let v = versions[i].load(Ordering::SeqCst);
                        for _ in 0..64 {
                            std::hint::spin_loop(); // the checksum pass
                        }
                        c.publish(hot[i], size_of(v), 0, 0, st);
                        c.probe(hot[i]);
                        // Cold objects of both shards keep the stripes full.
                        for z in 0..2 {
                            let cold = zone(z, 10_000 + (k * 2 + t) % 4_096);
                            let st = c.begin_verify(cold);
                            c.publish(cold, 64, 0, 0, st);
                        }
                        k += 1;
                    }
                })
            })
            .collect();
        start.wait();
        for round in 0..100_000u64 {
            let i = (round % hot.len() as u64) as usize;
            versions[i].fetch_add(1, Ordering::SeqCst);
            if round % 3 == 0 {
                c.bump(hot[i]);
            } else {
                c.clear(hot[i], 0, 0);
            }
            // Only this thread writes versions: nothing older than the
            // current one may be cached, whatever lands before the next
            // mutation.
            for (j, &off) in hot.iter().enumerate() {
                let v = versions[j].load(Ordering::SeqCst);
                if let Some(e) = c.probe(off) {
                    assert_eq!(e.size, size_of(v), "stale publish landed, round {round}");
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_consistent(&c);
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
    fn stamps_stay_apart_past_eight_parity_shards() {
        use pgl_pmemobj::{Layout, PoolConfig};
        let mut cfg = PoolConfig::small();
        cfg.size = 40 << 20;
        cfg.zone_size = 2 << 20;
        let layout = Layout::new(cfg).unwrap();
        let map = ShardMap::new(&layout, 16);
        assert_eq!(map.n_shards(), 16, "geometry must give sixteen shards");
        let zone_size = layout.cfg.zone_size as u64;
        let obj = |z: u64| layout.heap_off + z * zone_size + 4096;
        // One stripe: every shard's objects share it, and a mutation in
        // each other shard leaves shard 0's verification publishable.
        let c = VCache::striped(1, 64, true).with_affinity(map);
        let st = c.begin_verify(obj(0));
        for z in 1..16 {
            assert_eq!(map.shard_of_off(obj(z)), z);
            c.bump(obj(z));
        }
        c.publish(obj(0), 32, 0, 0, st);
        assert!(c.probe(obj(0)).is_some(), "a bump in another shard defeated the publish");
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
