//! Zone parity: RAID-style XOR protection under striped range-locks.
//!
//! Each zone's chunk rows form a 2-D array whose last row is the XOR of all
//! data rows (paper Figure 2). Updating object data therefore requires an
//! incremental parity update: `P' = P ⊕ (old ⊕ new)`. Because XOR commutes,
//! transactions updating *overlapping* parity (same column, different rows)
//! need no ordering — only that no two patches of one parity word
//! interleave.
//!
//! Every patch, whatever its size, takes the range-locks covering its
//! columns *exclusively* and applies `old ⊕ new` with plain stores
//! ([`pgl_nvm::NvmDevice::xor_diff_range`]): whole parity lines are
//! diffed and XORed a line at a time, partial lines a device word at a
//! time, and all-zero words are skipped. This is a deliberate deviation
//! from the paper's §3.5 hybrid, which patches below 8 KiB with
//! lock-prefixed word XOR under a *shared* range-lock so that writers of
//! one granule overlap. The plain patch costs less modelled device time
//! at every size (the atomic one also paid a read-modify-write per
//! dirtied line) and no more host time per transaction; what it gives up
//! is overlap between two writers of the same 8 KiB granule, which now
//! take turns, each paying its flush and fence inside the guard (the
//! `ablation_parity_contention` bin prices it).
//!
//! A range-lock covers [`LOCK_GRANULE`] (8 KiB) of a zone's parity
//! columns, a design constant.
//!
//! Chunks holding overflowed transaction logs ([`ChunkType::Log`]) are
//! treated as zeros in all parity math, preventing parity contention
//! between log appends and object updates (paper §3.1).
//!
//! # The reserved-chunk watermark
//!
//! Each zone carries a watermark `W` under one invariant: **no chunk
//! numbered at or above `W` has been written by the library since pool
//! creation**, so such a chunk is zero on media and zero in parity's
//! account. The row fold behind reconstruction and column recompute
//! leaves those rows out (no chunk-metadata read, no data read), so
//! rebuilding a range costs the rows that hold data, not all data rows.
//!
//! * **Raise before write.** `W` only goes up. A reservation that takes a
//!   chunk at or above `W` — `PglTx::alloc` (a Large object to the end of
//!   its run of chunks) and the log-overflow claim — makes the raise
//!   durable in both zone-header copies ([`ParityEngine::raise_watermark`],
//!   two 8-byte stores and one fence) before the reservation returns. So
//!   the raise precedes the commit's allocation intents, its construction
//!   write-back, run formatting, log appends and every parity patch into
//!   the chunk. A freed chunk keeps its stale bytes, and its parity
//!   share, under `W`.
//! * **Open.** The effective value is `max(primary, replica)`, at least
//!   `cm_chunks`, re-persisted when the copies disagree with it; a copy
//!   that is unreadable, fails its check or exceeds `n_chunks` does not
//!   count. A zone with no valid copy — every image written before the
//!   record existed — folds every row and persists `n_chunks`. After the
//!   heap scan `W` is also raised to `1 +` the highest non-`Free` CM
//!   index. Either copy alone therefore carries the value: a single lost,
//!   zeroed, lowered or raised copy changes nothing.
//! * **Outside the model.** Both copies lowered below a written chunk is
//!   a double fault. The fold then misses a row, and the rebuilt bytes
//!   fail the object checksum and surface as a typed error.
//! * [`ParityEngine::verify_zone`] still reads every row: it checks parity
//!   over the rows below `W` and reports any non-zero byte at or above it
//!   — the one place a scribble into never-reserved space shows.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

use pgl_nvm::PAGE_SIZE;
use pgl_pmemobj::heap::run::{ChunkMeta, ChunkType};
use pgl_pmemobj::{zonehdr, Layout, PoolIo};

use crate::error::{PglError, Result};
use crate::scratch;

/// XORs `src` into `acc` (equal lengths) in `u64` lanes — the one fold
/// kernel behind reconstruction, recomputation and verification.
fn xor_into(acc: &mut [u8], src: &[u8]) {
    debug_assert_eq!(acc.len(), src.len());
    let mut a = acc.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (a, s) in (&mut a).zip(&mut s) {
        let lane = u64::from_ne_bytes((&*a).try_into().expect("exact 8-byte chunk"))
            ^ u64::from_ne_bytes(s.try_into().expect("exact 8-byte chunk"));
        a.copy_from_slice(&lane.to_ne_bytes());
    }
    for (a, s) in a.into_remainder().iter_mut().zip(s.remainder()) {
        *a ^= s;
    }
}

/// A data-row segment mapped to its zone/column coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Zone index.
    pub zone: u64,
    /// Row index within the zone.
    pub row: u64,
    /// Column offset within the row.
    pub col: u64,
    /// Absolute pool offset of the segment start.
    pub off: u64,
    /// Segment length in bytes.
    pub len: u64,
}

/// Allocation-free iterator over the row-bounded segments of a pool data
/// range (the core of [`segments`]; commit-path callers iterate directly
/// so no per-range `Vec` is built).
pub struct SegIter<'a> {
    layout: &'a Layout,
    cur: u64,
    left: u64,
}

impl<'a> SegIter<'a> {
    /// Iterates the segments of `[off, off+len)`.
    pub fn new(layout: &'a Layout, off: u64, len: u64) -> Self {
        SegIter { layout, cur: off, left: len }
    }
}

impl Iterator for SegIter<'_> {
    type Item = Result<Segment>;

    fn next(&mut self) -> Option<Result<Segment>> {
        if self.left == 0 {
            return None;
        }
        match self.layout.row_col_of(self.cur) {
            Ok((zone, row, col)) => {
                let len = self.left.min(self.layout.zone.row_size - col);
                let seg = Segment { zone, row, col, off: self.cur, len };
                self.cur += len;
                self.left -= len;
                Some(Ok(seg))
            }
            Err(e) => {
                self.left = 0; // fuse: a range that leaves the data rows is fatal
                Some(Err(PglError::from(e)))
            }
        }
    }
}

/// Splits a pool data range into row-bounded segments (collecting
/// convenience over [`SegIter`]).
pub fn segments(layout: &Layout, off: u64, len: u64) -> Result<Vec<Segment>> {
    SegIter::new(layout, off, len).collect()
}

/// The rows a row fold leaves out of one chunk column — the rebuilt row
/// and the `Log` chunks — as the fold resolved them (one chunk-metadata
/// read per row), kept for the next range in the same column. Obtained
/// fresh from `scratch::with_left_out`; it describes chunk metadata as it
/// was, so it lives no longer than one reconstruction or one frozen
/// repair.
#[derive(Default)]
pub(crate) struct LeftOut {
    /// `(zone, skipped row, chunk column)` the flags describe.
    key: Option<(u64, u64, u64)>,
    /// Per row below the watermark: leave it out of the fold.
    rows: Vec<bool>,
}

impl LeftOut {
    /// An empty memo (for the thread-local scratch slot).
    pub(crate) const fn new() -> LeftOut {
        LeftOut { key: None, rows: Vec::new() }
    }

    /// Forgets the resolved column, keeping the capacity.
    pub(crate) fn forget(&mut self) {
        self.key = None;
    }
}

/// Bytes of parity columns one range-lock covers (the paper's 1 % / 16 GiB
/// zone configuration yields ~8 KiB granules, "20 K range-locks").
pub const LOCK_GRANULE: u64 = 8 << 10;

/// Upper bound on the striped lock table size. At paper scale a zone has
/// ~20 K granules; a dedicated lock per granule would waste memory, so
/// granules hash onto a fixed power-of-two stripe table instead. As long as
/// the pool has fewer granules than stripes the mapping is injective and
/// disjoint columns never contend; beyond that, aliasing only costs rare
/// false sharing of a lock, never correctness.
const MAX_STRIPES: u64 = 4096;

/// A held set of parity range-locks covering one span of pool data (its
/// columns, in every zone the span touches).
///
/// Acquired through [`ParityEngine::lock_span`] /
/// [`ParityEngine::lock_columns`]. Stripes are always acquired in ascending
/// table order (deduplicated), so any number of concurrent lockers —
/// committing transactions, the detectable CAS, the scrubber, recovery —
/// are deadlock-free. Every guard is exclusive: it is what makes the
/// plain-store parity patch safe, and what gives the scrubber a moment of
/// object-consistent quiet. See the crate's lock-order contract: micro-
/// buffer state → lane → parity range; a guard is always the innermost
/// lock.
pub struct RangeGuard<'a> {
    /// The first [`INLINE_STRIPES`] held stripes — a commit's span guard
    /// rarely needs more, so acquiring it allocates nothing. Only held,
    /// never read: dropping one releases its stripe.
    inline: [Option<MutexGuard<'a, ()>>; INLINE_STRIPES],
    /// Held stripes beyond the inline ones.
    spill: Vec<MutexGuard<'a, ()>>,
}

/// Stripes a [`RangeGuard`] holds, and a guard collects the ids of,
/// without heap storage.
const INLINE_STRIPES: usize = 4;

/// The stripe ids one guard is about to take, kept sorted and
/// deduplicated as they are collected: inline up to [`INLINE_STRIPES`]
/// distinct ids, on the heap past that.
struct StripeIds {
    inline: [usize; INLINE_STRIPES],
    n: usize,
    spill: Vec<usize>,
}

impl StripeIds {
    fn new() -> StripeIds {
        StripeIds { inline: [0; INLINE_STRIPES], n: 0, spill: Vec::new() }
    }

    fn insert(&mut self, id: usize) {
        if self.spill.is_empty() {
            match self.inline[..self.n].binary_search(&id) {
                Ok(_) => return,
                Err(at) if self.n < INLINE_STRIPES => {
                    self.inline.copy_within(at..self.n, at + 1);
                    self.inline[at] = id;
                    self.n += 1;
                    return;
                }
                Err(_) => self.spill.extend_from_slice(&self.inline),
            }
        }
        if let Err(at) = self.spill.binary_search(&id) {
            self.spill.insert(at, id);
        }
    }

    fn as_slice(&self) -> &[usize] {
        if self.spill.is_empty() {
            &self.inline[..self.n]
        } else {
            &self.spill
        }
    }
}

/// The parity engine: striped range-locks plus patch/recompute/reconstruct
/// logic.
pub struct ParityEngine {
    layout: Layout,
    granules_per_zone: u64,
    /// Striped lock table shared by all zones; granule `(zone, g)` maps to
    /// stripe `(zone * granules_per_zone + g) & stripe_mask`.
    stripes: Box<[Mutex<()>]>,
    stripe_mask: u64,
    /// Reserved-chunk watermark per zone (module docs); only the zones
    /// this engine owns are ever loaded or raised.
    marks: Box<[AtomicU64]>,
    /// Serializes watermark stores, so a lower raise never overwrites a
    /// higher one on media.
    raising: Mutex<()>,
}

impl ParityEngine {
    /// Builds the engine for a parity-enabled layout. Every zone starts at
    /// the all-rows watermark `n_chunks` until one is loaded.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no parity row (callers validate the mode).
    pub fn new(layout: Layout) -> ParityEngine {
        assert!(layout.zone.parity_base.is_some(), "parity engine needs a parity row");
        let granules_per_zone = layout.zone.row_size.div_ceil(LOCK_GRANULE);
        let total = (layout.n_zones * granules_per_zone).max(1);
        let n_stripes = total.next_power_of_two().min(MAX_STRIPES);
        let stripes = (0..n_stripes).map(|_| Mutex::new(())).collect();
        ParityEngine {
            layout,
            granules_per_zone,
            stripes,
            stripe_mask: n_stripes - 1,
            marks: (0..layout.n_zones).map(|_| AtomicU64::new(layout.zone.n_chunks)).collect(),
            raising: Mutex::new(()),
        }
    }

    /// `zone`'s reserved-chunk watermark (module docs).
    pub fn watermark(&self, zone: u64) -> u64 {
        self.marks[zone as usize].load(Ordering::Acquire)
    }

    /// Raises `zone`'s watermark to `end` (at most `n_chunks`), durable in
    /// both zone-header copies before this returns. Storage already under
    /// the watermark costs one atomic load and no device op.
    pub fn raise_watermark(&self, io: &PoolIo, zone: u64, end: u64) -> Result<()> {
        debug_assert!(end <= self.layout.zone.n_chunks);
        if end <= self.watermark(zone) {
            return Ok(());
        }
        let _held = self.raising.lock();
        if end > self.watermark(zone) {
            self.store_watermark(io, zone, end)?;
        }
        Ok(())
    }

    /// Persists `w` as `zone`'s watermark, then publishes it. Callers hold
    /// `raising` or run before the pool is shared.
    fn store_watermark(&self, io: &PoolIo, zone: u64, w: u64) -> Result<()> {
        zonehdr::store(io, &self.layout, zone, w)?;
        self.marks[zone as usize].store(w, Ordering::Release);
        Ok(())
    }

    /// The copies of `zone`'s record that can be a watermark at all: a
    /// value past `n_chunks` is a damaged copy, not a record.
    fn read_copies(&self, io: &PoolIo, zone: u64) -> [Option<u64>; 2] {
        let n_chunks = self.layout.zone.n_chunks;
        zonehdr::read(io, &self.layout, zone).map(|c| c.filter(|&w| w <= n_chunks))
    }

    /// Open-time load of `zone`'s watermark: the larger valid copy, at
    /// least `cm_chunks`, or `n_chunks` when neither copy is valid. Both
    /// copies are rewritten unless they already hold it.
    pub(crate) fn load_watermark(&self, io: &PoolIo, zone: u64) -> Result<()> {
        let geo = &self.layout.zone;
        let copies = self.read_copies(io, zone);
        let w = copies.iter().flatten().max().map_or(geo.n_chunks, |&w| w.max(geo.cm_chunks));
        if copies == [Some(w); 2] {
            self.marks[zone as usize].store(w, Ordering::Release);
            Ok(())
        } else {
            self.store_watermark(io, zone, w)
        }
    }

    /// Rewrites `zone`'s header copies when either no longer holds the
    /// watermark (zeroed, scribbled, lowered or raised by a fault); `true`
    /// if it did. The scrubber's metadata pass runs this per zone.
    pub(crate) fn heal_watermark(&self, io: &PoolIo, zone: u64) -> Result<bool> {
        let _held = self.raising.lock();
        let w = self.watermark(zone);
        let stale = zonehdr::read(io, &self.layout, zone) != [Some(w); 2];
        if stale {
            self.store_watermark(io, zone, w)?;
        }
        Ok(stale)
    }

    /// Rebuilds the lost `page` of `zone`'s header reserve: a watermark
    /// copy from its twin (the larger of the twin and DRAM, should the
    /// twin be lost or lowered too), any other reserve page as the zeros
    /// it always holds.
    pub(crate) fn repair_reserve_page(&self, io: &PoolIo, zone: u64, page: u64) -> Result<()> {
        let _held = self.raising.lock();
        let [primary, replica] =
            zonehdr::record_offs(&self.layout, zone).map(|o| o / PAGE_SIZE as u64);
        let image = if page == primary || page == replica {
            let twin = self.read_copies(io, zone)[usize::from(page == primary)];
            let w = twin.unwrap_or(0).max(self.watermark(zone));
            self.marks[zone as usize].store(w, Ordering::Release);
            zonehdr::page_image(zone, w)
        } else {
            vec![0u8; PAGE_SIZE]
        };
        io.dev().repair_page(page, &image).map_err(PglError::from)
    }

    /// Data rows of `zone` whose chunk in chunk column `chunk_col` lies
    /// below the watermark — the rows the fold reads.
    fn live_rows(&self, zone: u64, chunk_col: u64) -> u64 {
        let geo = &self.layout.zone;
        let w = self.watermark(zone);
        w.saturating_sub(chunk_col).div_ceil(geo.chunks_per_row).min(geo.data_rows)
    }

    #[inline]
    fn stripe_of(&self, zone: u64, g: u64) -> usize {
        ((zone * self.granules_per_zone + g) & self.stripe_mask) as usize
    }

    /// Adds the stripe ids covering columns `[col, col+len)` of `zone` to
    /// `ids`.
    fn push_stripes(&self, zone: u64, col: u64, len: u64, ids: &mut StripeIds) {
        let g0 = col / LOCK_GRANULE;
        let g1 = (col + len.max(1) - 1) / LOCK_GRANULE;
        for g in g0..=g1 {
            ids.insert(self.stripe_of(zone, g));
        }
    }

    /// Acquires the given stripes, in their ascending order.
    fn acquire(&self, ids: &StripeIds) -> RangeGuard<'_> {
        let ids = ids.as_slice();
        let mut guard = RangeGuard {
            inline: [const { None }; INLINE_STRIPES],
            spill: Vec::with_capacity(ids.len().saturating_sub(INLINE_STRIPES)),
        };
        for (i, &id) in ids.iter().enumerate() {
            let held = self.stripes[id].lock();
            match guard.inline.get_mut(i) {
                Some(slot) => *slot = Some(held),
                None => guard.spill.push(held),
            }
        }
        guard
    }

    /// Locks the range-locks covering columns `[col, col+len)` of `zone`.
    pub fn lock_columns(&self, zone: u64, col: u64, len: u64) -> RangeGuard<'_> {
        let mut ids = StripeIds::new();
        self.push_stripes(zone, col, len, &mut ids);
        self.acquire(&ids)
    }

    /// Locks the range-locks covering the *data span* `[off, off+len)`:
    /// every (zone, column) range any of its row segments map to. This is
    /// what a committing transaction holds around an object's write-back
    /// and what the scrubber holds while verifying an object.
    pub fn lock_span(&self, off: u64, len: u64) -> Result<RangeGuard<'_>> {
        self.lock_spans(std::iter::once((off, len)))
    }

    /// Like [`ParityEngine::lock_span`], over several data spans in one
    /// deadlock-free guard. A guard over at most four stripes allocates
    /// nothing.
    pub fn lock_spans(&self, spans: impl Iterator<Item = (u64, u64)>) -> Result<RangeGuard<'_>> {
        let mut ids = StripeIds::new();
        for (off, len) in spans {
            for seg in SegIter::new(&self.layout, off, len) {
                let seg = seg?;
                self.push_stripes(seg.zone, seg.col, seg.len, &mut ids);
            }
        }
        Ok(self.acquire(&ids))
    }

    /// Locks the range-locks covering each of the given disjoint 8-byte
    /// data words in one deadlock-free guard — the detectable CAS holds
    /// one over its target word and the word holding its segment's sum
    /// while it patches both parity columns, instead of the span guard a
    /// commit write-back takes.
    pub fn lock_words(&self, offs: &[u64]) -> Result<RangeGuard<'_>> {
        self.lock_spans(offs.iter().map(|&off| (off, 8)))
    }

    /// The one parity patch: applies the effect of overwriting
    /// `[off, off+len)` with `new` where the current NVMM content is `old`,
    /// under a [`RangeGuard`] the caller holds over the span. Per row
    /// segment the device's fused diff / zero-skip / XOR pass patches the
    /// parity row, primary and replica, with plain stores and flushes
    /// exactly the lines it dirtied; all-zero diff words never reach the
    /// device. Returns `true` when a line was flushed, i.e. a fence is owed
    /// before the guard is released — the caller issues it, so one fence
    /// can cover a data store and its patch together.
    pub fn patch(
        &self,
        _guard: &RangeGuard<'_>,
        io: &PoolIo,
        off: u64,
        old: &[u8],
        new: &[u8],
    ) -> Result<bool> {
        debug_assert_eq!(old.len(), new.len());
        let mut flushed = false;
        for seg in SegIter::new(&self.layout, off, new.len() as u64) {
            let seg = seg?;
            let base = (seg.off - off) as usize;
            let o = &old[base..base + seg.len as usize];
            let n = &new[base..base + seg.len as usize];
            let parity_off = self.layout.parity_off(seg.zone, seg.col);
            flushed |= io.dev().xor_diff_range(parity_off, o, n)?;
            if let Some(rep) = io.replica() {
                rep.xor_diff_range(parity_off, o, n)?;
            }
        }
        Ok(flushed)
    }

    /// Flips a 16-byte chunk-metadata entry with the **parity patch
    /// first** and the data store second — the opposite of the normal
    /// protected-write order. This is the `Log→Free` transition's
    /// protocol: it runs where no redo replay covers it, and crash
    /// recovery's only handle is the orphan sweep, which recomputes a CM
    /// column exactly when the entry still reads `Log` — parity-first
    /// keeps it reading `Log` throughout the vulnerable window. (The
    /// `Free→Log` direction needs the normal data-first order for the
    /// same reason.) The range guard spans both halves, so a concurrent
    /// scrubber or `verify_all` never observes them split.
    pub fn flip_cm_parity_first(&self, io: &PoolIo, cm_off: u64, new_cm: &[u8]) -> Result<()> {
        let mut cur = [0u8; 16];
        io.read(cm_off, &mut cur).map_err(PglError::from)?;
        let guard = self.lock_span(cm_off, 16)?;
        if self.patch(&guard, io, cm_off, &cur, new_cm)? {
            io.drain(); // parity first
        }
        io.write_nt(cm_off, new_cm).map_err(PglError::from)?;
        io.drain();
        drop(guard);
        Ok(())
    }

    /// Recomputes parity for columns `[col, col+len)` of `zone` from the
    /// data rows (Log chunks read as zeros). Used by crash recovery, where
    /// patches may have been torn (paper §3.6).
    pub fn recompute_columns(&self, io: &PoolIo, zone: u64, col: u64, len: u64) -> Result<()> {
        debug_assert!(col + len <= self.layout.zone.row_size);
        scratch::with_fault_scratch(|s| {
            let acc = scratch::zeroed(&mut s.rebuilt, len as usize);
            let skip = self.layout.zone.data_rows;
            scratch::with_left_out(|lo| self.fold_rows(io, zone, skip, col, acc, lo))?;
            let parity_off = self.layout.parity_off(zone, col);
            let _guard = self.lock_columns(zone, col, len);
            io.write(parity_off, acc)?;
            io.persist(parity_off, acc.len())?;
            Ok(())
        })
    }

    /// Reconstructs the (presumed lost or scribbled) bytes of the pool
    /// range `[off, off + out.len())` into `out` by XOR-ing the rest of
    /// its column range: every other data row plus the parity row (paper
    /// §3.6 "corruption recovery"). This is the *range column* — an
    /// object's slot costs `slot × rows` bytes of column traffic, not the
    /// pages it touches. The range may straddle pages, chunks and (Large
    /// objects) rows, or lie inside a parity row.
    ///
    /// Fails with [`PglError::Unrecoverable`] if another row of the same
    /// column range is also unreadable, or the range leaves the
    /// parity-protected area.
    pub fn reconstruct_range(&self, io: &PoolIo, off: u64, out: &mut [u8]) -> Result<()> {
        scratch::with_left_out(|lo| {
            self.reconstruct_ranges(io, &[(off, out.len() as u64)], out, lo)
        })
    }

    /// [`ParityEngine::reconstruct_range`] of every `(off, len)` of
    /// `ranges`, into consecutive pieces of `out` (their total length), in
    /// one pass: the rows each chunk column leaves out are resolved once in
    /// `left_out` and reused by every later range in that column, however
    /// many there are. `left_out` must not outlive a change of chunk
    /// metadata (callers hold it for one frozen repair).
    pub(crate) fn reconstruct_ranges(
        &self,
        io: &PoolIo,
        ranges: &[(u64, u64)],
        out: &mut [u8],
        left_out: &mut LeftOut,
    ) -> Result<()> {
        out.fill(0);
        let mut at = 0;
        for &(off, len) in ranges {
            let lost = |zone: u64, e: PglError| {
                let detail =
                    format!("double failure: the same column range is lost elsewhere ({e})");
                PglError::unrecoverable_at(u64::MAX, zone, off, detail)
            };
            let piece = &mut out[at..at + len as usize];
            at += len as usize;
            if let Some((zone, col)) = self.parity_col_of(off, len) {
                let parity_row = self.layout.zone.data_rows;
                self.fold_rows(io, zone, parity_row, col, piece, left_out)
                    .map_err(|e| lost(zone, e))?;
                continue;
            }
            for seg in SegIter::new(&self.layout, off, len) {
                let seg = seg.map_err(|e| lost(u64::MAX, e))?;
                let part = &mut piece[(seg.off - off) as usize..][..seg.len as usize];
                self.fold_rows(io, seg.zone, seg.row, seg.col, part, left_out)
                    .map_err(|e| lost(seg.zone, e))?;
            }
        }
        Ok(())
    }

    /// The *page column*: [`ParityEngine::reconstruct_range`] over the
    /// page at `page_off` — the unit a media error costs.
    pub fn reconstruct_page(&self, io: &PoolIo, page_off: u64, out: &mut [u8]) -> Result<()> {
        if page_off % PAGE_SIZE as u64 != 0 || out.len() != PAGE_SIZE {
            return Err(PglError::unrecoverable_at(u64::MAX, u64::MAX, page_off, "not a page"));
        }
        self.reconstruct_range(io, page_off, out)
    }

    /// `(zone, column)` when `[off, off+len)` lies inside a parity row.
    fn parity_col_of(&self, off: u64, len: u64) -> Option<(u64, u64)> {
        let (zone, zoff) = self.layout.zone_and_rel(off).ok()?;
        let pbase = self.layout.zone.parity_base?;
        (zoff >= pbase && zoff + len <= pbase + self.layout.zone.row_size)
            .then(|| (zone, zoff - pbase))
    }

    /// XORs columns `[col, col + acc.len())` of every row of `zone` except
    /// `skip` into `acc` — the one row fold behind reconstruction,
    /// recomputation and verification. Rows `0..data_rows` are the data
    /// rows (Log chunks counting as zeros), row `data_rows` is the parity
    /// row: skipping a data row rebuilds it, skipping the parity row
    /// yields what parity should hold. Rows whose chunk lies at or above
    /// the zone's watermark are zero and never read. Per chunk column the
    /// range touches, the rows below it to leave out (`skip` and the `Log`
    /// chunks, one chunk-metadata read per row) are resolved once — unless
    /// `left_out` already holds them — then every remaining row is folded
    /// straight from the device.
    fn fold_rows(
        &self,
        io: &PoolIo,
        zone: u64,
        skip: u64,
        col: u64,
        acc: &mut [u8],
        left_out: &mut LeftOut,
    ) -> Result<()> {
        let geo = &self.layout.zone;
        let chunk_size = self.layout.cfg.chunk_size as u64;
        let rows_base = self.layout.zone_base(zone) + geo.rows_base;
        let mut done = 0usize;
        while done < acc.len() {
            let cur = col + done as u64;
            let n = ((chunk_size - cur % chunk_size) as usize).min(acc.len() - done);
            let live = self.live_rows(zone, cur / chunk_size);
            let key = (zone, skip, cur / chunk_size);
            if left_out.key != Some(key) || left_out.rows.len() != live as usize {
                left_out.key = None;
                left_out.rows.clear();
                for row in 0..live {
                    let chunk = row * geo.chunks_per_row + cur / chunk_size;
                    left_out.rows.push(row == skip || self.chunk_is_log(io, zone, chunk)?);
                }
                left_out.key = Some(key);
            }
            let part = &mut acc[done..done + n];
            for row in (0..live).filter(|&r| !left_out.rows[r as usize]) {
                xor_into(part, io.dev().read_slice(rows_base + row * geo.row_size + cur, n)?);
            }
            if skip != geo.data_rows {
                xor_into(part, io.dev().read_slice(self.layout.parity_off(zone, cur), n)?);
            }
            done += n;
        }
        Ok(())
    }

    fn chunk_is_log(&self, io: &PoolIo, zone: u64, chunk_idx: u64) -> Result<bool> {
        let mut cm_buf = [0u8; 16];
        io.read(self.layout.cm_entry_off(zone, chunk_idx), &mut cm_buf).map_err(PglError::from)?;
        Ok(ChunkMeta::from_slice(&cm_buf).chunk_type() == Some(ChunkType::Log))
    }

    /// Verifies the parity invariant for every column of every zone:
    /// `parity == XOR of data rows` (Log chunks as zeros), and every byte
    /// of a row at or above the zone's watermark is zero. Diagnostic
    /// helper; returns **every** mismatching `(zone, column)` — one entry
    /// per [`ParityEngine::VERIFY_STEP`]-sized window with at least one
    /// divergent byte — so a stress-test failure shows the full damage
    /// pattern instead of just the first hit. An empty vector means the
    /// invariant holds pool-wide.
    ///
    /// Each window is checked under its range-locks, so the sweep
    /// may run concurrently with committing transactions (which hold the
    /// same locks across their write-backs).
    pub fn verify_all(&self, io: &PoolIo) -> Result<Vec<(u64, u64)>> {
        let mut mismatches = Vec::new();
        for zone in 0..self.layout.n_zones {
            self.verify_zone(io, zone, &mut mismatches)?;
        }
        Ok(mismatches)
    }

    /// Verifies the parity invariant for every column window of one zone,
    /// appending each mismatching `(zone, column)` to `mismatches` (the
    /// per-zone core of [`ParityEngine::verify_all`]; sharded pools sweep
    /// one engine's own zones through here).
    pub fn verify_zone(
        &self,
        io: &PoolIo,
        zone: u64,
        mismatches: &mut Vec<(u64, u64)>,
    ) -> Result<()> {
        const STEP: u64 = ParityEngine::VERIFY_STEP;
        scratch::with_fault_scratch(|s| {
            let mut col = 0;
            while col < self.layout.zone.row_size {
                let len = STEP.min(self.layout.zone.row_size - col);
                let acc = scratch::zeroed(&mut s.rebuilt, len as usize);
                let guard = self.lock_columns(zone, col, len);
                let skip = self.layout.zone.data_rows;
                scratch::with_left_out(|lo| self.fold_rows(io, zone, skip, col, acc, lo))?;
                let parity = io.dev().read_slice(self.layout.parity_off(zone, col), acc.len())?;
                if acc != parity || self.stray_above_watermark(io, zone, col, len)? {
                    mismatches.push((zone, col));
                }
                drop(guard);
                col += len;
            }
            Ok(())
        })
    }

    /// `true` when a row at or above the watermark holds a non-zero byte
    /// in columns `[col, col + len)` — what the invariant rules out, so a
    /// scribble into never-reserved space (which the fold no longer
    /// reads) still shows.
    fn stray_above_watermark(&self, io: &PoolIo, zone: u64, col: u64, len: u64) -> Result<bool> {
        let geo = &self.layout.zone;
        let chunk_size = self.layout.cfg.chunk_size as u64;
        let rows_base = self.layout.zone_base(zone) + geo.rows_base;
        let mut cur = col;
        while cur < col + len {
            let n = (chunk_size - cur % chunk_size).min(col + len - cur);
            for row in self.live_rows(zone, cur / chunk_size)..geo.data_rows {
                let bytes =
                    io.dev().read_slice(rows_base + row * geo.row_size + cur, n as usize)?;
                if bytes.iter().any(|&b| b != 0) {
                    return Ok(true);
                }
            }
            cur += n;
        }
        Ok(false)
    }

    /// Column window size used by [`ParityEngine::verify_all`].
    pub const VERIFY_STEP: u64 = 4096;
}

/// Maps zones to parity shards (domains) and routes pool offsets to their
/// owning shard. Shard membership is `zone % n_shards` — round-robin, so
/// shards stay balanced however many zones the pool has.
///
/// `Copy` so the commit path, the scrubber and the service layer can all
/// carry the routing rule by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    heap_off: u64,
    zone_size: u64,
    n_zones: u64,
    n_shards: u64,
}

impl ShardMap {
    /// Builds the map for `layout` with the configured shard count
    /// (resolved via [`ShardMap::resolve`]).
    pub fn new(layout: &Layout, shards: usize) -> ShardMap {
        ShardMap {
            heap_off: layout.heap_off,
            zone_size: layout.cfg.zone_size as u64,
            n_zones: layout.n_zones,
            n_shards: Self::resolve(layout.n_zones, shards),
        }
    }

    /// Resolves a configured shard count against the zone count: `0` is
    /// automatic (`min(n_zones, 8)`), explicit values are clamped to the
    /// zone count — a shard with no zones would be pure overhead.
    pub fn resolve(n_zones: u64, shards: usize) -> u64 {
        if shards == 0 {
            n_zones.clamp(1, 8)
        } else {
            (shards as u64).clamp(1, n_zones.max(1))
        }
    }

    /// Number of parity shards.
    pub fn n_shards(&self) -> u64 {
        self.n_shards
    }

    /// Number of zones in the pool.
    pub fn n_zones(&self) -> u64 {
        self.n_zones
    }

    /// The shard owning `zone`.
    pub fn shard_of_zone(&self, zone: u64) -> u64 {
        zone % self.n_shards
    }

    /// The shard owning the zone containing pool offset `off`. Offsets
    /// below the heap (pool header, lanes) conventionally route to shard 0.
    pub fn shard_of_off(&self, off: u64) -> u64 {
        if off < self.heap_off {
            return 0;
        }
        let zone = ((off - self.heap_off) / self.zone_size).min(self.n_zones - 1);
        self.shard_of_zone(zone)
    }
}

/// N self-contained parity shards: one [`ParityEngine`] per shard, each
/// owning the zones with `zone % n_shards == shard` (paper §3.1 parity,
/// partitioned into independent persistence domains à la the Parallel
/// Persistent Memory Model). Each shard has its **own** striped lock
/// table, so commits in different shards never contend on a stripe, and
/// scrub sweeps shards on parallel workers. Crash recovery is one serial
/// pass over every zone ([`crate::recover::crash_recover`]).
///
/// All routing is by the zone of the target offset; object data, CM
/// entries and parity columns are all zone-local, so every span a
/// transaction locks lives in exactly one shard.
pub struct ParityDomains {
    engines: Vec<ParityEngine>,
    map: ShardMap,
}

impl ParityDomains {
    /// Builds `shards` (resolved via [`ShardMap::resolve`]) engines over
    /// `layout`.
    pub fn new(layout: Layout, shards: usize) -> ParityDomains {
        let map = ShardMap::new(&layout, shards);
        let engines = (0..map.n_shards()).map(|_| ParityEngine::new(layout)).collect();
        ParityDomains { engines, map }
    }

    /// The zone→shard routing map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of parity shards.
    pub fn n_shards(&self) -> usize {
        self.engines.len()
    }

    /// The engine owning shard `shard`.
    pub fn engine(&self, shard: u64) -> &ParityEngine {
        &self.engines[(shard % self.engines.len() as u64) as usize]
    }

    /// The engine owning the zone that contains pool offset `off`.
    pub fn engine_for(&self, off: u64) -> &ParityEngine {
        self.engine(self.map.shard_of_off(off))
    }

    /// The engine owning `zone`.
    pub fn engine_for_zone(&self, zone: u64) -> &ParityEngine {
        self.engine(self.map.shard_of_zone(zone))
    }

    /// Routes [`ParityEngine::lock_span`] to the owning shard.
    pub fn lock_span(&self, off: u64, len: u64) -> Result<RangeGuard<'_>> {
        self.engine_for(off).lock_span(off, len)
    }

    /// Routes [`ParityEngine::lock_spans`] to the shard owning the first
    /// span (an object's spans share its zone).
    pub fn lock_spans(
        &self,
        mut spans: impl Iterator<Item = (u64, u64)> + Clone,
    ) -> Result<RangeGuard<'_>> {
        let first = spans.clone().next().map_or(0, |s| s.0);
        self.engine_for(first).lock_spans(&mut spans)
    }

    /// Routes [`ParityEngine::lock_words`] to the owning shard. All words
    /// must live in one shard (the detectable-CAS path locks a target word
    /// and its object header, which share a zone).
    pub fn lock_words(&self, offs: &[u64]) -> Result<RangeGuard<'_>> {
        debug_assert!(
            offs.iter().all(|&o| self.map.shard_of_off(o) == self.map.shard_of_off(offs[0])),
            "word set crosses parity shards"
        );
        self.engine_for(offs[0]).lock_words(offs)
    }

    /// Routes [`ParityEngine::patch`] to the owning shard.
    pub fn patch(
        &self,
        guard: &RangeGuard<'_>,
        io: &PoolIo,
        off: u64,
        old: &[u8],
        new: &[u8],
    ) -> Result<bool> {
        self.engine_for(off).patch(guard, io, off, old, new)
    }

    /// Routes [`ParityEngine::flip_cm_parity_first`] to the owning shard.
    pub fn flip_cm_parity_first(&self, io: &PoolIo, cm_off: u64, new_cm: &[u8]) -> Result<()> {
        self.engine_for(cm_off).flip_cm_parity_first(io, cm_off, new_cm)
    }

    /// Routes [`ParityEngine::recompute_columns`] to the zone's shard.
    pub fn recompute_columns(&self, io: &PoolIo, zone: u64, col: u64, len: u64) -> Result<()> {
        self.engine_for_zone(zone).recompute_columns(io, zone, col, len)
    }

    /// Routes [`ParityEngine::reconstruct_page`] to the owning shard.
    pub fn reconstruct_page(&self, io: &PoolIo, page_off: u64, out: &mut [u8]) -> Result<()> {
        self.engine_for(page_off).reconstruct_page(io, page_off, out)
    }

    /// `zone`'s reserved-chunk watermark (module docs).
    pub fn watermark(&self, zone: u64) -> u64 {
        self.engine_for_zone(zone).watermark(zone)
    }

    /// Open-time load of every zone's watermark except the `skip`ped
    /// (quarantined) ones, which keep folding every row.
    pub(crate) fn load_watermarks(&self, io: &PoolIo, skip: &dyn Fn(u64) -> bool) -> Result<()> {
        (0..self.map.n_zones())
            .filter(|&z| !skip(z))
            .try_for_each(|z| self.engine_for_zone(z).load_watermark(io, z))
    }

    /// Creation-time watermarks: `cm_chunks` in every zone of a freshly
    /// zeroed pool.
    pub(crate) fn format_watermarks(&self, io: &PoolIo) -> Result<()> {
        let cm_chunks = self.engines[0].layout.zone.cm_chunks;
        (0..self.map.n_zones())
            .try_for_each(|z| self.engine_for_zone(z).store_watermark(io, z, cm_chunks))
    }

    /// Verifies the parity invariant pool-wide, reporting every
    /// mismatching `(shard, zone, column)` triple — each zone checked by
    /// its owning shard's engine (so the sweep contends only with that
    /// shard's committers).
    pub fn verify_all(&self, io: &PoolIo) -> Result<Vec<(u64, u64, u64)>> {
        self.verify_all_except(io, &|_| false)
    }

    /// Like [`ParityDomains::verify_all`], but skipping every zone for
    /// which `skip` returns `true` (quarantined zones hold unreconstructable
    /// pages, so their parity invariant is knowingly — and acceptably —
    /// broken).
    pub fn verify_all_except(
        &self,
        io: &PoolIo,
        skip: &dyn Fn(u64) -> bool,
    ) -> Result<Vec<(u64, u64, u64)>> {
        let mut out = Vec::new();
        for zone in 0..self.map.n_zones() {
            if skip(zone) {
                continue;
            }
            let shard = self.map.shard_of_zone(zone);
            let mut pairs = Vec::new();
            self.engine(shard).verify_zone(io, zone, &mut pairs)?;
            out.extend(pairs.into_iter().map(|(z, c)| (shard, z, c)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgl_nvm::{align_down, DeviceConfig, NvmDevice};
    use pgl_pmemobj::PoolConfig;
    use std::sync::Arc;

    fn setup() -> (PoolIo, Layout, ParityEngine) {
        let cfg = PoolConfig::small();
        let layout = Layout::new(cfg).unwrap();
        let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
        let io = PoolIo::new(dev);
        let engine = ParityEngine::new(layout);
        (io, layout, engine)
    }

    /// Writes through the data+parity protocol under the span's guard:
    /// read old, write new, patch.
    fn protected_write(io: &PoolIo, eng: &ParityEngine, off: u64, new: &[u8]) {
        let guard = eng.lock_span(off, new.len() as u64).unwrap();
        let mut old = vec![0u8; new.len()];
        io.read(off, &mut old).unwrap();
        io.write(off, new).unwrap();
        io.persist(off, new.len()).unwrap();
        if eng.patch(&guard, io, off, &old, new).unwrap() {
            io.drain();
        }
    }

    fn rebuilt_page(io: &PoolIo, eng: &ParityEngine, page_off: u64) -> Result<Vec<u8>> {
        let mut out = vec![0u8; PAGE_SIZE];
        eng.reconstruct_page(io, page_off, &mut out).map(|()| out)
    }

    #[test]
    fn segments_split_at_row_boundaries() {
        let (_io, layout, _eng) = setup();
        let row = layout.zone.row_size;
        let base = layout.zone_base(0) + layout.zone.rows_base;
        // A range straddling the row-0/row-1 boundary.
        let segs = segments(&layout, base + row - 10, 30).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].row, 0);
        assert_eq!(segs[0].col, row - 10);
        assert_eq!(segs[0].len, 10);
        assert_eq!(segs[1].row, 1);
        assert_eq!(segs[1].col, 0);
        assert_eq!(segs[1].len, 20);
    }

    #[test]
    fn small_and_large_patches_keep_invariant() {
        let (io, layout, eng) = setup();
        let base = layout.chunk_base(0, layout.zone.cm_chunks);
        // Small and unaligned: partial lines only.
        protected_write(&io, &eng, base + 3, &[0xAB; 100]);
        // Large, across a lock granule.
        protected_write(&io, &eng, base + 4096, &vec![0xCD; 10 << 10]);
        // Overwrite part of the first write again.
        protected_write(&io, &eng, base + 3, &[0x11; 50]);
        assert_eq!(eng.verify_all(&io).unwrap(), vec![]);
    }

    #[test]
    fn overlapping_rows_share_parity_correctly() {
        let (io, layout, eng) = setup();
        // Two objects in different rows, same columns (paper's ObjA/ObjC).
        let col = 1000u64;
        let row0 = layout.zone_base(0) + layout.zone.rows_base + col;
        let row1 = row0 + layout.zone.row_size;
        protected_write(&io, &eng, row0, &[0xA0; 64]);
        protected_write(&io, &eng, row1, &[0x0C; 64]);
        assert_eq!(eng.verify_all(&io).unwrap(), vec![]);
        // The parity byte is the XOR of both rows.
        let mut p = [0u8; 1];
        io.read(layout.parity_off(0, col), &mut p).unwrap();
        assert_eq!(p[0], 0xA0 ^ 0x0C);
    }

    #[test]
    fn reconstructs_lost_data_page() {
        let (io, layout, eng) = setup();
        let base = layout.chunk_base(0, layout.zone.cm_chunks + 1);
        let content: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        protected_write(&io, &eng, base, &content);
        // Some unrelated data in another row of the same column.
        protected_write(&io, &eng, base + layout.zone.row_size + 128, &[0x77; 512]);

        let page = base / PAGE_SIZE as u64;
        let expected = io.dev().read_slice(base, PAGE_SIZE).unwrap().to_vec();
        io.dev().poison_page(page).unwrap();
        let rebuilt = rebuilt_page(&io, &eng, base).unwrap();
        assert_eq!(rebuilt, expected, "page column XOR restores the lost page");
    }

    #[test]
    fn reconstructs_lost_parity_page() {
        let (io, layout, eng) = setup();
        let base = layout.chunk_base(0, layout.zone.cm_chunks);
        protected_write(&io, &eng, base, &[0x3C; 2048]);
        let parity_off = layout.parity_off(0, 0);
        let parity_page = align_down(parity_off as usize, PAGE_SIZE) as u64;
        let expected = io.dev().read_slice(parity_page, PAGE_SIZE).unwrap().to_vec();
        io.dev().poison_page(parity_page / PAGE_SIZE as u64).unwrap();
        let rebuilt = rebuilt_page(&io, &eng, parity_page).unwrap();
        assert_eq!(rebuilt, expected);
    }

    #[test]
    fn double_failure_is_unrecoverable() {
        let (io, layout, eng) = setup();
        let base = layout.chunk_base(0, layout.zone.cm_chunks);
        let col_page = base / PAGE_SIZE as u64;
        // Poison the target page AND the same column one row below.
        io.dev().poison_page(col_page).unwrap();
        io.dev().poison_page(col_page + layout.zone.row_size / PAGE_SIZE as u64).unwrap();
        assert!(matches!(rebuilt_page(&io, &eng, base), Err(PglError::Unrecoverable { .. })));
    }

    #[test]
    fn recompute_columns_restores_invariant_after_tear() {
        let (io, layout, eng) = setup();
        let base = layout.chunk_base(0, layout.zone.cm_chunks);
        protected_write(&io, &eng, base, &[0x42; 256]);
        // Tear: write data without a parity patch (simulating a crash
        // between the data write and the parity update).
        io.write(base + 64, &[0x99; 64]).unwrap();
        io.persist(base + 64, 64).unwrap();
        assert!(!eng.verify_all(&io).unwrap().is_empty(), "invariant broken by tear");
        let (_z, _r, col) = layout.row_col_of(base + 64).unwrap();
        eng.recompute_columns(&io, 0, col, 64).unwrap();
        assert_eq!(eng.verify_all(&io).unwrap(), vec![]);
    }

    #[test]
    fn log_chunks_count_as_zero() {
        let (io, layout, eng) = setup();
        // Mark a chunk as LOG and fill it with garbage: parity must ignore
        // it entirely. The CM entry itself is ordinary parity-covered data,
        // so its update goes through the protected-write protocol.
        let c = layout.zone.cm_chunks + 2;
        let cm = ChunkMeta::new(ChunkType::Log, 0, 1);
        protected_write(&io, &eng, layout.cm_entry_off(0, c), &cm.to_bytes());
        io.write(layout.chunk_base(0, c), &[0xFF; 4096]).unwrap();
        assert_eq!(eng.verify_all(&io).unwrap(), vec![], "log chunk contributes zeros");
        // And reconstruction of another row in the same column ignores it.
        let base = layout.chunk_base(0, c) + layout.zone.row_size; // row 1, same col
        protected_write(&io, &eng, base, &[0x5A; 4096]);
        let expected = io.dev().read_slice(base, PAGE_SIZE).unwrap().to_vec();
        io.dev().poison_page(base / PAGE_SIZE as u64).unwrap();
        let rebuilt = rebuilt_page(&io, &eng, base).unwrap();
        assert_eq!(rebuilt, expected);
    }

    /// `(bytes, read ops)` one `reconstruct_range` of `len` bytes at `off`
    /// costs the device.
    fn rebuild_reads(io: &PoolIo, eng: &ParityEngine, off: u64, len: usize) -> (u64, u64) {
        let s0 = io.dev().stats();
        eng.reconstruct_range(io, off, &mut vec![0u8; len]).unwrap();
        let d = io.dev().stats().delta_since(&s0);
        (d.bytes_read, d.read_ops)
    }

    #[test]
    fn reconstruct_reads_only_the_rows_under_the_watermark() {
        let (io, layout, eng) = setup();
        let geo = layout.zone;
        let (k_col, len) = (3u64, 512u64);
        let off = layout.chunk_base(0, k_col) + 100; // row 0, chunk column 3
                                                     // Every other row costs its CM entry and `len` data bytes; the
                                                     // parity row `len` more. (The target row's own entry is never
                                                     // read.) `n_chunks` folds all rows — the parent's exact traffic.
        let reads = |rows: u64| ((rows - 1) * (len + 16) + len, 2 * (rows - 1) + 1);
        assert_eq!(eng.watermark(0), geo.n_chunks);
        assert_eq!(rebuild_reads(&io, &eng, off, len as usize), reads(geo.data_rows));
        for k in 1..=geo.data_rows {
            // `k` reserved rows in this column: the watermark sits just
            // past row `k - 1`'s chunk.
            eng.marks[0].store((k - 1) * geo.chunks_per_row + k_col + 1, Ordering::Release);
            assert_eq!(rebuild_reads(&io, &eng, off, len as usize), reads(k), "k = {k}");
        }
    }

    #[test]
    fn ranges_of_one_column_resolve_its_left_out_rows_once() {
        let (io, layout, eng) = setup();
        let rows = layout.zone.data_rows;
        let base = layout.chunk_base(0, 3);
        protected_write(&io, &eng, base + 90, &[0x5A; 900]);
        let ranges = [(base + 64, 16), (base + 256, 256), (base + 1000, 4)];
        let mut got = vec![0u8; 276];
        let s0 = io.dev().stats();
        scratch::with_left_out(|lo| eng.reconstruct_ranges(&io, &ranges, &mut got, lo)).unwrap();
        let d = io.dev().stats().delta_since(&s0);
        // One chunk-metadata entry per other row, once; then each range
        // reads every other row and the parity row.
        assert_eq!(d.read_ops, (rows - 1) + 3 * rows);
        assert_eq!(d.bytes_read, (rows - 1) * 16 + 276 * rows);
        let mut want = Vec::new();
        for (off, len) in ranges {
            let mut one = vec![0u8; len as usize];
            eng.reconstruct_range(&io, off, &mut one).unwrap();
            want.extend_from_slice(&one);
        }
        assert_eq!(got, want);
        assert_eq!(&got[..16], io.dev().read_slice(base + 64, 16).unwrap());
    }

    #[test]
    fn a_bounded_fold_rebuilds_what_the_full_fold_does() {
        let (io, layout, eng) = setup();
        let row = layout.zone.row_size;
        let base = layout.chunk_base(0, layout.zone.cm_chunks);
        protected_write(&io, &eng, base + 40, &[0x3C; 3000]);
        protected_write(&io, &eng, base + row, &[0xC3; 5000]);
        let full = rebuilt_page(&io, &eng, base).unwrap();
        // Rows 0 and 1 hold data in this column; nothing above them does.
        eng.marks[0]
            .store(layout.zone.chunks_per_row + layout.zone.cm_chunks + 1, Ordering::Release);
        assert_eq!(rebuilt_page(&io, &eng, base).unwrap(), full);
        assert_eq!(eng.verify_all(&io).unwrap(), vec![]);
        // A stray byte above the watermark is invisible to the fold but
        // not to verification.
        io.write(base + 2 * row + 7, &[1]).unwrap();
        assert_eq!(rebuilt_page(&io, &eng, base).unwrap(), full);
        let (_, _, col) = layout.row_col_of(base).unwrap();
        assert_eq!(eng.verify_all(&io).unwrap(), vec![(0, col)]);
    }

    #[test]
    fn xor_kernel_matches_bytewise_at_every_tail_length() {
        for len in 0..40usize {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let mut acc: Vec<u8> = (0..len).map(|i| (i * 101 + 3) as u8).collect();
            let want: Vec<u8> = acc.iter().zip(&src).map(|(a, b)| a ^ b).collect();
            xor_into(&mut acc, &src);
            assert_eq!(acc, want, "len {len}");
        }
    }

    /// The page-granular reference the range primitive replaced: one page
    /// rebuilt byte by byte from its page column (Log chunks as zeros).
    fn reference_page(io: &PoolIo, layout: &Layout, page_off: u64) -> Vec<u8> {
        let (zone, target, col) = layout.row_col_of(page_off).unwrap();
        let mut acc = vec![0u8; PAGE_SIZE];
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut fold = |off: u64| {
            io.read(off, &mut buf).unwrap();
            acc.iter_mut().zip(&buf).for_each(|(a, b)| *a ^= b);
        };
        let rows = layout.zone_base(zone) + layout.zone.rows_base;
        for row in (0..layout.zone.data_rows).filter(|&r| r != target) {
            let chunk = row * layout.zone.chunks_per_row + col / layout.cfg.chunk_size as u64;
            let mut cm = [0u8; 16];
            io.read(layout.cm_entry_off(zone, chunk), &mut cm).unwrap();
            if ChunkMeta::from_slice(&cm).chunk_type() != Some(ChunkType::Log) {
                fold(rows + row * layout.zone.row_size + col);
            }
        }
        fold(layout.parity_off(zone, col));
        acc
    }

    /// Protected data straddling a chunk boundary in four rows and the
    /// row-0/row-1 boundary, plus a garbage-filled Log chunk in row 2.
    /// Returns the anchors the property test aims its ranges at.
    fn range_fixture(io: &PoolIo, layout: &Layout, eng: &ParityEngine) -> [u64; 4] {
        let chunk = layout.cfg.chunk_size as u64;
        let rows = layout.zone_base(0) + layout.zone.rows_base;
        let pattern = |seed: u64, len: usize| -> Vec<u8> {
            (0..len as u64).map(|i| (i.wrapping_mul(seed) >> 3) as u8 ^ seed as u8).collect()
        };
        for row in 0..4u64 {
            let off = rows + row * layout.zone.row_size + 3 * chunk - 3000;
            protected_write(io, eng, off, &pattern(0x9E37 + row, 12_000));
        }
        protected_write(io, eng, rows + layout.zone.row_size - 2000, &pattern(0xABCD, 5000));
        let log = 2 * layout.zone.chunks_per_row + 3; // row 2, chunk column 3
        let cm = ChunkMeta::new(ChunkType::Log, 0, 1);
        // Level the chunk's parity share to zero before excluding it, as
        // the log-overflow claim does.
        protected_write(io, eng, layout.chunk_base(0, log), &vec![0u8; chunk as usize]);
        protected_write(io, eng, layout.cm_entry_off(0, log), &cm.to_bytes());
        io.write(layout.chunk_base(0, log), &pattern(0x51, chunk as usize)).unwrap();
        assert_eq!(eng.verify_all(io).unwrap(), vec![]);
        [
            rows + 3 * chunk - 6000,                           // chunk straddle, row 0
            rows + layout.zone.row_size + 3 * chunk - 6000,    // same columns, row 1
            rows + layout.zone.row_size - 6000,                // row 0 → row 1 straddle
            rows + 2 * layout.zone.row_size + 3 * chunk - 100, // into the Log chunk itself
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn range_reconstruction_equals_sliced_page_reconstruction(
            anchor in 0usize..4,
            delta in 0u64..12_000,
            len in 1usize..10_000,
        ) {
            let (io, layout, eng) = setup();
            let off = range_fixture(&io, &layout, &eng)[anchor] + delta;
            let mut got = vec![0xA5u8; len];
            eng.reconstruct_range(&io, off, &mut got).unwrap();

            let page = PAGE_SIZE as u64;
            let first = off / page * page;
            let want: Vec<u8> = (first..off + len as u64)
                .step_by(PAGE_SIZE)
                .flat_map(|p| reference_page(&io, &layout, p))
                .skip((off - first) as usize)
                .take(len)
                .collect();
            proptest::prop_assert_eq!(&got, &want);
            // Nothing here is damaged, so the rebuild is also the media
            // content — except inside the Log chunk, which parity treats
            // as zeros.
            let log = layout.chunk_base(0, 2 * layout.zone.chunks_per_row + 3);
            if off + len as u64 <= log || off >= log + layout.cfg.chunk_size as u64 {
                proptest::prop_assert_eq!(&got[..], io.dev().read_slice(off, len).unwrap());
            }
        }
    }

    #[test]
    fn concurrent_same_column_patches_keep_parity() {
        let (io, layout, eng) = setup();
        let io = Arc::new(io);
        let eng = Arc::new(eng);
        let base = layout.chunk_base(0, layout.zone.cm_chunks);
        let row = layout.zone.row_size;
        // 4 threads patch the SAME columns from different rows
        // concurrently; their guards take turns on the shared stripe.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let io = io.clone();
                let eng = eng.clone();
                s.spawn(move || {
                    let off = base + t * row;
                    for i in 0..50u64 {
                        let val = [(t as u8 + 1) * 17; 64];
                        protected_write(&io, &eng, off + i * 64, &val);
                    }
                });
            }
        });
        assert_eq!(eng.verify_all(&io).unwrap(), vec![]);
    }

    #[test]
    fn stripe_ids_stay_sorted_and_deduplicated_past_the_inline_slots() {
        let mut ids = StripeIds::new();
        for id in [7, 3, 7, 9, 3, 1] {
            ids.insert(id);
        }
        assert_eq!(ids.as_slice(), [1, 3, 7, 9]);
        assert!(ids.spill.is_empty(), "four distinct ids stay inline");
        for id in [5, 9, 0, 5] {
            ids.insert(id);
        }
        assert_eq!(ids.as_slice(), [0, 1, 3, 5, 7, 9]);
    }

    #[test]
    fn shard_map_resolution_rules() {
        // 0 = auto: min(n_zones, 8), floor 1.
        assert_eq!(ShardMap::resolve(6, 0), 6);
        assert_eq!(ShardMap::resolve(32, 0), 8);
        // Explicit counts clamp to the zone count, floor 1.
        assert_eq!(ShardMap::resolve(6, 4), 4);
        assert_eq!(ShardMap::resolve(6, 64), 6);
        assert_eq!(ShardMap::resolve(6, 1), 1);
    }

    #[test]
    fn shard_map_routes_offsets_round_robin() {
        let layout = Layout::new(PoolConfig::small()).unwrap();
        let map = ShardMap::new(&layout, 2);
        assert_eq!(map.n_shards(), ShardMap::resolve(layout.n_zones, 2));
        // Pre-heap offsets (header, lanes) conventionally route to shard 0.
        assert_eq!(map.shard_of_off(0), 0);
        assert_eq!(map.shard_of_off(layout.heap_off - 1), 0);
        // Zone membership is round-robin and offset routing matches it.
        for z in 0..layout.n_zones {
            assert_eq!(map.shard_of_zone(z), z % map.n_shards());
            let off = layout.heap_off + z * layout.cfg.zone_size as u64;
            assert_eq!(map.shard_of_off(off), map.shard_of_zone(z));
        }
    }

    #[test]
    fn parity_domains_report_shard_zone_col_triples() {
        let cfg = PoolConfig::small();
        let layout = Layout::new(cfg).unwrap();
        let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
        let io = PoolIo::new(dev);
        let domains = ParityDomains::new(layout, 2);
        assert_eq!(domains.verify_all(&io).unwrap(), vec![]);
        // Tear a byte in zone 0 (no parity patch): the detailed verify
        // must attribute it to the owning shard.
        let base = layout.chunk_base(0, layout.zone.cm_chunks);
        io.write(base + 7, &[0x99]).unwrap();
        io.persist(base + 7, 1).unwrap();
        let bad = domains.verify_all(&io).unwrap();
        assert!(!bad.is_empty(), "tear must be detected");
        for &(shard, zone, _col) in &bad {
            assert_eq!(zone, 0);
            assert_eq!(shard, domains.map().shard_of_zone(zone));
        }
    }
}
