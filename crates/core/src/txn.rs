//! Fault-tolerant transactions over micro-buffers (paper §3.4).
//!
//! Unlike `libpmemobj`'s undo transactions, Pangolin transactions never let
//! the application store to NVMM. Every object a transaction opens has
//! one shadow, a [`UBuf`], in one map; all modifications happen in its
//! resident runs. Commit then performs, in order:
//!
//! 1. **canary checks** — a smashed canary aborts before NVMM is touched;
//! 2. **sealing** (`UBuf::seal`) — each modified object's write-back
//!    spans get their pre-images put together *in DRAM*, from the bytes
//!    the transaction loaded, in the recycled commit scratch; they feed
//!    the Adler32 refresh here and the parity XOR patch at stage (6) —
//!    the commit reads no old data from the device;
//! 3. **allocation intents** — persisted so a pre-commit crash can
//!    recompute parity for torn construction writes (the storage went
//!    under its zone's reserved-chunk watermark when [`PglTx::alloc`]
//!    reserved it, so that recompute folds its rows; see
//!    [`crate::parity`]);
//! 4. **construction write-back** of new objects through the one
//!    protected write (`Inner::protected_write`); their content is *not*
//!    redo-logged, matching the paper's observation that allocations do
//!    not pay object-logging cost;
//! 5. **redo log** (replicated in `-ML` modes) of every span and the
//!    allocator ops in 16-byte-header entries ([`pgl_pmemobj::ulog`]);
//!    the last one carries the commit flag, and its fence is the commit
//!    point;
//! 6. **write-back** of every span with a non-temporal store, paired
//!    with a parity patch consuming its stage-(2) pre-image
//!    (`Inner::store_locked`); one fence per *object* covers all its
//!    stores and patches, issued before its stripe guard is released;
//! 7. **allocator publication** (parity-aware); the log then stays valid
//!    until a mutator on another lane retires it (no device op here;
//!    [`pgl_pmemobj::lane`] module docs). Before its first fence, the
//!    commit itself retires every other lane's valid log.
//!
//! A crash before (5) leaves objects untouched (recovery re-levels parity
//! under the intents); a crash after (5) replays the redo log and
//! recomputes the affected parity columns (paper §3.6).
//!
//! A span is one modified range's new bytes (`UBuf::spans`). The sums of
//! the segments it dirtied ([`crate::segment`]) are part of the atomic
//! update: segment 0's is the object header's, which sits directly in
//! front of offset 0 both on NVMM and in the micro-buffer, so a range that
//! starts at 0 takes it along — one redo entry, one store, one parity
//! patch for header and data together (a whole-object overwrite is
//! the case where that range is the object) — and otherwise it is a
//! 16-byte span of its own, written only when segment 0 changed. The other
//! segments' sums are table entries behind the user data: a run of them
//! rides behind a range that reaches the object's end, or is one span.
//!
//! # The open rule
//!
//! [`PglTx::open`] reads an object's header (nothing at all when the
//! verification cache knows the object: the open is lazy). What a
//! transaction then loads follows one rule, in one place
//! (`Inner::load_verified`, the load core every verified read shares):
//! every byte loaded belongs to a segment that is checked on the spot or
//! vouched for by the verification cache, and a write loads the segments
//! it covers — 256 bytes around an 8-byte store, whatever the object's
//! size. Writes load into the micro-buffer (`Inner::load_range`); a
//! [`PglTx::read`] miss loads into the caller's bytes.
//!
//! # Cross-shard commits
//!
//! With more than one parity shard (see [`crate::parity::ShardMap`]),
//! commit routes each redo entry to a lane of the shard whose zones it
//! names, so a transaction whose effects span shards commits several
//! lanes. It runs an **ordered commit protocol**: the lowest-id touched
//! shard is the *primary*; its lane carries one `CrossShard` marker per
//! secondary lane (recording the secondary's index and generation), the
//! last of them flagged as the commit — the commit point. Only after that
//! fence do the secondary lanes get their own (standalone) commit records
//! (ascending shard order, second fence). Recovery rolls a secondary half forward iff
//! the primary committed *and* the secondary lane still carries the
//! generation named by the marker — so a crash between the two fences
//! replays both halves, and a crash before the first fence replays
//! neither (all-or-nothing). At the end of commit the secondaries are
//! invalidated durably *first*: once a secondary's generation advances,
//! its marker no longer matches, and the primary's log may stay valid.
//!
//! Known limit: a multi-shard commit holds one extra lane per secondary
//! shard, so pools sized with very few lanes can stall when many
//! multi-shard transactions run concurrently (claims spin until a lane
//! frees; single-shard transactions only ever hold one).

use pgl_nvm::pod::{bytes_of, Pod};
use pgl_pmemobj::heap::run::{ChunkMeta, ChunkType};
use pgl_pmemobj::heap::{AllocReservation, FreeReservation, MetaOp};
use pgl_pmemobj::lane::LaneHandle;
use pgl_pmemobj::ulog::{payload, EntryKind};
use pgl_pmemobj::{ObjError, PMEMoid};

pub use pgl_pmemobj::TxStats;

use crate::error::{PglError, Result};
use crate::pool::{Inner, ReadBuf};
use crate::scratch::{CommitScratch, OffMap};
use crate::ubuf::{UBuf, UBufState};

/// A heap chunk claimed for log overflow.
#[derive(Debug, Clone, Copy)]
struct LogChunk {
    zone: u64,
    chunk: u64,
    base: u64,
}

/// An in-flight Pangolin transaction (the `pgl_tx_*` interface).
pub struct PglTx<'p> {
    inner: &'p Inner,
    lane: LaneHandle<'p>,
    /// The micro-buffer of every object open in this transaction, keyed
    /// by object offset.
    objs: OffMap<UBuf>,
    /// Insertion order, for deterministic commit processing.
    order: Vec<u64>,
    allocs: Vec<AllocReservation>,
    frees: Vec<FreeReservation>,
    stats: TxStats,
    log_chunks: Vec<(LogChunk, Option<LogChunk>)>,
    /// Commit-path scratch (old-data buffer, staging buffer, stripe ids),
    /// recycled thread-locally so steady-state commits allocate nothing.
    scratch: CommitScratch,
}

/// Appends an entry, overflowing the log into heap chunks when the lane
/// fills (paper §2.3). Overflow chunks are typed `Log` and excluded from
/// parity (paper §3.1); the transition is crash-safe: allocation intents
/// are persisted into the segment reserve, the chunk is zeroed *with* a
/// parity update, and only then marked `Log` — from that point on its
/// parity contribution (zero) matches its excluded reading (zero).
fn append_with_overflow(
    inner: &Inner,
    lane: &mut LaneHandle<'_>,
    log_chunks: &mut Vec<(LogChunk, Option<LogChunk>)>,
    kind: EntryKind,
    off: u64,
    payload: &[u8],
) -> Result<()> {
    loop {
        match lane.append(kind, off, payload) {
            Ok(()) => return Ok(()),
            Err(ObjError::LogFull) => {
                grow_log(inner, lane, log_chunks)?;
            }
            Err(e) => return Err(e.into()),
        }
    }
}

fn claim_log_chunk(inner: &Inner) -> Result<LogChunk> {
    let (zone, chunk, base) =
        inner.heap.reserve_log_chunk_in(inner.alloc_pref()).map_err(PglError::from)?;
    if let Err(e) = inner.reserve_rows(base, inner.layout.cfg.chunk_size as u64) {
        inner.heap.release_log_chunk(zone, chunk);
        return Err(e);
    }
    Ok(LogChunk { zone, chunk, base })
}

/// Routes a redo entry to the lane of the shard owning `off`: the primary
/// lane when the target lives in the primary shard (or the transaction is
/// single-shard), else the secondary lane claimed for that shard.
#[allow(clippy::too_many_arguments)]
fn append_shard<'a>(
    inner: &Inner,
    primary: &mut LaneHandle<'a>,
    primary_shard: u64,
    sec: &mut [(u64, LaneHandle<'a>)],
    log_chunks: &mut Vec<(LogChunk, Option<LogChunk>)>,
    kind: EntryKind,
    off: u64,
    payload: &[u8],
) -> Result<()> {
    let shard = inner.shard_map.shard_of_off(off);
    let lane = if shard == primary_shard {
        primary
    } else {
        match sec.iter_mut().find(|(s, _)| *s == shard) {
            Some((_, l)) => l,
            None => primary,
        }
    };
    append_with_overflow(inner, lane, log_chunks, kind, off, payload)
}

fn grow_log(
    inner: &Inner,
    lane: &mut LaneHandle<'_>,
    log_chunks: &mut Vec<(LogChunk, Option<LogChunk>)>,
) -> Result<()> {
    let chunk_size = inner.layout.cfg.chunk_size as u64;
    let primary = claim_log_chunk(inner)?;
    let replica = if inner.mode.replicates_logs() { Some(claim_log_chunk(inner)?) } else { None };
    let log_cm = ChunkMeta::new(ChunkType::Log, 0, 1).to_bytes();
    let both = [Some(primary), replica];
    if inner.mode.has_parity() {
        // Crash-safe transition into parity exclusion (see fn docs).
        for lc in both.iter().flatten() {
            lane.append_reserved(EntryKind::AllocIntent, lc.base, &chunk_size.to_le_bytes())
                .map_err(PglError::from)?;
        }
        lane.persist_log().map_err(PglError::from)?;
        let zeros = vec![0u8; chunk_size as usize];
        for lc in both.iter().flatten() {
            inner.protected_write(lc.base, &zeros)?;
            inner.protected_write(inner.layout.cm_entry_off(lc.zone, lc.chunk), &log_cm)?;
        }
    } else {
        for lc in both.iter().flatten() {
            let cm_off = inner.layout.cm_entry_off(lc.zone, lc.chunk);
            inner.io.write(cm_off, &log_cm).map_err(PglError::from)?;
            inner.io.persist(cm_off, 16).map_err(PglError::from)?;
        }
    }
    lane.add_segment(primary.base, replica.map_or(0, |r| r.base), chunk_size)
        .map_err(PglError::from)?;
    log_chunks.push((primary, replica));
    Ok(())
}

fn release_log_chunks(
    inner: &Inner,
    log_chunks: &mut Vec<(LogChunk, Option<LogChunk>)>,
) -> Result<()> {
    let free_cm = ChunkMeta::new(ChunkType::Free, 0, 0).to_bytes();
    let chunk_size = inner.layout.cfg.chunk_size;
    for (p, r) in log_chunks.drain(..) {
        for lc in [Some(p), r].into_iter().flatten() {
            if inner.mode.has_parity() {
                // Zero the excluded chunk (parity-neutral plain stores),
                // then re-include it as Free: parity already carries zeros
                // for it, so the transition is consistent.
                inner.io.set(lc.base, 0, chunk_size).map_err(PglError::from)?;
                inner.io.persist(lc.base, chunk_size).map_err(PglError::from)?;
                // Log→Free runs after the redo log was invalidated, so
                // the crash-ordering burden falls on the parity-first CM
                // flip protocol (see `ParityEngine::flip_cm_parity_first`).
                let cm_off = inner.layout.cm_entry_off(lc.zone, lc.chunk);
                let engine = inner.parity.as_ref().expect("parity mode");
                engine.flip_cm_parity_first(&inner.io, cm_off, &free_cm)?;
            } else {
                let cm_off = inner.layout.cm_entry_off(lc.zone, lc.chunk);
                inner.io.write(cm_off, &free_cm).map_err(PglError::from)?;
                inner.io.persist(cm_off, 16).map_err(PglError::from)?;
            }
            inner.heap.release_log_chunk(lc.zone, lc.chunk);
        }
    }
    Ok(())
}

impl<'p> PglTx<'p> {
    pub(crate) fn new(inner: &'p Inner, lane: LaneHandle<'p>) -> Self {
        let mut scratch = CommitScratch::take();
        let objs = std::mem::take(&mut scratch.ubuf_map);
        let order = std::mem::take(&mut scratch.order);
        PglTx {
            inner,
            lane,
            objs,
            order,
            allocs: Vec::new(),
            frees: Vec::new(),
            stats: TxStats::default(),
            log_chunks: Vec::new(),
            scratch,
        }
    }

    /// Hands the transaction's containers (maps, order, micro-buffer
    /// frames) back to the thread-local scratch so the next transaction
    /// on this thread allocates nothing for them.
    fn recycle_scratch(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut map = std::mem::take(&mut self.objs);
        for (_, b) in map.drain() {
            scratch.push_frame(b.into_parts());
        }
        scratch.ubuf_map = map;
        scratch.order = std::mem::take(&mut self.order);
        scratch.recycle();
    }

    /// Ensures a micro-buffer exists for `oid` (the `pgl_tx_open`
    /// operation). An object the verification cache knows opens
    /// **lazily**: no device read at all — reads of segments the cache
    /// vouches for are served straight from NVMM (counted in the
    /// `verified_cached` bucket) and the header read is deferred to the
    /// first write — so read-mostly transactions (the
    /// ctree/rbtree/skiplist traversal shape) stop paying per touched
    /// node. Otherwise the header is read. Either way nothing of the user
    /// data is loaded yet: writes load the segments they cover, under the
    /// open rule (module docs). (Full overwrites load and check too, even
    /// though the old bytes don't flow into the refreshed sums: the bytes
    /// loaded are the commit's pre-image, and a *scribble* bypasses parity,
    /// so the parity row still reflects the pre-scribble content —
    /// patching it with a scribbled pre-image would leave a permanent
    /// residue in every column of the stripe. The check detects the
    /// scribble and repairs the object from parity first, keeping the
    /// pre-image and the parity row consistent. A scribble that lands
    /// *after* the load never enters the pre-image at all.)
    pub fn open(&mut self, oid: PMEMoid) -> Result<()> {
        self.inner.check_oid(oid)?;
        if self.objs.contains_key(&oid.off) {
            return Ok(());
        }
        let b = match self.inner.vcache.probe(oid.off) {
            Some(e) => UBuf::lazy(oid, e.size),
            None => self.inner.open_ubuf(oid, &mut self.scratch.frames)?,
        };
        self.objs.insert(oid.off, b);
        self.order.push(oid.off);
        Ok(())
    }

    /// Allocates a new `size`-byte object of `type_num`, returning its OID.
    /// The object exists only as a micro-buffer until commit; storage past
    /// the zone's watermark raises it durably before this returns.
    pub fn alloc(&mut self, size: u64, type_num: u32) -> Result<PMEMoid> {
        let inner = self.inner;
        let r = inner.heap.reserve_alloc_in(inner.footprint(size), type_num, inner.alloc_pref())?;
        if let Err(e) = inner.reserve_rows(r.start_off, r.total_len) {
            inner.heap.cancel_alloc(&r);
            return Err(e);
        }
        let oid = PMEMoid::new(inner.uuid, r.oid_off);
        let parts = self.scratch.frames.pop().unwrap_or_default();
        let table = inner.mode.has_checksums();
        let ubuf = UBuf::for_alloc_in(oid, size, type_num, parts, table);
        self.stats.allocated_bytes += size;
        self.stats.alloc_objects += 1;
        self.objs.insert(oid.off, ubuf);
        self.order.push(oid.off);
        self.allocs.push(r);
        Ok(oid)
    }

    /// Frees an object. Freeing an object allocated in this transaction
    /// cancels the reservation.
    pub fn free(&mut self, oid: PMEMoid) -> Result<()> {
        self.inner.check_oid(oid)?;
        // Freeing an opened object: its modifications are moot.
        let mut size = None;
        if let Some(b) = self.objs.remove(&oid.off) {
            self.order.retain(|&o| o != oid.off);
            if b.state() != UBufState::Lazy {
                size = Some(b.user_size() as u64);
            }
            if b.state() == UBufState::New {
                let i = self
                    .allocs
                    .iter()
                    .position(|a| a.oid_off == oid.off)
                    .expect("new ubuf implies a reservation");
                let r = self.allocs.swap_remove(i);
                self.stats.allocated_bytes -= b.user_size() as u64;
                self.stats.alloc_objects -= 1;
                self.inner.heap.cancel_alloc(&r);
                return Ok(());
            }
        }
        let size = match size {
            Some(size) => size,
            None => self.inner.obj_header_checked(oid)?.size,
        };
        let f = self.inner.heap.reserve_free(&self.inner.io, oid.off)?;
        self.stats.freed_bytes += size;
        self.stats.freed_objects += 1;
        self.frees.push(f);
        Ok(())
    }

    /// Makes `[off, off+len)` of `oid` resident in its micro-buffer, ready
    /// to be marked or written: opens the object, pays a lazy open's
    /// deferred header read, bounds-checks the range and loads it under
    /// the open rule (module docs).
    fn open_range(&mut self, oid: PMEMoid, off: u64, len: u64) -> Result<&mut UBuf> {
        self.open(oid)?;
        let inner = self.inner;
        let b = self.objs.get_mut(&oid.off).expect("just opened");
        if b.state() == UBufState::Lazy {
            *b = inner.open_ubuf(oid, &mut self.scratch.frames)?;
        }
        if !Inner::range_fits(off, len, b.user_size() as u64) {
            return Err(ObjError::InvalidOid { off: oid.off.saturating_add(off) }.into());
        }
        inner.load_range(b, off, len)?;
        Ok(b)
    }

    /// Marks `[off, off+len)` as about-to-be-modified (`pgl_tx_add_range`):
    /// makes the range resident and records it. Marking hands out
    /// nothing mutable, so it saves no pre-image: the mutable views
    /// ([`PglTx::write`], [`UBuf::write`], [`UBuf::user_mut`]) do, and a
    /// range that is marked but never stored to commits a zero diff.
    pub fn add_range(&mut self, oid: PMEMoid, off: u64, len: u64) -> Result<()> {
        self.open_range(oid, off, len)?.mark_modified(off, len);
        Ok(())
    }

    /// Writes `src` into the object at `off` (micro-buffered).
    ///
    /// The store never touches NVMM directly: it lands in the object's
    /// DRAM micro-buffer and reaches the pool only at
    /// commit, after redo-logging, with checksum and parity updated
    /// atomically (paper §3.4).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pangolin::{PglConfig, PglPool};
    /// use pgl_nvm::{DeviceConfig, NvmDevice};
    ///
    /// let cfg = PglConfig::small();
    /// let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    /// let pool = PglPool::create(dev, cfg).unwrap();
    ///
    /// let oid = pool.tx(|tx| {
    ///     let oid = tx.alloc(64, 1)?;
    ///     tx.write(oid, 0, b"hello")?;     // byte-slice store
    ///     tx.write_pod(oid, 8, &7u64)?;    // typed store
    ///     // Read-your-writes inside the transaction:
    ///     assert_eq!(tx.read_pod::<u64>(oid, 8)?, 7);
    ///     Ok(oid)
    /// }).unwrap();
    ///
    /// // Committed: visible (and checksummed) outside the transaction.
    /// assert_eq!(pool.read_pod::<u64>(oid, 8).unwrap(), 7);
    /// ```
    pub fn write(&mut self, oid: PMEMoid, off: u64, src: &[u8]) -> Result<()> {
        self.open_range(oid, off, src.len() as u64)?.write(off, src);
        Ok(())
    }

    /// Typed store into the object.
    pub fn write_pod<T: Pod>(&mut self, oid: PMEMoid, off: u64, val: &T) -> Result<()> {
        self.write(oid, off, bytes_of(val))
    }

    /// Reads object bytes. Inside a transaction this is `pgl_get`: bytes
    /// resident in the object's micro-buffer come from there (isolation,
    /// read-your-writes) and the rest from NVMM, then the overlay. For an
    /// object the transaction opened, the rest comes from segments that
    /// are checked on the spot or vouched for by the verification cache
    /// (the open rule); for any other object the policy decides, as for
    /// [`crate::PglPool::read`].
    ///
    /// Takes `&self`: reads never mutate transaction state, so read-only
    /// helpers compose with mutable access to other parts of the caller.
    pub fn read(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> Result<()> {
        self.inner.check_oid(oid)?;
        let Some(b) = self.objs.get(&oid.off) else {
            return self.inner.direct_read(oid, off, dst);
        };
        // An object open in this transaction has a known size: a range
        // past its end is a typed error, as on the verified direct path.
        if !Inner::range_fits(off, dst.len() as u64, b.user_size() as u64) {
            return Err(PglError::TypeMismatch { off: oid.off });
        }
        if let Some((lo, len)) = b.missing(off, dst.len() as u64) {
            let part = &mut dst[(lo - off) as usize..(lo - off + len) as usize];
            let hdr = (b.state() != UBufState::Lazy).then(|| b.loaded_header());
            let size = Some(b.user_size() as u64);
            self.inner.verified_read(oid, lo, ReadBuf::Range(part), hdr, size)?;
        }
        b.read(off, dst);
        Ok(())
    }

    /// Typed read. Reads straight into a stack value — no heap buffer on
    /// this hot path.
    pub fn read_pod<T: Pod>(&self, oid: PMEMoid, off: u64) -> Result<T> {
        let mut v = pgl_nvm::pod::zeroed::<T>();
        self.read(oid, off, pgl_nvm::pod::bytes_of_mut(&mut v))?;
        Ok(v)
    }

    /// Returns the object's user size.
    pub fn obj_size(&self, oid: PMEMoid) -> Result<u64> {
        self.inner.check_oid(oid)?;
        match self.objs.get(&oid.off) {
            Some(b) => Ok(b.user_size() as u64),
            None => Ok(self.inner.obj_header_checked(oid)?.size),
        }
    }

    /// Detectable compare-and-swap on the 8-byte word at `off` inside
    /// `oid`'s user data, using this transaction's lane for the operation
    /// descriptor (see [`crate::ploc`]). Unlike buffered writes this is
    /// **immediate and durable**: it publishes the moment it returns
    /// [`crate::ploc::WordCas::Applied`] and is *not* undone by abort, so
    /// it must not link anything this transaction has yet to commit (a new
    /// node is linked with [`crate::PglPool::atomic_publish_new`]). The
    /// target object must not be open in this transaction's micro-buffers
    /// (the buffered copy would go stale and its write-back would clobber
    /// the CAS).
    pub fn cas_word(
        &mut self,
        oid: PMEMoid,
        off: u64,
        expected: u64,
        new: u64,
        tag: u64,
    ) -> Result<crate::ploc::WordCas> {
        self.inner.check_oid(oid)?;
        if self.objs.contains_key(&oid.off) {
            return Err(PglError::Config(format!(
                "cas_word target {:#x} is buffered in this transaction",
                oid.off
            )));
        }
        self.inner.word_cas(&self.lane, oid, off, expected, new, tag)
    }

    /// Debug-build verification that a typed handle's brand matches the
    /// object it points at. `size == 0` skips the size/type check (array
    /// handles, whose length is a run-time property). Release builds
    /// compile this to nothing, keeping the typed layer zero-cost.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(crate) fn typed_check(&self, oid: PMEMoid, size: u64, type_num: Option<u32>) -> Result<()> {
        #[cfg(debug_assertions)]
        {
            self.inner.check_oid(oid)?;
            let h = match self.objs.get(&oid.off) {
                Some(b) if b.state() != UBufState::Lazy => b.header(),
                _ => self.inner.obj_header_checked(oid)?,
            };
            let (actual_size, actual_ty) = (h.size, h.type_num);
            if size != 0 {
                debug_assert!(
                    actual_size == size && type_num.is_none_or(|t| t == actual_ty),
                    "typed handle mismatch: object at {:#x} is {} bytes of type {}, \
                     the handle expects {} bytes of type {:?}",
                    oid.off,
                    actual_size,
                    actual_ty,
                    size,
                    type_num
                );
            }
        }
        Ok(())
    }

    /// Direct mutable access to the object's micro-buffer (paper-style
    /// usage: mutate freely, ranges must be marked via
    /// [`PglTx::add_range`]), with the whole object resident — whatever
    /// its size.
    pub fn ubuf_mut(&mut self, oid: PMEMoid) -> Result<&mut UBuf> {
        self.open(oid)?;
        let size = self.objs[&oid.off].user_size() as u64;
        self.open_range(oid, 0, size)
    }

    /// Instrumentation counters so far (modified counts finalize at
    /// commit).
    pub fn stats(&self) -> TxStats {
        self.stats
    }

    fn has_effects(&self) -> bool {
        !self.allocs.is_empty()
            || !self.frees.is_empty()
            || self.objs.values().any(|b| b.state() == UBufState::Modified)
    }

    pub(crate) fn commit(mut self) -> Result<TxStats> {
        if !self.has_effects() {
            self.recycle_scratch();
            return Ok(self.stats);
        }
        // Finalize modification stats (redo payload size).
        for b in self.objs.values().filter(|b| b.state() == UBufState::Modified) {
            self.stats.modified_bytes += b.modified().total_bytes();
            self.stats.modified_objects += 1;
        }
        self.inner.freeze.begin_commit();
        let r = self.commit_inner();
        self.inner.freeze.end_commit();
        if r.is_err() {
            // Nothing persistent happened before the first error point
            // that allows aborting (canary/checksum stages); later
            // failures surface as unrecoverable in commit_inner.
            self.rollback_volatile()?;
        }
        self.recycle_scratch();
        r.map(|()| self.stats)
    }

    fn commit_inner(&mut self) -> Result<()> {
        let inner = self.inner;
        let csums = inner.mode.has_checksums();
        let parity = inner.mode.has_parity();

        // (1) Canary checks: abort before touching NVMM (paper §3.2).
        for b in self.objs.values() {
            b.check_canaries()?;
        }

        // (2) Sealing (paper §3.5): every modified object lays out its
        // write-back spans and packs their loaded bytes into the commit
        // scratch, where they feed the Adler32 refresh here and the
        // parity XOR patch at stage (6). This transaction owns its
        // objects from open to commit (the §3.4 concurrency rule), so
        // what it loaded is what the parity row accounts for when the
        // write-back consumes it — no device read. Fresh (`New`)
        // micro-buffers have no pre-image; their checksum is a full
        // compute over the construction content.
        let mut old = (csums || parity).then_some(&mut self.scratch.old);
        for off in &self.order {
            let b = self.objs.get_mut(off).expect("ordered objects are open");
            b.seal(csums, old.as_deref_mut());
        }

        // Allocator ops are final by now; compute them up front so the
        // shard routing below can see their target offsets.
        let ops: Vec<MetaOp> = self
            .allocs
            .iter()
            .flat_map(|a| a.ops.iter().cloned())
            .chain(self.frees.iter().flat_map(|f| f.ops.iter().cloned()))
            .collect();

        // Cross-shard routing (see the module docs): collect the set of
        // parity shards this transaction's persistent effects land in.
        // One touched shard commits on the single claimed lane exactly as
        // before; more run the ordered two-phase protocol — the lowest
        // shard id is the primary, every other touched shard gets its own
        // claimed lane carrying that shard's redo entries.
        let touched = &mut self.scratch.shards;
        {
            let mut note = |off: u64| {
                let s = inner.shard_map.shard_of_off(off);
                if !touched.contains(&s) {
                    touched.push(s);
                }
            };
            for b in self.order.iter().map(|off| &self.objs[off]) {
                if matches!(b.state(), UBufState::Modified | UBufState::New) {
                    note(b.header_off());
                }
            }
            for a in &self.allocs {
                note(a.start_off);
            }
            for op in &ops {
                note(op.encode().1);
            }
        }
        touched.sort_unstable();
        let primary_shard = touched.first().copied().unwrap_or(0);
        let mut sec: Vec<(u64, LaneHandle<'_>)> =
            touched.iter().skip(1).map(|&s| (s, inner.lanes.claim(&inner.io))).collect();

        // Retire every other lane's valid committed log before this
        // commit's first fence (`pgl_pmemobj::lane` module docs): from
        // here on this commit holds everything it writes.
        self.lane.retire_others().map_err(PglError::from)?;

        // (3) Persist allocation intents (parity modes) so a pre-commit
        // crash can re-level parity over torn construction writes. Each
        // intent goes to the lane of the shard whose zones it names.
        let new_offs: Vec<u64> =
            self.order.iter().copied().filter(|o| self.objs[o].state() == UBufState::New).collect();
        if parity && !new_offs.is_empty() {
            for off in &new_offs {
                let r = self
                    .allocs
                    .iter()
                    .find(|a| a.oid_off == *off)
                    .expect("new ubuf implies reservation");
                append_shard(
                    inner,
                    &mut self.lane,
                    primary_shard,
                    &mut sec,
                    &mut self.log_chunks,
                    EntryKind::AllocIntent,
                    r.start_off,
                    &r.total_len.to_le_bytes(),
                )?;
            }
            self.lane.persist_log()?;
            for (_, l) in &mut sec {
                l.persist_log()?;
            }
        }

        // (4) Construction write-back: header + content of new objects,
        // through the protected write (the pre-image is the stale slot
        // bytes this transaction's reservation owns). Not redo-logged
        // (paper Figure 3's "allocation does not involve object logging").
        for off in &new_offs {
            // The offset may carry a verified-generation cache entry from
            // a previously freed object; construction reuses the slot, so
            // drop it before the new bytes land.
            inner.vcache.bump(*off);
            let b = &self.objs[off];
            inner.protected_write(b.header_off(), b.construction())?;
        }

        // (5) Redo log: every modified object's spans (ranges + refreshed
        // header) + allocator ops; the last entry carries the commit flag.
        let (order, objs) = (&self.order, &self.objs);
        let modified =
            || order.iter().map(|off| &objs[off]).filter(|b| b.state() == UBufState::Modified);
        let mut log = |kind, off, payload: &[u8]| {
            let (lane, chunks) = (&mut self.lane, &mut self.log_chunks);
            append_shard(inner, lane, primary_shard, &mut sec, chunks, kind, off, payload)
        };
        let mut logged = false;
        for b in modified() {
            for (at, new) in b.spans() {
                log(EntryKind::Data, at, new)?;
            }
            logged = true;
        }
        for op in &ops {
            let (kind, off, payload) = op.encode();
            log(kind, off, &payload)?;
            logged = true;
        }
        let fatal =
            |e: PglError| PglError::unrecoverable(format!("failure after commit point: {e}"));
        if logged || !new_offs.is_empty() {
            // Ordered commit (module docs; with no secondary lane this is
            // the commit flag and one fence): make every secondary half
            // durable WITHOUT a commit, then commit the primary with one
            // CrossShard marker per secondary — that fence is the commit
            // point — and only then seal the secondaries in ascending
            // shard order.
            for (_, l) in &mut sec {
                l.persist_log().map_err(PglError::from)?;
            }
            let (lane, chunks) = (&mut self.lane, &mut self.log_chunks);
            for (_, l) in &sec {
                let marker = payload::cross_shard(l.index(), l.gen());
                append_with_overflow(inner, lane, chunks, EntryKind::CrossShard, 0, &marker)?;
            }
            // The commit flag rides on the primary's last entry; a
            // secondary's entries are already durable, so its commit is
            // a standalone record.
            lane.persist_commit()?; // COMMIT POINT (first fence)
            for (_, l) in &mut sec {
                l.persist_commit().map_err(|e| fatal(e.into()))?; // second fence
            }
        }
        self.stats.log_bytes = self.lane.used() + sec.iter().map(|(_, l)| l.used()).sum::<u64>();

        // (6) Write back every span, updating parity. An object's spans go
        // out under ONE parity guard covering exactly those spans, and
        // ONE fence before it is released:
        // writers of disjoint columns proceed in parallel, writers of
        // overlapping columns take turns (their patches commute, so the
        // order is free), and the scrubber (which takes the same locks)
        // can only observe the object entirely-before or entirely-after
        // this transaction. No store orders another here — the committed
        // log replays them all — so the fence only has to land before the
        // guard's release. Parity patches consume the
        // pre-images stage (2) packed in the commit scratch — in this
        // exact walk order, so a byte cursor pairs them back up without
        // any lookup. Failures past the commit point cannot abort;
        // recovery would replay the redo log, so report them as
        // unrecoverable here.
        let old: &[u8] = &self.scratch.old;
        let mut cur = 0usize;
        let mut pre = |len: usize| -> &[u8] {
            if !parity {
                return &[]; // nothing consumes it
            }
            cur += len;
            &old[cur - len..cur]
        };
        for b in modified() {
            let spans = b.spans().map(|(at, new)| (at, new.len() as u64));
            let guard = inner.lock_spans(spans).map_err(fatal)?;
            // Invalidate the dirtied segments' cache bits under the span
            // guard, before the first store: post-commit verified reads
            // must re-verify the new content.
            if let Some((k0, k1)) = b.dirty_segments() {
                inner.vcache.clear(b.oid().off, k0, k1);
            }
            for (at, new) in b.spans() {
                inner.store_locked(&guard, at, new, pre(new.len())).map_err(fatal)?;
            }
            inner.io.drain();
        }
        debug_assert!(!parity || cur == old.len(), "stage-6 walk diverged from stage 2");

        // (7) Publish allocator metadata (parity-aware), invalidate the
        // log, and complete volatile state.
        inner.apply_meta_ops(&ops).map_err(fatal)?;
        // Secondary lanes invalidate FIRST, durably: once a secondary's
        // generation advances, the primary's CrossShard marker no longer
        // matches and recovery stops trying to roll that half forward —
        // so the primary below may keep its log.
        for (_, l) in &mut sec {
            l.bump_gen(true).map_err(|e| fatal(e.into()))?;
        }
        // The log stays valid until another lane's mutator retires it
        // (`LaneHandle::retain_committed`); an overflow transaction
        // persists its invalidation before its chunks return to the
        // allocator.
        let end = if self.log_chunks.is_empty() {
            self.lane.retain_committed()
        } else {
            self.lane.bump_gen(true)
        };
        end.map_err(|e| fatal(e.into()))?;
        release_log_chunks(inner, &mut self.log_chunks).map_err(fatal)?;
        for a in &self.allocs {
            inner.heap.complete_alloc(a);
        }
        for f in &self.frees {
            // The slot's size (and type) may change when the allocator
            // reuses it; a cached verified size would let range reads
            // cross the new object's bounds.
            inner.vcache.bump(f.oid_off);
            inner.heap.complete_free(f);
        }
        Ok(())
    }

    fn rollback_volatile(&mut self) -> Result<()> {
        for a in &self.allocs {
            self.inner.heap.cancel_alloc(a);
        }
        self.allocs.clear();
        self.frees.clear();
        self.lane.bump_gen(!self.log_chunks.is_empty()).map_err(PglError::from)?;
        release_log_chunks(self.inner, &mut self.log_chunks)?;
        Ok(())
    }

    pub(crate) fn abort(mut self) -> Result<()> {
        let r = self.rollback_volatile();
        self.recycle_scratch();
        r
    }
}
