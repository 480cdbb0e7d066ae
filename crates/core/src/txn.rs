//! Fault-tolerant transactions over micro-buffers (paper §3.4).
//!
//! Unlike `libpmemobj`'s undo transactions, Pangolin transactions never let
//! the application store to NVMM. All modifications happen in DRAM
//! micro-buffers; commit then performs, in order:
//!
//! 1. **canary checks** — a smashed canary aborts before NVMM is touched;
//! 2. **pre-image assembly** — each modified range's pre-image is put
//!    together *in DRAM* from the bytes the transaction loaded at open
//!    (micro-buffers save them before a range is first handed out for
//!    mutation, sparse blocks keep their loaded image) into the recycled
//!    commit scratch, feeding both the incremental Adler32 refresh here
//!    and the parity XOR patch at stage (6) — the commit reads no old
//!    data from the device;
//! 3. **allocation intents** — persisted so a pre-commit crash can
//!    recompute parity for torn construction writes;
//! 4. **construction write-back** of new objects (their content is *not*
//!    redo-logged, matching the paper's observation that allocations do
//!    not pay object-logging cost);
//! 5. **redo log** (replicated in `-ML` modes) of every modified range,
//!    the refreshed headers, and the allocator ops, sealed by a commit
//!    record — the commit point;
//! 6. **write-back** of modified ranges with non-temporal stores, each
//!    paired with a hybrid parity update consuming the stage-(2)
//!    pre-images (one fence covers store and patch together);
//! 7. **allocator publication** (parity-aware) and log invalidation
//!    (lazy — flushed, fenced by the lane's next transaction).
//!
//! A crash before (5) leaves objects untouched (recovery re-levels parity
//! under the intents); a crash after (5) replays the redo log and
//! recomputes the affected parity columns (paper §3.6).
//!
//! Whole-object overwrites (the Figure 3 shape) take a fused fast path:
//! the object header is adjacent to the data both on NVMM and in the
//! micro-buffer frame, so one pre-image (loaded header + loaded bytes),
//! one redo entry, one non-temporal store and one parity patch cover
//! header+data together, and the checksum is one full pass over the new
//! bytes. See the README's "Commit pipeline & performance" section for
//! the invariants.
//!
//! # Cross-shard commits
//!
//! With more than one parity shard (see [`crate::parity::ShardMap`]),
//! recovery sweeps each shard's lanes on its own worker, so a
//! transaction whose effects span shards must not leave a single log
//! that one worker would replay into another worker's zones. Commit
//! therefore routes each redo entry to a per-shard lane and runs an
//! **ordered commit protocol**: the lowest-id touched shard is the
//! *primary*; its lane carries one `CrossShard` marker per secondary
//! lane (recording the secondary's index and generation), then the
//! primary's commit record — the commit point. Only after that fence do
//! the secondary lanes get their own commit records (ascending shard
//! order, second fence). Recovery rolls a secondary half forward iff
//! the primary committed *and* the secondary lane still carries the
//! generation named by the marker — so a crash between the two fences
//! replays both halves, and a crash before the first fence replays
//! neither (all-or-nothing). At the end of commit the secondaries are
//! invalidated durably *first*: once a secondary's generation advances,
//! its marker no longer matches and the primary's lazy invalidation
//! can settle whenever.
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
use pgl_pmemobj::{ObjError, PMEMoid, OBJ_HEADER_SIZE};

pub use pgl_pmemobj::TxStats;

use crate::checksum::{adler32, adler32_update};
use crate::error::{PglError, Result};
use crate::pool::Inner;
use crate::scratch::{CommitScratch, OffMap};
use crate::sparse::{SparseBuf, SPARSE_BLOCK};
use crate::ubuf::{UBuf, UBufState};

/// Objects larger than this are shadowed sparsely (block-granular) instead
/// of being copied whole into a micro-buffer; see [`crate::sparse`].
pub const SPARSE_THRESHOLD: u64 = 64 << 10;

/// `true` when a modified micro-buffer's ranges collapse to one full
/// object overwrite — the Figure 3 "overwrite" shape. The header sits
/// directly before the data both on NVMM and in the frame, so this shape
/// commits with ONE pre-image, ONE redo entry, ONE non-temporal store +
/// fence, and ONE parity patch covering header+data together.
fn is_whole_object(b: &UBuf) -> bool {
    b.modified().len() == 1 && b.modified().iter().next() == Some((0, b.user_size() as u64))
}

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
    ubufs: OffMap<UBuf>,
    /// Sparse shadows for objects above [`SPARSE_THRESHOLD`].
    sparse: OffMap<SparseBuf>,
    /// Lazily-opened objects (offset → verified user size): opened while
    /// verified-fresh in the generation cache, so no micro-buffer was
    /// materialized yet. Reads are served straight from NVMM; the first
    /// write materializes the entry into `ubufs` (see [`PglTx::open`]).
    lazy: OffMap<u64>,
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
        let ubufs = std::mem::take(&mut scratch.ubuf_map);
        let sparse = std::mem::take(&mut scratch.sparse_map);
        let lazy = std::mem::take(&mut scratch.lazy_map);
        let order = std::mem::take(&mut scratch.order);
        PglTx {
            inner,
            lane,
            ubufs,
            sparse,
            lazy,
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
        let mut map = std::mem::take(&mut self.ubufs);
        for (_, b) in map.drain() {
            scratch.push_frame(b.into_parts());
        }
        scratch.ubuf_map = map;
        scratch.sparse_map = std::mem::take(&mut self.sparse);
        scratch.lazy_map = std::mem::take(&mut self.lazy);
        scratch.order = std::mem::take(&mut self.order);
        scratch.recycle();
    }

    fn check_oid(&self, oid: PMEMoid) -> Result<()> {
        if oid.is_null() || oid.pool != self.inner.uuid {
            return Err(ObjError::InvalidOid { off: oid.off }.into());
        }
        Ok(())
    }

    /// Ensures a micro-buffer exists for `oid` (the `pgl_tx_open`
    /// operation): copies the object from NVMM, verifying its checksum
    /// first and running online recovery if verification fails. Objects
    /// above [`SPARSE_THRESHOLD`] get a sparse (block-granular) shadow
    /// instead, skipping whole-object verification (see [`crate::sparse`]).
    /// (Full overwrites must verify too, even though the old bytes don't
    /// flow into the refreshed checksum: the bytes loaded here are the
    /// commit's pre-image, and a *scribble* bypasses parity, so the
    /// parity row still reflects the pre-scribble content — patching it
    /// with a scribbled pre-image would leave a permanent residue in
    /// every column of the stripe. Verification detects the scribble and
    /// repairs the object from parity first, keeping the pre-image and
    /// the parity row consistent. A scribble that lands *after* the load
    /// never enters the pre-image at all.)
    /// Opens of an object the verified-generation cache knows to be
    /// verified-fresh are **lazy**: only a header-free `(offset, size)`
    /// record is made, reads are served straight from NVMM (counted in
    /// the `verified_cached` bucket), and the O(object) micro-buffer
    /// materialization is deferred to the first write — so read-mostly
    /// transactions (the ctree/rbtree/skiplist traversal shape) stop
    /// paying per touched node.
    pub fn open(&mut self, oid: PMEMoid) -> Result<()> {
        self.check_oid(oid)?;
        if self.ubufs.contains_key(&oid.off)
            || self.sparse.contains_key(&oid.off)
            || self.lazy.contains_key(&oid.off)
        {
            return Ok(());
        }
        if let Some(size) = self.inner.vcache.probe(oid.off) {
            if size <= SPARSE_THRESHOLD {
                self.lazy.insert(oid.off, size);
                self.order.push(oid.off);
                return Ok(());
            }
        }
        let hdr = self.inner.obj_header_checked(oid)?;
        if hdr.size > SPARSE_THRESHOLD {
            self.sparse.insert(oid.off, SparseBuf::new(oid, hdr));
        } else {
            let ubuf = self.inner.load_ubuf_hdr_in(oid, hdr, true, &mut self.scratch.frames)?;
            self.ubufs.insert(oid.off, ubuf);
        }
        self.order.push(oid.off);
        Ok(())
    }

    /// Turns a lazy open into a real micro-buffer (no-op otherwise): the
    /// deferred O(object) load, paid at the first write. When the object
    /// is still verified-fresh the checksum pass is skipped; if it was
    /// mutated since (e.g. repaired by a scrub), the load re-verifies.
    fn materialize(&mut self, oid: PMEMoid) -> Result<()> {
        if self.lazy.remove(&oid.off).is_none() {
            return Ok(());
        }
        let hdr = self.inner.obj_header_checked(oid)?;
        if hdr.size > SPARSE_THRESHOLD {
            self.sparse.insert(oid.off, SparseBuf::new(oid, hdr));
            return Ok(());
        }
        let ubuf = self.inner.load_ubuf_maybe_cached(oid, hdr, &mut self.scratch.frames)?;
        self.ubufs.insert(oid.off, ubuf);
        Ok(())
    }

    /// Loads any missing shadow blocks covering `[off, off+len)` of a
    /// sparse-shadowed object from NVMM (with online media recovery).
    fn load_sparse_blocks(&mut self, oid: PMEMoid, off: u64, len: u64) -> Result<()> {
        let sb = self.sparse.get_mut(&oid.off).expect("sparse entry exists");
        let size = sb.user_size();
        let mut buf = [0u8; SPARSE_BLOCK as usize];
        let mut loaded = false;
        for b in SparseBuf::blocks_of(off, len) {
            if sb.has_block(b) {
                continue;
            }
            let start = b * SPARSE_BLOCK;
            let n = SPARSE_BLOCK.min(size - start) as usize;
            buf[n..].fill(0);
            self.inner.read_with_recovery(oid.off + start, &mut buf[..n])?;
            sb.install_block(b, &buf);
            loaded = true;
        }
        if loaded && self.inner.mode.has_checksums() {
            // Sparse opens skip verification: the bytes read count as
            // exposure in the Table 4 accounting.
            self.inner.vuln.note_unverified(len);
        }
        Ok(())
    }

    /// Allocates a new `size`-byte object of `type_num`, returning its OID.
    /// The object exists only as a micro-buffer until commit.
    pub fn alloc(&mut self, size: u64, type_num: u32) -> Result<PMEMoid> {
        let r = self.inner.heap.reserve_alloc_in(size, type_num, self.inner.alloc_pref())?;
        let oid = PMEMoid::new(self.inner.uuid, r.oid_off);
        let parts = self.scratch.frames.pop().unwrap_or_default();
        let ubuf = UBuf::for_alloc_in(oid, size, type_num, parts);
        self.stats.allocated_bytes += size;
        self.stats.alloc_objects += 1;
        self.ubufs.insert(oid.off, ubuf);
        self.order.push(oid.off);
        self.allocs.push(r);
        Ok(oid)
    }

    /// Frees an object. Freeing an object allocated in this transaction
    /// cancels the reservation.
    pub fn free(&mut self, oid: PMEMoid) -> Result<()> {
        self.check_oid(oid)?;
        if self.sparse.remove(&oid.off).is_some() || self.lazy.remove(&oid.off).is_some() {
            self.order.retain(|&o| o != oid.off);
        }
        if let Some(b) = self.ubufs.get(&oid.off) {
            if b.state() == UBufState::New {
                self.ubufs.remove(&oid.off);
                self.order.retain(|&o| o != oid.off);
                let i = self
                    .allocs
                    .iter()
                    .position(|a| a.oid_off == oid.off)
                    .expect("new ubuf implies a reservation");
                let r = self.allocs.swap_remove(i);
                self.stats.allocated_bytes -= r.user_size;
                self.stats.alloc_objects -= 1;
                self.inner.heap.cancel_alloc(&r);
                return Ok(());
            }
            // Freeing a modified object: the modifications are moot.
            self.ubufs.remove(&oid.off);
            self.order.retain(|&o| o != oid.off);
        }
        let size = self.inner.obj_header_checked(oid)?.size;
        let f = self.inner.heap.reserve_free(&self.inner.io, oid.off)?;
        self.stats.freed_bytes += size;
        self.stats.freed_objects += 1;
        self.frees.push(f);
        Ok(())
    }

    /// Makes `[off, off+len)` of `oid` writable: opens (and materializes)
    /// the shadow, bounds-checks the range and, for a sparse shadow, loads
    /// the covering blocks.
    fn open_range(&mut self, oid: PMEMoid, off: u64, len: u64) -> Result<()> {
        self.open(oid)?;
        self.materialize(oid)?;
        let sparse = self.sparse.get(&oid.off).map(SparseBuf::user_size);
        let size = sparse
            .unwrap_or_else(|| self.ubufs.get(&oid.off).expect("just opened").user_size() as u64);
        if !Inner::range_fits(off, len, size) {
            return Err(ObjError::InvalidOid { off: oid.off.saturating_add(off) }.into());
        }
        if sparse.is_some() {
            self.load_sparse_blocks(oid, off, len)?;
        }
        Ok(())
    }

    /// Marks `[off, off+len)` as about-to-be-modified (`pgl_tx_add_range`):
    /// opens the micro-buffer and records the range. Marking hands out
    /// nothing mutable, so it saves no pre-image: the mutable views
    /// ([`PglTx::write`], [`UBuf::write`], [`UBuf::user_mut`]) do, and a
    /// range that is marked but never stored to commits a zero diff.
    pub fn add_range(&mut self, oid: PMEMoid, off: u64, len: u64) -> Result<()> {
        self.open_range(oid, off, len)?;
        if let Some(b) = self.ubufs.get_mut(&oid.off) {
            b.mark_modified(off, len);
        }
        Ok(())
    }

    /// Writes `src` into the object at `off` (micro-buffered).
    ///
    /// The store never touches NVMM directly: it lands in the object's
    /// DRAM micro-buffer (or sparse shadow) and reaches the pool only at
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
        self.open_range(oid, off, src.len() as u64)?;
        if let Some(sb) = self.sparse.get_mut(&oid.off) {
            sb.write(off, src);
            return Ok(());
        }
        let b = self.ubufs.get_mut(&oid.off).expect("opened by open_range");
        b.write(off, src);
        Ok(())
    }

    /// Typed store into the object.
    pub fn write_pod<T: Pod>(&mut self, oid: PMEMoid, off: u64, val: &T) -> Result<()> {
        self.write(oid, off, bytes_of(val))
    }

    /// Reads object bytes. Inside a transaction this is `pgl_get`: it
    /// returns micro-buffered content when present (isolation) and
    /// otherwise reads NVMM directly without checksum verification (unless
    /// the pool runs the Conservative policy).
    ///
    /// Takes `&self`: reads never mutate transaction state, so read-only
    /// helpers compose with mutable access to other parts of the caller.
    pub fn read(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> Result<()> {
        self.check_oid(oid)?;
        let len = dst.len() as u64;
        // An object open in this transaction has a known size: a range
        // past its end is a typed error, as on the verified direct path.
        let fits = |size: u64| {
            if Inner::range_fits(off, len, size) {
                Ok(())
            } else {
                Err(PglError::TypeMismatch { off: oid.off })
            }
        };
        if let Some(b) = self.ubufs.get(&oid.off) {
            fits(b.user_size() as u64)?;
            let o = off as usize;
            dst.copy_from_slice(&b.user()[o..o + dst.len()]);
            return Ok(());
        }
        if let Some(sb) = self.sparse.get(&oid.off) {
            fits(sb.user_size())?;
            // Serve covered ranges from the shadow (read-your-writes); the
            // rest reads NVMM directly, like `pgl_get`.
            if sb.covers(off, len) {
                sb.read(off, dst);
                return Ok(());
            }
        }
        if let Some(&size) = self.lazy.get(&oid.off) {
            fits(size)?;
            // Lazily-opened object, nothing written yet: the open-time
            // verification coverage extends to this range, so serve it
            // with one range-sized read (no checksum pass).
            return self.inner.read_cached_range(oid, off, dst);
        }
        self.inner.direct_read(oid, off, dst)
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
        self.check_oid(oid)?;
        if let Some(b) = self.ubufs.get(&oid.off) {
            return Ok(b.user_size() as u64);
        }
        if let Some(sb) = self.sparse.get(&oid.off) {
            return Ok(sb.user_size());
        }
        if let Some(&size) = self.lazy.get(&oid.off) {
            return Ok(size);
        }
        Ok(self.inner.obj_header_checked(oid)?.size)
    }

    /// Detectable compare-and-swap on the 8-byte word at `off` inside
    /// `oid`'s user data, using this transaction's lane for the operation
    /// descriptor (see [`crate::ploc`]). Unlike buffered writes this is
    /// **immediate and durable**: it publishes the moment it returns
    /// [`crate::ploc::WordCas::Applied`] and is *not* undone by abort —
    /// lock-free structures use it to publish nodes their enclosing
    /// transaction allocated and initialized. The target object must not
    /// be open in this transaction's micro-buffers (the buffered copy
    /// would go stale and its write-back would clobber the CAS).
    pub fn cas_word(
        &mut self,
        oid: PMEMoid,
        off: u64,
        expected: u64,
        new: u64,
        tag: u64,
    ) -> Result<crate::ploc::WordCas> {
        self.check_oid(oid)?;
        if self.ubufs.contains_key(&oid.off)
            || self.sparse.contains_key(&oid.off)
            || self.lazy.contains_key(&oid.off)
        {
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
            self.check_oid(oid)?;
            let (actual_size, actual_ty) = if let Some(b) = self.ubufs.get(&oid.off) {
                (b.user_size() as u64, b.header().type_num)
            } else if let Some(sb) = self.sparse.get(&oid.off) {
                (sb.user_size(), sb.header().type_num)
            } else {
                let h = self.inner.obj_header_checked(oid)?;
                (h.size, h.type_num)
            };
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
    /// [`PglTx::add_range`]).
    pub fn ubuf_mut(&mut self, oid: PMEMoid) -> Result<&mut UBuf> {
        self.open(oid)?;
        self.materialize(oid)?;
        Ok(self.ubufs.get_mut(&oid.off).expect("just opened"))
    }

    /// Instrumentation counters so far (modified counts finalize at
    /// commit).
    pub fn stats(&self) -> TxStats {
        self.stats
    }

    fn has_effects(&self) -> bool {
        !self.allocs.is_empty()
            || !self.frees.is_empty()
            || self.ubufs.values().any(|b| b.state() != UBufState::Clean)
            || self.sparse.values().any(SparseBuf::is_modified)
    }

    pub(crate) fn commit(mut self) -> Result<TxStats> {
        if !self.has_effects() {
            self.recycle_scratch();
            return Ok(self.stats);
        }
        // Finalize modification stats (redo payload size).
        for b in self.ubufs.values() {
            if b.state() == UBufState::Modified {
                self.stats.modified_bytes += b.modified().total_bytes();
                self.stats.modified_objects += 1;
            }
        }
        for sb in self.sparse.values() {
            if sb.is_modified() {
                self.stats.modified_bytes += sb.modified().total_bytes();
                self.stats.modified_objects += 1;
            }
        }
        self.inner.freeze.begin_commit();
        let r = self.commit_inner();
        self.inner.freeze.end_commit();
        if r.is_ok() {
            self.recycle_scratch();
        }
        match r {
            Ok(()) => Ok(self.stats),
            Err(e) => {
                // Nothing persistent happened before the first error point
                // that allows aborting (canary/checksum stages); later
                // failures surface as unrecoverable in commit_inner.
                self.rollback_volatile()?;
                self.recycle_scratch();
                Err(e)
            }
        }
    }

    fn commit_inner(&mut self) -> Result<()> {
        let inner = self.inner;
        let csums = inner.mode.has_checksums();
        let parity = inner.mode.has_parity();

        // (1) Canary checks: abort before touching NVMM (paper §3.2).
        for b in self.ubufs.values() {
            b.check_canaries()?;
        }
        for sb in self.sparse.values() {
            sb.check_canaries()?;
        }

        // (2) Pre-image assembly (paper §3.5): for every modified range,
        // put the bytes the transaction loaded at open back together in
        // the commit scratch, where they feed the incremental Adler32
        // delta here and the parity XOR patch at stage (6). This
        // transaction owns its objects from open to commit (the §3.4
        // concurrency rule), so what it loaded is what the parity row
        // accounts for when the write-back consumes it — no device read.
        // Fresh (`New`) micro-buffers have no pre-image; their checksum
        // is a full compute over the construction content.
        if csums || parity {
            let CommitScratch { old, tmp, .. } = &mut self.scratch;
            for off in &self.order {
                if let Some(sb) = self.sparse.get_mut(off) {
                    if !sb.is_modified() {
                        continue;
                    }
                    let total = sb.user_size();
                    let mut c = sb.loaded_header().csum;
                    for (roff, rlen) in sb.modified().iter() {
                        let start = old.len();
                        old.resize(start + rlen as usize, 0);
                        sb.read_loaded(roff, &mut old[start..]);
                        if csums {
                            tmp.resize(rlen as usize, 0);
                            sb.read(roff, &mut tmp[..rlen as usize]);
                            c = adler32_update(
                                c,
                                total,
                                roff,
                                &old[start..],
                                &tmp[..rlen as usize],
                            );
                        }
                    }
                    if csums {
                        sb.set_csum(c);
                    }
                    continue;
                }
                let Some(b) = self.ubufs.get_mut(off) else { continue };
                match b.state() {
                    UBufState::New => {
                        if csums {
                            let c = adler32(b.user());
                            b.set_csum(c);
                        }
                    }
                    UBufState::Modified => {
                        let total = b.user_size() as u64;
                        if parity && is_whole_object(b) {
                            // Whole-object fast path: one pre-image
                            // covering header+data serves the fused
                            // parity patch at stage (6); the checksum is
                            // a single full pass over the new bytes —
                            // cheaper than the two-stream delta when the
                            // range IS the object.
                            old.extend_from_slice(bytes_of(&b.loaded_header()));
                            b.preimage_into(0, total, old);
                            if csums {
                                let c = adler32(b.user());
                                b.set_csum(c);
                            }
                            continue;
                        }
                        let mut c = b.loaded_header().csum;
                        for (roff, rlen) in b.modified().iter() {
                            let start = old.len();
                            b.preimage_into(roff, rlen, old);
                            if csums {
                                let new = &b.user()[roff as usize..(roff + rlen) as usize];
                                c = adler32_update(c, total, roff, &old[start..], new);
                            }
                        }
                        if csums {
                            b.set_csum(c);
                        }
                    }
                    UBufState::Clean => {}
                }
            }
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
            for off in &self.order {
                if let Some(sb) = self.sparse.get(off) {
                    if sb.is_modified() {
                        note(sb.header_off());
                    }
                } else if let Some(b) = self.ubufs.get(off) {
                    if b.state() != UBufState::Clean {
                        note(b.header_off());
                    }
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

        // (3) Persist allocation intents (parity modes) so a pre-commit
        // crash can re-level parity over torn construction writes. Each
        // intent goes to the lane of the shard whose zones it names, so
        // that shard's recovery worker re-levels it.
        let new_offs: Vec<u64> = self
            .order
            .iter()
            .copied()
            .filter(|o| self.ubufs.get(o).is_some_and(|b| b.state() == UBufState::New))
            .collect();
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
        // with parity maintenance. Not redo-logged (paper Figure 3's
        // "allocation does not involve object logging"). The parity span
        // guard is held across the whole contiguous header+content store,
        // so the concurrent scrubber never sees a half-constructed
        // object. The pre-image (stale chunk content, owned by this
        // transaction's reservation) stages through the commit scratch —
        // no allocation.
        {
            let CommitScratch { tmp, stripe_ids, .. } = &mut self.scratch;
            for off in &new_offs {
                let b = &self.ubufs[off];
                let data = b.header_and_user();
                // The offset may carry a verified-generation cache entry
                // from a previously freed object; construction reuses the
                // slot, so drop it before the new bytes land.
                inner.vcache.bump(*off);
                if parity {
                    tmp.resize(data.len(), 0);
                    inner.io.read(b.header_off(), tmp).map_err(PglError::from)?;
                    let guard = inner.lock_span_scratch(
                        stripe_ids,
                        b.header_off(),
                        data.len() as u64,
                        inner.span_exclusive(data.len() as u64),
                    )?;
                    inner.protected_write_locked_old(&guard, b.header_off(), data, tmp)?;
                } else {
                    inner.protected_write(b.header_off(), data)?;
                }
            }
        }

        // (5) Redo log: modified ranges + refreshed headers + allocator
        // ops, sealed with the commit record.
        let mut logged = false;
        for off in &self.order {
            if let Some(sb) = self.sparse.get(off) {
                if !sb.is_modified() {
                    continue;
                }
                for (roff, rlen) in sb.modified().iter() {
                    let tmp = &mut self.scratch.tmp;
                    tmp.resize(rlen as usize, 0);
                    sb.read(roff, &mut tmp[..rlen as usize]);
                    append_shard(
                        inner,
                        &mut self.lane,
                        primary_shard,
                        &mut sec,
                        &mut self.log_chunks,
                        EntryKind::Data,
                        sb.oid().off + roff,
                        &self.scratch.tmp[..rlen as usize],
                    )?;
                }
                let h = sb.header();
                append_shard(
                    inner,
                    &mut self.lane,
                    primary_shard,
                    &mut sec,
                    &mut self.log_chunks,
                    EntryKind::Data,
                    sb.header_off(),
                    bytes_of(&h),
                )?;
                logged = true;
                continue;
            }
            let Some(b) = self.ubufs.get(off) else { continue };
            if b.state() != UBufState::Modified {
                continue;
            }
            if is_whole_object(b) {
                // Whole-object fast path: header and data are adjacent,
                // so one redo entry carries both (the header already
                // holds the refreshed checksum).
                append_shard(
                    inner,
                    &mut self.lane,
                    primary_shard,
                    &mut sec,
                    &mut self.log_chunks,
                    EntryKind::Data,
                    b.header_off(),
                    b.header_and_user(),
                )?;
                logged = true;
                continue;
            }
            for (roff, rlen) in b.modified().iter() {
                let data = &b.user()[roff as usize..(roff + rlen) as usize];
                append_shard(
                    inner,
                    &mut self.lane,
                    primary_shard,
                    &mut sec,
                    &mut self.log_chunks,
                    EntryKind::Data,
                    b.oid().off + roff,
                    data,
                )?;
            }
            // The header (with its refreshed checksum) is part of the
            // atomic update (paper §3.2: data, checksum and parity must
            // change together).
            let hdr_bytes: [u8; 16] = {
                let h = b.header();
                let mut out = [0u8; 16];
                out.copy_from_slice(bytes_of(&h));
                out
            };
            append_shard(
                inner,
                &mut self.lane,
                primary_shard,
                &mut sec,
                &mut self.log_chunks,
                EntryKind::Data,
                b.header_off(),
                &hdr_bytes,
            )?;
            logged = true;
        }
        for op in &ops {
            let (kind, off, payload) = op.encode();
            append_shard(
                inner,
                &mut self.lane,
                primary_shard,
                &mut sec,
                &mut self.log_chunks,
                kind,
                off,
                &payload,
            )?;
            logged = true;
        }
        let fatal =
            |e: PglError| PglError::unrecoverable(format!("failure after commit point: {e}"));
        if logged || !new_offs.is_empty() {
            if sec.is_empty() {
                append_with_overflow(
                    inner,
                    &mut self.lane,
                    &mut self.log_chunks,
                    EntryKind::Commit,
                    0,
                    &[],
                )?;
                self.lane.persist_log()?; // COMMIT POINT
            } else {
                // Ordered cross-shard commit (module docs): make every
                // secondary half durable WITHOUT a commit record, then
                // commit the primary with one CrossShard marker per
                // secondary — that fence is the commit point — and only
                // then seal the secondaries in ascending shard order.
                for (_, l) in &mut sec {
                    l.persist_log().map_err(PglError::from)?;
                }
                for (_, l) in &sec {
                    let marker = payload::cross_shard(l.index(), l.gen());
                    append_with_overflow(
                        inner,
                        &mut self.lane,
                        &mut self.log_chunks,
                        EntryKind::CrossShard,
                        0,
                        &marker,
                    )?;
                }
                append_with_overflow(
                    inner,
                    &mut self.lane,
                    &mut self.log_chunks,
                    EntryKind::Commit,
                    0,
                    &[],
                )?;
                self.lane.persist_log()?; // COMMIT POINT (first fence)
                for (_, l) in &mut sec {
                    append_with_overflow(inner, l, &mut self.log_chunks, EntryKind::Commit, 0, &[])
                        .map_err(fatal)?;
                    l.persist_log().map_err(|e| fatal(e.into()))?; // second fence
                }
            }
        }

        // (6) Write back modified ranges and headers, updating parity.
        // Each object's ranges and refreshed header go out under ONE parity
        // span guard covering `[header, data end)`: writers of disjoint
        // columns proceed in parallel, writers of overlapping columns
        // commute through atomic XOR under shared guards, and the scrubber
        // (which takes the same locks exclusively) can only observe the
        // object entirely-before or entirely-after this transaction.
        // Parity patches consume the pre-images stage (2) assembled in the
        // commit scratch — packed in this exact walk order, so a byte
        // cursor pairs them back up without any lookup — and the
        // refreshed 16-byte header is patched against the loaded one.
        // Failures past the commit point cannot abort; recovery would
        // replay the redo log, so report them as unrecoverable here.
        let CommitScratch { old, tmp, stripe_ids, .. } = &mut self.scratch;
        let old: &[u8] = old;
        let mut cur = 0usize;
        let mut pre = |len: usize| -> &[u8] {
            if !parity {
                return &[]; // stage (2) did not run; nothing consumes it
            }
            cur += len;
            &old[cur - len..cur]
        };
        for off in &self.order {
            if let Some(sb) = self.sparse.get(off) {
                if !sb.is_modified() {
                    continue;
                }
                let largest = sb.modified().iter().map(|(_, l)| l).max().unwrap_or(0);
                let guard = inner
                    .lock_span_scratch(
                        stripe_ids,
                        sb.header_off(),
                        OBJ_HEADER_SIZE + sb.user_size(),
                        inner.span_exclusive(largest),
                    )
                    .map_err(fatal)?;
                // Invalidate the verified-generation entry under the span
                // guard, before the first store: post-commit verified
                // reads must re-verify the new content.
                inner.vcache.bump(*off);
                for (roff, rlen) in sb.modified().iter() {
                    let n = rlen as usize;
                    tmp.resize(n, 0);
                    sb.read(roff, &mut tmp[..n]);
                    inner
                        .protected_write_locked_old(&guard, sb.oid().off + roff, &tmp[..n], pre(n))
                        .map_err(fatal)?;
                }
                inner
                    .protected_write_locked_old(
                        &guard,
                        sb.header_off(),
                        bytes_of(&sb.header()),
                        bytes_of(&sb.loaded_header()),
                    )
                    .map_err(fatal)?;
                continue;
            }
            let Some(b) = self.ubufs.get(off) else { continue };
            if b.state() != UBufState::Modified {
                continue;
            }
            let largest = b.modified().iter().map(|(_, l)| l).max().unwrap_or(0);
            let guard = inner
                .lock_span_scratch(
                    stripe_ids,
                    b.header_off(),
                    OBJ_HEADER_SIZE + b.user_size() as u64,
                    inner.span_exclusive(largest),
                )
                .map_err(fatal)?;
            // Same invalidation as the sparse path: under the guard,
            // before the write-back's first store.
            inner.vcache.bump(*off);
            if is_whole_object(b) {
                // Whole-object fast path: ONE non-temporal store + fence
                // and ONE parity patch cover header and data together.
                let data = b.header_and_user();
                inner
                    .protected_write_locked_old(&guard, b.header_off(), data, pre(data.len()))
                    .map_err(fatal)?;
                continue;
            }
            for (roff, rlen) in b.modified().iter() {
                let data = &b.user()[roff as usize..(roff + rlen) as usize];
                inner
                    .protected_write_locked_old(&guard, b.oid().off + roff, data, pre(data.len()))
                    .map_err(fatal)?;
            }
            inner
                .protected_write_locked_old(
                    &guard,
                    b.header_off(),
                    bytes_of(&b.header()),
                    bytes_of(&b.loaded_header()),
                )
                .map_err(fatal)?;
        }
        debug_assert!(!parity || cur == old.len(), "stage-6 walk diverged from stage 2");

        // (7) Publish allocator metadata (parity-aware), invalidate the
        // log, and complete volatile state.
        inner.apply_meta_ops(&ops).map_err(fatal)?;
        // Secondary lanes invalidate FIRST, durably: once a secondary's
        // generation advances, the primary's CrossShard marker no longer
        // matches and recovery stops trying to roll that half forward —
        // so the primary below keeps its cheap lazy invalidation.
        for (_, l) in &mut sec {
            l.bump_gen(true).map_err(|e| fatal(e.into()))?;
        }
        // Lazy log invalidation (see `bump_gen`): only overflow
        // transactions must persist the bump before their chunks return
        // to the allocator.
        self.lane.bump_gen(!self.log_chunks.is_empty()).map_err(|e| fatal(e.into()))?;
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
        self.ubufs.clear();
        self.sparse.clear();
        self.lazy.clear();
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
