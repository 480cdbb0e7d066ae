//! Undo-log transactions: the `libpmemobj` programming model.
//!
//! Applications snapshot ranges before modifying them in place (paper
//! Listing 1). The snapshot (old data) goes to the lane's undo log; if the
//! transaction aborts or the system crashes before the commit record, the
//! old data is restored. Allocator effects are published via idempotent
//! redo [`MetaOp`]s applied only after the commit record is durable.

use std::collections::HashSet;

use crate::error::{ObjError, Result};
use crate::heap::run::{ChunkMeta, ChunkType};
use crate::heap::{AllocReservation, FreeReservation, Heap, MetaOp};
use crate::io::PoolIo;
use crate::lane::LaneHandle;
use crate::oid::{ObjectHeader, PMEMoid, OBJ_HEADER_SIZE};
use crate::ulog::EntryKind;
use crate::util::RangeSet;
use pgl_nvm::pod::{bytes_of, bytes_of_mut, zeroed, Pod};

pgl_nvm::counter_table! {
    /// Per-transaction instrumentation, the source of Table 3's "New"/"Mod"
    /// rows (allocated and modified bytes plus distinct objects involved).
    pub struct TxStats;
    {
        /// Bytes of user data allocated.
        allocated_bytes,
        /// Distinct objects allocated.
        alloc_objects,
        /// Bytes of existing object data snapshotted/modified.
        modified_bytes,
        /// Distinct pre-existing objects modified.
        modified_objects,
        /// Bytes of user data freed.
        freed_bytes,
        /// Distinct objects freed.
        freed_objects,
        /// Bytes one copy of the transaction's log took: entry headers,
        /// payloads, allocation intents and the commit included.
        log_bytes,
    }
}

/// An in-flight undo-log transaction.
///
/// Created by [`crate::pool::PmemPool::tx`]; dropped handles release their
/// lane. All methods take `&mut self`, mirroring the single-thread-per-
/// transaction rule the paper states in §3.4.
pub struct Tx<'p> {
    pub(crate) io: &'p PoolIo,
    pub(crate) heap: &'p Heap,
    pub(crate) lane: LaneHandle<'p>,
    pub(crate) uuid: u64,
    snapshotted: RangeSet,
    written: RangeSet,
    allocs: Vec<AllocReservation>,
    frees: Vec<FreeReservation>,
    modified_oids: HashSet<u64>,
    stats: TxStats,
    log_dirty: bool,
    /// Heap chunks claimed for log overflow: `(zone, chunk)`.
    log_chunks: Vec<(u64, u64)>,
    /// Pre-image buffer reused by every `add_range` of this transaction.
    snapshot: Vec<u8>,
}

impl<'p> Tx<'p> {
    pub(crate) fn new(io: &'p PoolIo, heap: &'p Heap, lane: LaneHandle<'p>, uuid: u64) -> Self {
        Tx {
            io,
            heap,
            lane,
            uuid,
            snapshotted: RangeSet::new(),
            written: RangeSet::new(),
            allocs: Vec::new(),
            frees: Vec::new(),
            modified_oids: HashSet::new(),
            stats: TxStats::default(),
            log_dirty: false,
            log_chunks: Vec::new(),
            snapshot: Vec::new(),
        }
    }

    /// Appends a log entry, growing the log into heap chunks on overflow
    /// (paper §2.3: large logs overflow into the heap).
    fn append_logged(&mut self, kind: EntryKind, off: u64, payload: &[u8]) -> Result<()> {
        loop {
            match self.lane.append(kind, off, payload) {
                Ok(()) => return Ok(()),
                Err(ObjError::LogFull) => self.grow_log()?,
                Err(e) => return Err(e),
            }
        }
    }

    fn grow_log(&mut self) -> Result<()> {
        let (z, c, base) = self.heap.reserve_log_chunk()?;
        // Publish the chunk as Log immediately; a crash before commit
        // leaves an orphan that recovery sweeps back to Free.
        let cm_off = self.heap.layout().cm_entry_off(z, c);
        let cm = ChunkMeta::new(ChunkType::Log, 0, 1).to_bytes();
        self.io.write(cm_off, &cm)?;
        self.io.persist(cm_off, 16)?;
        self.lane.add_segment(base, 0, self.heap.layout().cfg.chunk_size as u64)?;
        self.log_chunks.push((z, c));
        Ok(())
    }

    fn release_log_chunks(&mut self) -> Result<()> {
        let free = ChunkMeta::new(ChunkType::Free, 0, 0).to_bytes();
        for (z, c) in std::mem::take(&mut self.log_chunks) {
            let cm_off = self.heap.layout().cm_entry_off(z, c);
            self.io.write(cm_off, &free)?;
            self.io.persist(cm_off, 16)?;
            self.heap.release_log_chunk(z, c);
        }
        Ok(())
    }

    /// Allocates a `size`-byte object of `type_num` and writes its header.
    /// The content is uninitialized until the caller writes it.
    pub fn alloc(&mut self, size: u64, type_num: u32) -> Result<PMEMoid> {
        let r = self.heap.reserve_alloc(size, type_num)?;
        let hdr = ObjectHeader { size, type_num, csum: 0 };
        self.io.write(r.start_off, bytes_of(&hdr))?;
        self.written.insert(r.start_off, OBJ_HEADER_SIZE);
        self.stats.allocated_bytes += size;
        self.stats.alloc_objects += 1;
        let oid = PMEMoid::new(self.uuid, r.oid_off);
        self.allocs.push(r);
        Ok(oid)
    }

    /// Allocates and zero-fills an object (`pmemobj_tx_zalloc` analogue).
    pub fn alloc_zeroed(&mut self, size: u64, type_num: u32) -> Result<PMEMoid> {
        let oid = self.alloc(size, type_num)?;
        self.io.set(oid.off, 0, size as usize)?;
        self.written.insert(oid.off, size);
        Ok(oid)
    }

    /// Frees an object. Freeing an object allocated in this same
    /// transaction simply cancels the reservation.
    pub fn free(&mut self, oid: PMEMoid) -> Result<()> {
        self.check_oid(oid)?;
        if let Some(i) = self.allocs.iter().position(|a| a.oid_off == oid.off) {
            let r = self.allocs.swap_remove(i);
            self.stats.allocated_bytes -= r.user_size;
            self.stats.alloc_objects -= 1;
            self.heap.cancel_alloc(&r);
            return Ok(());
        }
        let f = self.heap.reserve_free(self.io, oid.off)?;
        self.stats.freed_bytes += self.obj_size(oid)?;
        self.stats.freed_objects += 1;
        self.frees.push(f);
        Ok(())
    }

    /// Snapshots `[off, off+len)` of the object so it can be modified in
    /// place (`pmemobj_tx_add_range`). Ranges inside objects allocated by
    /// this transaction need no snapshot and are skipped.
    pub fn add_range(&mut self, oid: PMEMoid, off: u64, len: u64) -> Result<()> {
        self.check_oid(oid)?;
        if len == 0 {
            return Ok(());
        }
        let target = oid.off + off;
        if self.in_new_object(target, len) {
            return Ok(());
        }
        self.modified_oids.insert(oid.off);
        let uncovered = self.snapshotted.uncovered(target, len);
        if uncovered.is_empty() {
            return Ok(());
        }
        let mut buf = std::mem::take(&mut self.snapshot);
        for (s, l) in uncovered {
            buf.resize(l as usize, 0);
            self.io.read(s, &mut buf)?;
            self.append_logged(EntryKind::Data, s, &buf)?;
            self.snapshotted.insert(s, l);
            self.stats.modified_bytes += l;
            self.log_dirty = true;
        }
        self.snapshot = buf;
        // The snapshot must be durable before the in-place stores begin.
        self.lane.persist_log()?;
        Ok(())
    }

    /// Snapshots and overwrites `[off, off+len)` with `src` in one call.
    pub fn write(&mut self, oid: PMEMoid, off: u64, src: &[u8]) -> Result<()> {
        self.add_range(oid, off, src.len() as u64)?;
        let target = oid.off + off;
        self.io.write(target, src)?;
        self.written.insert(target, src.len() as u64);
        Ok(())
    }

    /// Typed overwrite of a field at `off` within the object.
    pub fn write_pod<T: Pod>(&mut self, oid: PMEMoid, off: u64, val: &T) -> Result<()> {
        self.write(oid, off, bytes_of(val))
    }

    /// Reads raw bytes from the object (reads see this transaction's own
    /// in-place writes, which went directly to NVMM).
    pub fn read(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> Result<()> {
        self.check_oid(oid)?;
        self.io.read(oid.off + off, dst)
    }

    /// Typed read of a field at `off` within the object.
    pub fn read_pod<T: Pod>(&self, oid: PMEMoid, off: u64) -> Result<T> {
        self.check_oid(oid)?;
        let mut val: T = zeroed();
        self.io.read(oid.off + off, bytes_of_mut(&mut val))?;
        Ok(val)
    }

    /// Reads the object's header (size/type).
    pub fn obj_header(&self, oid: PMEMoid) -> Result<ObjectHeader> {
        let mut buf = [0u8; 16];
        self.io.read(oid.header_off(), &mut buf)?;
        Ok(pgl_nvm::pod::from_bytes(&buf))
    }

    /// Returns the object's user size.
    pub fn obj_size(&self, oid: PMEMoid) -> Result<u64> {
        Ok(self.obj_header(oid)?.size)
    }

    /// Instrumentation counters for this transaction so far.
    pub fn stats(&self) -> TxStats {
        self.stats
    }

    fn check_oid(&self, oid: PMEMoid) -> Result<()> {
        if oid.is_null() || oid.pool != self.uuid {
            return Err(ObjError::InvalidOid { off: oid.off });
        }
        Ok(())
    }

    fn in_new_object(&self, off: u64, len: u64) -> bool {
        self.allocs.iter().any(|a| off >= a.start_off && off + len <= a.start_off + a.total_len)
    }

    fn collect_ops(&self) -> Vec<MetaOp> {
        self.allocs
            .iter()
            .flat_map(|a| a.ops.iter().cloned())
            .chain(self.frees.iter().flat_map(|f| f.ops.iter().cloned()))
            .collect()
    }

    /// Returns `true` if the transaction has persistent effects that need a
    /// commit record.
    fn has_effects(&self) -> bool {
        self.log_dirty
            || !self.allocs.is_empty()
            || !self.frees.is_empty()
            || !self.written.is_empty()
    }

    pub(crate) fn commit(mut self) -> Result<TxStats> {
        if !self.has_effects() {
            return Ok(self.stats);
        }
        // 1. Make all in-place stores durable.
        for (s, l) in self.written.iter() {
            self.io.flush(s, l as usize)?;
        }
        self.io.drain();

        // 2. Publish allocator effects in the redo log and commit.
        let ops = self.collect_ops();
        for op in &ops {
            let (kind, off, payload) = op.encode();
            self.append_logged(kind, off, &payload)?;
        }
        self.lane.persist_commit()?; // commit point
        self.stats.log_bytes = self.lane.used();

        // 3. Apply allocator effects (redo; idempotent under replay).
        self.heap.apply_ops(self.io, &ops)?;

        // 4. Invalidate the log, then complete volatile state. The order
        //    guarantees no two live lanes ever hold ops for the same block.
        self.lane.bump_gen(true)?;
        self.release_log_chunks()?;
        for a in &self.allocs {
            self.heap.complete_alloc(a);
        }
        for f in &self.frees {
            self.heap.complete_free(f);
        }
        Ok(self.stats)
    }

    pub(crate) fn abort(mut self) -> Result<()> {
        // Roll back in-place stores from the undo log, newest first.
        if self.log_dirty {
            let entries = self.lane.entries()?;
            for e in entries.iter().rev() {
                if e.kind == EntryKind::Data {
                    self.io.write(e.off, &e.payload)?;
                    self.io.flush(e.off, e.payload.len())?;
                }
            }
            self.io.drain();
        }
        for a in &self.allocs {
            self.heap.cancel_alloc(a);
        }
        // Frees made no persistent or volatile changes yet: nothing to do.
        self.lane.bump_gen(true)?;
        self.release_log_chunks()?;
        Ok(())
    }
}
