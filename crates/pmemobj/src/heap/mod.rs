//! The persistent heap: a crash-consistent chunk/run allocator.
//!
//! The design follows `libpmemobj` (paper §2.3): zones are carved into
//! chunks; small objects live in *runs* (chunks subdivided into fixed-size
//! blocks tracked by a bitmap); large objects take contiguous chunks.
//!
//! Crash consistency uses a reserve/publish split:
//!
//! 1. [`Heap::reserve_alloc`]/[`Heap::reserve_free`] mutate only volatile
//!    state and return [`MetaOp`]s describing the persistent effects;
//! 2. the transaction appends those ops to its redo log and, after the
//!    commit record is durable, applies them via [`Heap::apply_ops`];
//! 3. recovery re-applies the ops of committed transactions — every op is
//!    idempotent, so replay after a crash mid-apply is safe;
//! 4. volatile completion ([`Heap::complete_alloc`]/[`Heap::complete_free`])
//!    happens only after the lane is invalidated, so no two live logs ever
//!    carry conflicting ops for the same block.

pub mod classes;
pub mod run;
mod state;

use parking_lot::Mutex;

use crate::error::{ObjError, Result};
use crate::io::PoolIo;
use crate::layout::{Layout, CM_ENTRY_SIZE, RUN_HEADER_SIZE};
use crate::oid::{ObjectHeader, OBJ_HEADER_SIZE};
use crate::ulog::{payload, Entry, EntryKind};
use pgl_nvm::pod::{bytes_of, from_bytes};

use run::{ChunkMeta, ChunkType, RunHeader, RunPrefix};
use state::{RunState, ZoneState};

/// A persistent allocator effect, published at transaction commit.
///
/// All ops are idempotent under replay; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaOp {
    /// OR `mask` into the u64 at `off` (allocate blocks in a run bitmap).
    SetBits {
        /// Pool offset of the bitmap word.
        off: u64,
        /// Bits to set.
        mask: u64,
    },
    /// Clear `mask` bits of the u64 at `off` (free blocks).
    ClearBits {
        /// Pool offset of the bitmap word.
        off: u64,
        /// Bits to clear.
        mask: u64,
    },
    /// Overwrite the 16-byte chunk-metadata entry at `off`.
    WriteCm {
        /// Pool offset of the CM entry.
        off: u64,
        /// New entry content.
        data: [u8; 16],
    },
    /// Write a freshly formatted run header at chunk base `off`.
    RunFmt {
        /// Pool offset of the chunk.
        off: u64,
        /// Block size in bytes.
        block_size: u32,
        /// Managed block count.
        nblocks: u32,
    },
}

impl MetaOp {
    /// Encodes this op as a log entry `(kind, off, payload)`.
    pub fn encode(&self) -> (EntryKind, u64, Vec<u8>) {
        match self {
            MetaOp::SetBits { off, mask } => {
                (EntryKind::SetBits, *off, payload::mask(*mask).to_vec())
            }
            MetaOp::ClearBits { off, mask } => {
                (EntryKind::ClearBits, *off, payload::mask(*mask).to_vec())
            }
            MetaOp::WriteCm { off, data } => (EntryKind::WriteCm, *off, data.to_vec()),
            MetaOp::RunFmt { off, block_size, nblocks } => {
                (EntryKind::RunFmt, *off, payload::run_fmt(*block_size, *nblocks).to_vec())
            }
        }
    }

    /// Decodes a log entry back into a meta op (`None` for data/intent/
    /// commit entries).
    pub fn decode(entry: &Entry) -> Option<MetaOp> {
        Some(match entry.kind {
            EntryKind::SetBits => {
                MetaOp::SetBits { off: entry.off, mask: payload::parse_mask(&entry.payload) }
            }
            EntryKind::ClearBits => {
                MetaOp::ClearBits { off: entry.off, mask: payload::parse_mask(&entry.payload) }
            }
            EntryKind::WriteCm => {
                let mut data = [0u8; 16];
                data.copy_from_slice(&entry.payload[..16]);
                MetaOp::WriteCm { off: entry.off, data }
            }
            EntryKind::RunFmt => {
                let (bs, nb) = payload::parse_run_fmt(&entry.payload);
                MetaOp::RunFmt { off: entry.off, block_size: bs, nblocks: nb }
            }
            _ => return None,
        })
    }

    /// The `(offset, length)` of the bytes the op writes.
    pub fn target(&self) -> (u64, u64) {
        match self {
            MetaOp::SetBits { off, .. } | MetaOp::ClearBits { off, .. } => (*off, 8),
            MetaOp::WriteCm { off, .. } => (*off, 16),
            MetaOp::RunFmt { off, .. } => (*off, RUN_HEADER_SIZE),
        }
    }

    /// Writes into `new` the bytes the op leaves at its target, given
    /// `old`, the bytes there now (both [`MetaOp::target`]-long).
    pub fn image(&self, old: &[u8], new: &mut [u8]) {
        let word = || u64::from_le_bytes(old[..8].try_into().expect("an 8-byte target"));
        match self {
            MetaOp::SetBits { mask, .. } => new.copy_from_slice(&(word() | mask).to_le_bytes()),
            MetaOp::ClearBits { mask, .. } => new.copy_from_slice(&(word() & !mask).to_le_bytes()),
            MetaOp::WriteCm { data, .. } => new.copy_from_slice(data),
            MetaOp::RunFmt { block_size, nblocks, .. } => {
                new.copy_from_slice(bytes_of(&RunHeader::formatted(*block_size, *nblocks)))
            }
        }
    }

    /// Applies the op persistently. Idempotent. Callers serialize RMW ops
    /// on shared bitmap words (the heap lock or single-threaded recovery).
    pub fn apply(&self, io: &PoolIo) -> Result<()> {
        self.store(io)?;
        io.drain();
        Ok(())
    }

    /// [`MetaOp::apply`] without its fence: the op's bytes are stored and
    /// flushed, durable at the caller's next fence.
    pub fn store(&self, io: &PoolIo) -> Result<()> {
        let (off, len) = self.target();
        match self {
            MetaOp::SetBits { mask, .. } => {
                let w = io.read_u64(off)? | mask;
                io.write(off, &w.to_le_bytes())?;
            }
            MetaOp::ClearBits { mask, .. } => {
                let w = io.read_u64(off)? & !mask;
                io.write(off, &w.to_le_bytes())?;
            }
            MetaOp::WriteCm { data, .. } => io.write(off, data)?,
            MetaOp::RunFmt { block_size, nblocks, .. } => {
                io.write(off, bytes_of(&RunHeader::formatted(*block_size, *nblocks)))?;
            }
        }
        io.flush(off, len as usize)
    }
}

/// How a reservation is rooted in the heap (used for cancel/complete).
#[derive(Debug, Clone, PartialEq, Eq)]
enum ReserveKind {
    Run { zone: u64, chunk: u64, block: u32, fresh_run: bool },
    Large { zone: u64, chunk: u64, n: u64 },
}

/// A reserved-but-unpublished allocation.
#[derive(Debug)]
pub struct AllocReservation {
    /// Offset of the object's user data.
    pub oid_off: u64,
    /// Offset of the reserved storage (the object header).
    pub start_off: u64,
    /// Total reserved bytes (block or chunk span).
    pub total_len: u64,
    /// Requested user size.
    pub user_size: u64,
    /// Application type number.
    pub type_num: u32,
    /// Persistent effects to publish at commit.
    pub ops: Vec<MetaOp>,
    kind: ReserveKind,
}

impl AllocReservation {
    /// The ops that format a fresh run for this block (`RunFmt` and its
    /// `WriteCm`, ahead of the block's `SetBits`); empty for a block of an
    /// existing run and for a Large allocation.
    pub fn run_format_ops(&self) -> &[MetaOp] {
        match self.kind {
            ReserveKind::Run { fresh_run: true, .. } => &self.ops[..self.ops.len() - 1],
            _ => &[],
        }
    }
}

/// A run block located from persistent metadata (see [`run_slot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSlot {
    /// Offset of the block (its object header).
    pub start: u64,
    /// Block size in bytes.
    pub len: u64,
    /// Offset of the bitmap word holding the block's bit.
    pub bit_word: u64,
    /// The block's bit in that word.
    pub mask: u64,
}

/// Where persistent metadata places an object's storage (see [`placement`]).
enum Placement {
    /// A run block, and its bitmap word when the run header's first line
    /// holds it (blocks `0..256`).
    Block(RunSlot, Option<u64>),
    /// The start of a `Large` chunk span.
    Large,
}

/// Places the object whose user data starts at `oid_off`, trusting nothing
/// on media: `None` unless `oid_off - 16` is the start of a block inside a
/// `Run` chunk or the start of a `Large` chunk, whose metadata entry
/// verifies and, for a run, whose run header validates. Reads the 16-byte
/// chunk-metadata entry and, for a run, the header's first 64 bytes.
fn placement(io: &PoolIo, layout: &Layout, oid_off: u64) -> Option<Placement> {
    let start = oid_off.checked_sub(OBJ_HEADER_SIZE)?;
    let (z, c, within) = layout.chunk_of(start).ok()?;
    let cm = Heap::read_cm(io, layout, z, c).ok()?;
    if !cm.verify() {
        return None; // torn or scribbled entry
    }
    let base = layout.chunk_base(z, c);
    match cm.chunk_type()? {
        ChunkType::Run => {
            let (slot, word) = run_block(io, layout, base, within, oid_off).ok()?;
            Some(Placement::Block(slot, word))
        }
        ChunkType::Large => (start == base).then_some(Placement::Large),
        _ => None,
    }
}

/// Locates the block whose storage starts `within` bytes into the run
/// chunk at `base`, from the run header's first line ([`RunPrefix`]): the
/// slot, and its bitmap word when that line holds it. A header that fails
/// validation is [`ObjError::Corruption`]; an offset that is not the start
/// of one of the run's blocks is [`ObjError::InvalidOid`].
fn run_block(
    io: &PoolIo,
    layout: &Layout,
    base: u64,
    within: u64,
    oid_off: u64,
) -> Result<(RunSlot, Option<u64>)> {
    let hdr = RunPrefix::read(io, base)?;
    hdr.validate(layout.cfg.chunk_size)
        .map_err(|_| ObjError::Corruption { off: base, what: "run header" })?;
    let invalid = || ObjError::InvalidOid { off: oid_off };
    let rel = within.checked_sub(RUN_HEADER_SIZE).ok_or_else(invalid)?;
    let len = hdr.block_size as u64;
    let block = rel / len;
    if rel % len != 0 || block >= hdr.nblocks as u64 {
        return Err(invalid());
    }
    let (bit_word, mask) = RunHeader::bit_pos(base, block as u32);
    let slot = RunSlot { start: base + within, len, bit_word, mask };
    Ok((slot, hdr.word_of(block as u32)))
}

/// Locates the run block whose object user data starts at `oid_off`,
/// trusting nothing on media: `None` unless `oid_off - 16` is the start of
/// a block inside a `Run` chunk whose metadata entry verifies and whose run
/// header validates.
pub fn run_slot(io: &PoolIo, layout: &Layout, oid_off: u64) -> Option<RunSlot> {
    match placement(io, layout, oid_off)? {
        Placement::Block(slot, _) => Some(slot),
        Placement::Large => None,
    }
}

/// The allocated objects whose storage overlaps `[off, off + len)`, a
/// range inside one chunk, from persistent metadata: `(user-data offset,
/// storage length)` of each set block of a `Run` chunk, or of the `Large`
/// span a `Large` or `LargeCont` chunk belongs to (the head found by
/// walking back). Empty for free and metadata chunks, `Log` chunks, run
/// headers, and chunks whose metadata does not verify. Crash recovery asks
/// this when it must tell a scribbled row from a torn parity line.
pub fn objects_in(io: &PoolIo, layout: &Layout, off: u64, len: u64) -> Result<Vec<(u64, u64)>> {
    let (z, c, within) = layout.chunk_of(off)?;
    let cm = Heap::read_cm(io, layout, z, c)?;
    if !cm.verify() {
        return Ok(Vec::new());
    }
    let chunk = layout.cfg.chunk_size as u64;
    match cm.chunk_type() {
        Some(ChunkType::Run) => {
            let base = layout.chunk_base(z, c);
            let hdr = RunPrefix::read(io, base)?;
            if hdr.validate(layout.cfg.chunk_size).is_err() || within + len <= RUN_HEADER_SIZE {
                return Ok(Vec::new());
            }
            let bs = hdr.block_size as u64;
            let first = within.saturating_sub(RUN_HEADER_SIZE) / bs;
            let last = ((within + len - 1 - RUN_HEADER_SIZE) / bs).min(hdr.nblocks as u64 - 1);
            let mut out = Vec::new();
            for b in first..=last {
                let (word, mask) = RunHeader::bit_pos(base, b as u32);
                let bits = match hdr.word_of(b as u32) {
                    Some(w) => w,
                    None => io.read_u64(word)?,
                };
                if bits & mask != 0 {
                    out.push((
                        RunHeader::block_off(base, hdr.block_size, b as u32) + OBJ_HEADER_SIZE,
                        bs,
                    ));
                }
            }
            Ok(out)
        }
        Some(ChunkType::Large) => {
            Ok(vec![(layout.chunk_base(z, c) + OBJ_HEADER_SIZE, cm.size_idx.max(1) as u64 * chunk)])
        }
        Some(ChunkType::LargeCont) => {
            for h in (layout.zone.cm_chunks..c).rev() {
                let head = Heap::read_cm(io, layout, z, h)?;
                match head.chunk_type() {
                    Some(ChunkType::LargeCont) => continue,
                    Some(ChunkType::Large) if head.verify() && h + head.size_idx as u64 > c => {
                        let n = head.size_idx as u64;
                        return Ok(vec![(layout.chunk_base(z, h) + OBJ_HEADER_SIZE, n * chunk)]);
                    }
                    _ => break,
                }
            }
            Ok(Vec::new())
        }
        _ => Ok(Vec::new()),
    }
}

/// A reserved-but-unpublished deallocation.
#[derive(Debug)]
pub struct FreeReservation {
    /// Offset of the freed object's user data.
    pub oid_off: u64,
    /// Offset of the freed storage.
    pub start_off: u64,
    /// Total freed bytes.
    pub total_len: u64,
    /// Persistent effects to publish at commit.
    pub ops: Vec<MetaOp>,
    kind: ReserveKind,
}

/// Point-in-time heap occupancy counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Free whole chunks across all zones.
    pub free_chunks: u64,
    /// Chunks holding runs.
    pub run_chunks: u64,
    /// Total data chunks (excluding CM chunks).
    pub total_chunks: u64,
}

/// The volatile allocator over a pool's persistent heap.
pub struct Heap {
    layout: Layout,
    zones: Mutex<Vec<ZoneState>>,
    /// Serializes persistent metadata publication (bitmap RMW) between
    /// concurrent committers and Pangolin's parity-aware op application.
    publish: Mutex<()>,
    /// Zones excluded from every reservation path (Pangolin bans a zone
    /// when unrecoverable media faults quarantine it): existing objects
    /// there stay addressable, but no new storage is handed out.
    banned: Mutex<std::collections::BTreeSet<u64>>,
}

impl Heap {
    /// Formats a fresh heap: writes `Meta` CM entries for the chunks that
    /// hold the CM array itself. All other entries are zero (= `Free` with
    /// a zero checksum), which [`Heap::rebuild`] accepts for zeroed pools.
    pub fn format(io: &PoolIo, layout: &Layout) -> Result<()> {
        let meta = ChunkMeta::new(ChunkType::Meta, 0, 1).to_bytes();
        for z in 0..layout.n_zones {
            for c in 0..layout.zone.cm_chunks {
                io.write(layout.cm_entry_off(z, c), &meta)?;
            }
            io.persist(
                layout.cm_entry_off(z, 0),
                (layout.zone.cm_chunks * CM_ENTRY_SIZE) as usize,
            )?;
        }
        Ok(())
    }

    /// Rebuilds volatile state by scanning chunk metadata and run bitmaps.
    ///
    /// With `verify`, CM checksums are validated and a mismatch is reported
    /// as [`ObjError::Corruption`] carrying the entry offset (Pangolin's
    /// open path repairs it from parity and retries).
    pub fn rebuild(io: &PoolIo, layout: Layout, verify: bool) -> Result<Heap> {
        Self::rebuild_excluding(io, layout, verify, &std::collections::BTreeSet::new())
    }

    /// Like [`Heap::rebuild`], but never reading the zones in `skip`
    /// (Pangolin passes its quarantined zones: their pages may be
    /// unreconstructably poisoned, so scanning them could fail the whole
    /// open). Skipped zones come up empty *and banned* — no free chunks,
    /// no reservations, no liveness.
    pub fn rebuild_excluding(
        io: &PoolIo,
        layout: Layout,
        verify: bool,
        skip: &std::collections::BTreeSet<u64>,
    ) -> Result<Heap> {
        let zones = (0..layout.n_zones)
            .map(|z| {
                if skip.contains(&z) {
                    Ok(ZoneState::new())
                } else {
                    Self::scan_zone(io, &layout, z, verify)
                }
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Heap {
            layout,
            zones: Mutex::new(zones),
            publish: Mutex::new(()),
            banned: Mutex::new(skip.clone()),
        })
    }

    /// Excludes `zone` from all future reservations (allocation, log
    /// overflow). Idempotent; existing allocations in the zone are
    /// unaffected.
    pub fn ban_zone(&self, zone: u64) {
        self.banned.lock().insert(zone);
    }

    /// Scans one zone's chunk metadata into a fresh [`ZoneState`].
    fn scan_zone(io: &PoolIo, layout: &Layout, z: u64, verify: bool) -> Result<ZoneState> {
        let mut zs = ZoneState::new();
        let mut c = layout.zone.cm_chunks; // CM chunks are never free
        let mut pending_free: Option<(u64, u64)> = None;
        while c < layout.zone.n_chunks {
            let cm = Self::read_cm(io, layout, z, c)?;
            let cm_off = layout.cm_entry_off(z, c);
            if verify && !(cm.verify() || cm == ChunkMeta::default()) {
                return Err(ObjError::Corruption { off: cm_off, what: "chunk metadata" });
            }
            let ctype = cm.chunk_type().unwrap_or(ChunkType::Free);
            let mut advance = 1u64;
            match ctype {
                ChunkType::Free => {
                    pending_free = match pending_free {
                        Some((s, n)) if s + n == c => Some((s, n + 1)),
                        Some((s, n)) => {
                            zs.return_free_chunks(s, n);
                            Some((c, 1))
                        }
                        None => Some((c, 1)),
                    };
                }
                ChunkType::Run => {
                    let base = layout.chunk_base(z, c);
                    let hdr = RunHeader::read(io, base)?;
                    hdr.validate(layout.cfg.chunk_size)
                        .map_err(|_| ObjError::Corruption { off: base, what: "run header" })?;
                    let class = classes::class_index_of(hdr.block_size)
                        .ok_or(ObjError::Corruption { off: base, what: "run class" })?;
                    let free_blocks = hdr.free_blocks();
                    let has_free = !free_blocks.is_empty();
                    zs.runs.insert(
                        c,
                        RunState {
                            class,
                            block_size: hdr.block_size,
                            nblocks: hdr.nblocks,
                            free_blocks,
                            pending: false,
                        },
                    );
                    if has_free {
                        zs.by_class[class].push(c);
                    }
                }
                ChunkType::Large => {
                    advance = cm.size_idx.max(1) as u64;
                }
                ChunkType::LargeCont => {
                    return Err(ObjError::Corruption {
                        off: cm_off,
                        what: "orphan large-continuation chunk",
                    });
                }
                ChunkType::Meta | ChunkType::Log => {}
            }
            if ctype != ChunkType::Free {
                if let Some((s, n)) = pending_free.take() {
                    zs.return_free_chunks(s, n);
                }
            }
            c += advance;
        }
        if let Some((s, n)) = pending_free {
            zs.return_free_chunks(s, n);
        }
        Ok(zs)
    }

    fn read_cm(io: &PoolIo, layout: &Layout, z: u64, c: u64) -> Result<ChunkMeta> {
        let mut buf = [0u8; 16];
        io.read(layout.cm_entry_off(z, c), &mut buf)?;
        Ok(ChunkMeta::from_slice(&buf))
    }

    /// The pool layout this heap manages.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The zone visit order for a reservation: with an affinity preference
    /// `(shard, n_shards)`, zones belonging to that shard (`z % n_shards ==
    /// shard`) come first, then all others — affine allocations cluster in
    /// the preferred parity shard but never fail spuriously while other
    /// shards still have space.
    fn zone_order(&self, pref: Option<(u64, u64)>) -> Vec<u64> {
        self.zone_groups(pref).concat()
    }

    /// Zone visit order as preference *groups*: with an affinity
    /// `(shard, n_shards)`, the first group is the preferred shard's zones
    /// and the second is everything else; without one there is a single
    /// group of all zones. Reservation strategies that can either reuse
    /// existing state or claim fresh space must exhaust **both** strategies
    /// within a group before moving to the next, otherwise a half-full run
    /// in a foreign zone silently defeats the affinity.
    fn zone_groups(&self, pref: Option<(u64, u64)>) -> Vec<Vec<u64>> {
        let n = self.layout.n_zones;
        let banned = self.banned.lock();
        let ok = |z: &u64| !banned.contains(z);
        match pref {
            Some((shard, n_shards)) if n_shards > 1 => {
                let shard = shard % n_shards;
                vec![
                    (0..n).filter(|z| z % n_shards == shard).filter(ok).collect(),
                    (0..n).filter(|z| z % n_shards != shard).filter(ok).collect(),
                ]
            }
            _ => vec![(0..n).filter(ok).collect()],
        }
    }

    /// Reserves storage for a `size`-byte object of type `type_num`.
    pub fn reserve_alloc(&self, size: u64, type_num: u32) -> Result<AllocReservation> {
        self.reserve_alloc_in(size, type_num, None)
    }

    /// Like [`Heap::reserve_alloc`], but with an optional parity-shard
    /// affinity `(shard, n_shards)`: zones of the preferred shard are tried
    /// first — both reuse of half-full runs and fresh-chunk claims exhaust
    /// the preferred zone group before falling back to foreign zones.
    pub fn reserve_alloc_in(
        &self,
        size: u64,
        type_num: u32,
        pref: Option<(u64, u64)>,
    ) -> Result<AllocReservation> {
        if size == 0 || size > self.layout.max_alloc() {
            return Err(ObjError::OutOfMemory { requested: size as usize });
        }
        let alloc_size = size + OBJ_HEADER_SIZE;
        let chunk_size = self.layout.cfg.chunk_size;
        let groups = self.zone_groups(pref);
        let mut zones = self.zones.lock();

        if let Some(ci) = classes::class_for(alloc_size, chunk_size) {
            let block_size = classes::CLASS_SIZES[ci];
            // Per preference group: reuse an existing run, else format a
            // fresh one — both tried in the preferred shard's zones before
            // any fallback zone is considered.
            for group in &groups {
                // Existing run with a free block?
                for &zi in group {
                    let zs = &mut zones[zi as usize];
                    if let Some((chunk, block, bs)) = zs.pop_block(ci) {
                        let base = self.layout.chunk_base(zi, chunk);
                        let (word, mask) = RunHeader::bit_pos(base, block);
                        let start = RunHeader::block_off(base, bs, block);
                        return Ok(AllocReservation {
                            oid_off: start + OBJ_HEADER_SIZE,
                            start_off: start,
                            total_len: bs as u64,
                            user_size: size,
                            type_num,
                            ops: vec![MetaOp::SetBits { off: word, mask }],
                            kind: ReserveKind::Run { zone: zi, chunk, block, fresh_run: false },
                        });
                    }
                }
                // Format a new run from a free chunk.
                for &zi in group {
                    let zs = &mut zones[zi as usize];
                    if let Some(chunk) = zs.take_free_chunks(1) {
                        let nblocks = classes::nblocks(chunk_size, block_size);
                        let base = self.layout.chunk_base(zi, chunk);
                        let block = 0u32;
                        zs.runs.insert(
                            chunk,
                            RunState {
                                class: ci,
                                block_size,
                                nblocks,
                                free_blocks: (1..nblocks).rev().collect(),
                                pending: true,
                            },
                        );
                        let (word, mask) = RunHeader::bit_pos(base, block);
                        let cm = ChunkMeta::new(ChunkType::Run, ci as u16, 1);
                        let start = RunHeader::block_off(base, block_size, block);
                        return Ok(AllocReservation {
                            oid_off: start + OBJ_HEADER_SIZE,
                            start_off: start,
                            total_len: block_size as u64,
                            user_size: size,
                            type_num,
                            ops: vec![
                                MetaOp::RunFmt { off: base, block_size, nblocks },
                                MetaOp::WriteCm {
                                    off: self.layout.cm_entry_off(zi, chunk),
                                    data: cm.to_bytes(),
                                },
                                MetaOp::SetBits { off: word, mask },
                            ],
                            kind: ReserveKind::Run { zone: zi, chunk, block, fresh_run: true },
                        });
                    }
                }
            }
            return Err(ObjError::OutOfMemory { requested: size as usize });
        }

        // Large allocation: contiguous chunks.
        let n = alloc_size.div_ceil(chunk_size as u64);
        let order: Vec<u64> = groups.concat();
        for &zi in &order {
            let zs = &mut zones[zi as usize];
            if let Some(chunk) = zs.take_free_chunks(n) {
                let base = self.layout.chunk_base(zi, chunk);
                let mut ops = Vec::with_capacity(n as usize);
                let head = ChunkMeta::new(ChunkType::Large, 0, n as u32);
                ops.push(MetaOp::WriteCm {
                    off: self.layout.cm_entry_off(zi, chunk),
                    data: head.to_bytes(),
                });
                let cont = ChunkMeta::new(ChunkType::LargeCont, 0, 0);
                for k in 1..n {
                    ops.push(MetaOp::WriteCm {
                        off: self.layout.cm_entry_off(zi, chunk + k),
                        data: cont.to_bytes(),
                    });
                }
                return Ok(AllocReservation {
                    oid_off: base + OBJ_HEADER_SIZE,
                    start_off: base,
                    total_len: n * chunk_size as u64,
                    user_size: size,
                    type_num,
                    ops,
                    kind: ReserveKind::Large { zone: zi, chunk, n },
                });
            }
        }
        Err(ObjError::OutOfMemory { requested: size as usize })
    }

    /// Reserves the deallocation of the object whose user data is at
    /// `oid_off`, determining its shape from persistent metadata.
    pub fn reserve_free(&self, io: &PoolIo, oid_off: u64) -> Result<FreeReservation> {
        let start =
            oid_off.checked_sub(OBJ_HEADER_SIZE).ok_or(ObjError::InvalidOid { off: oid_off })?;
        let (z, c, within) = self.layout.chunk_of(start)?;
        let cm = Self::read_cm(io, &self.layout, z, c)?;
        match cm.chunk_type() {
            Some(ChunkType::Run) => {
                let base = self.layout.chunk_base(z, c);
                let zones = self.zones.lock();
                let run = zones[z as usize]
                    .runs
                    .get(&c)
                    .ok_or(ObjError::Corruption { off: base, what: "run state" })?;
                let bs = run.block_size;
                let rel = within
                    .checked_sub(RUN_HEADER_SIZE)
                    .ok_or(ObjError::InvalidOid { off: oid_off })?;
                if rel % bs as u64 != 0 {
                    return Err(ObjError::InvalidOid { off: oid_off });
                }
                let block = (rel / bs as u64) as u32;
                if block >= run.nblocks {
                    return Err(ObjError::InvalidOid { off: oid_off });
                }
                drop(zones);
                let (word, mask) = RunHeader::bit_pos(base, block);
                Ok(FreeReservation {
                    oid_off,
                    start_off: start,
                    total_len: bs as u64,
                    ops: vec![MetaOp::ClearBits { off: word, mask }],
                    kind: ReserveKind::Run { zone: z, chunk: c, block, fresh_run: false },
                })
            }
            Some(ChunkType::Large) => {
                if within != 0 {
                    return Err(ObjError::InvalidOid { off: oid_off });
                }
                let n = cm.size_idx.max(1) as u64;
                let free = ChunkMeta::new(ChunkType::Free, 0, 0);
                let ops = (0..n)
                    .map(|k| MetaOp::WriteCm {
                        off: self.layout.cm_entry_off(z, c + k),
                        data: free.to_bytes(),
                    })
                    .collect();
                Ok(FreeReservation {
                    oid_off,
                    start_off: start,
                    total_len: n * self.layout.cfg.chunk_size as u64,
                    ops,
                    kind: ReserveKind::Large { zone: z, chunk: c, n },
                })
            }
            _ => Err(ObjError::InvalidOid { off: oid_off }),
        }
    }

    /// Applies meta ops persistently, serializing bitmap read-modify-writes
    /// against concurrent committers.
    pub fn apply_ops(&self, io: &PoolIo, ops: &[MetaOp]) -> Result<()> {
        let _guard = self.publish.lock();
        for op in ops {
            op.apply(io)?;
        }
        Ok(())
    }

    /// Acquires the metadata-publication lock. Pangolin applies its ops
    /// itself (each write also patches parity) but must serialize the
    /// bitmap read-modify-writes exactly like [`Heap::apply_ops`] does.
    pub fn publish_guard(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.publish.lock()
    }

    /// Returns the storage footprint `(start_off, len)` backing the object
    /// whose user data is at `oid_off`, from persistent metadata. Used by
    /// corruption recovery to bound what it may rewrite, so a run block is
    /// located as [`Heap::is_live`] locates it (the run header's first
    /// line, validated): an offset that is not the start of one of the
    /// run's blocks is [`ObjError::InvalidOid`], a header that fails
    /// validation [`ObjError::Corruption`]. The chunk-metadata entry is
    /// taken as read, checksum or not.
    pub fn storage_of(&self, io: &PoolIo, oid_off: u64) -> Result<(u64, u64)> {
        let start =
            oid_off.checked_sub(OBJ_HEADER_SIZE).ok_or(ObjError::InvalidOid { off: oid_off })?;
        let (z, c, within) = self.layout.chunk_of(start)?;
        let cm = Self::read_cm(io, &self.layout, z, c)?;
        match cm.chunk_type() {
            Some(ChunkType::Run) => {
                let base = self.layout.chunk_base(z, c);
                let (slot, _) = run_block(io, &self.layout, base, within, oid_off)?;
                Ok((slot.start, slot.len))
            }
            Some(ChunkType::Large) => {
                let n = cm.size_idx.max(1) as u64;
                Ok((start, n * self.layout.cfg.chunk_size as u64))
            }
            _ => Err(ObjError::InvalidOid { off: oid_off }),
        }
    }

    /// Re-checks, from *persistent* metadata, whether the object whose user
    /// data starts at `oid_off` is still allocated. Used by the concurrent
    /// scrubber: an object discovered by [`scan_live`] may have been freed
    /// (and its storage repurposed, e.g. as a log-overflow chunk) by the
    /// time the scrubber gets to it, and repairing such a slot would be a
    /// false positive.
    ///
    /// The probe is deliberately **racy**: it may run concurrently with a
    /// publisher updating the same metadata words, and the checks are
    /// therefore purely conservative — the chunk-metadata entry carries a
    /// checksum ([`ChunkMeta::verify`]), the run header is validated, and
    /// *any* unparseable or mid-transition state reads as "not live", so a
    /// torn observation can only make the scrubber skip an object for one
    /// pass, never touch the wrong one. Callers that go on to repair must
    /// re-confirm under their own range-locks (the scrubber does).
    ///
    /// The probe reads the 16-byte chunk-metadata entry and the run
    /// header's first 64 bytes ([`RunPrefix`]: the geometry and the bitmap
    /// words of blocks `0..256`); a block past those takes one more 8-byte
    /// word read.
    pub fn is_live(&self, io: &PoolIo, oid_off: u64) -> bool {
        match placement(io, &self.layout, oid_off) {
            Some(Placement::Block(slot, word)) => {
                word.or_else(|| io.read_u64(slot.bit_word).ok()).is_some_and(|w| w & slot.mask != 0)
            }
            Some(Placement::Large) => true,
            None => false,
        }
    }

    /// Volatile completion of a committed allocation.
    pub fn complete_alloc(&self, r: &AllocReservation) {
        if let ReserveKind::Run { zone, chunk, fresh_run: true, .. } = r.kind {
            let mut zones = self.zones.lock();
            zones[zone as usize].publish_run(chunk);
        }
    }

    /// Volatile completion of a fresh run whose format
    /// ([`AllocReservation::run_format_ops`]) was published on its own,
    /// ahead of the block: the run becomes reservable by others, and `r` is
    /// left a plain block reservation whose only op is its `SetBits`.
    pub fn complete_run_format(&self, r: &mut AllocReservation) {
        if let ReserveKind::Run { zone, chunk, ref mut fresh_run, .. } = r.kind {
            if *fresh_run {
                self.zones.lock()[zone as usize].publish_run(chunk);
                *fresh_run = false;
                r.ops.drain(..r.ops.len() - 1);
            }
        }
    }

    /// Volatile rollback of an aborted allocation.
    pub fn cancel_alloc(&self, r: &AllocReservation) {
        let mut zones = self.zones.lock();
        match r.kind {
            ReserveKind::Run { zone, chunk, block, fresh_run } => {
                if fresh_run {
                    zones[zone as usize].remove_pending_run(chunk);
                } else {
                    zones[zone as usize].push_block(chunk, block);
                }
            }
            ReserveKind::Large { zone, chunk, n } => {
                zones[zone as usize].return_free_chunks(chunk, n);
            }
        }
    }

    /// Volatile completion of a committed deallocation: the storage becomes
    /// reservable again.
    pub fn complete_free(&self, r: &FreeReservation) {
        let mut zones = self.zones.lock();
        match r.kind {
            ReserveKind::Run { zone, chunk, block, .. } => {
                zones[zone as usize].push_block(chunk, block);
            }
            ReserveKind::Large { zone, chunk, n } => {
                zones[zone as usize].return_free_chunks(chunk, n);
            }
        }
    }

    /// Reserves one free chunk for log overflow (volatile only; the caller
    /// publishes the `Log` chunk type itself). Returns `(zone, chunk,
    /// chunk_base)`.
    pub fn reserve_log_chunk(&self) -> Result<(u64, u64, u64)> {
        self.reserve_log_chunk_in(None)
    }

    /// Like [`Heap::reserve_log_chunk`], but with an optional parity-shard
    /// affinity `(shard, n_shards)`: overflow log
    /// chunks land in the transaction's own shard when it has space, so log
    /// publication stays within one parity domain.
    pub fn reserve_log_chunk_in(&self, pref: Option<(u64, u64)>) -> Result<(u64, u64, u64)> {
        let order = self.zone_order(pref);
        let mut zones = self.zones.lock();
        for &zi in &order {
            let zs = &mut zones[zi as usize];
            if let Some(chunk) = zs.take_free_chunks(1) {
                return Ok((zi, chunk, self.layout.chunk_base(zi, chunk)));
            }
        }
        Err(ObjError::OutOfMemory { requested: self.layout.cfg.chunk_size })
    }

    /// Returns a log-overflow chunk to the volatile free pool (after the
    /// caller has republished it as `Free`).
    pub fn release_log_chunk(&self, zone: u64, chunk: u64) {
        let mut zones = self.zones.lock();
        zones[zone as usize].return_free_chunks(chunk, 1);
    }

    /// One past the highest chunk of `zone` outside the volatile free pool.
    /// Right after a rebuild (no reservation yet) that is `1 +` the highest
    /// non-`Free` CM index, never below `cm_chunks`; a zone the rebuild
    /// skipped reports `n_chunks`.
    pub fn used_chunk_end(&self, zone: u64) -> u64 {
        let n_chunks = self.layout.zone.n_chunks;
        match self.zones.lock()[zone as usize].free.last_key_value() {
            Some((&start, &len)) if start + len == n_chunks => start,
            _ => n_chunks,
        }
    }

    /// Occupancy counters.
    pub fn stats(&self) -> HeapStats {
        let zones = self.zones.lock();
        let mut s = HeapStats { free_chunks: 0, run_chunks: 0, total_chunks: 0 };
        for zs in zones.iter() {
            s.free_chunks += zs.free_chunk_count();
            s.run_chunks += zs.runs.len() as u64;
        }
        s.total_chunks = self.layout.usable_chunks_per_zone() * self.layout.n_zones;
        s
    }
}

/// Scans persistent metadata and returns the user-data offsets and headers
/// of all live objects (used by Pangolin's scrubber, paper §3.3).
pub fn scan_live(io: &PoolIo, layout: &Layout) -> Result<Vec<(u64, ObjectHeader)>> {
    scan_live_excluding(io, layout, &std::collections::BTreeSet::new())
}

/// [`scan_live`] minus the zones in `skip` (quarantined zones may hold
/// unreadable pages; their objects are lost, not live).
pub fn scan_live_excluding(
    io: &PoolIo,
    layout: &Layout,
    skip: &std::collections::BTreeSet<u64>,
) -> Result<Vec<(u64, ObjectHeader)>> {
    let mut out = Vec::new();
    for z in (0..layout.n_zones).filter(|z| !skip.contains(z)) {
        let mut c = layout.zone.cm_chunks;
        while c < layout.zone.n_chunks {
            let mut cm_buf = [0u8; 16];
            io.read(layout.cm_entry_off(z, c), &mut cm_buf)?;
            let cm = ChunkMeta::from_slice(&cm_buf);
            let mut advance = 1u64;
            match cm.chunk_type() {
                Some(ChunkType::Run) => {
                    let base = layout.chunk_base(z, c);
                    let hdr = RunHeader::read(io, base)?;
                    if hdr.validate(layout.cfg.chunk_size).is_ok() {
                        for b in 0..hdr.nblocks {
                            if hdr.is_set(b) {
                                let start = RunHeader::block_off(base, hdr.block_size, b);
                                let mut h = [0u8; 16];
                                io.read(start, &mut h)?;
                                out.push((start + OBJ_HEADER_SIZE, from_bytes(&h)));
                            }
                        }
                    }
                }
                Some(ChunkType::Large) => {
                    let base = layout.chunk_base(z, c);
                    let mut h = [0u8; 16];
                    io.read(base, &mut h)?;
                    out.push((base + OBJ_HEADER_SIZE, from_bytes(&h)));
                    advance = cm.size_idx.max(1) as u64;
                }
                _ => {}
            }
            c += advance;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PoolConfig;
    use pgl_nvm::{DeviceConfig, NvmDevice};
    use std::sync::Arc;

    fn fresh_heap() -> (PoolIo, Heap) {
        let cfg = PoolConfig::small();
        let layout = Layout::new(cfg).unwrap();
        let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
        let io = PoolIo::new(dev);
        Heap::format(&io, &layout).unwrap();
        let heap = Heap::rebuild(&io, layout, true).unwrap();
        (io, heap)
    }

    /// Publishes a reservation the way a committing transaction would.
    fn publish_alloc(io: &PoolIo, heap: &Heap, r: &AllocReservation) {
        heap.apply_ops(io, &r.ops).unwrap();
        heap.complete_alloc(r);
    }

    fn publish_free(io: &PoolIo, heap: &Heap, r: &FreeReservation) {
        heap.apply_ops(io, &r.ops).unwrap();
        heap.complete_free(r);
    }

    #[test]
    fn small_alloc_reserves_run_block() {
        let (io, heap) = fresh_heap();
        let r = heap.reserve_alloc(56, 1).unwrap();
        assert_eq!(r.total_len, 96, "56+16 -> 96-byte class");
        assert_eq!(r.oid_off, r.start_off + 16);
        // Fresh run: format + CM + bit set.
        assert_eq!(r.ops.len(), 3);
        publish_alloc(&io, &heap, &r);
        // Second alloc of the same class reuses the run (single bit set).
        let r2 = heap.reserve_alloc(56, 1).unwrap();
        assert_eq!(r2.ops.len(), 1);
        assert_ne!(r2.start_off, r.start_off);
        publish_alloc(&io, &heap, &r2);
    }

    #[test]
    fn alloc_free_alloc_reuses_storage() {
        let (io, heap) = fresh_heap();
        let r = heap.reserve_alloc(100, 2).unwrap();
        let off = r.oid_off;
        publish_alloc(&io, &heap, &r);
        let f = heap.reserve_free(&io, off).unwrap();
        publish_free(&io, &heap, &f);
        let r2 = heap.reserve_alloc(100, 2).unwrap();
        assert_eq!(r2.oid_off, off, "freed block is reused");
        publish_alloc(&io, &heap, &r2);
    }

    #[test]
    fn large_alloc_takes_contiguous_chunks() {
        let (io, heap) = fresh_heap();
        let chunk = 16 << 10; // PoolConfig::small chunk size
        let r = heap.reserve_alloc(3 * chunk as u64, 9).unwrap();
        assert_eq!(r.total_len, 4 * chunk as u64, "3 chunks + header spills to 4");
        assert_eq!(r.ops.len(), 4, "head + 3 continuations");
        publish_alloc(&io, &heap, &r);
        let before = heap.stats().free_chunks;
        let f = heap.reserve_free(&io, r.oid_off).unwrap();
        publish_free(&io, &heap, &f);
        assert_eq!(heap.stats().free_chunks, before + 4);
    }

    #[test]
    fn used_chunk_end_tracks_the_highest_non_free_chunk_at_rebuild() {
        let (io, heap) = fresh_heap();
        let cm = heap.layout().zone.cm_chunks;
        assert_eq!(heap.used_chunk_end(0), cm, "a fresh zone uses only its CM chunks");
        let chunk = heap.layout().cfg.chunk_size as u64;
        let low = heap.reserve_alloc(chunk, 1).unwrap(); // two chunks
        publish_alloc(&io, &heap, &low);
        let high = heap.reserve_alloc(chunk, 1).unwrap();
        publish_alloc(&io, &heap, &high);
        let f = heap.reserve_free(&io, high.oid_off).unwrap();
        publish_free(&io, &heap, &f);
        let rebuilt = Heap::rebuild(&io, *heap.layout(), true).unwrap();
        assert_eq!(rebuilt.used_chunk_end(0), cm + 2, "a freed tail is Free again");
    }

    #[test]
    fn cancel_alloc_restores_volatile_state() {
        let (_io, heap) = fresh_heap();
        let before = heap.stats();
        let r = heap.reserve_alloc(56, 1).unwrap();
        heap.cancel_alloc(&r);
        let after = heap.stats();
        assert_eq!(before.free_chunks, after.free_chunks);
        assert_eq!(before.run_chunks, after.run_chunks, "pending run removed");
    }

    #[test]
    fn run_format_published_ahead_leaves_a_plain_block_reservation() {
        let (io, heap) = fresh_heap();
        let mut r = heap.reserve_alloc(56, 1).unwrap();
        assert_eq!(r.run_format_ops().len(), 2, "RunFmt + WriteCm");
        heap.apply_ops(&io, r.run_format_ops()).unwrap();
        heap.complete_run_format(&mut r);
        assert!(r.run_format_ops().is_empty());
        assert!(matches!(r.ops[..], [MetaOp::SetBits { .. }]));
        // The run serves other reservations now; this block is not live.
        let other = heap.reserve_alloc(56, 1).unwrap();
        assert_eq!(other.ops.len(), 1);
        assert!(!heap.is_live(&io, r.oid_off));
        // Cancelling the block keeps the run: the block is reserved again.
        heap.cancel_alloc(&r);
        assert_eq!(heap.reserve_alloc(56, 1).unwrap().start_off, r.start_off);
    }

    #[test]
    fn run_slot_finds_block_starts_only() {
        let (io, heap) = fresh_heap();
        let layout = *heap.layout();
        let r = heap.reserve_alloc(56, 1).unwrap();
        assert_eq!(run_slot(&io, &layout, r.oid_off), None, "the run is not formatted yet");
        publish_alloc(&io, &heap, &r);
        let slot = run_slot(&io, &layout, r.oid_off).unwrap();
        assert_eq!((slot.start, slot.len), (r.start_off, 96));
        assert_eq!(r.ops.last(), Some(&MetaOp::SetBits { off: slot.bit_word, mask: slot.mask }));
        for off in [r.oid_off + 8, r.start_off, 0, u64::MAX] {
            assert_eq!(run_slot(&io, &layout, off), None, "{off:#x}");
        }
        let large = heap.reserve_alloc(layout.cfg.chunk_size as u64, 2).unwrap();
        publish_alloc(&io, &heap, &large);
        assert_eq!(run_slot(&io, &layout, large.oid_off), None, "a Large object is no run block");
    }

    #[test]
    fn liveness_probe_reads_the_entry_and_the_run_headers_first_line() {
        // 64 KiB chunks: a 64-byte class run has more than 256 blocks.
        let layout =
            Layout::new(PoolConfig { chunk_size: 64 << 10, ..PoolConfig::small() }).unwrap();
        let dev = Arc::new(NvmDevice::new(layout.cfg.size, DeviceConfig::fast()).unwrap());
        let io = PoolIo::new(dev);
        Heap::format(&io, &layout).unwrap();
        let heap = Heap::rebuild(&io, layout, true).unwrap();
        let rs: Vec<AllocReservation> = (0..300)
            .map(|_| {
                let r = heap.reserve_alloc(40, 1).unwrap();
                publish_alloc(&io, &heap, &r);
                r
            })
            .collect();
        let base = rs[0].start_off - RUN_HEADER_SIZE;
        let block = |b: u64| base + RUN_HEADER_SIZE + b * 64 + OBJ_HEADER_SIZE;
        assert!(rs.iter().all(|r| r.total_len == 64 && r.start_off - base < 320 + 300 * 64));
        for b in [7, 270] {
            let f = heap.reserve_free(&io, block(b)).unwrap();
            publish_free(&io, &heap, &f);
        }
        // (liveness, bytes read, read ops) of one probe.
        let probe = |off: u64| {
            let s0 = io.dev().stats();
            let live = heap.is_live(&io, off);
            let d = io.dev().stats().delta_since(&s0);
            (live, d.bytes_read, d.read_ops)
        };
        // Blocks 0..256: the entry and the header's first line.
        assert_eq!(probe(block(3)), (true, 80, 2), "set");
        assert_eq!(probe(block(7)), (false, 80, 2), "freed");
        // Past them: one more 8-byte word.
        assert_eq!(probe(block(299)), (true, 88, 3), "set");
        assert_eq!(probe(block(270)), (false, 88, 3), "freed");
        assert_eq!(probe(block(600)), (false, 88, 3), "never set");
        // Inside a block: no block at all.
        assert_eq!(probe(block(3) + 8), (false, 80, 2));
        // run_slot never needs the bit.
        let s0 = io.dev().stats();
        let slot = run_slot(&io, &layout, block(299)).unwrap();
        let d = io.dev().stats().delta_since(&s0);
        assert_eq!((d.bytes_read, d.read_ops), (80, 2));
        assert_eq!(slot.bit_word, base + run::RUN_BITMAP_OFF + 4 * 8);
        assert_eq!(slot.mask, 1 << (299 - 256));
    }

    #[test]
    fn storage_of_a_block_past_the_runs_last_is_a_typed_error() {
        let (io, heap) = fresh_heap();
        let r = heap.reserve_alloc(1000, 1).unwrap(); // 1 024-byte class
        publish_alloc(&io, &heap, &r);
        assert_eq!(heap.storage_of(&io, r.oid_off).unwrap(), (r.start_off, 1024));
        let base = r.start_off - RUN_HEADER_SIZE;
        let nblocks = classes::nblocks(heap.layout().cfg.chunk_size, 1024) as u64;
        let past = base + RUN_HEADER_SIZE + nblocks * 1024 + OBJ_HEADER_SIZE;
        for off in [past, r.oid_off + 8] {
            assert_eq!(heap.storage_of(&io, off), Err(ObjError::InvalidOid { off }), "{off:#x}");
        }
        // A run header that fails validation is corruption, not a block.
        io.write(base, &[0u8; 8]).unwrap();
        let err = heap.storage_of(&io, r.oid_off).unwrap_err();
        assert_eq!(err, ObjError::Corruption { off: base, what: "run header" });
    }

    #[test]
    fn rebuild_recovers_allocations() {
        let (io, heap) = fresh_heap();
        let r1 = heap.reserve_alloc(56, 1).unwrap();
        publish_alloc(&io, &heap, &r1);
        // Write an object header so scan_live can see it.
        let hdr = ObjectHeader { size: 56, type_num: 1, csum: 0 };
        io.write(r1.start_off, bytes_of(&hdr)).unwrap();
        let r2 = heap.reserve_alloc(60 << 10, 2).unwrap();
        publish_alloc(&io, &heap, &r2);
        io.write(r2.start_off, bytes_of(&ObjectHeader { size: 60 << 10, type_num: 2, csum: 0 }))
            .unwrap();

        // Reopen: volatile state must match persistent reality.
        let rebuilt = Heap::rebuild(&io, *heap.layout(), true).unwrap();
        let live = scan_live(&io, rebuilt.layout()).unwrap();
        let offs: Vec<u64> = live.iter().map(|(o, _)| *o).collect();
        assert!(offs.contains(&r1.oid_off));
        assert!(offs.contains(&r2.oid_off));
        assert_eq!(live.len(), 2);

        // An alloc of the same class must not collide with r1.
        let r3 = rebuilt.reserve_alloc(56, 1).unwrap();
        assert_ne!(r3.start_off, r1.start_off);
    }

    #[test]
    fn unpublished_reservation_vanishes_on_rebuild() {
        let (io, heap) = fresh_heap();
        let r = heap.reserve_alloc(56, 1).unwrap();
        // No publish: simulate a crash before commit.
        let rebuilt = Heap::rebuild(&io, *heap.layout(), true).unwrap();
        let r2 = rebuilt.reserve_alloc(56, 1).unwrap();
        assert_eq!(r2.start_off, r.start_off, "reservation was not persistent");
    }

    #[test]
    fn meta_ops_are_idempotent() {
        let (io, heap) = fresh_heap();
        let r = heap.reserve_alloc(200, 3).unwrap();
        heap.apply_ops(&io, &r.ops).unwrap();
        heap.apply_ops(&io, &r.ops).unwrap(); // replay (crash during apply)
        heap.complete_alloc(&r);
        let rebuilt = Heap::rebuild(&io, *heap.layout(), true).unwrap();
        // Exactly one block allocated.
        let stats = rebuilt.stats();
        assert_eq!(stats.run_chunks, 1);
    }

    #[test]
    fn meta_op_log_roundtrip() {
        let ops = vec![
            MetaOp::SetBits { off: 0x100, mask: 0b11 },
            MetaOp::ClearBits { off: 0x108, mask: 0b1 },
            MetaOp::WriteCm { off: 0x200, data: [7; 16] },
            MetaOp::RunFmt { off: 0x4000, block_size: 96, nblocks: 100 },
        ];
        for op in &ops {
            let (kind, off, payload) = op.encode();
            let entry = Entry { kind, off, commit: false, payload };
            assert_eq!(MetaOp::decode(&entry).as_ref(), Some(op));
        }
        let commit = Entry { kind: EntryKind::Commit, off: 0, commit: true, payload: vec![] };
        assert_eq!(MetaOp::decode(&commit), None);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let (_io, heap) = fresh_heap();
        assert!(matches!(
            heap.reserve_alloc(heap.layout().max_alloc() + 1, 0),
            Err(ObjError::OutOfMemory { .. })
        ));
        assert!(matches!(heap.reserve_alloc(0, 0), Err(ObjError::OutOfMemory { .. })));
    }

    #[test]
    fn exhaustion_and_release() {
        let (io, heap) = fresh_heap();
        // Exhaust all chunks with large allocations.
        let chunk = heap.layout().cfg.chunk_size as u64;
        let mut allocs = Vec::new();
        loop {
            match heap.reserve_alloc(chunk * 2, 1) {
                Ok(r) => {
                    publish_alloc(&io, &heap, &r);
                    allocs.push(r);
                }
                Err(ObjError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(!allocs.is_empty());
        // Free everything; space must be reusable.
        for a in &allocs {
            let f = heap.reserve_free(&io, a.oid_off).unwrap();
            publish_free(&io, &heap, &f);
        }
        let r = heap.reserve_alloc(chunk * 2, 1).unwrap();
        publish_alloc(&io, &heap, &r);
    }

    #[test]
    fn reserve_free_rejects_bogus_offsets() {
        let (io, heap) = fresh_heap();
        assert!(heap.reserve_free(&io, 8).is_err());
        // Offset in a free chunk.
        let base = heap.layout().chunk_base(0, heap.layout().zone.cm_chunks);
        assert!(heap.reserve_free(&io, base + 16 + 320).is_err());
    }
}
