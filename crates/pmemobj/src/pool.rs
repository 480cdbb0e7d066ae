//! The persistent object pool: creation, opening (with crash recovery),
//! root object management and transaction entry points.

use std::sync::Arc;

use pgl_nvm::pod::{bytes_of, from_bytes};
use pgl_nvm::{impl_pod, NvmDevice, PAGE_SIZE};

use crate::error::{ObjError, Result};
use crate::heap::{scan_live, Heap, MetaOp};
use crate::io::PoolIo;
use crate::lane::{Lanes, LogMirror};
use crate::layout::{Layout, PoolConfig};
use crate::oid::{ObjectHeader, PMEMoid, OBJ_HEADER_SIZE, OID_NULL};
use crate::tx::{Tx, TxStats};
use crate::ulog::{self, EntryKind};
use crate::util::crc32;

const POOL_MAGIC: u64 = 0x50_4D_45_4D_4F_42_4A_31; // "PMEMOBJ1"
/// The pool-format version this crate's [`PmemPool`] writes and opens.
/// Layers with object formats of their own (Pangolin's per-segment sums)
/// write and check theirs; [`read_header`] accepts any version. Both
/// number their formats in this one header field, so each revision takes
/// a number neither has used: 1 had 32-byte log entries with a standalone
/// commit record, 4 has the 16-byte entries of [`crate::ulog`] (Pangolin
/// images are 1 to 3).
pub const POOL_VERSION: u32 = 4;

/// The persistent pool header (one copy per header page).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct PoolHeader {
    /// Magic number identifying a pool.
    pub magic: u64,
    /// Pool UUID, embedded in every [`PMEMoid`].
    pub uuid: u64,
    /// Pool size in bytes.
    pub size: u64,
    /// Format version.
    pub version: u32,
    /// Mode flags (bit 0: parity row present).
    pub flags: u32,
    /// Geometry: zone size.
    pub zone_size: u64,
    /// Geometry: chunk size.
    pub chunk_size: u64,
    /// Geometry: data chunk rows per zone.
    pub chunk_rows: u64,
    /// Geometry: number of lanes.
    pub n_lanes: u64,
    /// Geometry: per-lane log bytes.
    pub lane_size: u64,
    /// Offset of the root object's user data (0 = none).
    pub root_off: u64,
    /// Root object user size.
    pub root_size: u64,
    /// CRC32 of the header with this field zeroed.
    pub csum: u32,
    /// Reserved.
    pub pad: u32,
}
impl_pod!(PoolHeader, 96);

/// Pool-header flag: a parity row is reserved per zone.
pub const FLAG_PARITY: u32 = 1;
/// Pool-header flags bits 1-2: Pangolin mode index (0 = baseline .. 3 = MLPC).
pub const FLAG_MODE_SHIFT: u32 = 1;

impl PoolHeader {
    fn compute_csum(&self) -> u32 {
        let mut copy = *self;
        copy.csum = 0;
        crc32(bytes_of(&copy))
    }

    fn verify(&self) -> bool {
        self.magic == POOL_MAGIC && self.csum == self.compute_csum()
    }

    fn to_config(self, total_size: usize) -> PoolConfig {
        PoolConfig {
            size: total_size,
            zone_size: self.zone_size as usize,
            chunk_size: self.chunk_size as usize,
            chunk_rows: self.chunk_rows as usize,
            parity: self.flags & FLAG_PARITY != 0,
            n_lanes: self.n_lanes as usize,
            lane_size: self.lane_size as usize,
        }
    }
}

pgl_nvm::counter_table! {
    /// Pool-level operation counters ([`PmemPool::counters`]).
    pub struct PoolCounters;
    /// The cells behind [`PoolCounters`].
    struct PoolCells;
    {
        /// Committed transactions.
        commits,
        /// Aborted transactions.
        aborts,
    }
}

/// A `libpmemobj`-style persistent object pool over a simulated NVMM
/// device, optionally mirrored to a replica device (`Pmemobj-R`).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pgl_nvm::{DeviceConfig, NvmDevice};
/// use pgl_pmemobj::{PmemPool, PoolConfig};
///
/// let dev = Arc::new(NvmDevice::new(PoolConfig::small().size, DeviceConfig::fast()).unwrap());
/// let pool = PmemPool::create(dev, PoolConfig::small()).unwrap();
/// let oid = pool.tx(|tx| tx.alloc_zeroed(64, 1)).unwrap();
/// pool.tx(|tx| tx.write_pod(oid, 0, &123u64)).unwrap();
/// assert_eq!(pool.read_pod::<u64>(oid, 0).unwrap(), 123);
/// ```
pub struct PmemPool {
    io: PoolIo,
    layout: Layout,
    heap: Heap,
    lanes: Lanes,
    uuid: u64,
    counters: PoolCells,
}

impl PmemPool {
    /// Creates a fresh pool on `dev`, zeroing it first (the one-time cost
    /// the paper reports as pool-initialization latency, §4.2).
    pub fn create(dev: Arc<NvmDevice>, cfg: PoolConfig) -> Result<Self> {
        Self::create_io(PoolIo::new(dev), cfg)
    }

    /// Creates a replicated pool (`Pmemobj-R`): every write is mirrored to
    /// `replica`, doubling storage and write traffic.
    pub fn create_replicated(
        dev: Arc<NvmDevice>,
        replica: Arc<NvmDevice>,
        cfg: PoolConfig,
    ) -> Result<Self> {
        if replica.len() != dev.len() {
            return Err(ObjError::BadPool("replica size mismatch".into()));
        }
        Self::create_io(PoolIo::replicated(dev, replica), cfg)
    }

    pub(crate) fn create_io(io: PoolIo, cfg: PoolConfig) -> Result<Self> {
        let layout = Layout::new(cfg)?;
        if io.dev().len() != cfg.size {
            return Err(ObjError::BadPool(format!(
                "device is {} bytes but config wants {}",
                io.dev().len(),
                cfg.size
            )));
        }
        // Zero the whole pool so parity (all-zero rows XOR to zero) and CM
        // entries start consistent.
        io.set(0, 0, cfg.size)?;
        io.persist(0, cfg.size)?;

        let uuid = fresh_uuid();
        let hdr = PoolHeader {
            magic: POOL_MAGIC,
            uuid,
            size: cfg.size as u64,
            version: POOL_VERSION,
            flags: if cfg.parity { FLAG_PARITY } else { 0 },
            zone_size: cfg.zone_size as u64,
            chunk_size: cfg.chunk_size as u64,
            chunk_rows: cfg.chunk_rows as u64,
            n_lanes: cfg.n_lanes as u64,
            lane_size: cfg.lane_size as u64,
            root_off: 0,
            root_size: 0,
            csum: 0,
            pad: 0,
        };
        write_header(&io, &layout, hdr)?;
        Lanes::format(&io, &layout, LogMirror::None)?;
        Heap::format(&io, &layout)?;
        let heap = Heap::rebuild(&io, layout, false)?;
        let lanes = Lanes::load(&io, layout, LogMirror::None)?;
        Ok(PmemPool { io, layout, heap, lanes, uuid, counters: PoolCells::default() })
    }

    /// Opens an existing pool, running crash recovery (undo rollback or
    /// redo completion per lane) before any access.
    pub fn open(dev: Arc<NvmDevice>) -> Result<Self> {
        Self::open_io(PoolIo::new(dev))
    }

    /// Opens a replicated pool.
    pub fn open_replicated(dev: Arc<NvmDevice>, replica: Arc<NvmDevice>) -> Result<Self> {
        Self::open_io(PoolIo::replicated(dev, replica))
    }

    fn open_io(io: PoolIo) -> Result<Self> {
        let hdr = read_header(&io)?;
        if hdr.version != POOL_VERSION {
            return Err(ObjError::BadPool(format!("pool format version {}", hdr.version)));
        }
        let cfg = hdr.to_config(io.dev().len());
        let layout = Layout::new(cfg)?;
        recover(&io, &layout, LogMirror::None)?;
        let heap = Heap::rebuild(&io, layout, false)?;
        let lanes = Lanes::load(&io, layout, LogMirror::None)?;
        Ok(PmemPool { io, layout, heap, lanes, uuid: hdr.uuid, counters: PoolCells::default() })
    }

    /// The pool UUID.
    pub fn uuid(&self) -> u64 {
        self.uuid
    }

    /// The resolved layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The underlying I/O layer (used by tests and the fault injector).
    pub fn io(&self) -> &PoolIo {
        &self.io
    }

    /// The heap (exposed for statistics).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// A snapshot of the commit/abort counters.
    pub fn counters(&self) -> PoolCounters {
        self.counters.snapshot()
    }

    /// Runs `f` inside a transaction: `Ok` commits, `Err` aborts with
    /// rollback. This is the `TX_BEGIN { .. } TX_END` equivalent.
    pub fn tx<R>(&self, f: impl FnOnce(&mut Tx<'_>) -> Result<R>) -> Result<R> {
        self.tx_with_stats(f).map(|(r, _)| r)
    }

    /// Like [`PmemPool::tx`] but also returns the transaction's
    /// instrumentation counters (used by the Table 3 harness).
    pub fn tx_with_stats<R>(
        &self,
        f: impl FnOnce(&mut Tx<'_>) -> Result<R>,
    ) -> Result<(R, TxStats)> {
        let lane = self.lanes.claim(&self.io);
        let mut tx = Tx::new(&self.io, &self.heap, lane, self.uuid);
        match f(&mut tx) {
            Ok(r) => {
                let stats = tx.commit()?;
                pgl_nvm::bump(&self.counters.commits, 1);
                Ok((r, stats))
            }
            Err(e) => {
                tx.abort()?;
                pgl_nvm::bump(&self.counters.aborts, 1);
                Err(e)
            }
        }
    }

    /// Returns the root object, allocating a zeroed one of `size` bytes on
    /// first use (`pmemobj_root` analogue).
    pub fn root(&self, size: u64, type_num: u32) -> Result<PMEMoid> {
        {
            let hdr = read_header(&self.io)?;
            if hdr.root_off != 0 {
                return Ok(PMEMoid::new(self.uuid, hdr.root_off));
            }
        }
        let oid = self.tx(|tx| tx.alloc_zeroed(size, type_num))?;
        let mut hdr = read_header(&self.io)?;
        hdr.root_off = oid.off;
        hdr.root_size = size;
        write_header(&self.io, &self.layout, hdr)?;
        Ok(oid)
    }

    /// Returns the current root OID, or null if none was created.
    pub fn root_oid(&self) -> Result<PMEMoid> {
        let hdr = read_header(&self.io)?;
        if hdr.root_off == 0 {
            Ok(OID_NULL)
        } else {
            Ok(PMEMoid::new(self.uuid, hdr.root_off))
        }
    }

    /// Direct (DAX-style) read of object bytes outside any transaction.
    pub fn read(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> Result<()> {
        self.check_oid(oid)?;
        self.io.read(oid.off + off, dst)
    }

    /// Direct typed read of a field.
    pub fn read_pod<T: pgl_nvm::Pod>(&self, oid: PMEMoid, off: u64) -> Result<T> {
        self.check_oid(oid)?;
        let mut buf = vec![0u8; std::mem::size_of::<T>()];
        self.io.read(oid.off + off, &mut buf)?;
        Ok(from_bytes(&buf))
    }

    /// Reads an object's header.
    pub fn obj_header(&self, oid: PMEMoid) -> Result<ObjectHeader> {
        self.check_oid(oid)?;
        let mut buf = [0u8; 16];
        self.io.read(oid.header_off(), &mut buf)?;
        Ok(from_bytes(&buf))
    }

    /// Returns an object's user size.
    pub fn obj_size(&self, oid: PMEMoid) -> Result<u64> {
        Ok(self.obj_header(oid)?.size)
    }

    /// Lists all live objects `(oid, header)` by scanning persistent
    /// allocator metadata.
    pub fn live_objects(&self) -> Result<Vec<(PMEMoid, ObjectHeader)>> {
        Ok(scan_live(&self.io, &self.layout)?
            .into_iter()
            .map(|(off, h)| (PMEMoid::new(self.uuid, off), h))
            .collect())
    }

    /// Offline check: lists poisoned pages on the primary and replica.
    pub fn check_media(&self) -> (Vec<u64>, Vec<u64>) {
        let p = self.io.dev().poisoned_pages();
        let r = self.io.replica().map(|d| d.poisoned_pages()).unwrap_or_default();
        (p, r)
    }

    /// Offline repair for replicated pools: rewrites each poisoned page
    /// from the healthy copy (the `pmempool sync` analogue). Fails with
    /// [`ObjError::Unrecoverable`] if both copies of a page are bad, and
    /// with [`ObjError::BadPool`] if the pool has no replica.
    ///
    /// As the paper notes (§2.3), this is replicated `libpmemobj`'s *only*
    /// repair path — it cannot run while the pool is in use.
    pub fn sync_replicas(&self) -> Result<u64> {
        let Some(replica) = self.io.replica() else {
            return Err(ObjError::BadPool("pool has no replica".into()));
        };
        let primary = self.io.dev();
        let mut repaired = 0u64;
        let mut page_buf = vec![0u8; PAGE_SIZE];
        for page in primary.poisoned_pages() {
            if replica.is_poisoned_page(page) {
                return Err(ObjError::Unrecoverable(format!(
                    "page {page} lost on both primary and replica"
                )));
            }
            replica.read(page * PAGE_SIZE as u64, &mut page_buf)?;
            primary.repair_page(page, &page_buf)?;
            repaired += 1;
        }
        for page in replica.poisoned_pages() {
            if primary.is_poisoned_page(page) {
                return Err(ObjError::Unrecoverable(format!(
                    "page {page} lost on both primary and replica"
                )));
            }
            primary.read(page * PAGE_SIZE as u64, &mut page_buf)?;
            replica.repair_page(page, &page_buf)?;
            repaired += 1;
        }
        Ok(repaired)
    }

    fn check_oid(&self, oid: PMEMoid) -> Result<()> {
        if oid.is_null() || oid.pool != self.uuid || oid.off < OBJ_HEADER_SIZE {
            return Err(ObjError::InvalidOid { off: oid.off });
        }
        Ok(())
    }
}

/// Generates a non-zero pseudo-random pool UUID without external crates.
fn fresh_uuid() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let h = std::collections::hash_map::RandomState::new().build_hasher().finish();
    h | 1
}

/// Writes both pool header copies.
pub fn write_header(io: &PoolIo, layout: &Layout, mut hdr: PoolHeader) -> Result<()> {
    hdr.csum = hdr.compute_csum();
    let bytes = bytes_of(&hdr);
    io.write(layout.hdr_off, bytes)?;
    io.persist(layout.hdr_off, bytes.len())?;
    io.write(layout.hdr_replica_off, bytes)?;
    io.persist(layout.hdr_replica_off, bytes.len())?;
    Ok(())
}

/// Reads and validates a pool header, trying the replica copy if the
/// primary is unreadable or corrupt.
pub fn read_header(io: &PoolIo) -> Result<PoolHeader> {
    let mut buf = [0u8; std::mem::size_of::<PoolHeader>()];
    for off in [0u64, PAGE_SIZE as u64] {
        if io.read_with_replica_fallback(off, &mut buf).is_ok() {
            let hdr: PoolHeader = from_bytes(&buf);
            if hdr.verify() {
                return Ok(hdr);
            }
        }
    }
    Err(ObjError::BadPool("no valid pool header".into()))
}

/// Lane-by-lane crash recovery: committed lanes re-apply their redo
/// (allocator) entries; uncommitted lanes roll back their undo entries.
/// Orphaned log-overflow chunks are swept back to `Free` afterwards.
pub fn recover(io: &PoolIo, layout: &Layout, mirror: LogMirror) -> Result<()> {
    for l in 0..layout.cfg.n_lanes as u32 {
        let log = Lanes::read_log(io, layout, l, mirror)?;
        let entries = log.entries;
        if entries.is_empty() {
            continue;
        }
        if ulog::is_committed(&entries) {
            for e in &entries {
                if let Some(op) = MetaOp::decode(e) {
                    op.apply(io)?;
                }
            }
        } else {
            for e in entries.iter().rev() {
                if e.kind == EntryKind::Data {
                    io.write(e.off, &e.payload)?;
                    io.flush(e.off, e.payload.len())?;
                }
            }
            io.drain();
        }
        Lanes::invalidate(io, layout, l, mirror, log.retire_at)?;
    }
    sweep_orphan_log_chunks(io, layout)?;
    Ok(())
}

/// Returns every `Log`-typed chunk to `Free`: once all lanes are
/// invalidated, any remaining log-overflow chunk is garbage from a crashed
/// transaction.
pub fn sweep_orphan_log_chunks(io: &PoolIo, layout: &Layout) -> Result<()> {
    use crate::heap::run::{ChunkMeta, ChunkType};
    let free = ChunkMeta::new(ChunkType::Free, 0, 0).to_bytes();
    for z in 0..layout.n_zones {
        let mut c = layout.zone.cm_chunks;
        while c < layout.zone.n_chunks {
            let mut buf = [0u8; 16];
            io.read(layout.cm_entry_off(z, c), &mut buf)?;
            let cm = ChunkMeta::from_slice(&buf);
            let mut advance = 1u64;
            match cm.chunk_type() {
                Some(ChunkType::Log) => {
                    io.write(layout.cm_entry_off(z, c), &free)?;
                    io.persist(layout.cm_entry_off(z, c), 16)?;
                }
                Some(ChunkType::Large) => advance = cm.size_idx.max(1) as u64,
                _ => {}
            }
            c += advance;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgl_nvm::DeviceConfig;

    fn new_pool() -> (Arc<NvmDevice>, PmemPool) {
        let cfg = PoolConfig::small();
        let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
        let pool = PmemPool::create(dev.clone(), cfg).unwrap();
        (dev, pool)
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let (_dev, pool) = new_pool();
        let oid = pool
            .tx(|tx| {
                let oid = tx.alloc(64, 7)?;
                tx.write(oid, 0, b"forty-two")?;
                Ok(oid)
            })
            .unwrap();
        let mut buf = [0u8; 9];
        pool.read(oid, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"forty-two");
        let hdr = pool.obj_header(oid).unwrap();
        assert_eq!(hdr.size, 64);
        assert_eq!(hdr.type_num, 7);
    }

    #[test]
    fn abort_rolls_back_in_place_writes() {
        let (_dev, pool) = new_pool();
        let oid = pool
            .tx(|tx| {
                let oid = tx.alloc_zeroed(32, 1)?;
                tx.write(oid, 0, &[1u8; 32])?;
                Ok(oid)
            })
            .unwrap();
        let err = pool.tx(|tx| -> Result<()> {
            tx.write(oid, 0, &[9u8; 32])?;
            Err(ObjError::Aborted("user abort".into()))
        });
        assert!(err.is_err());
        let mut buf = [0u8; 32];
        pool.read(oid, 0, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 32], "aborted write rolled back");
        assert_eq!(pool.counters().aborts, 1);
    }

    #[test]
    fn aborted_alloc_is_not_visible() {
        let (_dev, pool) = new_pool();
        let _ = pool.tx(|tx| -> Result<()> {
            tx.alloc(100, 1)?;
            Err(ObjError::Aborted("never mind".into()))
        });
        assert!(pool.live_objects().unwrap().is_empty());
        // And the space is reusable.
        pool.tx(|tx| tx.alloc(100, 1)).unwrap();
        assert_eq!(pool.live_objects().unwrap().len(), 1);
    }

    #[test]
    fn free_reclaims_space() {
        let (_dev, pool) = new_pool();
        let oid = pool.tx(|tx| tx.alloc(128, 2)).unwrap();
        assert_eq!(pool.live_objects().unwrap().len(), 1);
        pool.tx(|tx| tx.free(oid)).unwrap();
        assert!(pool.live_objects().unwrap().is_empty());
    }

    #[test]
    fn alloc_and_free_in_same_tx_cancels() {
        let (_dev, pool) = new_pool();
        pool.tx(|tx| {
            let oid = tx.alloc(64, 1)?;
            tx.free(oid)?;
            Ok(())
        })
        .unwrap();
        assert!(pool.live_objects().unwrap().is_empty());
    }

    #[test]
    fn root_object_is_stable() {
        let (dev, pool) = new_pool();
        let root = pool.root(256, 42).unwrap();
        assert_eq!(pool.root(256, 42).unwrap(), root, "root allocated once");
        pool.tx(|tx| tx.write_pod(root, 0, &0xFEEDu64)).unwrap();
        drop(pool);
        let pool = PmemPool::open(dev).unwrap();
        let root2 = pool.root_oid().unwrap();
        assert_eq!(root2.off, root.off, "root survives reopen");
        assert_eq!(pool.read_pod::<u64>(root2, 0).unwrap(), 0xFEED);
    }

    #[test]
    fn reopen_preserves_objects() {
        let (dev, pool) = new_pool();
        let oid = pool
            .tx(|tx| {
                let oid = tx.alloc(64, 3)?;
                tx.write(oid, 0, &[0xAB; 64])?;
                Ok(oid)
            })
            .unwrap();
        drop(pool);
        let pool = PmemPool::open(dev).unwrap();
        let mut buf = [0u8; 64];
        pool.read(PMEMoid::new(pool.uuid(), oid.off), 0, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 64]);
        assert_eq!(pool.live_objects().unwrap().len(), 1);
    }

    #[test]
    fn open_rejects_garbage() {
        let dev = Arc::new(NvmDevice::new(1 << 20, DeviceConfig::fast()).unwrap());
        assert!(PmemPool::open(dev).is_err());
    }

    #[test]
    fn replicated_pool_mirrors_and_syncs() {
        let cfg = PoolConfig::small();
        let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
        let rep = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
        let pool = PmemPool::create_replicated(dev.clone(), rep.clone(), cfg).unwrap();
        let oid = pool
            .tx(|tx| {
                let oid = tx.alloc(64, 1)?;
                tx.write(oid, 0, &[0x5A; 64])?;
                Ok(oid)
            })
            .unwrap();
        // Poison the primary page holding the object: reads fail (SIGBUS
        // analogue), and only the offline sync restores access.
        let page = oid.off / PAGE_SIZE as u64;
        dev.poison_page(page).unwrap();
        let mut buf = [0u8; 64];
        assert!(pool.read(oid, 0, &mut buf).is_err());
        let repaired = pool.sync_replicas().unwrap();
        assert_eq!(repaired, 1);
        pool.read(oid, 0, &mut buf).unwrap();
        assert_eq!(buf, [0x5A; 64]);
    }

    #[test]
    fn log_image_written_with_the_bytewise_crc_replays() {
        // The entry format spelled out: a committed-but-unapplied redo log
        // assembled field by field, with the byte-at-a-time CRC, must be
        // what `encode_entry` and `set_commit` produce, and must replay at
        // open. One SetBits entry carrying the commit flag: word =
        // offset | kind << 48 | flag << 52 | generation tag << 53, then
        // the length, then the CRC of the payload, the full generation and
        // the first 12 header bytes.
        use crate::ulog::{encode_entry, payload, set_commit, ENTRY_HEADER_SIZE};
        use crate::util::crc32_seed_bytewise;

        let (dev, pool) = new_pool();
        let layout = *pool.layout();
        drop(pool);
        let io = PoolIo::new(dev.clone());
        let gen = Lanes::read_gen(&io, &layout, 0, LogMirror::None).unwrap();
        // A word in a free data chunk: replay ORs the mask into it.
        let word = layout.chunk_base(0, layout.zone.cm_chunks + 3);
        let mask = payload::mask(0b1011);

        let tag = gen & 0x7FF;
        let mut image =
            (word | (EntryKind::SetBits as u64) << 48 | 1 << 52 | tag << 53).to_le_bytes().to_vec();
        image.extend_from_slice(&(mask.len() as u32).to_le_bytes());
        let crc = crc32_seed_bytewise(0, &mask);
        let crc = crc32_seed_bytewise(crc32_seed_bytewise(crc, &gen.to_le_bytes()), &image);
        image.extend_from_slice(&crc.to_le_bytes());
        image.extend_from_slice(&mask);

        let mut current = Vec::new();
        let crc = encode_entry(&mut current, EntryKind::SetBits, word, &mask, gen);
        set_commit(&mut current, crc, gen);
        assert_eq!(image.len() as u64, ENTRY_HEADER_SIZE + 8);
        assert_eq!(image, current, "entry bytes are bit-identical");

        let log = layout.lane_off(0) + crate::lane::LANE_HEADER_SIZE;
        io.write(log, &image).unwrap();
        io.persist(log, image.len()).unwrap();
        let pool = PmemPool::open(dev).unwrap();
        assert_eq!(pool.io().read_u64(word).unwrap(), 0b1011, "committed redo entry replayed");
        assert!(Lanes::read_entries(pool.io(), &layout, 0, LogMirror::None).unwrap().is_empty());
    }

    #[test]
    fn an_image_with_the_old_log_format_is_refused_without_a_write() {
        // Version 1 pools logged 32-byte entries: their lanes cannot be
        // read with today's decoder, so the open refuses the image before
        // recovery can touch it.
        let (dev, pool) = new_pool();
        let layout = *pool.layout();
        let mut hdr = read_header(pool.io()).unwrap();
        assert_eq!(hdr.version, POOL_VERSION);
        hdr.version = 1;
        write_header(pool.io(), &layout, hdr).unwrap();
        drop(pool);
        let s0 = dev.stats();
        match PmemPool::open(dev.clone()) {
            Err(ObjError::BadPool(why)) => assert!(why.contains("version 1"), "{why}"),
            r => panic!("a version-1 image must be refused: {:?}", r.err()),
        }
        let d = dev.stats().delta_since(&s0);
        let stores = (d.bytes_written, d.bytes_written_nt, d.atomic_stores);
        let rmws = (d.atomic_xors, d.atomic_cas_ops, d.lines_flushed, d.fences);
        assert_eq!((stores, rmws), ((0, 0, 0), (0, 0, 0, 0)), "the refused open wrote the device");
    }

    #[test]
    fn unreplicated_sync_fails() {
        let (_dev, pool) = new_pool();
        assert!(pool.sync_replicas().is_err());
    }
}
