//! The Pangolin pool: fault-tolerant persistent object storage.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pgl_nvm::pod::{from_bytes, Pod};
use pgl_nvm::{bump, slot, NvmDevice};
use pgl_pmemobj::heap::{scan_live_excluding, Heap, MetaOp};
use pgl_pmemobj::lane::{Lanes, LogMirror};
use pgl_pmemobj::pool::{read_header, write_header, PoolHeader, FLAG_MODE_SHIFT, FLAG_PARITY};
use pgl_pmemobj::{Layout, ObjError, ObjectHeader, PMEMoid, PoolIo, OID_NULL};

use crate::config::{CsumPolicy, PglConfig, PglMode};
use crate::counters::{csum_pass, PglCounterCells, PglCounters};
use crate::detect::{Freeze, Vuln, VulnSnapshot};
use crate::error::{PglError, Result};
use crate::parity::{ParityDomains, RangeGuard, ShardMap};
use crate::quarantine::QuarantineSet;
use crate::scratch;
use crate::scrub::{self, ScrubReport, ScrubTotals};
use crate::segment::{self, SEG};
use crate::txn::{PglTx, TxStats};
use crate::ubuf::{FrameParts, UBuf, UBufLoad, UBufState};
use crate::vcache::{Entry, VCache, VerifyStamp};

/// The pool-format version Pangolin writes and opens: objects carry
/// per-segment sums ([`crate::segment`], since 2) and lanes log 16-byte
/// entries with the commit folded into a flag ([`pgl_pmemobj::ulog`],
/// since 3). Images of other versions are refused with
/// [`PglError::FormatVersion`]. The `libpmemobj`-style pool numbers its
/// formats in the same header field and skips these numbers
/// ([`pgl_pmemobj::pool::POOL_VERSION`] is 4), so the next revision here
/// is 5.
pub const FORMAT_VERSION: u32 = 3;

thread_local! {
    /// The calling thread's preferred parity shard for new allocations
    /// (set via [`PglPool::bind_thread_to_shard`]); `None` = no affinity.
    static ALLOC_SHARD: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Shared pool state (public within the crate; the library API is
/// [`PglPool`]).
pub struct Inner {
    pub(crate) io: PoolIo,
    pub(crate) layout: Layout,
    pub(crate) heap: Heap,
    pub(crate) lanes: Lanes,
    pub(crate) uuid: u64,
    pub(crate) mode: PglMode,
    pub(crate) policy: CsumPolicy,
    pub(crate) parity: Option<ParityDomains>,
    /// Zone→shard routing, present in every mode (parity or not): it also
    /// partitions scrubbing and allocation affinity.
    pub(crate) shard_map: ShardMap,
    pub(crate) freeze: Freeze,
    pub(crate) vuln: Vuln,
    pub(crate) vcache: VCache,
    pub(crate) counters: PglCounterCells,
    pub(crate) scrub_tick: AtomicU64,
    /// Per-shard scrub progress `(objects done, objects total)` of the
    /// current (or last) pass — the scrubber's per-shard cursor.
    pub(crate) scrub_progress: Vec<(AtomicU64, AtomicU64)>,
    /// CAS descriptors replayed at open (see [`crate::ploc`]); empty for
    /// freshly created pools and after clean shutdowns.
    pub(crate) cas_recoveries: Vec<crate::ploc::CasRecovery>,
    /// Nodes linked by an allocate-and-publish whose allocator bit may not
    /// be durable yet (see [`crate::ploc`]).
    pub(crate) linking: crate::ploc::Linking,
    /// Zones containing data lost beyond the fault-tolerance guarantee
    /// (see [`crate::quarantine`]): reads there fail fast with a located
    /// [`PglError::Unrecoverable`], allocation and scrub skip them.
    pub(crate) quarantine: QuarantineSet,
    /// Aggregated background-scrub activity (passes, cumulative report).
    pub(crate) scrub_totals: std::sync::Mutex<ScrubTotals>,
    /// Per-shard kick channels of the background scrub workers (`None`
    /// when scrubbing is synchronous).
    background_scrub: Option<Vec<std::sync::mpsc::SyncSender<()>>>,
}

impl Inner {
    pub(crate) fn mirror(&self) -> LogMirror {
        if self.mode.replicates_logs() {
            LogMirror::SameDevice
        } else {
            LogMirror::None
        }
    }

    /// Builds a located [`PglError::Unrecoverable`] for pool offset `off`,
    /// resolving the zone and its parity shard where possible.
    pub(crate) fn unrecoverable_here(&self, off: u64, detail: impl Into<String>) -> PglError {
        let zone = self.layout.zone_and_rel(off).map(|(z, _)| z).unwrap_or(u64::MAX);
        let shard = if zone == u64::MAX { u64::MAX } else { self.shard_map.shard_of_zone(zone) };
        PglError::unrecoverable_at(shard, zone, off, detail)
    }

    /// Rejects the null OID and OIDs of other pools.
    pub(crate) fn check_oid(&self, oid: PMEMoid) -> Result<()> {
        if oid.is_null() || oid.pool != self.uuid {
            return Err(ObjError::InvalidOid { off: oid.off }.into());
        }
        Ok(())
    }

    /// Reads with transparent online media-error recovery: a poisoned page
    /// freezes the pool, reconstructs the page from its column, repairs it
    /// and retries (paper §3.6).
    pub(crate) fn read_with_recovery(&self, off: u64, dst: &mut [u8]) -> Result<()> {
        self.check_quarantine(off)?;
        for _ in 0..4 {
            match self.io.read(off, dst) {
                Ok(()) => return Ok(()),
                Err(ObjError::Mem(pgl_nvm::MemError::Poisoned { page })) => {
                    self.online_recover_page(page)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(self.unrecoverable_here(off, "page keeps failing after repeated recovery"))
    }

    /// Fails fast with a located [`PglError::Unrecoverable`] when `off`
    /// falls inside a quarantined zone: data there is already known lost,
    /// so no read, repair or retry is attempted (the rest of the pool keeps
    /// serving).
    pub(crate) fn check_quarantine(&self, off: u64) -> Result<()> {
        if self.quarantine.is_empty() {
            return Ok(());
        }
        if let Ok((zone, _)) = self.layout.zone_and_rel(off) {
            if self.quarantine.contains(zone) {
                return Err(self.unrecoverable_here(off, "zone is quarantined"));
            }
        }
        Ok(())
    }

    /// Moves `zone` into quarantine: in-memory set (reads fail fast),
    /// persistent header region (survives restarts; best-effort — the
    /// in-memory containment works even if the header write fails), the
    /// allocator ban list, and the pool counter. Idempotent.
    pub(crate) fn quarantine_zone(&self, zone: u64) {
        if self.quarantine.insert(zone) {
            bump(&self.counters.zones_quarantined, 1);
            self.heap.ban_zone(zone);
            let _ = crate::quarantine::persist_zone(&self.io, &self.layout, zone);
        }
    }

    /// Handles a double fault at `off`: quarantines the containing zone
    /// (when `off` resolves to one) and returns the located
    /// [`PglError::Unrecoverable`] the caller surfaces.
    pub(crate) fn quarantine_for(&self, off: u64, detail: impl Into<String>) -> PglError {
        if let Ok((zone, _)) = self.layout.zone_and_rel(off) {
            self.quarantine_zone(zone);
        }
        self.unrecoverable_here(off, detail)
    }

    /// Records one completed background per-shard scrub pass: aggregates
    /// the report, bumps the per-shard repair counters, and closes the
    /// vulnerability window once every shard has completed a pass of the
    /// current round.
    pub(crate) fn note_bg_pass(&self, shard: u64, report: &ScrubReport) {
        bump(slot(&self.counters.scrub_repairs, shard as usize), report.repairs());
        let full_round = {
            let mut t = self.scrub_totals.lock().unwrap();
            t.shard_passes += 1;
            t.cumulative.absorb(report);
            t.last = *report;
            t.shard_passes % self.shard_map.n_shards() == 0
        };
        if full_round {
            self.vuln.end_scrub_window(self.counters.unverified.load(Ordering::Relaxed));
        }
    }

    /// Reads an object's header with media recovery and sanity validation.
    pub(crate) fn obj_header_checked(&self, oid: PMEMoid) -> Result<ObjectHeader> {
        for first in [true, false] {
            let mut buf = [0u8; 16];
            self.read_with_recovery(oid.header_off(), &mut buf)?;
            let hdr: ObjectHeader = from_bytes(&buf);
            if self.plausible(oid.off, hdr.size) {
                return Ok(hdr);
            }
            if first {
                // A nonsense size means the header itself is corrupt; try
                // scribble recovery once, then re-read.
                self.recover_object(oid)?;
            }
        }
        Err(PglError::ChecksumMismatch { off: oid.off })
    }

    /// Bytes a `size`-byte object occupies behind its header: user data
    /// plus sum table in modes with checksums, user data alone otherwise.
    pub(crate) fn footprint(&self, size: u64) -> u64 {
        if self.mode.has_checksums() {
            segment::footprint(size)
        } else {
            size
        }
    }

    /// `true` when a header claiming `size` user bytes at `off` can be
    /// real: a non-empty object no larger than any allocation, whose user
    /// data and sum table end inside its zone's data rows.
    pub(crate) fn plausible(&self, off: u64, size: u64) -> bool {
        size > 0
            && size <= self.layout.max_alloc()
            && self.object_room(off).is_some_and(|room| self.footprint(size) <= room)
    }

    /// Bytes from `off` to the end of its zone's data rows: no object's
    /// storage extends further.
    pub(crate) fn object_room(&self, off: u64) -> Option<u64> {
        let (_, zoff) = self.layout.zone_and_rel(off).ok()?;
        let geo = &self.layout.zone;
        (geo.rows_base + geo.data_rows * geo.row_size).checked_sub(zoff)
    }

    /// Reads the whole object whose header reads `hdr` — user bytes, pad
    /// and sum table — and checks every segment, publishing nothing to the
    /// verification cache: the whole-image check of the crash oracle's
    /// audit and of [`PglPool::find_corrupt_objects`]. `heal` repairs
    /// media errors on the way; without it they fail the check. Returns
    /// the user bytes.
    fn check_image(&self, oid: PMEMoid, hdr: &ObjectHeader, heal: bool) -> Result<Vec<u8>> {
        let bad = PglError::ChecksumMismatch { off: oid.off };
        if !self.plausible(oid.off, hdr.size) {
            return Err(bad);
        }
        let mut image = vec![0u8; self.footprint(hdr.size) as usize];
        if heal {
            self.read_with_recovery(oid.off, &mut image)?;
        } else {
            self.io.read(oid.off, &mut image)?;
        }
        if self.mode.has_checksums() && segment::check_all(hdr, &image).is_err() {
            return Err(bad);
        }
        image.truncate(hdr.size as usize);
        Ok(image)
    }

    /// The one verify-on-load rule, for every destination (a
    /// transaction's micro-buffer, a verified read's bytes): each attempt
    /// plans a window of whole segments and their sums, fused into one
    /// device read where the window reaches the object's end (step 1);
    /// reads and checks it — or, where the verification cache vouches for
    /// it, reads only what was asked — then accounts for it and publishes
    /// it under the stamp taken before the read (step 2). A failed check
    /// repairs the object from parity, re-reads its header and retries
    /// once, checking what the repair rewrote (step 3).
    #[inline]
    pub(crate) fn load_verified(&self, oid: PMEMoid, dst: &mut impl LoadDst) -> Result<()> {
        for trust in [true, false] {
            let mut probe = Probe { vcache: &self.vcache, off: oid.off, trust, stamp: None };
            let Some(w) = dst.plan(&mut probe)? else { return Ok(()) };
            let stamp = probe.stamp.expect("a planned load probed the cache");
            let (checked, handed) = match dst.fill(&w)? {
                Filled::Held { checked, handed } => (checked, handed),
                Filled::Mismatch(checked) => {
                    // A failed check is a pass too, over what it checked.
                    csum_pass(self.io.dev(), checked);
                    if trust {
                        self.recover_object(oid)?;
                        dst.repaired(self.obj_header_checked(oid)?, &w)?;
                    }
                    continue;
                }
            };
            if w.vouched {
                bump(&self.counters.verified_cached, handed);
                bump(&self.io.dev().cells().vcache_hits, 1);
            } else {
                csum_pass(self.io.dev(), checked);
                bump(&self.counters.verified, handed);
                self.vcache.publish(oid.off, w.size, w.a, w.z, stamp);
            }
            return Ok(());
        }
        Err(PglError::ChecksumMismatch { off: oid.off })
    }

    /// Makes `[off, off+len)` of `b` resident under the open rule
    /// ([`Inner::load_verified`] into the micro-buffer): every byte loaded
    /// belongs to a segment that is checked here or that the verification
    /// cache vouches for, and the loaded segments' sums are kept for the
    /// commit.
    pub(crate) fn load_range(&self, b: &mut UBuf, off: u64, len: u64) -> Result<()> {
        let oid = b.oid();
        if len == 0 || !self.mode.has_checksums() || b.state() == UBufState::New {
            let read = |at: u64, dst: &mut [u8]| self.read_with_recovery(oid.off + at, dst);
            return b.load(off, len, 0, read).map(drop);
        }
        self.load_verified(oid, &mut UBufLoad { inner: self, b, off, len })
    }

    /// A verified read of `buf` from offset `off` of `oid`: one
    /// range-sized read and no checksum pass where the verification cache
    /// vouches for the segments it covers, [`Inner::load_verified`] into
    /// the read's bytes otherwise (the segments and their sums read and
    /// checked, which publishes them). `hdr` is the header when the caller
    /// read it already; `size`, the size a cache entry must have to vouch.
    /// Ranges past the object's end fail with [`PglError::TypeMismatch`].
    #[inline]
    pub(crate) fn verified_read(
        &self,
        oid: PMEMoid,
        off: u64,
        mut buf: ReadBuf<'_>,
        hdr: Option<ObjectHeader>,
        size: Option<u64>,
    ) -> Result<()> {
        // The hit stays outside the core: most verified reads are cache
        // hits, and running them through the core's plan and fill cost
        // about a tenth of `kv_read`'s host time.
        if let Some(e) = self.vcache.probe(oid.off).filter(|e| size.is_none_or(|s| s == e.size)) {
            let dst = buf.sized(e.size);
            let len = dst.len() as u64;
            if Self::range_fits(off, len, e.size) && e.covers_range(off, len) {
                self.read_with_recovery(oid.off + off, dst)?;
                bump(&self.counters.verified_cached, len);
                bump(&self.io.dev().cells().vcache_hits, 1);
                return Ok(());
            }
        }
        self.load_verified(oid, &mut ReadInto { inner: self, oid, off, buf, hdr })
    }

    /// Overflow-safe "`[off, off+len)` fits in `size`" (a wrapped
    /// `off + len` must never pass a bounds check on the read paths).
    #[inline]
    pub(crate) fn range_fits(off: u64, len: u64, size: u64) -> bool {
        off <= size && len <= size - off
    }

    /// Reads the header of `oid` and returns an empty micro-buffer for it
    /// (the transaction open; [`Inner::load_range`] loads what is used).
    pub(crate) fn open_ubuf(&self, oid: PMEMoid, frames: &mut Vec<FrameParts>) -> Result<UBuf> {
        let hdr = self.obj_header_checked(oid)?;
        let parts = frames.pop().unwrap_or_default();
        Ok(UBuf::for_load(oid, hdr, parts, self.mode.has_checksums()))
    }

    /// Direct object read (`pgl_get`): no verification under the default
    /// policy, a verified read under Conservative — for objects of every
    /// size. Vulnerability accounting feeds Table 4.
    pub(crate) fn direct_read(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> Result<()> {
        if self.mode.has_checksums() && matches!(self.policy, CsumPolicy::Conservative) {
            return self.verified_read(oid, off, ReadBuf::Range(dst), None, None);
        }
        let at = oid.off.checked_add(off).ok_or(ObjError::InvalidOid { off: oid.off })?;
        self.read_with_recovery(at, dst)?;
        if self.mode.has_checksums() {
            bump(&self.counters.unverified, dst.len() as u64);
        }
        Ok(())
    }

    /// The one protected write: under a span guard over
    /// `[off, off+len)`, reads the pre-image into a recycled frame, stores
    /// `new` with its parity patch ([`Inner::store_locked`]) and drains
    /// once, before the guard is released — so a concurrent range-locked
    /// reader (scrubber, `verify_all`) never observes new data with old
    /// parity. Log-overflow chunk claims, transaction construction and
    /// allocate-and-publish's node all write through it; a committing
    /// transaction's spans, whose pre-images it loaded, go through
    /// [`Inner::store_locked`] under one guard per object instead.
    pub(crate) fn protected_write(&self, off: u64, new: &[u8]) -> Result<()> {
        let guard = self.lock_spans(std::iter::once((off, new.len() as u64)))?;
        scratch::with_read_frames(|frames| {
            let mut parts = frames.pop().unwrap_or_default();
            let old = scratch::zeroed(&mut parts.frame, new.len());
            let r = match guard {
                Some(_) => self.io.read(off, old).map_err(PglError::from),
                None => Ok(()), // nothing consumes a pre-image
            };
            let r = r.and_then(|()| self.store_locked(&guard, off, new, old));
            scratch::park_frame(frames, parts);
            r
        })?;
        self.io.drain();
        Ok(())
    }

    /// Acquires the parity range-locks covering the data spans — `None`
    /// in modes without parity, which have no locks to take and whose
    /// write-backs already commute (threads never share objects). A
    /// committing transaction holds one guard across an object's dirty
    /// spans, which is what lets the scrubber — taking the same locks —
    /// observe every object in a data/checksum/parity-consistent state
    /// without freezing the pool.
    pub(crate) fn lock_spans(
        &self,
        spans: impl Iterator<Item = (u64, u64)> + Clone,
    ) -> Result<Option<RangeGuard<'_>>> {
        self.parity.as_ref().map(|engine| engine.lock_spans(spans)).transpose()
    }

    /// Stores `new` at `off` (non-temporal) and patches parity with
    /// `old ⊕ new` under `guard`, unfenced: durable at the caller's next
    /// fence, which it issues before it releases `guard`, so a reader
    /// under the same locks never sees the store without its patch. `old`
    /// must be what the parity row accounts for in the range — for a
    /// commit, the bytes the transaction loaded (and, where the policy
    /// verifies, verified or repaired), which the §3.4 ownership rule
    /// keeps current until commit; a scribble landing in between is not
    /// part of `old`, so it cannot leak into parity. (Without parity
    /// nothing consumes `old`.)
    pub(crate) fn store_locked(
        &self,
        guard: &Option<RangeGuard<'_>>,
        off: u64,
        new: &[u8],
        old: &[u8],
    ) -> Result<()> {
        self.io.write_nt(off, new).map_err(PglError::from)?;
        if let (Some(engine), Some(g)) = (&self.parity, guard) {
            engine.patch(g, &self.io, off, old, new)?;
        }
        Ok(())
    }

    /// Applies allocator meta ops with parity maintenance, serialized
    /// against other publishers.
    pub(crate) fn apply_meta_ops(&self, ops: &[MetaOp]) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let _guard = self.heap.publish_guard();
        self.publish_meta_ops(ops)
    }

    /// Allocator meta ops with parity maintenance; the caller holds the
    /// heap's publish guard. The ops of one parity shard go out under one
    /// span guard and one fence, issued before the guard is released: no
    /// op orders another (a committed log replays them all), and a reader
    /// under the same locks sees every word with its parity.
    pub(crate) fn publish_meta_ops(&self, ops: &[MetaOp]) -> Result<()> {
        let shard = |op: &MetaOp| self.shard_map.shard_of_off(op.target().0);
        for run in ops.chunk_by(|a, b| shard(a) == shard(b)) {
            let guard = self.lock_spans(run.iter().map(MetaOp::target))?;
            for op in run {
                self.store_meta_op(&guard, op)?;
            }
            self.io.drain();
        }
        Ok(())
    }

    /// Stores one meta op under `guard`, unfenced. With parity, the bytes
    /// read for the op (a bitmap word's read-modify-write) are also its
    /// parity patch's pre-image: one device read, kept stable by the
    /// publish guard.
    fn store_meta_op(&self, guard: &Option<RangeGuard<'_>>, op: &MetaOp) -> Result<()> {
        if guard.is_none() {
            return op.store(&self.io).map_err(PglError::from);
        }
        const MAX: usize = pgl_pmemobj::layout::RUN_HEADER_SIZE as usize;
        let (off, len) = op.target();
        let (mut old, mut new) = ([0u8; MAX], [0u8; MAX]);
        let (old, new) = (&mut old[..len as usize], &mut new[..len as usize]);
        self.io.read(off, old).map_err(PglError::from)?;
        op.image(old, new);
        self.store_locked(guard, off, new, old)
    }

    /// Raises its zone's reserved-chunk watermark over freshly reserved
    /// storage `[off, off + len)` before anything writes it (see
    /// [`crate::parity`]): every reservation path calls this before
    /// handing the storage out. Nothing to do without parity.
    pub(crate) fn reserve_rows(&self, off: u64, len: u64) -> Result<()> {
        let Some(domains) = &self.parity else { return Ok(()) };
        let (zone, last, _) = self.layout.chunk_of(off + len - 1)?;
        domains.engine_for_zone(zone).raise_watermark(&self.io, zone, last + 1)
    }

    /// The calling thread's allocation affinity as a `(shard, n_shards)`
    /// zone-order preference for the heap (see `Heap::reserve_alloc_in`).
    pub(crate) fn alloc_pref(&self) -> Option<(u64, u64)> {
        ALLOC_SHARD.with(|c| c.get()).map(|s| (s, self.shard_map.n_shards()))
    }

    /// Bumps the scrub tick; returns `true` when a scrub pass is due.
    pub(crate) fn note_commit(&self) -> bool {
        bump(&self.counters.commits, 1);
        if let CsumPolicy::ScrubEvery(n) = self.policy {
            let t = self.scrub_tick.fetch_add(1, Ordering::Relaxed) + 1;
            t % n == 0
        } else {
            false
        }
    }
}

/// What one attempt of a verified load reads of a `size`-byte object
/// (step 1 of [`Inner::load_verified`]): the user bytes `[lo, hi)`,
/// which hold segments `a..=z`, and the `n` bytes of their sum-table
/// entries — those of `max(a, 1)..=z`, at user offset `t` — in the same
/// device read as the bytes when `through`: the window then reaches the
/// object's end, where the table starts. A `vouched` window is one the
/// verification cache vouches for: read, not checked.
#[derive(Clone, Copy)]
pub(crate) struct Window {
    pub(crate) size: u64,
    pub(crate) a: u64,
    pub(crate) z: u64,
    pub(crate) lo: u64,
    pub(crate) hi: u64,
    pub(crate) t: u64,
    pub(crate) n: u64,
    pub(crate) through: bool,
    pub(crate) vouched: bool,
}

impl Window {
    pub(crate) fn new(size: u64, (a, z): (u64, u64), (lo, hi): (u64, u64), vouched: bool) -> Self {
        let (t, n) = if z > 0 { segment::entries(size, a.max(1), z) } else { (size, 0) };
        let through = n > 0 && z + 1 == segment::count(size) && hi == size;
        Window { size, a, z, lo, hi, t, n, through, vouched }
    }
}

/// One load attempt's look at the verification cache, taken when the
/// plan asks for it — a load with nothing left to check takes no lock —
/// together with the stamp its publish is validated against.
pub(crate) struct Probe<'a> {
    vcache: &'a VCache,
    off: u64,
    /// `false` on the retry after a repair, which checks what the repair
    /// rewrote rather than trusting the entry the repair published.
    trust: bool,
    stamp: Option<VerifyStamp>,
}

impl Probe<'_> {
    /// What the cache vouches for, if this attempt trusts it.
    pub(crate) fn entry(&mut self) -> Option<Entry> {
        let (stamp, entry) = self.vcache.begin_verify_probe(self.off);
        self.stamp = Some(stamp);
        entry.filter(|_| self.trust)
    }
}

/// Where a verified load lands: the destination side of
/// [`Inner::load_verified`], which drives the attempts, accounts for
/// them, publishes and repairs.
pub(crate) trait LoadDst {
    /// Plans the next attempt, asking `probe` what the cache vouches for:
    /// `None` when nothing is left to read or check.
    fn plan(&mut self, probe: &mut Probe<'_>) -> Result<Option<Window>>;

    /// Reads `w` and checks it.
    fn fill(&mut self, w: &Window) -> Result<Filled>;

    /// Takes the object as repaired from parity, its header now `hdr`.
    fn repaired(&mut self, hdr: ObjectHeader, w: &Window) -> Result<()>;
}

/// What one [`LoadDst::fill`] found.
pub(crate) enum Filled {
    /// The window holds: the bytes it checked (none when vouched), and
    /// the bytes it put in the caller's buffer (Table 4's buckets count
    /// these: a verified read's range, a micro-buffer's new bytes).
    Held { checked: u64, handed: u64 },
    /// A segment failed its check: the bytes checked, through the
    /// failing segment.
    Mismatch(u64),
}

/// A verified read's destination bytes.
pub(crate) enum ReadBuf<'a> {
    /// `dst.len()` bytes from the read's offset.
    Range(&'a mut [u8]),
    /// The whole object: the buffer takes the object's size.
    Whole(&'a mut Vec<u8>),
}

impl ReadBuf<'_> {
    /// The destination, sized for an object of `size` bytes if whole.
    fn sized(&mut self, size: u64) -> &mut [u8] {
        match self {
            ReadBuf::Range(dst) => dst,
            ReadBuf::Whole(v) => {
                v.resize(size as usize, 0);
                v
            }
        }
    }
}

/// [`Inner::verified_read`]'s destination. A miss reads the covering
/// segments into the fault scratch, checks them and copies the range out
/// — no micro-buffer: run through a read frame instead, a Conservative
/// miss costs about 150 ns more (runs, canaries and the sum list a read
/// never uses), 7 % of `kv_read` throughput on a 2-vCPU host.
struct ReadInto<'a> {
    inner: &'a Inner,
    oid: PMEMoid,
    off: u64,
    buf: ReadBuf<'a>,
    hdr: Option<ObjectHeader>,
}

impl LoadDst for ReadInto<'_> {
    #[inline]
    fn plan(&mut self, probe: &mut Probe<'_>) -> Result<Option<Window>> {
        // The stamp only: `Inner::verified_read` served what the cache
        // vouched for before the core ran.
        probe.entry();
        let (inner, off) = (self.inner, self.off);
        let hdr = match self.hdr {
            Some(hdr) => hdr,
            None => inner.obj_header_checked(self.oid)?,
        };
        self.hdr = Some(hdr);
        let dst = self.buf.sized(hdr.size);
        let len = dst.len() as u64;
        if !Inner::range_fits(off, len, hdr.size) {
            return Err(PglError::TypeMismatch { off: self.oid.off });
        }
        if !inner.mode.has_checksums() {
            inner.read_with_recovery(self.oid.off + off, dst)?;
            return Ok(None);
        }
        if len == 0 {
            return Ok(None);
        }
        let (k0, k1) = segment::covering(off, len);
        let hi = segment::bounds(hdr.size, k1).1;
        Ok(Some(Window::new(hdr.size, (k0, k1), (k0 * SEG, hi), false)))
    }

    #[inline]
    fn fill(&mut self, w: &Window) -> Result<Filled> {
        let dst = self.buf.sized(w.size);
        let read = |at: u64, buf: &mut [u8]| self.inner.read_with_recovery(self.oid.off + at, buf);
        let hdr = self.hdr.expect("a checked window has its header");
        scratch::with_fault_scratch(|s| {
            let len = (w.hi - w.lo) as usize;
            if w.through {
                read(w.lo, scratch::zeroed(&mut s.current, (w.t + w.n - w.lo) as usize))?;
            } else {
                read(w.lo, scratch::zeroed(&mut s.current, len))?;
                if w.n > 0 {
                    read(w.t, scratch::zeroed(&mut s.rebuilt, w.n as usize))?;
                    s.current.extend_from_slice(&s.rebuilt);
                }
            }
            let (data, rest) = s.current.split_at(len);
            if let Err(k) = segment::check(&hdr, w.a, w.z, data, &rest[rest.len() - w.n as usize..])
            {
                return Ok(Filled::Mismatch(segment::bounds(w.size, k).1 - w.lo));
            }
            let at = (self.off - w.lo) as usize;
            dst.copy_from_slice(&data[at..at + dst.len()]);
            Ok(Filled::Held { checked: len as u64, handed: dst.len() as u64 })
        })
    }

    fn repaired(&mut self, hdr: ObjectHeader, _: &Window) -> Result<()> {
        self.hdr = Some(hdr);
        Ok(())
    }
}

/// A fault-tolerant, DAX-style persistent object pool (the Pangolin
/// library).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pgl_nvm::{DeviceConfig, NvmDevice};
/// use pangolin::{PglConfig, PglPool};
///
/// let cfg = PglConfig::small();
/// let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
/// let pool = PglPool::create(dev, cfg).unwrap();
///
/// // Listing 2 of the paper: open, modify, commit — no direct NVMM stores.
/// let oid = pool.tx(|tx| {
///     let oid = tx.alloc(16, 1)?;
///     tx.write_pod(oid, 0, &42u64)?;
///     Ok(oid)
/// }).unwrap();
/// let mut obj = pool.open_object(oid).unwrap();
/// obj.write_pod(0, &43u64);
/// pool.commit_object(obj).unwrap();
/// assert_eq!(pool.read_pod::<u64>(oid, 0).unwrap(), 43);
/// ```
#[derive(Clone)]
pub struct PglPool {
    inner: Arc<Inner>,
}

/// A single-object handle from `pgl_open`, committed with
/// [`PglPool::commit_object`] (paper Listing 2).
pub struct ObjHandle {
    pub(crate) ubuf: UBuf,
}

impl ObjHandle {
    /// The object's OID.
    pub fn oid(&self) -> PMEMoid {
        self.ubuf.oid()
    }

    /// Read-only view of the object.
    pub fn user(&self) -> &[u8] {
        self.ubuf.user()
    }

    /// Mutable view (changes are committed by diff; see
    /// [`PglPool::commit_object`]).
    pub fn user_mut(&mut self) -> &mut [u8] {
        // The diff-commit re-opens the object in a transaction of its
        // own, so the handle's buffer needs no pre-image.
        self.ubuf.load_mut()
    }

    /// Typed read.
    pub fn read_pod<T: Pod>(&self, off: u64) -> T {
        self.ubuf.read_pod(off)
    }

    /// Typed write (marks the range explicitly).
    pub fn write_pod<T: Pod>(&mut self, off: u64, val: &T) {
        self.ubuf.write_pod(off, val);
    }
}

impl PglPool {
    /// Creates a fresh Pangolin pool, zeroing the device (which also makes
    /// the initial parity trivially consistent; the paper reports this
    /// one-time cost in §4.2).
    pub fn create(dev: Arc<NvmDevice>, cfg: PglConfig) -> Result<Self> {
        cfg.validate().map_err(PglError::Config)?;
        let layout = Layout::new(cfg.pool).map_err(PglError::from)?;
        if dev.len() != cfg.pool.size {
            return Err(PglError::Config(format!(
                "device is {} bytes but config wants {}",
                dev.len(),
                cfg.pool.size
            )));
        }
        let io = PoolIo::new(dev);
        io.set(0, 0, cfg.pool.size).map_err(PglError::from)?;
        io.persist(0, cfg.pool.size).map_err(PglError::from)?;

        let uuid = fresh_uuid();
        let mode_bits = match cfg.mode {
            PglMode::Baseline => 0u32,
            PglMode::Ml => 1,
            PglMode::Mlp => 2,
            PglMode::Mlpc => 3,
        };
        let hdr = PoolHeader {
            magic: 0x50_4D_45_4D_4F_42_4A_31, // shared pool format
            uuid,
            size: cfg.pool.size as u64,
            version: FORMAT_VERSION,
            flags: if cfg.pool.parity { FLAG_PARITY } else { 0 } | (mode_bits << FLAG_MODE_SHIFT),
            zone_size: cfg.pool.zone_size as u64,
            chunk_size: cfg.pool.chunk_size as u64,
            chunk_rows: cfg.pool.chunk_rows as u64,
            n_lanes: cfg.pool.n_lanes as u64,
            lane_size: cfg.pool.lane_size as u64,
            root_off: 0,
            root_size: 0,
            csum: 0,
            pad: 0,
        };
        write_header(&io, &layout, hdr).map_err(PglError::from)?;
        let mirror =
            if cfg.mode.replicates_logs() { LogMirror::SameDevice } else { LogMirror::None };
        Lanes::format(&io, &layout, LogMirror::SameDevice).map_err(PglError::from)?;
        Heap::format(&io, &layout).map_err(PglError::from)?;
        let parity = cfg.mode.has_parity().then(|| ParityDomains::new(layout, cfg.shards));
        if let Some(domains) = &parity {
            // Nothing past the CM chunks is written yet. Heap formatting
            // wrote the CM region with plain stores; level the parity of
            // those columns once, at creation time.
            domains.format_watermarks(&io)?;
            let cm_span = layout.zone.cm_chunks * layout.cfg.chunk_size as u64;
            for z in 0..layout.n_zones {
                domains.recompute_columns(&io, z, 0, cm_span)?;
            }
        }
        let quarantine = QuarantineSet::default();
        let counters = PglCounterCells::default();
        Self::assemble(io, layout, uuid, cfg, mirror, parity, Vec::new(), quarantine, counters)
    }

    /// Returns the pool-construction builder — the one entry point for
    /// both creating and opening pools (see [`crate::options`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pangolin::{CsumPolicy, PglPool};
    /// use pgl_nvm::{DeviceConfig, NvmDevice};
    ///
    /// let opts = PglPool::options().csum_policy(CsumPolicy::Default);
    /// let dev = Arc::new(NvmDevice::new(opts.config().pool.size, DeviceConfig::fast()).unwrap());
    ///
    /// // Create a pool, store something, and drop every handle.
    /// let pool = opts.create(dev.clone()).unwrap();
    /// let oid = pool.tx(|tx| {
    ///     let oid = tx.alloc(32, 1)?;
    ///     tx.write(oid, 0, b"survives reopen")?;
    ///     Ok(oid)
    /// }).unwrap();
    /// drop(pool);
    ///
    /// // Reopen from the same device: geometry and mode come from the
    /// // header, crash recovery runs, and the data is still there.
    /// let pool = PglPool::options().open(dev).unwrap();
    /// assert_eq!(&pool.read_verified(oid).unwrap()[..15], b"survives reopen");
    /// ```
    pub fn options() -> crate::options::OpenOptions {
        crate::options::OpenOptions::new()
    }

    /// Opens an existing Pangolin pool, reading mode and geometry from the
    /// pool header and running crash recovery (redo replay plus parity
    /// recomputation, paper §3.6). `opts` contributes only the run-time
    /// knobs: checksum policy, background scrubbing, the verification
    /// cache and the shard count.
    pub(crate) fn open_with(dev: Arc<NvmDevice>, opts: &PglConfig) -> Result<Self> {
        let io = PoolIo::new(dev);
        let hdr = read_header(&io).map_err(PglError::from)?;
        if hdr.version != FORMAT_VERSION {
            return Err(PglError::FormatVersion { found: hdr.version, supported: FORMAT_VERSION });
        }
        let mut pool_cfg = pgl_pmemobj::PoolConfig {
            size: io.dev().len(),
            zone_size: hdr.zone_size as usize,
            chunk_size: hdr.chunk_size as usize,
            chunk_rows: hdr.chunk_rows as usize,
            parity: hdr.flags & FLAG_PARITY != 0,
            n_lanes: hdr.n_lanes as usize,
            lane_size: hdr.lane_size as usize,
        };
        pool_cfg.size = hdr.size as usize;
        let mode = match (hdr.flags >> FLAG_MODE_SHIFT) & 0b11 {
            0 => PglMode::Baseline,
            1 => PglMode::Ml,
            2 => PglMode::Mlp,
            _ => PglMode::Mlpc,
        };
        let cfg = PglConfig {
            pool: pool_cfg,
            mode,
            policy: opts.policy,
            background_scrub: opts.background_scrub,
            vcache_capacity: opts.vcache_capacity,
            shards: opts.shards,
            scrub_interval_ms: opts.scrub_interval_ms,
        };
        cfg.validate().map_err(PglError::Config)?;
        let layout = Layout::new(pool_cfg).map_err(PglError::from)?;
        let mirror = if mode.replicates_logs() { LogMirror::SameDevice } else { LogMirror::None };
        // The persistent quarantine set loads before anything touches the
        // heap: recovery, repair-record replay and the heap scan must all
        // skip zones already known lost (their pages may be poisoned beyond
        // reconstruction, and reading them would fail the whole open).
        let quarantine = crate::quarantine::load(&io, &layout)?;
        // Crash recovery must run before the heap scan; its column
        // recomputes already fold only the rows under each watermark.
        let parity = mode.has_parity().then(|| ParityDomains::new(layout, cfg.shards));
        if let Some(domains) = &parity {
            domains.load_watermarks(&io, &|z| quarantine.contains(z))?;
        }
        crate::recover::crash_recover(&io, &layout, mirror, parity.as_ref(), &quarantine)?;
        let counters = PglCounterCells::default();
        crate::recover::finish_page_repair_if_pending(
            &io,
            &layout,
            parity.as_ref(),
            &quarantine,
            &counters,
        )?;
        // Detectable-CAS replay runs after redo replay: transactions win
        // the recovery order, and the ploc recompute is idempotent.
        let cas_recoveries = crate::ploc::replay_descriptors(
            &io,
            &layout,
            mirror,
            parity.as_ref(),
            mode.has_checksums(),
        )?;
        Self::assemble(
            io,
            layout,
            hdr.uuid,
            cfg,
            mirror,
            parity,
            cas_recoveries,
            quarantine,
            counters,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        io: PoolIo,
        layout: Layout,
        uuid: u64,
        cfg: PglConfig,
        mirror: LogMirror,
        parity: Option<ParityDomains>,
        cas_recoveries: Vec<crate::ploc::CasRecovery>,
        quarantine: QuarantineSet,
        counters: PglCounterCells,
    ) -> Result<Self> {
        let shard_map = ShardMap::new(&layout, cfg.shards);
        let banned = quarantine.zone_set();
        let scan = Heap::rebuild_excluding(&io, layout, cfg.mode.has_checksums(), &banned);
        let heap = match (scan, &parity) {
            (Ok(h), _) => h,
            (Err(ObjError::Corruption { off, .. }), Some(domains)) => {
                // Chunk metadata corrupt: repair its page from parity and
                // retry (paper §3.1: zone parity protects chunk metadata).
                crate::recover::repair_page_by_compare(&io, domains.engine_for(off), off)?;
                Heap::rebuild_excluding(&io, layout, true, &banned).map_err(PglError::from)?
            }
            (Err(e), _) => return Err(e.into()),
        };
        if let Some(domains) = &parity {
            // Defence in depth: no watermark below a chunk the CM calls in
            // use (a no-op unless both zone-header copies were lowered).
            for z in (0..layout.n_zones).filter(|&z| !banned.contains(&z)) {
                let end = heap.used_chunk_end(z);
                domains.engine_for_zone(z).raise_watermark(&io, z, end)?;
            }
        }
        let lanes = Lanes::load(&io, layout, mirror).map_err(PglError::from)?;
        // Background self-healing spawns one worker per parity shard —
        // each sweeps only its own zones under its own stripe locks, so
        // workers never contend with each other. Workers wake on
        // commit-tick kicks (ScrubEvery) and/or a periodic interval.
        let want_bg = cfg.background_scrub
            && (matches!(cfg.policy, CsumPolicy::ScrubEvery(_)) || cfg.scrub_interval_ms > 0);
        let mut kick_txs = Vec::new();
        let mut kick_rxs = Vec::new();
        if want_bg {
            for _ in 0..shard_map.n_shards() {
                let (a, b) = std::sync::mpsc::sync_channel::<()>(1);
                kick_txs.push(a);
                kick_rxs.push(b);
            }
        }
        let inner = Arc::new(Inner {
            io,
            layout,
            heap,
            lanes,
            uuid,
            mode: cfg.mode,
            policy: cfg.policy,
            parity,
            shard_map,
            freeze: Freeze::new(),
            vuln: Vuln::new(),
            vcache: VCache::new(cfg.vcache_capacity, cfg.mode.has_checksums())
                .with_affinity(shard_map),
            counters,
            scrub_tick: AtomicU64::new(0),
            scrub_progress: (0..shard_map.n_shards())
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
            cas_recoveries,
            linking: crate::ploc::Linking::new(),
            quarantine,
            scrub_totals: std::sync::Mutex::new(ScrubTotals::default()),
            background_scrub: want_bg.then_some(kick_txs),
        });
        for (shard, rx) in kick_rxs.into_iter().enumerate() {
            // Each worker holds a Weak reference, so dropping the last pool
            // handle disconnects its kick channel and the thread exits.
            let weak = Arc::downgrade(&inner);
            let interval_ms = cfg.scrub_interval_ms;
            std::thread::Builder::new()
                .name(format!("pgl-scrub-{shard}"))
                .spawn(move || scrub::bg_worker(weak, shard as u64, rx, interval_ms))
                .map_err(|e| PglError::Config(format!("cannot spawn scrub worker: {e}")))?;
        }
        Ok(PglPool { inner })
    }

    /// The pool UUID.
    pub fn uuid(&self) -> u64 {
        self.inner.uuid
    }

    /// The fault-tolerance mode.
    pub fn mode(&self) -> PglMode {
        self.inner.mode
    }

    /// The resolved layout.
    pub fn layout(&self) -> &Layout {
        &self.inner.layout
    }

    /// The underlying I/O layer (tests and fault injection).
    pub fn io(&self) -> &PoolIo {
        &self.inner.io
    }

    /// A snapshot of the pool's counters ([`crate::counters`]).
    pub fn counters(&self) -> PglCounters {
        self.inner.counters.snapshot()
    }

    /// The cells behind [`PglPool::counters`] (fault injection bumps them).
    pub(crate) fn cells(&self) -> &PglCounterCells {
        &self.inner.counters
    }

    /// Vulnerability counters (Table 4).
    pub fn vuln(&self) -> VulnSnapshot {
        self.inner.vuln.snapshot(&self.counters())
    }

    /// Runs `f` inside a fault-tolerant transaction.
    pub fn tx<R>(&self, f: impl FnOnce(&mut PglTx<'_>) -> Result<R>) -> Result<R> {
        self.tx_with_stats(f).map(|(r, _)| r)
    }

    /// Like [`PglPool::tx`], also returning instrumentation counters.
    pub fn tx_with_stats<R>(
        &self,
        f: impl FnOnce(&mut PglTx<'_>) -> Result<R>,
    ) -> Result<(R, TxStats)> {
        let inner = &*self.inner;
        while inner.freeze.is_frozen() {
            std::thread::yield_now();
        }
        let lane = inner.lanes.claim(&inner.io);
        let mut tx = PglTx::new(inner, lane);
        match f(&mut tx) {
            Ok(r) => {
                let stats = tx.commit()?;
                let scrub_due = inner.note_commit();
                if scrub_due {
                    self.trigger_scrub()?;
                }
                Ok((r, stats))
            }
            Err(e) => {
                tx.abort()?;
                bump(&inner.counters.aborts, 1);
                Err(e)
            }
        }
    }

    /// Runs `n` logical transactions as **one group commit**: a single
    /// lane, a single micro-buffered transaction, and therefore a single
    /// redo-log persist, commit fence, and parity-patch window for the
    /// whole batch — the amortization the network service's batcher is
    /// built on. `f` is called with `0..n`; results are returned in order.
    ///
    /// Semantics are all-or-nothing: if any body fails, the whole batch
    /// aborts (no earlier body's effects survive) and the error is
    /// returned. A crash during the batch recovers to *either* none or all
    /// of the batch — never a partially applied body — because the batch
    /// shares one commit record; callers that need per-transaction error
    /// isolation re-run the bodies individually on failure.
    ///
    /// Bodies observe read-your-writes across the batch (they share the
    /// transaction's micro-buffers), so a later body sees an earlier
    /// body's writes exactly as if the transactions had committed
    /// back-to-back. The paper's §3.4 rule still applies between
    /// *concurrent* batches: no two in-flight batches may modify the same
    /// object.
    pub fn tx_batch<R>(
        &self,
        n: usize,
        mut f: impl FnMut(usize, &mut PglTx<'_>) -> Result<R>,
    ) -> Result<Vec<R>> {
        let inner = &*self.inner;
        while inner.freeze.is_frozen() {
            std::thread::yield_now();
        }
        let lane = inner.lanes.claim(&inner.io);
        let mut tx = PglTx::new(inner, lane);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match f(i, &mut tx) {
                Ok(r) => out.push(r),
                Err(e) => {
                    tx.abort()?;
                    bump(&inner.counters.aborts, 1);
                    return Err(e);
                }
            }
        }
        tx.commit()?;
        bump(&inner.io.dev().cells().group_commits, 1);
        bump(&inner.io.dev().cells().group_txns, n as u64);
        let scrub_due = inner.note_commit();
        if scrub_due {
            self.trigger_scrub()?;
        }
        Ok(out)
    }

    fn trigger_scrub(&self) -> Result<()> {
        if let Some(kicks) = &self.inner.background_scrub {
            for txc in kicks {
                let _ = txc.try_send(()); // a pass is already queued if full
            }
            Ok(())
        } else {
            scrub::scrub_sync(&self.inner).map(|_| ())
        }
    }

    /// Runs a synchronous scrub pass now (paper §3.3 "Scrub" mode).
    pub fn scrub_now(&self) -> Result<ScrubReport> {
        scrub::scrub_sync(&self.inner)
    }

    /// Returns the root object, allocating a zeroed one on first use.
    pub fn root(&self, size: u64, type_num: u32) -> Result<PMEMoid> {
        {
            let hdr = read_header(&self.inner.io).map_err(PglError::from)?;
            if hdr.root_off != 0 {
                return Ok(PMEMoid::new(self.inner.uuid, hdr.root_off));
            }
        }
        let oid = self.tx(|tx| tx.alloc(size, type_num))?;
        let mut hdr = read_header(&self.inner.io).map_err(PglError::from)?;
        hdr.root_off = oid.off;
        hdr.root_size = size;
        write_header(&self.inner.io, &self.inner.layout, hdr).map_err(PglError::from)?;
        Ok(oid)
    }

    /// Returns the current root OID (null if none).
    pub fn root_oid(&self) -> Result<PMEMoid> {
        let hdr = read_header(&self.inner.io).map_err(PglError::from)?;
        Ok(if hdr.root_off == 0 { OID_NULL } else { PMEMoid::new(self.inner.uuid, hdr.root_off) })
    }

    /// `pgl_get`: direct object read without checksum verification (unless
    /// the Conservative policy is active). Media errors recover online.
    pub fn read(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> Result<()> {
        self.inner.check_oid(oid)?;
        self.inner.direct_read(oid, off, dst)
    }

    /// Typed `pgl_get`. Reads straight into a stack value — no heap
    /// buffer on this hot path.
    pub fn read_pod<T: Pod>(&self, oid: PMEMoid, off: u64) -> Result<T> {
        let mut v = pgl_nvm::pod::zeroed::<T>();
        self.read(oid, off, pgl_nvm::pod::bytes_of_mut(&mut v))?;
        Ok(v)
    }

    /// Detectable compare-and-swap on the 8-byte word at `off` inside
    /// `oid`'s user data (the `ploc` fast path, see [`crate::ploc`]):
    /// patches the word's segment sum and the word's parity column at word
    /// granularity under a stripe guard over just those two words — no
    /// whole-object span guard, no redo log, two fences. `tag` names the
    /// operation; after a crash, [`PglPool::cas_recoveries`] reports
    /// whether the tagged operation completed or rolled back. Durable (and
    /// crash-replayable) the moment it returns
    /// [`crate::ploc::WordCas::Applied`].
    pub fn atomic_update(
        &self,
        oid: PMEMoid,
        off: u64,
        expected: u64,
        new: u64,
        tag: u64,
    ) -> Result<crate::ploc::WordCas> {
        let lane = self.inner.lanes.claim(&self.inner.io);
        self.inner.word_cas(&lane, oid, off, expected, new, tag)
    }

    /// Allocate-and-publish: builds a new `init.len()`-byte object of
    /// `type_num` holding `init` in a run block and links its offset into
    /// the 8-byte word at `off` inside `target` with one detectable CAS
    /// against `expected` — four fences, no transaction, no redo log (see
    /// [`crate::ploc`]). `tag` names the operation as in
    /// [`PglPool::atomic_update`]. On [`crate::ploc::NewCas::Applied`] the
    /// node is durably constructed, linked and allocated; on
    /// [`crate::ploc::NewCas::Mismatch`] nothing was allocated. Objects
    /// too large for a run block are refused with [`PglError::Config`].
    pub fn atomic_publish_new(
        &self,
        target: PMEMoid,
        off: u64,
        expected: u64,
        type_num: u32,
        init: &[u8],
        tag: u64,
    ) -> Result<crate::ploc::NewCas> {
        let mut lane = self.inner.lanes.claim(&self.inner.io);
        self.inner.publish_new(&mut lane, target, off, expected, type_num, init, tag)
    }

    /// Atomically reads the 8-byte word at `off` inside `oid`'s user data
    /// (acquire ordering against concurrent [`PglPool::atomic_update`]s).
    /// No checksum verification — lock-free traversals read words whose
    /// coherence the CAS protocol, not the checksum, guarantees; the read
    /// is counted in the unverified-bytes vulnerability bucket.
    pub fn atomic_load(&self, oid: PMEMoid, off: u64) -> Result<u64> {
        self.inner.check_oid(oid)?;
        if off % 8 != 0 {
            return Err(PglError::Config(format!("atomic_load offset {off} not 8-byte aligned")));
        }
        if self.inner.mode.has_checksums() {
            bump(&self.inner.counters.unverified, 8);
        }
        self.inner.io.dev().atomic_load_u64(oid.off + off).map_err(PglError::from)
    }

    /// The CAS descriptors replayed when this pool was opened after a
    /// crash (see [`crate::ploc`]): one entry per lane whose operation was
    /// in flight, reporting whether it completed or rolled back. Empty
    /// for freshly created pools.
    pub fn cas_recoveries(&self) -> &[crate::ploc::CasRecovery] {
        &self.inner.cas_recoveries
    }

    /// The object's header metadata `(user size, type number)`, with
    /// media recovery (used by the typed layer's debug brand checks,
    /// hence unused — not dead — in release builds).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn obj_meta(&self, oid: PMEMoid) -> Result<(u64, u32)> {
        self.inner.check_oid(oid)?;
        let h = self.inner.obj_header_checked(oid)?;
        Ok((h.size, h.type_num))
    }

    /// Reads the whole object with checksum verification (and online
    /// recovery), regardless of policy. A verification-cache hit on every
    /// segment serves the object with one read and no checksum pass;
    /// hot callers that also want to skip the returned `Vec` should use
    /// [`PglPool::read_verified_into`].
    pub fn read_verified(&self, oid: PMEMoid) -> Result<Vec<u8>> {
        self.inner.check_oid(oid)?;
        let mut v = Vec::new();
        self.inner.verified_read(oid, 0, ReadBuf::Whole(&mut v), None, None)?;
        Ok(v)
    }

    /// Reads the whole object and checks every segment, repairing nothing
    /// and publishing nothing to the verification cache: the crash
    /// oracle's audit ([`crate::crashcheck`]), which must not change what
    /// the next transaction loads.
    pub(crate) fn audit(&self, oid: PMEMoid) -> Result<Vec<u8>> {
        let inner = &*self.inner;
        let mut hb = [0u8; 16];
        inner.read_with_recovery(oid.header_off(), &mut hb)?;
        inner.check_image(oid, &from_bytes(&hb), true)
    }

    /// [`PglPool::read_verified`] into a caller-supplied buffer: fills
    /// `dst` from the start of the object without allocating. `dst` may
    /// be shorter than the object; a `dst` longer than the object fails
    /// with [`PglError::TypeMismatch`]. On a cache hit only `dst.len()`
    /// bytes are read from NVMM.
    pub fn read_verified_into(&self, oid: PMEMoid, dst: &mut [u8]) -> Result<()> {
        self.read_verified_at(oid, 0, dst)
    }

    /// Range-granular verified read: fills `dst` from `[off, off+len)` of
    /// the object with verification coverage — a single range-sized NVMM
    /// read when the verification cache vouches for the segments it
    /// covers, those segments read and checked (which populates the cache)
    /// otherwise. Out-of-bounds ranges fail with [`PglError::TypeMismatch`].
    pub fn read_verified_at(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> Result<()> {
        self.inner.check_oid(oid)?;
        self.inner.verified_read(oid, off, ReadBuf::Range(dst), None, None)
    }

    /// `pgl_open`: creates a standalone micro-buffer for single-object
    /// updates, verifying the object first (paper Listing 2). The
    /// whole-object copy is inherent to the handle; segments the
    /// verification cache vouches for skip their checksum pass.
    pub fn open_object(&self, oid: PMEMoid) -> Result<ObjHandle> {
        self.inner.check_oid(oid)?;
        let inner = &*self.inner;
        let mut ubuf = scratch::with_read_frames(|frames| inner.open_ubuf(oid, frames))?;
        let size = ubuf.user_size() as u64;
        inner.load_range(&mut ubuf, 0, size)?;
        Ok(ObjHandle { ubuf })
    }

    /// `pgl_commit`: atomically writes a single-object handle back,
    /// updating checksum and parity. The handle is diffed at cache-line
    /// granularity against the commit transaction's own checked load of
    /// the object — the one read of it — so paper-style `obj.field = x`
    /// edits (without explicit range marking) commit too, and a scribble
    /// that landed since the open is repaired by that load instead of
    /// being taken for a change.
    pub fn commit_object(&self, handle: ObjHandle) -> Result<()> {
        handle.ubuf.check_canaries()?;
        let oid = handle.ubuf.oid();
        let result = self.tx(|tx| {
            tx.open(oid)?;
            let b = tx.ubuf_mut(oid)?;
            let new = handle.ubuf.user();
            for at in (0..new.len()).step_by(64) {
                let end = (at + 64).min(new.len());
                if b.user()[at..end] != new[at..end] {
                    b.write(at as u64, &new[at..end]);
                }
            }
            Ok(())
        });
        // Recycle the handle's frame: the open/commit cycle (paper
        // Listing 2) then allocates nothing in steady state.
        scratch::with_read_frames(|frames| scratch::park_frame(frames, handle.ubuf.into_parts()));
        result
    }

    /// Lists all live objects (quarantined zones excluded — their objects
    /// are lost, not live).
    pub fn live_objects(&self) -> Result<Vec<(PMEMoid, ObjectHeader)>> {
        Ok(scan_live_excluding(
            &self.inner.io,
            &self.inner.layout,
            &self.inner.quarantine.zone_set(),
        )
        .map_err(PglError::from)?
        .into_iter()
        .map(|(off, h)| (PMEMoid::new(self.inner.uuid, off), h))
        .collect())
    }

    /// `zone`'s reserved-chunk watermark: chunks at or above it have never
    /// been written and stay out of every parity fold (see
    /// [`crate::parity`]). `None` in modes without parity or for a zone
    /// the pool does not have.
    pub fn watermark(&self, zone: u64) -> Option<u64> {
        let domains = self.inner.parity.as_ref()?;
        (zone < self.inner.layout.n_zones).then(|| domains.watermark(zone))
    }

    /// Verifies the parity invariant across the whole pool (diagnostics).
    pub fn verify_parity(&self) -> Result<bool> {
        Ok(self.verify_parity_detailed()?.is_empty())
    }

    /// Verifies the parity invariant and returns **every** mismatching
    /// `(shard, zone, column)` window (empty = consistent; modes without
    /// parity are trivially consistent). The full list makes multi-threaded
    /// stress-test failures diagnosable: the damage pattern tells one torn
    /// commit apart from a systematic locking bug, and the shard coordinate
    /// tells which domain's committers to suspect.
    /// Quarantined zones are skipped: their pages hold unreconstructable
    /// losses, so their parity invariant is knowingly broken and checking
    /// it would only re-report the already-surfaced fault.
    pub fn verify_parity_detailed(&self) -> Result<Vec<(u64, u64, u64)>> {
        match &self.inner.parity {
            Some(d) => {
                let q = &self.inner.quarantine;
                if q.is_empty() {
                    d.verify_all(&self.inner.io)
                } else {
                    d.verify_all_except(&self.inner.io, &|z| q.contains(z))
                }
            }
            None => Ok(Vec::new()),
        }
    }

    /// Number of parity shards (domains) this pool handle runs with. `1`
    /// for unsharded pools; the count is a runtime knob
    /// ([`crate::OpenOptions::shards`]), not a persistent property.
    pub fn shards(&self) -> usize {
        self.inner.shard_map.n_shards() as usize
    }

    /// The zone→shard routing map.
    pub fn shard_map(&self) -> ShardMap {
        self.inner.shard_map
    }

    /// Binds the calling thread's allocations to parity shard `shard`
    /// (modulo the shard count): [`PglTx::alloc`] fills that shard's zones
    /// first, so a thread's objects — and therefore its commits' parity
    /// traffic — stay inside one domain. The service layer binds each of
    /// its shard workers this way so group commits never cross domains.
    pub fn bind_thread_to_shard(&self, shard: usize) {
        let s = shard as u64 % self.inner.shard_map.n_shards();
        ALLOC_SHARD.with(|c| c.set(Some(s)));
    }

    /// Clears the calling thread's shard affinity
    /// (see [`PglPool::bind_thread_to_shard`]).
    pub fn unbind_thread_from_shard(&self) {
        ALLOC_SHARD.with(|c| c.set(None));
    }

    /// Per-shard scrub progress: `(objects scrubbed, objects total)` of
    /// the current pass for each shard — the per-shard cursor that
    /// replaced the scrubber's old single global position. Totals are 0
    /// before the first pass.
    pub fn scrub_progress(&self) -> Vec<(u64, u64)> {
        self.inner
            .scrub_progress
            .iter()
            .map(|(d, t)| (d.load(Ordering::Relaxed), t.load(Ordering::Relaxed)))
            .collect()
    }

    /// The currently quarantined zone ids (ascending; normally empty).
    /// A zone enters quarantine when a fault exceeds the parity guarantee —
    /// two lost pages in one column, or corruption that survives repair —
    /// and stays there across reopens: access fails fast with a located
    /// [`PglError::Unrecoverable`], allocation and scrubbing skip it, and
    /// every other zone keeps serving.
    pub fn quarantined_zones(&self) -> Vec<u64> {
        self.inner.quarantine.zones()
    }

    /// Administratively quarantines `zone` (operator fencing: take a zone
    /// with suspect media out of service before it double-faults). The
    /// same persistent, crash-atomic path the double-fault detector uses.
    pub fn quarantine_zone(&self, zone: u64) -> Result<()> {
        if zone >= self.inner.layout.n_zones {
            return Err(PglError::Config(format!(
                "zone {zone} out of range ({} zones)",
                self.inner.layout.n_zones
            )));
        }
        self.inner.quarantine_zone(zone);
        Ok(())
    }

    /// Aggregated background-scrub activity: completed per-shard passes
    /// and what they verified/repaired ([`ScrubTotals`]). All zeros when
    /// background scrubbing is off.
    pub fn scrub_totals(&self) -> crate::scrub::ScrubTotals {
        *self.inner.scrub_totals.lock().unwrap()
    }

    /// Verifies every live object's checksum without repair (diagnostics).
    /// Returns offsets of corrupt objects.
    pub fn find_corrupt_objects(&self) -> Result<Vec<u64>> {
        let mut bad = Vec::new();
        for (oid, hdr) in self.live_objects()? {
            if self.inner.check_image(oid, &hdr, false).is_err() {
                bad.push(oid.off);
            }
        }
        Ok(bad)
    }

    /// Drops the object's verified-generation cache entry (fault-injection
    /// support; see [`crate::inject`]).
    pub(crate) fn vcache_bump(&self, off: u64) {
        self.inner.vcache.bump(off);
    }
}

fn fresh_uuid() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new().build_hasher().finish() | 1
}
