//! Recovery: crash recovery at open, and online recovery from media
//! errors and scribbles (paper §3.6).
//!
//! **Crash recovery** replays committed redo logs (object ranges, headers,
//! allocator ops) and then *recomputes* every parity column the transaction
//! could have torn — the replayed ranges, the allocator-op targets, and any
//! construction areas named by allocation-intent records. Recomputation
//! (rather than patching) makes recovery idempotent. It is one serial
//! pass at open: neither the shard count nor the parity-lock granule
//! ([`crate::parity::LOCK_GRANULE`]) changes which device operations it
//! issues; it recomputes columns with plain stores, as every parity patch
//! now does.
//!
//! **Online corruption recovery** freezes the pool (no commit may be
//! mid-parity-update) and rebuilds at the granularity of the damage: a
//! media error's lost page from its *page column*, under a persistent
//! repair record that re-executes an interrupted repair at the next open;
//! a checksum failure from its *range column*, rewriting only the cache
//! lines that differ — the object's header first, then only the segments
//! that fail their sums ([`crate::segment`]), each with its sum, in one
//! fold (`Inner::recover_object_frozen`). Every column fold — these and
//! the crash-recovery recompute — reads only the rows under the zone's
//! reserved-chunk watermark ([`crate::parity`]). A lost page of the zone
//! header reserve is rebuilt from the watermark's other copy.

use pgl_nvm::{CACHELINE, PAGE_SIZE};
use pgl_pmemobj::heap::MetaOp;
use pgl_pmemobj::lane::{Lanes, LogMirror};
use pgl_pmemobj::ulog::{self, payload, Entry, EntryKind};
use pgl_pmemobj::{Layout, ObjectHeader, PoolIo, OBJ_HEADER_SIZE};

use crate::error::{PglError, Result};
use crate::parity::{segments, LeftOut, ParityDomains, ParityEngine};
use crate::pool::Inner;
use crate::quarantine::QuarantineSet;
use crate::scratch::{self, FaultScratch};
use crate::segment;

/// Bytes of an object header, as an index.
const HDR: usize = OBJ_HEADER_SIZE as usize;

/// Offset (within the pool-header page) of the persistent repair record.
const REPAIR_RECORD_OFF: u64 = 1024;
const REPAIR_MAGIC: u64 = 0x5245_5041_4952_3031; // "REPAIR01"

/// Replays all lanes after a crash: committed transactions complete,
/// uncommitted ones leave no trace, and parity is re-levelled for every
/// column they might have torn. One serial pass, whatever the pool's shard
/// count:
///
/// 1. **Scan**: read every lane's log, decide commit status, and apply the
///    cross-shard roll-forward rule — a committed lane carrying a
///    [`EntryKind::CrossShard`] marker vouches for its secondary lane iff
///    that lane's generation still matches the marker (the ordered
///    two-shard commit wrote the secondary's entries, then the primary's
///    commit fence, then the secondary's own commit record; a crash in the
///    window leaves the secondary commit-less but vouched-for).
/// 2. **Replay**: in lane order, redo committed data ranges and re-apply
///    committed allocator meta ops; then recompute every column they, or
///    an allocation intent (committed or not), may have torn; then return
///    the orphan log chunks of every zone that is not quarantined.
/// 3. **Invalidate**: bump every swept lane's generation. Any crash before
///    this phase re-runs the whole (idempotent) pass.
pub fn crash_recover(
    io: &PoolIo,
    layout: &Layout,
    mirror: LogMirror,
    parity: Option<&ParityDomains>,
    quarantine: &QuarantineSet,
) -> Result<()> {
    // Phase 1: scan lanes, in lane order. The scan reads each log copy in
    // windows that stop where its entries stop (`Lanes::read_entries`), so
    // an idle lane costs one window per copy however large the lane is.
    let mut lanes: Vec<(u32, Vec<Entry>, bool)> = Vec::new();
    for l in 0..layout.cfg.n_lanes as u32 {
        let entries = Lanes::read_entries(io, layout, l, mirror).map_err(PglError::from)?;
        if !entries.is_empty() {
            let committed = ulog::is_committed(&entries);
            lanes.push((l, entries, committed));
        }
    }
    let mut forced: Vec<u32> = Vec::new();
    for (_, entries, committed) in &lanes {
        if !*committed {
            continue;
        }
        for e in entries {
            if e.kind == EntryKind::CrossShard {
                let (lane, gen) = payload::parse_cross_shard(&e.payload);
                if Lanes::read_gen(io, layout, lane, mirror).map_err(PglError::from)? == gen {
                    forced.push(lane);
                }
            }
        }
    }
    for (l, _, committed) in lanes.iter_mut() {
        if forced.contains(l) {
            *committed = true;
        }
    }

    // Phase 2: replay. Effects targeting quarantined zones are dropped:
    // the data there is already lost beyond reconstruction, and replaying
    // into (or recomputing parity over) unreadable pages would fail the
    // open.
    let skip = |off: u64| {
        !quarantine.is_empty()
            && layout.zone_and_rel(off).is_ok_and(|(z, _)| quarantine.contains(z))
    };
    let mut dirty: Vec<(u64, u64)> = Vec::new();
    for (_, entries, committed) in &lanes {
        for e in entries {
            match e.kind {
                EntryKind::Data if *committed && !skip(e.off) => {
                    io.write(e.off, &e.payload).map_err(PglError::from)?;
                    io.persist(e.off, e.payload.len()).map_err(PglError::from)?;
                    dirty.push((e.off, e.payload.len() as u64));
                }
                EntryKind::AllocIntent if !skip(e.off) => {
                    // Construction write-back may have torn parity whether
                    // or not the transaction committed.
                    let len = u64::from_le_bytes(e.payload[..8].try_into().expect("len checked"));
                    dirty.push((e.off, len));
                }
                _ if *committed => {
                    if let Some(op) = MetaOp::decode(e) {
                        let (off, len) = op.target();
                        if !skip(off) {
                            op.apply(io).map_err(PglError::from)?;
                            dirty.push((off, len));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    if let Some(domains) = parity {
        for &(off, len) in &dirty {
            for seg in segments(layout, off, len)? {
                domains.recompute_columns(io, seg.zone, seg.col, seg.len)?;
            }
        }
    }
    for z in (0..layout.n_zones).filter(|z| !quarantine.contains(*z)) {
        sweep_orphan_log_chunks_zone(io, layout, parity, z)?;
    }

    // Phase 3: invalidate swept lanes.
    for (l, _, _) in &lanes {
        Lanes::invalidate(io, layout, *l, mirror).map_err(PglError::from)?;
    }
    Ok(())
}

/// Returns every `Log`-typed chunk of `zone` to `Free` after all lanes are
/// replayed. With parity, the chunk is zeroed first (parity-neutral: `Log`
/// chunks are excluded, and their parity contribution was levelled to zero
/// when they were claimed), and the CM-entry columns are recomputed.
fn sweep_orphan_log_chunks_zone(
    io: &PoolIo,
    layout: &Layout,
    parity: Option<&ParityDomains>,
    z: u64,
) -> Result<()> {
    use pgl_pmemobj::heap::run::{ChunkMeta, ChunkType};
    let free = ChunkMeta::new(ChunkType::Free, 0, 0).to_bytes();
    let mut c = layout.zone.cm_chunks;
    while c < layout.zone.n_chunks {
        let mut buf = [0u8; 16];
        io.read(layout.cm_entry_off(z, c), &mut buf).map_err(PglError::from)?;
        let cm = ChunkMeta::from_slice(&buf);
        let mut advance = 1u64;
        match cm.chunk_type() {
            Some(ChunkType::Log) => {
                io.set(layout.chunk_base(z, c), 0, layout.cfg.chunk_size)
                    .map_err(PglError::from)?;
                io.persist(layout.chunk_base(z, c), layout.cfg.chunk_size)
                    .map_err(PglError::from)?;
                let cm_off = layout.cm_entry_off(z, c);
                if let Some(domains) = parity {
                    // First re-level the CM column against the current
                    // (still-`Log`) entry — the tear being repaired may
                    // be in this very column. Then flip Log→Free with
                    // the parity-first protocol: a crash anywhere in
                    // between leaves the entry reading `Log`, so the
                    // next open's sweep redoes exactly this sequence
                    // (recovery stays idempotent).
                    for seg in segments(layout, cm_off, 16)? {
                        domains.recompute_columns(io, seg.zone, seg.col, seg.len)?;
                    }
                    domains.flip_cm_parity_first(io, cm_off, &free)?;
                } else {
                    io.write(cm_off, &free).map_err(PglError::from)?;
                    io.persist(cm_off, 16).map_err(PglError::from)?;
                }
            }
            Some(ChunkType::Large) => advance = cm.size_idx.max(1) as u64,
            _ => {}
        }
        c += advance;
    }
    Ok(())
}

/// Reconstructs `[off, off+len)` from parity and rewrites (and persists)
/// exactly the cache lines whose current content differs. Returns `true`
/// if a repair was applied.
///
/// Because every legitimate data write also patches parity, a divergence
/// between a range and its column reconstruction is exactly the signature
/// of a scribble (which bypassed the library). The reconstruction *is* the
/// parity-consistent content, so the repair writes directly, without a
/// parity update — and is therefore idempotent: after a crash mid-repair
/// the remaining lines still diverge and the next detection repairs them.
pub fn repair_range_by_compare(
    io: &PoolIo,
    engine: &ParityEngine,
    off: u64,
    len: u64,
) -> Result<bool> {
    scratch::with_fault_scratch(|s| {
        scratch::with_left_out(|lo| {
            io.read(off, scratch::zeroed(&mut s.current, len as usize)).map_err(PglError::from)?;
            repair_image(io, engine, lo, s, off, &[(off, len)])
        })
    })
}

/// The compare-repair pass behind [`repair_range_by_compare`] and object
/// repair: rebuilds every `(off, len)` of `ranges` — sorted, disjoint,
/// inside the image — from parity in one fold (each chunk column's
/// left-out rows resolved once, in `left_out`), and rewrites exactly the
/// cache lines whose bytes in the image differ, patching the image to
/// match. The image is `s.current`: what media holds from `base`. One
/// drain covers every rewritten line. Returns `true` if a line was
/// rewritten.
fn repair_image(
    io: &PoolIo,
    engine: &ParityEngine,
    left_out: &mut LeftOut,
    s: &mut FaultScratch,
    base: u64,
    ranges: &[(u64, u64)],
) -> Result<bool> {
    let total = ranges.iter().map(|&(_, len)| len as usize).sum();
    let rebuilt = scratch::zeroed(&mut s.rebuilt, total);
    engine.reconstruct_ranges(io, ranges, rebuilt, left_out)?;
    let mut repaired = false;
    let mut from = 0;
    for &(off, len) in ranges {
        let (n, at) = (len as usize, (off - base) as usize);
        let (new, current) = (&rebuilt[from..from + n], &mut s.current[at..at + n]);
        from += n;
        // Device cache lines are absolute, so the first piece of an
        // unaligned range is short.
        let mut i = 0;
        while i < n {
            let end = n.min(i + CACHELINE - (off as usize + i) % CACHELINE);
            if current[i..end] != new[i..end] {
                io.write(off + i as u64, &new[i..end]).map_err(PglError::from)?;
                io.flush(off + i as u64, end - i).map_err(PglError::from)?;
                current[i..end].copy_from_slice(&new[i..end]);
                repaired = true;
            }
            i = end;
        }
    }
    if repaired {
        io.drain();
    }
    Ok(repaired)
}

/// The storage object repair rebuilds for the `failing` segments (in
/// ascending order) of a `size`-byte object whose slot is `[start, end)`:
/// each segment with its sum — segment 0 with the header in front of it, a
/// middle segment with its table entry, the last segment through the end
/// of the slot (pad, table and unused tail: what an overrun leaving the
/// object through its tail hits). Sorted, adjacent ranges coalesced, as
/// `(off, len)`.
fn segment_ranges(size: u64, start: u64, end: u64, failing: &[u64]) -> Vec<(u64, u64)> {
    let user = start + OBJ_HEADER_SIZE;
    let last = segment::count(size) - 1;
    let mut spans: Vec<(u64, u64)> = Vec::with_capacity(2 * failing.len());
    for &k in failing {
        let (s, e) = segment::bounds(size, k);
        let lo = if k == 0 { start } else { user + s };
        spans.push((lo, if k == last { end } else { user + e }));
        if k != 0 && k != last {
            let entry = user + segment::entry_off(size, k);
            spans.push((entry, entry + segment::ENTRY));
        }
    }
    spans.sort_unstable();
    let mut ranges: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for (lo, hi) in spans {
        match ranges.last_mut() {
            Some((off, len)) if lo <= *off + *len => *len = (*len).max(hi - *off),
            _ => ranges.push((lo, hi - lo)),
        }
    }
    ranges
}

/// [`repair_range_by_compare`] over the page containing `off` — the unit
/// for metadata damage that no object checksum localises.
pub fn repair_page_by_compare(io: &PoolIo, engine: &ParityEngine, off: u64) -> Result<bool> {
    repair_range_by_compare(io, engine, off & !(PAGE_SIZE as u64 - 1), PAGE_SIZE as u64)
}

/// Reconstructs the lost page at `page_off` from its page column and
/// repairs the device page with it.
fn rebuild_page(io: &PoolIo, engine: &ParityDomains, page_off: u64) -> Result<()> {
    scratch::with_fault_scratch(|s| {
        let rebuilt = scratch::zeroed(&mut s.rebuilt, PAGE_SIZE);
        engine.reconstruct_page(io, page_off, rebuilt)?;
        io.dev().repair_page(page_off / PAGE_SIZE as u64, rebuilt).map_err(PglError::from)
    })
}

fn write_repair_record(io: &PoolIo, layout: &Layout, page_off: u64) -> Result<()> {
    for base in [layout.hdr_off, layout.hdr_replica_off] {
        io.write(base + REPAIR_RECORD_OFF, &REPAIR_MAGIC.to_le_bytes()).map_err(PglError::from)?;
        io.write(base + REPAIR_RECORD_OFF + 8, &page_off.to_le_bytes()).map_err(PglError::from)?;
        io.persist(base + REPAIR_RECORD_OFF, 16).map_err(PglError::from)?;
    }
    Ok(())
}

fn clear_repair_record(io: &PoolIo, layout: &Layout) -> Result<()> {
    for base in [layout.hdr_off, layout.hdr_replica_off] {
        io.write(base + REPAIR_RECORD_OFF, &0u64.to_le_bytes()).map_err(PglError::from)?;
        io.persist(base + REPAIR_RECORD_OFF, 8).map_err(PglError::from)?;
    }
    Ok(())
}

/// At pool open: if a crash interrupted a page repair, re-execute it
/// (recovery is idempotent, paper §3.6). A page whose zone is quarantined —
/// or whose reconstruction *still* double-faults — is given up on: the
/// zone is quarantined persistently, the record cleared, and the open
/// proceeds in degraded mode instead of failing.
pub fn finish_page_repair_if_pending(
    io: &PoolIo,
    layout: &Layout,
    parity: Option<&ParityDomains>,
    quarantine: &QuarantineSet,
) -> Result<()> {
    let mut rec = [0u8; 16];
    for base in [layout.hdr_off, layout.hdr_replica_off] {
        if io.read(base + REPAIR_RECORD_OFF, &mut rec).is_err() {
            continue;
        }
        let magic = u64::from_le_bytes(rec[..8].try_into().expect("8"));
        if magic != REPAIR_MAGIC {
            continue;
        }
        let page_off = u64::from_le_bytes(rec[8..].try_into().expect("8"));
        let zone = layout.zone_and_rel(page_off).ok().map(|(z, _)| z);
        if let Some(z) = zone {
            if quarantine.contains(z) {
                clear_repair_record(io, layout)?;
                return Ok(());
            }
        }
        if let Some(engine) = parity {
            match rebuild_page(io, engine, page_off) {
                Ok(()) => {}
                Err(e) if e.is_unrecoverable() => {
                    if let Some(z) = zone {
                        if quarantine.insert(z) {
                            io.dev().note_zone_quarantined();
                            let _ = crate::quarantine::persist_zone(io, layout, z);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        clear_repair_record(io, layout)?;
        return Ok(());
    }
    Ok(())
}

impl Inner {
    /// Online recovery of a poisoned page: freeze, reconstruct, repair
    /// (paper §3.6 "corruption recovery").
    pub(crate) fn online_recover_page(&self, page: u64) -> Result<()> {
        self.freeze.freeze();
        let r = self.recover_page_frozen(page);
        self.freeze.unfreeze();
        if r.is_ok() {
            self.counters.page_recoveries.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.io.dev().note_repair_ok();
        } else {
            self.io.dev().note_repair_failed();
        }
        r
    }

    /// Page recovery with the pool already frozen (used by the scrubber).
    pub(crate) fn recover_page_frozen(&self, page: u64) -> Result<()> {
        if !self.io.dev().is_poisoned_page(page) {
            return Ok(()); // another thread repaired it already
        }
        let page_off = page * PAGE_SIZE as u64;
        let layout = &self.layout;

        // Quarantined zones hold known-unreconstructable pages: fail fast
        // instead of re-attempting (and re-failing) the reconstruction.
        self.check_quarantine(page_off)?;

        // Pool header pages repair from their redundant copy.
        if page_off < layout.lanes_off {
            let other =
                if page_off == layout.hdr_off { layout.hdr_replica_off } else { layout.hdr_off };
            return self.repair_page_from_copy(page, other, "both pool header pages lost");
        }

        // Lane-region pages repair from the mirrored lane region.
        if page_off < layout.heap_off {
            return self.recover_lane_page(page_off);
        }

        // Heap pages (data rows, CM chunks, parity row) reconstruct from
        // the page column, with a persistent record for crash idempotence.
        let Some(engine) = &self.parity else {
            return Err(self.unrecoverable_here(
                page_off,
                format!("page {page} lost and this mode has no parity (mode {:?})", self.mode),
            ));
        };
        // Pages outside the rows and the parity row belong to the zone's
        // header reserve: the watermark copies rebuild from each other.
        if layout.row_col_of(page_off).is_err() {
            let (zone, zoff) = layout.zone_and_rel(page_off).map_err(PglError::from)?;
            let pbase = layout.zone.parity_base.unwrap_or(u64::MAX);
            if !(pbase..pbase + layout.zone.row_size).contains(&zoff) {
                return engine.engine_for_zone(zone).repair_reserve_page(&self.io, zone, page);
            }
        }
        write_repair_record(&self.io, layout, page_off)?;
        match rebuild_page(&self.io, engine, page_off) {
            Ok(()) => clear_repair_record(&self.io, layout),
            Err(e) if e.is_unrecoverable() => {
                // Double fault: a second page of this column is also gone.
                // Clear the repair record (a reopen must not retry a repair
                // that cannot succeed), quarantine the zone, surface the
                // located error — the rest of the pool keeps serving.
                clear_repair_record(&self.io, layout)?;
                Err(self.quarantine_for(
                    page_off,
                    format!("page {page} lost beyond the parity guarantee: {e}"),
                ))
            }
            Err(e) => Err(e),
        }
    }

    /// Repairs `page` from its redundant copy at `copy_off` (the other
    /// pool header, the mirrored lane region).
    fn repair_page_from_copy(&self, page: u64, copy_off: u64, lost: &str) -> Result<()> {
        let copy = self.io.dev().read_slice(copy_off, PAGE_SIZE).map_err(|e| {
            self.unrecoverable_here(page * PAGE_SIZE as u64, format!("{lost}: {e}"))
        })?;
        self.io.dev().repair_page(page, copy).map_err(PglError::from)
    }

    fn recover_lane_page(&self, page_off: u64) -> Result<()> {
        let layout = &self.layout;
        if self.mirror() != LogMirror::SameDevice {
            return Err(self.unrecoverable_here(
                page_off,
                format!("log page lost and logs are not replicated (mode {:?})", self.mode),
            ));
        }
        let lane_region = (layout.cfg.n_lanes * layout.cfg.lane_size) as u64;
        let mirror_off = if page_off < layout.lanes_replica_off {
            page_off + lane_region
        } else {
            page_off - lane_region
        };
        self.repair_page_from_copy(page_off / PAGE_SIZE as u64, mirror_off, "both log copies lost")
    }

    /// Online recovery of a corrupt (scribbled) object detected by a
    /// checksum mismatch: freeze, then repair the cache lines of the
    /// object's storage that diverge from its parity reconstruction.
    pub(crate) fn recover_object(&self, oid: pgl_pmemobj::PMEMoid) -> Result<()> {
        self.freeze.freeze();
        let r = self.recover_object_frozen(oid);
        self.freeze.unfreeze();
        if r.is_ok() {
            self.counters.object_recoveries.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.io.dev().note_repair_ok();
        } else {
            self.io.dev().note_repair_failed();
        }
        r
    }

    /// Quarantines `oid`'s zone for a post-repair failure **iff the object
    /// is still live** — the scrubber's free/realloc churn race can hand a
    /// dead slot here, and a dead slot's garbage must not cost a zone.
    /// (The pool is frozen, so the liveness check is stable.) Returns the
    /// error to surface either way.
    fn object_double_fault(&self, oid: pgl_pmemobj::PMEMoid, detail: String) -> PglError {
        if self.heap.is_live(&self.io, oid.off) {
            self.quarantine_for(oid.off, detail)
        } else {
            self.unrecoverable_here(oid.off, detail)
        }
    }

    /// Repairs `oid` from parity with the pool frozen, rebuilding what
    /// failed and nothing else: the header first, then — classified by
    /// one read of the repaired object — only its failing segments, each
    /// with its sum ([`segment_ranges`]), in one compare-repair pass.
    /// Modes without checksums cannot classify, so there the whole slot is
    /// the one range. The repaired segments are re-checked before the
    /// object is vouched for.
    pub(crate) fn recover_object_frozen(&self, oid: pgl_pmemobj::PMEMoid) -> Result<()> {
        let Some(domains) = &self.parity else {
            return Err(PglError::ChecksumMismatch { off: oid.off });
        };
        self.check_quarantine(oid.off)?;
        // The slot, from allocator metadata: a scribbled object header
        // cannot widen what gets rewritten.
        let slot = self.heap.storage_of(&self.io, oid.off).map_err(PglError::from)?;
        let (start, len) = slot;
        // The repair rewrites the object's bytes: any verified-generation
        // entry describes pre-repair bytes, so it must not survive —
        // otherwise a cached read could serve the scribble the repair
        // just undid.
        self.vcache.bump(oid.off);
        // Media errors cost whole pages (the page column); everything else
        // is localised to the object's own bytes (the range column).
        for page in start / PAGE_SIZE as u64..=(start + len - 1) / PAGE_SIZE as u64 {
            if self.io.dev().is_poisoned_page(page) {
                self.recover_page_frozen(page).map_err(|e| self.contain(oid, e))?;
            }
        }
        let stamp = self.vcache.begin_verify(oid.off);
        let engine = domains.engine_for(start);
        let hdr = scratch::with_fault_scratch(|s| {
            scratch::with_left_out(|lo| self.repair_slot(engine, oid, slot, s, lo))
        })?;
        if self.mode.has_checksums() {
            // Every segment just verified — the repaired ones after their
            // rewrite; the pool is frozen (no concurrent commits), so the
            // publish is race-free.
            self.vcache.publish(oid.off, hdr.size, 0, segment::count(hdr.size) - 1, stamp);
        }
        Ok(())
    }

    /// A double fault mid-repair (another row of the range, or its
    /// parity, is also lost) is contained like any other terminal repair
    /// failure, so the error carries the quarantined location.
    fn contain(&self, oid: pgl_pmemobj::PMEMoid, e: PglError) -> PglError {
        if e.is_unrecoverable() {
            self.object_double_fault(oid, format!("repair double-faulted: {e}"))
        } else {
            e
        }
    }

    /// The body of [`Inner::recover_object_frozen`] for the slot
    /// `(start, len)`, with the fault scratch and one row-fold memo for
    /// every fold of the repair: returns the repaired header.
    fn repair_slot(
        &self,
        engine: &ParityEngine,
        oid: pgl_pmemobj::PMEMoid,
        (start, len): (u64, u64),
        s: &mut FaultScratch,
        lo: &mut LeftOut,
    ) -> Result<ObjectHeader> {
        let io = &self.io;
        let end = start + len;
        let read = |off: u64, dst: &mut [u8]| {
            io.read(off, dst).map_err(|e| {
                self.object_double_fault(oid, format!("object unreadable during repair: {e}"))
            })
        };
        let repair = |s: &mut FaultScratch, lo: &mut LeftOut, ranges: &[(u64, u64)]| {
            repair_image(io, engine, lo, s, start, ranges).map_err(|e| self.contain(oid, e))
        };
        let header = |s: &FaultScratch| {
            let hdr: ObjectHeader = pgl_nvm::pod::from_bytes(&s.current[..HDR]);
            if hdr.size == 0 || oid.off + self.footprint(hdr.size) > end {
                return Err(self
                    .object_double_fault(oid, "object header still invalid after repair".into()));
            }
            Ok(hdr)
        };
        if !self.mode.has_checksums() {
            read(start, scratch::zeroed(&mut s.current, len as usize))?;
            repair(s, lo, &[(start, len)])?;
            return header(s);
        }
        // The header first, so a size scribbled to another plausible value
        // cannot mis-aim the rest.
        read(start, scratch::zeroed(&mut s.current, HDR))?;
        repair(s, lo, &[(start, OBJ_HEADER_SIZE)])?;
        let hdr = header(s)?;
        // The object once — header again, user bytes, pad and table — and
        // every segment classified against the repaired header.
        let image_len = OBJ_HEADER_SIZE + self.footprint(hdr.size);
        read(start, scratch::zeroed(&mut s.current, image_len as usize))?;
        io.dev().note_csum_pass(hdr.size);
        let n = segment::count(hdr.size);
        let ok = |s: &FaultScratch, k| segment::segment_ok(&hdr, &s.current[HDR..], k);
        let failing: Vec<u64> = (0..n).filter(|&k| !ok(s, k)).collect();
        if failing.is_empty() {
            return Ok(hdr);
        }
        if failing.last() == Some(&(n - 1)) && image_len < len {
            // The last segment's range runs to the end of the slot.
            s.current.resize(len as usize, 0);
            read(start + image_len, &mut s.current[image_len as usize..])?;
        }
        repair(s, lo, &segment_ranges(hdr.size, start, end, &failing))?;
        let repaired: u64 = failing
            .iter()
            .map(|&k| {
                let (a, b) = segment::bounds(hdr.size, k);
                b - a
            })
            .sum();
        io.dev().note_csum_pass(repaired);
        if failing.iter().any(|&k| !ok(s, k)) {
            return Err(self.object_double_fault(
                oid,
                "object fails checksum even after parity repair \
                 (corruption in more than one row of a column?)"
                    .into(),
            ));
        }
        Ok(hdr)
    }
}
