//! Pool scrubbing: periodic integrity sweeps (paper §3.3 "Scrub" mode).
//!
//! A scrub pass has two phases:
//!
//! 1. a **brief frozen phase** that verifies both pool-header copies
//!    (rewriting a damaged copy from the other), repairs known-bad pages,
//!    rewrites zone-header watermark copies that no longer hold the
//!    zone's watermark, and checks every chunk-metadata entry (repairing
//!    corrupt ones from parity), and
//! 2. a **live object sweep** that verifies every segment of every live
//!    object ([`crate::segment`]) *concurrently with running transactions*:
//!    each object is inspected
//!    under the parity range-locks over its span — the same striped locks
//!    a committing transaction holds across that object's write-back — so the scrubber always observes a
//!    data/checksum/parity-consistent object without stopping the world.
//!    Under the guard an object costs a liveness probe (its chunk-metadata
//!    entry and the first 64 bytes of its run header,
//!    `pgl_pmemobj::heap::Heap::is_live`) and one device read of header
//!    and image together.
//!
//! Objects that fail verification are recovered online (which briefly
//! freezes the pool, exactly like a media error would). Objects freed or
//! reallocated between discovery and inspection are detected by re-checking
//! allocator metadata under the lock and skipped — repairing them would be
//! a false positive.
//!
//! The pass finally closes the vulnerability window (Table 4 counts
//! unverified bytes between scrub passes).

use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Weak;
use std::time::Duration;

use pgl_nvm::pod::{bytes_of, from_bytes};
use pgl_nvm::{bump, slot, MemError, PAGE_SIZE};
use pgl_pmemobj::heap::run::ChunkMeta;
use pgl_pmemobj::heap::scan_live_excluding;
use pgl_pmemobj::pool::read_header;
use pgl_pmemobj::{ObjError, ObjectHeader, PMEMoid, OBJ_HEADER_SIZE};

use crate::counters::csum_pass;
use crate::error::{PglError, Result};
use crate::pool::Inner;
use crate::recover::repair_page_by_compare;
use crate::segment;
use crate::vcache::VerifyStamp;

pgl_nvm::counter_table! {
    /// Outcome of one scrub pass (per-shard workers `absorb` theirs into
    /// the pass total).
    pub struct ScrubReport;
    {
        /// Objects whose checksums were verified.
        objects_verified,
        /// Object bytes verified.
        bytes_verified,
        /// Objects repaired (scribbles undone).
        objects_repaired,
        /// Pages repaired (media errors or metadata scribbles).
        pages_repaired,
        /// Objects skipped because they were freed or reallocated mid-sweep
        /// (the next pass sees them in a stable state).
        objects_skipped,
    }
}

impl ScrubReport {
    /// Repairs this pass performed (objects plus pages).
    pub fn repairs(&self) -> u64 {
        self.objects_repaired + self.pages_repaired
    }
}

/// Aggregated background-scrub activity ([`crate::pool::PglPool::scrub_totals`]):
/// how many per-shard passes the background workers completed and what
/// they verified and repaired, cumulatively and most recently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubTotals {
    /// Completed background per-shard passes (each shard's pass counts
    /// one; a full pool round is `n_shards` of these).
    pub shard_passes: u64,
    /// Counters summed over every background pass.
    pub cumulative: ScrubReport,
    /// The most recently completed background pass's report.
    pub last: ScrubReport,
}

/// Runs one scrub pass: metadata under a brief freeze, then the live
/// object sweep under parity range-locks.
pub fn scrub_sync(inner: &Inner) -> Result<ScrubReport> {
    inner.freeze.freeze();
    // The live-object discovery scan also runs under the freeze: it walks
    // chunk metadata, run bitmaps and object headers with plain reads, so
    // it must not race in-flight write-backs. The expensive part — reading
    // and checksumming every object's *data* — happens after the thaw.
    let meta = scrub_metadata_frozen(inner, None).and_then(|r| {
        scan_live_excluding(&inner.io, &inner.layout, &inner.quarantine.zone_set())
            .map_err(PglError::from)
            .map(|l| (r, l))
    });
    inner.freeze.unfreeze();
    let (mut report, live) = meta?;
    scrub_objects_live(inner, live, &mut report)?;
    bump(&inner.counters.full_scrubs, 1);
    inner.vuln.end_scrub_window(inner.counters.unverified.load(Ordering::Relaxed));
    Ok(report)
}

/// Phase 1 (frozen): known-bad pages, pool headers, chunk metadata.
///
/// With `only_shard`, the sweep confines itself to that shard's share:
/// its own zones' bad pages and chunk metadata, with the non-zone regions
/// (pool headers, lanes) assigned to shard 0. Quarantined zones are left
/// untouched — their pages are known-unreconstructable and deliberately
/// stay poisoned.
fn scrub_metadata_frozen(inner: &Inner, only_shard: Option<u64>) -> Result<ScrubReport> {
    let mut report = ScrubReport::default();
    let io = &inner.io;
    let layout = &inner.layout;
    let mine = |zone: Option<u64>| -> bool {
        if let Some(z) = zone {
            !inner.quarantine.contains(z)
                && only_shard.is_none_or(|s| inner.shard_map.shard_of_zone(z) == s)
        } else {
            only_shard.is_none_or(|s| s == 0)
        }
    };

    // 0. Known bad pages: the kernel tracks poisoned pages across reboots;
    //    repair every one proactively. (The paper describes this sweep in
    //    §3.3 but marks it "not currently implemented" — implemented here.)
    for page in io.dev().poisoned_pages() {
        let zone = layout.zone_and_rel(page * PAGE_SIZE as u64).ok().map(|(z, _)| z);
        if !mine(zone) {
            continue;
        }
        inner.recover_page_frozen(page)?;
        report.pages_repaired += 1;
    }

    // 1. Pool headers: both copies must parse; repair a bad one from the
    //    good one.
    if mine(None) {
        let hdr = read_header(io).map_err(PglError::from)?;
        let hdr_bytes = bytes_of(&hdr);
        for off in [layout.hdr_off, layout.hdr_replica_off] {
            let ok = io.dev().read_slice(off, hdr_bytes.len()).is_ok_and(|b| b == hdr_bytes);
            if !ok {
                io.write(off, hdr_bytes).map_err(PglError::from)?;
                io.persist(off, hdr_bytes.len()).map_err(PglError::from)?;
                report.pages_repaired += 1;
            }
        }
    }

    // 2. Zone headers: both watermark copies must hold the watermark.
    //    Chunk metadata: every entry must carry a valid checksum (or be
    //    all-zero, i.e. never written). Parity repairs scribbled entries.
    if let Some(engine) = &inner.parity {
        for z in (0..layout.n_zones).filter(|&z| mine(Some(z))) {
            if engine.engine_for_zone(z).heal_watermark(io, z)? {
                report.pages_repaired += 1;
            }
            for c in 0..layout.zone.n_chunks {
                let off = layout.cm_entry_off(z, c);
                let mut buf = [0u8; 16];
                match io.read(off, &mut buf) {
                    Ok(()) => {
                        let cm = ChunkMeta::from_slice(&buf);
                        let pristine = buf == [0u8; 16];
                        if !pristine
                            && (!cm.verify() || cm.chunk_type().is_none())
                            && repair_page_by_compare(io, engine.engine_for(off), off)?
                        {
                            report.pages_repaired += 1;
                        }
                    }
                    Err(ObjError::Mem(MemError::Poisoned { page })) => {
                        inner.recover_page_frozen(page)?;
                        report.pages_repaired += 1;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
    }
    Ok(report)
}

/// Phase 2 (live): verify every live object's checksum. In parity modes
/// this runs concurrently with committing transactions, taking the same
/// parity range-locks they do; without parity there are no range-locks,
/// so the whole sweep runs under one pool freeze instead (those modes
/// have no object checksums to verify, so the sweep is metadata-cheap).
///
/// With multiple parity shards the live set is partitioned by owning
/// shard and swept by one worker per shard: each shard owns its own
/// stripe-lock table, so workers never contend on parity locks, and each
/// publishes its own progress cursor (`PglPool::scrub_progress`).
fn scrub_objects_live(
    inner: &Inner,
    live: Vec<(u64, ObjectHeader)>,
    report: &mut ScrubReport,
) -> Result<()> {
    if inner.parity.is_some() {
        let n_shards = inner.shard_map.n_shards() as usize;
        let mut by_shard: Vec<Vec<(u64, ObjectHeader)>> = vec![Vec::new(); n_shards];
        for (off, hint) in live {
            by_shard[inner.shard_map.shard_of_off(off) as usize].push((off, hint));
        }
        for (shard, objs) in by_shard.iter().enumerate() {
            let (done, total) = &inner.scrub_progress[shard];
            done.store(0, Ordering::Relaxed);
            total.store(objs.len() as u64, Ordering::Relaxed);
        }
        let sweep = |shard: usize, objs: &[(u64, ObjectHeader)]| -> Result<ScrubReport> {
            let mut local = ScrubReport::default();
            for (off, hint) in objs {
                let oid = PMEMoid::new(inner.uuid, *off);
                scrub_contained(inner, oid, hint.size, &mut local)?;
                inner.scrub_progress[shard].0.fetch_add(1, Ordering::Relaxed);
            }
            bump(slot(&inner.counters.scrub_passes, shard), 1);
            bump(slot(&inner.counters.scrub_repairs, shard), local.repairs());
            Ok(local)
        };
        if n_shards == 1 {
            report.absorb(&sweep(0, &by_shard[0])?);
        } else {
            let locals: Vec<Result<ScrubReport>> = std::thread::scope(|s| {
                let handles: Vec<_> = by_shard
                    .iter()
                    .enumerate()
                    .map(|(shard, objs)| s.spawn(move || sweep(shard, objs)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("scrub worker panicked")).collect()
            });
            for local in locals {
                report.absorb(&local?);
            }
        }
    } else {
        // No parity ⇒ no range-locks (and no checksums in these modes
        // either): fall back to the frozen sweep for media-error repairs.
        inner.freeze.freeze();
        let r = scrub_objects_frozen(inner, &live, report);
        inner.freeze.unfreeze();
        r?;
    }
    Ok(())
}

/// [`scrub_one_object`] with degraded-mode containment: an unrecoverable
/// double fault quarantines the object's zone (inside the recovery path)
/// and is *absorbed* here as a skip — the sweep moves on to the next
/// object, so one dead zone never aborts a scrub pass or wedges a
/// background worker. Other errors still propagate.
fn scrub_contained(
    inner: &Inner,
    oid: PMEMoid,
    size_hint: u64,
    report: &mut ScrubReport,
) -> Result<()> {
    if inner.check_quarantine(oid.off).is_err() {
        report.objects_skipped += 1;
        return Ok(());
    }
    match scrub_one_object(inner, oid, size_hint, report) {
        Ok(()) => Ok(()),
        Err(e) if e.is_unrecoverable() => {
            report.objects_skipped += 1;
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// Verifies one object under the parity range-locks over its span
/// (header + data). Handles churn: objects freed or resized between
/// discovery and locking are skipped or re-locked with the right span.
fn scrub_one_object(
    inner: &Inner,
    oid: PMEMoid,
    size_hint: u64,
    report: &mut ScrubReport,
) -> Result<()> {
    let engine = inner.parity.as_ref().expect("parity mode");
    // No object extends past its zone's data rows (nor could a span guard
    // cover one that did): a larger footprint — from the discovery scan or
    // the header re-read below — means the header itself is scribbled.
    let room = inner
        .object_room(oid.off)
        .ok_or(ObjError::InvalidOid { off: oid.off })
        .map_err(PglError::from)?;
    let mut span = inner.footprint(size_hint.max(1)).min(room);
    // A handful of attempts absorbs media-error repairs and size churn;
    // an object that keeps churning is left for the next pass.
    for _ in 0..4 {
        let guard = engine.lock_span(oid.header_off(), OBJ_HEADER_SIZE + span)?;
        // The slot may have been freed (and possibly repurposed) since
        // scan_live; repairing it now would be a false positive.
        if !inner.heap.is_live(&inner.io, oid.off) {
            report.objects_skipped += 1;
            return Ok(());
        }
        let stamp = inner.vcache.begin_verify(oid.off);
        // Header and image in one read, checksummed in place: the
        // exclusive span guard keeps every library writer of these bytes
        // out while the view is borrowed.
        let image = inner.io.dev().read_slice(oid.header_off(), (OBJ_HEADER_SIZE + span) as usize);
        let (hb, data) = match image {
            Ok(bytes) => bytes.split_at(OBJ_HEADER_SIZE as usize),
            Err(MemError::Poisoned { page }) => {
                drop(guard);
                inner.online_recover_page(page)?;
                report.pages_repaired += 1;
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        let hdr: ObjectHeader = from_bytes(hb);
        if !inner.plausible(oid.off, hdr.size) {
            // Nonsense size on a live slot: the header itself is
            // scribbled. Recovery freezes, repairs from parity and
            // re-verifies.
            drop(guard);
            if recover_unless_churned(inner, oid, report)? {
                report.objects_verified += 1;
            }
            return Ok(());
        }
        if inner.footprint(hdr.size) != span {
            // Reallocated with a different size: retry with a guard that
            // covers the actual span.
            span = inner.footprint(hdr.size);
            drop(guard);
            continue;
        }
        // A pass refreshes the verified-generation entry while still under
        // the exclusive guard's stamp: a commit racing in after the guard
        // drops bumps the generation and defeats the publish.
        let ok = scrub_check(inner, oid.off, &hdr, data, stamp);
        if !ok && !inner.heap.is_live(&inner.io, oid.off) {
            // The object was freed between our liveness check and the data
            // read, and its bytes were already repurposed (e.g. zeroed for
            // a log-overflow claim). Not a scribble.
            report.objects_skipped += 1;
            return Ok(());
        }
        drop(guard);
        if !ok && !recover_unless_churned(inner, oid, report)? {
            return Ok(());
        }
        report.objects_verified += 1;
        report.bytes_verified += hdr.size;
        return Ok(());
    }
    report.objects_skipped += 1;
    Ok(())
}

/// The scrub's check of one object's `image` — user bytes, pad and table,
/// read under its span guard or with the pool frozen — against `hdr`:
/// counts the pass and, when it holds, vouches for every segment under
/// `stamp`. Modes without checksums have nothing to check.
fn scrub_check(
    inner: &Inner,
    off: u64,
    hdr: &ObjectHeader,
    image: &[u8],
    stamp: VerifyStamp,
) -> bool {
    if !inner.mode.has_checksums() {
        return true;
    }
    csum_pass(inner.io.dev(), hdr.size);
    let ok = segment::check_all(hdr, image).is_ok();
    if ok {
        inner.vcache.publish(off, hdr.size, 0, segment::count(hdr.size) - 1, stamp);
    }
    ok
}

/// Recovers a corrupt-looking object, tolerating the free/realloc race:
/// the guard is necessarily dropped before recovery (it freezes the
/// pool), so the owner may free the object in the gap, making recovery
/// fail on a dead slot. Returns `true` if the object was repaired,
/// `false` if it churned away (counted as skipped); real recovery
/// failures on still-live objects propagate.
fn recover_unless_churned(inner: &Inner, oid: PMEMoid, report: &mut ScrubReport) -> Result<bool> {
    match inner.recover_object(oid) {
        Ok(()) => {
            report.objects_repaired += 1;
            Ok(true)
        }
        Err(e) => {
            if inner.heap.is_live(&inner.io, oid.off) {
                return Err(e);
            }
            report.objects_skipped += 1;
            Ok(false)
        }
    }
}

/// The pre-concurrency object sweep, used by modes without parity locks.
/// The pool is frozen by the caller.
fn scrub_objects_frozen(
    inner: &Inner,
    live: &[(u64, ObjectHeader)],
    report: &mut ScrubReport,
) -> Result<()> {
    let io = &inner.io;
    for &(off, hdr) in live {
        let oid = PMEMoid::new(inner.uuid, off);
        let sane = inner.plausible(off, hdr.size);
        let mut ok = sane;
        let stamp = inner.vcache.begin_verify(off);
        if sane {
            // Frozen pool: the object is checksummed in place.
            let len = inner.footprint(hdr.size) as usize;
            let data = match io.dev().read_slice(off, len) {
                Err(MemError::Poisoned { page }) => {
                    inner.recover_page_frozen(page)?;
                    report.pages_repaired += 1;
                    io.dev().read_slice(off, len)
                }
                r => r,
            }?;
            ok = scrub_check(inner, off, &hdr, data, stamp);
        }
        if !ok {
            inner.recover_object_frozen(oid)?;
            report.objects_repaired += 1;
        }
        report.objects_verified += 1;
        report.bytes_verified += hdr.size;
    }
    Ok(())
}

/// Objects a background shard worker sweeps between yields.
const BG_BATCH: usize = 32;

/// One background worker's scrub pass over its own shard: a brief freeze
/// for the shard's share of the metadata sweep (plus live-object
/// discovery), then a sweep of the shard's live objects under the shard's
/// own parity range-locks, yielding the CPU between [`BG_BATCH`]-object
/// batches so live traffic interleaves with it. Unrecoverable double
/// faults quarantine their zone and are absorbed as skips — a dead zone
/// never kills the worker.
pub(crate) fn scrub_shard(inner: &Inner, shard: u64) -> Result<ScrubReport> {
    inner.freeze.freeze();
    let meta = scrub_metadata_frozen(inner, Some(shard)).and_then(|r| {
        scan_live_excluding(&inner.io, &inner.layout, &inner.quarantine.zone_set())
            .map_err(PglError::from)
            .map(|l| (r, l))
    });
    inner.freeze.unfreeze();
    let (mut report, live) = meta?;
    let objs: Vec<(u64, ObjectHeader)> =
        live.into_iter().filter(|(off, _)| inner.shard_map.shard_of_off(*off) == shard).collect();
    let (done, total) = &inner.scrub_progress[shard as usize];
    done.store(0, Ordering::Relaxed);
    total.store(objs.len() as u64, Ordering::Relaxed);
    if inner.parity.is_some() {
        for batch in objs.chunks(BG_BATCH) {
            for (off, hint) in batch {
                let oid = PMEMoid::new(inner.uuid, *off);
                scrub_contained(inner, oid, hint.size, &mut report)?;
                done.fetch_add(1, Ordering::Relaxed);
            }
            std::thread::yield_now();
        }
        bump(slot(&inner.counters.scrub_passes, shard as usize), 1);
    } else {
        // Modes without parity range-locks sweep frozen (see
        // `scrub_objects_live`).
        inner.freeze.freeze();
        let r = scrub_objects_frozen(inner, &objs, &mut report);
        inner.freeze.unfreeze();
        r?;
        bump(slot(&inner.counters.scrub_passes, shard as usize), 1);
    }
    Ok(report)
}

/// Body of one `pgl-scrub-<shard>` background worker thread: waits for a
/// commit-tick kick (or a periodic `interval` timeout when configured),
/// then runs [`scrub_shard`]. The worker holds only a [`Weak`] reference —
/// dropping the last pool handle disconnects the kick channel and the
/// worker exits; a failed pass (e.g. pool-wide I/O trouble) is dropped and
/// retried at the next trigger rather than crashing the thread.
pub(crate) fn bg_worker(weak: Weak<Inner>, shard: u64, rx: Receiver<()>, interval_ms: u64) {
    loop {
        if interval_ms == 0 {
            if rx.recv().is_err() {
                return;
            }
        } else {
            match rx.recv_timeout(Duration::from_millis(interval_ms)) {
                Ok(()) | Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
        let Some(inner) = weak.upgrade() else { return };
        if let Ok(report) = scrub_shard(&inner, shard) {
            inner.note_bg_pass(shard, &report);
        }
    }
}
