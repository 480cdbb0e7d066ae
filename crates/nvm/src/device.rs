//! The simulated NVMM device.
//!
//! [`NvmDevice`] is the single source of truth for "what is in persistent
//! memory". All persistent-object libraries in this workspace perform loads,
//! stores, flushes, fences, and atomics exclusively through it, which is what
//! makes crash and fault injection possible.
//!
//! # Concurrency contract
//!
//! The device hands out access to shared raw memory, mirroring DAX-mapped
//! NVMM. Like real memory, concurrent conflicting plain accesses to
//! overlapping bytes are forbidden; callers must synchronize (the libraries
//! use transaction ownership, allocator locks and parity range-locks).
//! Atomic accessors may race with each other on the same 8-byte word.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use crate::crash::CrashPlan;
use crate::error::{MemError, Result};
use crate::latency::LatencyModel;
use crate::poison::PoisonSet;
use crate::rawbuf::RawBuf;
use crate::stats::{DeviceStats, StatsSnapshot};
use crate::tracker::{Tracker, TrackerSnapshot};
use crate::{CACHELINE, PAGE_SIZE};

/// How faithfully the device models persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PersistenceMode {
    /// No dirty-line tracking: stores are immediately durable. Fast; used by
    /// benchmarks, where timing (not crash simulation) is the object.
    #[default]
    Fast,
    /// Full dirty-line tracking with flush/fence epochs: crashes can replay
    /// any hardware-legal persistence order. Used by crash-consistency tests.
    Precise,
}

/// Device construction parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceConfig {
    /// Persistence fidelity.
    pub mode: PersistenceMode,
    /// Latency charges (disabled by default).
    pub latency: LatencyModel,
}

impl DeviceConfig {
    /// Fast mode without latency charges.
    pub fn fast() -> Self {
        DeviceConfig { mode: PersistenceMode::Fast, latency: LatencyModel::disabled() }
    }

    /// Precise mode without latency charges (the crash-testing setup).
    pub fn precise() -> Self {
        DeviceConfig { mode: PersistenceMode::Precise, latency: LatencyModel::disabled() }
    }

    /// Fast mode with the Optane-like latency model (the benchmark setup).
    pub fn bench() -> Self {
        DeviceConfig { mode: PersistenceMode::Fast, latency: LatencyModel::optane() }
    }

    /// Replaces the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }
}

/// Panic payload used by the crash-point injector; tests downcast to this
/// to distinguish injected crashes from real bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint;

/// A complete checkpoint of an [`NvmDevice`]: raw bytes, dirty-line tracker
/// state, and the poisoned-page list.
///
/// Captured by [`NvmDevice::snapshot`] and re-applied by
/// [`NvmDevice::restore`]. Crash-sweep drivers use this to rewind a device
/// to a known state between replayed crash cases without re-running the
/// (expensive) setup workload.
pub struct DeviceSnapshot {
    pub(crate) bytes: Vec<u8>,
    pub(crate) tracker: Option<TrackerSnapshot>,
    pub(crate) poisoned: Vec<u64>,
}

impl std::fmt::Debug for DeviceSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceSnapshot")
            .field("len", &self.bytes.len())
            .field("tracked", &self.tracker.is_some())
            .field("poisoned_pages", &self.poisoned.len())
            .finish()
    }
}

/// The part of the 8-byte device word at `w_off` that the range
/// `[off, end)` covers: its first byte inside the word and its length.
#[inline]
fn window(off: u64, end: u64, w_off: u64) -> (usize, usize) {
    let lo = w_off.max(off);
    ((lo - w_off) as usize, ((w_off + 8).min(end) - lo) as usize)
}

/// The native-endian word `src` — the bytes of a range starting at device
/// offset `off` — puts into the 8-byte device word at `w_off`: one
/// unaligned load where the range covers the whole word, zero-padded
/// where it starts or ends inside it.
#[inline]
fn window_word(src: &[u8], off: u64, w_off: u64) -> u64 {
    let (at, n) = window(off, off + src.len() as u64, w_off);
    let i = (w_off + at as u64 - off) as usize;
    if n == 8 {
        return u64::from_ne_bytes(src[i..i + 8].try_into().expect("8-byte window"));
    }
    let mut word = [0u8; 8];
    word[at..at + n].copy_from_slice(&src[i..i + n]);
    u64::from_ne_bytes(word)
}

/// A simulated byte-addressable persistent memory device.
///
/// See the [module documentation](self) for semantics and the concurrency
/// contract.
pub struct NvmDevice {
    buf: RawBuf,
    tracker: Option<Tracker>,
    poison: PoisonSet,
    latency: LatencyModel,
    stats: DeviceStats,
    /// Crash-point countdown: every mutating device op decrements it; at
    /// zero the op panics with [`CrashPoint`]. Negative = disarmed.
    crash_countdown: AtomicI64,
}

impl NvmDevice {
    /// Creates a zero-filled device of `len` bytes.
    ///
    /// `len` must be a non-zero multiple of [`PAGE_SIZE`] so that page and
    /// cache-line arithmetic is exact.
    pub fn new(len: usize, config: DeviceConfig) -> Result<Self> {
        if len == 0 || len % PAGE_SIZE != 0 {
            return Err(MemError::OutOfBounds { off: 0, len, size: len });
        }
        let tracker = match config.mode {
            PersistenceMode::Fast => None,
            PersistenceMode::Precise => Some(Tracker::new()),
        };
        Ok(NvmDevice {
            buf: RawBuf::new(len),
            tracker,
            poison: PoisonSet::new(),
            latency: config.latency,
            stats: DeviceStats::default(),
            crash_countdown: AtomicI64::new(-1),
        })
    }

    /// Returns the device size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if the device has zero capacity (never true; kept for
    /// API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.len() == 0
    }

    /// Returns the number of pages on the device.
    #[inline]
    pub fn pages(&self) -> u64 {
        (self.len() / PAGE_SIZE) as u64
    }

    /// Returns the operation counters.
    #[inline]
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Returns the configured latency model.
    #[inline]
    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    #[inline]
    fn check_bounds(&self, off: u64, len: usize) -> Result<()> {
        let size = self.len();
        let end = off.checked_add(len as u64);
        match end {
            Some(end) if end <= size as u64 => Ok(()),
            _ => Err(MemError::OutOfBounds { off, len, size }),
        }
    }

    #[inline]
    fn check_poison(&self, off: u64, len: usize) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let first = off / PAGE_SIZE as u64;
        let last = (off + len as u64 - 1) / PAGE_SIZE as u64;
        if let Some(page) = self.poison.first_poisoned_in(first, last) {
            DeviceStats::add(&self.stats.poison_hits, 1);
            return Err(MemError::Poisoned { page });
        }
        Ok(())
    }

    /// Returns the raw pointer at `off`. Bounds must already be checked.
    #[inline]
    fn ptr_at(&self, off: u64) -> *mut u8 {
        debug_assert!(off <= self.len() as u64);
        // SAFETY: callers check bounds before calling; the pointer stays
        // within the allocation.
        unsafe { self.buf.ptr().add(off as usize) }
    }

    /// Arms the crash-point injector: the `n`-th mutating device operation
    /// from now (0-based) panics with [`CrashPoint`], letting tests explore
    /// a power failure between any two persistence-relevant operations.
    ///
    /// # Re-arming semantics
    ///
    /// Arming **replaces** any previous countdown; the counts do not add up.
    /// After the injected panic fires the countdown has passed zero and keeps
    /// decrementing into negative values, so the injector is effectively
    /// disarmed — subsequent operations run normally until the next
    /// `arm_crash_after`. Calling it again (from a fresh catch-unwind scope)
    /// therefore restarts the count at `n` regardless of prior state; sweep
    /// drivers rely on this to replay one workload crashing at every
    /// successive boundary. Use [`NvmDevice::disarm_crash`] to cancel an
    /// armed countdown that has not fired yet.
    pub fn arm_crash_after(&self, n: u64) {
        self.crash_countdown.store(n as i64, Ordering::SeqCst);
    }

    /// Disarms the crash-point injector.
    pub fn disarm_crash(&self) {
        self.crash_countdown.store(-1, Ordering::SeqCst);
    }

    /// Remaining armed countdown (negative when disarmed). Tests arm a huge
    /// value, run a workload, and subtract to count its device operations.
    pub fn crash_countdown(&self) -> i64 {
        self.crash_countdown.load(Ordering::SeqCst)
    }

    /// Counts a mutating operation against the crash countdown.
    ///
    /// # Panics
    ///
    /// Panics with [`CrashPoint`] when the armed countdown reaches zero.
    #[inline]
    fn maybe_crash(&self) {
        if self.crash_countdown.load(Ordering::Relaxed) < 0 {
            return;
        }
        if self.crash_countdown.fetch_sub(1, Ordering::SeqCst) == 0 {
            std::panic::panic_any(CrashPoint);
        }
    }

    /// Copies the current content of cache line `line` out of the buffer.
    #[inline]
    fn line_content(&self, line: u64) -> [u8; CACHELINE] {
        let mut out = [0u8; CACHELINE];
        // SAFETY: `line` derives from a bounds-checked offset; device length
        // is a multiple of PAGE_SIZE, hence of CACHELINE.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.ptr_at(line * CACHELINE as u64),
                out.as_mut_ptr(),
                CACHELINE,
            );
        }
        out
    }

    #[inline]
    fn lines_of(off: u64, len: usize) -> std::ops::Range<u64> {
        if len == 0 {
            return 0..0;
        }
        let first = off / CACHELINE as u64;
        let last = (off + len as u64 - 1) / CACHELINE as u64;
        first..last + 1
    }

    // ------------------------------------------------------------------
    // Loads
    // ------------------------------------------------------------------

    /// Reads `dst.len()` bytes starting at `off`.
    ///
    /// Fails with [`MemError::Poisoned`] if the range touches a poisoned
    /// page — the `SIGBUS` analogue.
    pub fn read(&self, off: u64, dst: &mut [u8]) -> Result<()> {
        self.check_bounds(off, dst.len())?;
        self.check_poison(off, dst.len())?;
        DeviceStats::add(&self.stats.bytes_read, dst.len() as u64);
        DeviceStats::add(&self.stats.read_ops, 1);
        if self.latency.read_ns_per_line > 0 {
            let lines = Self::lines_of(off, dst.len());
            LatencyModel::charge(self.latency.read_ns_per_line * (lines.end - lines.start));
        }
        // SAFETY: bounds checked; `dst` is exclusive; contract forbids
        // concurrent conflicting writes to this range.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr_at(off), dst.as_mut_ptr(), dst.len());
        }
        Ok(())
    }

    /// Returns a borrowed view of `len` bytes at `off`.
    ///
    /// The view is valid while no concurrent write to the range occurs
    /// (caller-enforced, like a load through a DAX mapping).
    pub fn read_slice(&self, off: u64, len: usize) -> Result<&[u8]> {
        self.check_bounds(off, len)?;
        self.check_poison(off, len)?;
        DeviceStats::add(&self.stats.bytes_read, len as u64);
        DeviceStats::add(&self.stats.read_ops, 1);
        if self.latency.read_ns_per_line > 0 {
            let lines = Self::lines_of(off, len);
            LatencyModel::charge(self.latency.read_ns_per_line * (lines.end - lines.start));
        }
        // SAFETY: bounds checked; the contract forbids conflicting writes
        // while the reference is live.
        Ok(unsafe { std::slice::from_raw_parts(self.ptr_at(off), len) })
    }

    /// Reads a little-endian `u64` at an 8-byte-aligned offset atomically.
    pub fn atomic_load_u64(&self, off: u64) -> Result<u64> {
        self.check_aligned8(off)?;
        self.check_poison(off, 8)?;
        // One cache line.
        LatencyModel::charge(self.latency.read_ns_per_line);
        // SAFETY: aligned and in-bounds; AtomicU64 may alias plain memory
        // that is only accessed through this device's synchronized paths.
        let atom = unsafe { &*(self.ptr_at(off) as *const AtomicU64) };
        Ok(atom.load(Ordering::Acquire))
    }

    // ------------------------------------------------------------------
    // Stores
    // ------------------------------------------------------------------

    /// Writes `src` at `off` through the (simulated) cache. Not durable
    /// until flushed and fenced.
    pub fn write(&self, off: u64, src: &[u8]) -> Result<()> {
        self.check_bounds(off, src.len())?;
        self.maybe_crash();
        DeviceStats::add(&self.stats.bytes_written, src.len() as u64);
        if self.latency.write_ns_per_line > 0 {
            let lines = Self::lines_of(off, src.len());
            LatencyModel::charge(self.latency.write_ns_per_line * (lines.end - lines.start));
        }
        if let Some(tracker) = &self.tracker {
            for line in Self::lines_of(off, src.len()) {
                tracker.note_store(line, &self.line_content(line));
            }
        }
        // SAFETY: bounds checked; contract forbids conflicting concurrent
        // access.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr_at(off), src.len());
        }
        Ok(())
    }

    /// Writes `src` at `off` with non-temporal stores: the data bypasses the
    /// cache and becomes durable at the next fence.
    pub fn write_nt(&self, off: u64, src: &[u8]) -> Result<()> {
        self.check_bounds(off, src.len())?;
        self.maybe_crash();
        DeviceStats::add(&self.stats.bytes_written_nt, src.len() as u64);
        if self.latency.nt_ns_per_line > 0 {
            let lines = Self::lines_of(off, src.len());
            LatencyModel::charge(self.latency.nt_ns_per_line * (lines.end - lines.start));
        }
        if let Some(tracker) = &self.tracker {
            // Track per line: capture pre-content, apply the sub-write, then
            // record the flushed (post) content.
            for line in Self::lines_of(off, src.len()) {
                let pre = self.line_content(line);
                let line_start = line * CACHELINE as u64;
                let copy_start = line_start.max(off);
                let copy_end = (line_start + CACHELINE as u64).min(off + src.len() as u64);
                // SAFETY: sub-range of a bounds-checked write.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        src.as_ptr().add((copy_start - off) as usize),
                        self.ptr_at(copy_start),
                        (copy_end - copy_start) as usize,
                    );
                }
                let post = self.line_content(line);
                tracker.note_store_nt(line, &pre, &post);
            }
        } else {
            // SAFETY: bounds checked; contract forbids conflicting access.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr_at(off), src.len());
            }
        }
        Ok(())
    }

    /// Fills `len` bytes at `off` with `byte` (a cached memset).
    pub fn set(&self, off: u64, byte: u8, len: usize) -> Result<()> {
        self.check_bounds(off, len)?;
        self.maybe_crash();
        DeviceStats::add(&self.stats.bytes_written, len as u64);
        if let Some(tracker) = &self.tracker {
            for line in Self::lines_of(off, len) {
                tracker.note_store(line, &self.line_content(line));
            }
        }
        // SAFETY: bounds checked; contract forbids conflicting access.
        unsafe {
            std::ptr::write_bytes(self.ptr_at(off), byte, len);
        }
        Ok(())
    }

    /// Stores a `u64` at an 8-byte-aligned offset atomically (x86 guarantees
    /// 8-byte aligned stores are failure-atomic; paper §2.3).
    pub fn atomic_store_u64(&self, off: u64, val: u64) -> Result<()> {
        self.check_aligned8(off)?;
        self.maybe_crash();
        DeviceStats::add(&self.stats.atomic_stores, 1);
        if self.latency.atomic_rmw_ns > 0 {
            LatencyModel::charge(self.latency.atomic_rmw_ns);
        }
        if let Some(tracker) = &self.tracker {
            let line = off / CACHELINE as u64;
            tracker.note_store(line, &self.line_content(line));
        }
        // SAFETY: aligned, in-bounds.
        let atom = unsafe { &*(self.ptr_at(off) as *const AtomicU64) };
        atom.store(val, Ordering::Release);
        Ok(())
    }

    /// Atomically XORs `val` into the `u64` at an 8-byte-aligned offset.
    /// This is the lock-free small-parity-update primitive (paper §3.5).
    pub fn atomic_xor_u64(&self, off: u64, val: u64) -> Result<()> {
        self.check_aligned8(off)?;
        self.maybe_crash();
        DeviceStats::add(&self.stats.atomic_xors, 1);
        if self.latency.atomic_rmw_ns > 0 {
            LatencyModel::charge(self.latency.atomic_rmw_ns);
        }
        if let Some(tracker) = &self.tracker {
            let line = off / CACHELINE as u64;
            tracker.note_store(line, &self.line_content(line));
        }
        // SAFETY: aligned, in-bounds.
        let atom = unsafe { &*(self.ptr_at(off) as *const AtomicU64) };
        atom.fetch_xor(val, Ordering::AcqRel);
        Ok(())
    }

    /// Atomically compares-and-swaps the `u64` at an 8-byte-aligned offset.
    /// Returns the value observed *before* the operation: the CAS took
    /// effect iff the return value equals `expected`. This is the
    /// publication primitive of the detectable-CAS subsystem
    /// (`pangolin::ploc`): an aligned 8-byte store is failure-atomic
    /// (paper §2.3), so under the per-line crash model the word persists
    /// as either the old or the new value, never torn.
    pub fn atomic_cas_u64(&self, off: u64, expected: u64, new: u64) -> Result<u64> {
        self.check_aligned8(off)?;
        self.maybe_crash();
        DeviceStats::add(&self.stats.atomic_cas_ops, 1);
        if self.latency.atomic_rmw_ns > 0 {
            LatencyModel::charge(self.latency.atomic_rmw_ns);
        }
        if let Some(tracker) = &self.tracker {
            let line = off / CACHELINE as u64;
            tracker.note_store(line, &self.line_content(line));
        }
        // SAFETY: aligned, in-bounds.
        let atom = unsafe { &*(self.ptr_at(off) as *const AtomicU64) };
        match atom.compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(prev) => Ok(prev),
            Err(prev) => Ok(prev),
        }
    }

    /// Tags `lines` parity cache lines patched by a word-granular CAS
    /// (the delta-checksum + single-line XOR fast path). The ploc commit
    /// path calls this once per successful CAS with the number of
    /// *distinct* parity lines it XOR-patched, so regression tests can
    /// pin the one-parity-line-per-word-CAS invariant
    /// ([`StatsSnapshot::atomic_parity_patches`]).
    pub fn note_atomic_parity_patch(&self, lines: u64) {
        DeviceStats::add(&self.stats.atomic_parity_patches, lines);
    }

    /// Tags `bytes` of a just-issued read as a *commit-time old-data
    /// read* ([`StatsSnapshot::commit_old_reads`] /
    /// [`StatsSnapshot::commit_old_bytes`]). The Pangolin commit pipeline
    /// assembles its pre-images from the bytes it loaded at open and
    /// issues no such read, so its regression tests pin both counters at
    /// zero; the tag stays for any path that does re-read old data at
    /// commit.
    pub fn note_commit_old_read(&self, bytes: u64) {
        DeviceStats::add(&self.stats.commit_old_reads, 1);
        DeviceStats::add(&self.stats.commit_old_bytes, bytes);
    }

    /// Tags one library-level checksum verification pass over `bytes`
    /// object bytes. The read path calls this next to every Adler32
    /// verification it performs, so regression tests can pin that
    /// cache-hit verified reads run **zero** checksum passes
    /// ([`StatsSnapshot::csum_passes`]).
    pub fn note_csum_pass(&self, bytes: u64) {
        DeviceStats::add(&self.stats.csum_passes, 1);
        DeviceStats::add(&self.stats.csum_bytes, bytes);
    }

    /// Tags one verified read of `bytes` served from the DRAM
    /// verified-generation cache ([`StatsSnapshot::vcache_hits`]).
    pub fn note_vcache_hit(&self, bytes: u64) {
        DeviceStats::add(&self.stats.vcache_hits, 1);
        DeviceStats::add(&self.stats.vcache_hit_bytes, bytes);
    }

    /// Tags one group commit that carried `txns` logical transactions
    /// through a single redo-log persist / commit fence / parity-patch
    /// window ([`StatsSnapshot::group_commits`] /
    /// [`StatsSnapshot::group_txns`]). The batched commit entry point
    /// calls this once per batch, so fence-amortization tests can relate
    /// `fences` to the logical transaction count.
    pub fn note_group_commit(&self, txns: u64) {
        DeviceStats::add(&self.stats.group_commits, 1);
        DeviceStats::add(&self.stats.group_txns, txns);
    }

    /// Tags one completed scrub pass of parity shard `shard`
    /// ([`StatsSnapshot::scrub_passes`]).
    pub fn note_scrub_pass(&self, shard: usize) {
        DeviceStats::add_shard(&self.stats.scrub_passes, shard, 1);
    }

    /// Tags one injected media fault (poisoned page)
    /// ([`StatsSnapshot::poison_injected`]).
    pub fn note_poison_injected(&self) {
        DeviceStats::add(&self.stats.poison_injected, 1);
    }

    /// Tags one injected scribble ([`StatsSnapshot::scribbles_injected`]).
    pub fn note_scribble_injected(&self) {
        DeviceStats::add(&self.stats.scribbles_injected, 1);
    }

    /// Tags one successful page/object repair ([`StatsSnapshot::repairs_ok`]).
    pub fn note_repair_ok(&self) {
        DeviceStats::add(&self.stats.repairs_ok, 1);
    }

    /// Tags one permanently failed repair — a double fault parity could not
    /// reconstruct ([`StatsSnapshot::repairs_failed`]).
    pub fn note_repair_failed(&self) {
        DeviceStats::add(&self.stats.repairs_failed, 1);
    }

    /// Tags one online repair performed by a background scrub worker of
    /// parity shard `shard` ([`StatsSnapshot::scrub_repairs`]).
    pub fn note_scrub_repair(&self, shard: usize, n: u64) {
        DeviceStats::add_shard(&self.stats.scrub_repairs, shard, n);
    }

    /// Tags one zone moved to the persistent quarantine set
    /// ([`StatsSnapshot::zones_quarantined`]).
    pub fn note_zone_quarantined(&self) {
        DeviceStats::add(&self.stats.zones_quarantined, 1);
    }

    /// Bookkeeping for a cache line about to be dirtied by an XOR path:
    /// captures the pre-content for the crash tracker (Precise mode).
    #[inline]
    fn note_xor_line(&self, line: u64) {
        if let Some(tracker) = &self.tracker {
            tracker.note_store(line, &self.line_content(line));
        }
    }

    /// The `CLWB` a diff-XOR path issues for a line it has finished
    /// dirtying: captures the post-content for the crash tracker.
    #[inline]
    fn note_xor_line_flushed(&self, line: u64) {
        if let Some(tracker) = &self.tracker {
            tracker.note_flush(line, &self.line_content(line));
        }
    }

    /// Accounts the `lines` flushes of one diff-XOR call: the paths know
    /// which lines they dirtied, so those — not the span — are flushed.
    #[inline]
    fn charge_xor_flushes(&self, lines: u64) {
        DeviceStats::add(&self.stats.lines_flushed, lines);
        if self.latency.flush_ns_per_line > 0 {
            LatencyModel::charge(self.latency.flush_ns_per_line * lines);
        }
    }

    /// Computes `old ⊕ new` and XORs it into the range at `off` with plain
    /// (vectorized) stores, a cache line at a time: the line's diff is
    /// built and OR-reduced first, so an untouched line costs no store, no
    /// flush, no tracker bookkeeping and no latency charge, and a touched
    /// one does its bookkeeping once and is flushed (`CLWB`) on the spot.
    /// A partial first or last line is walked a device word at a time
    /// instead. All-zero diff words never count as written
    /// (`xor_bytes`/`bytes_written` advance by 8 per non-zero aligned word
    /// and 1 per non-zero byte of the unaligned edges). Returns `true` if
    /// any byte was actually modified: the caller then owes the fence,
    /// and nothing otherwise.
    ///
    /// This is the parity patch of every write-back, whatever its size:
    /// the caller holds both the old and the new content and an exclusive
    /// parity range-lock covering the range. `old` and `new` must be
    /// equal-length.
    pub fn xor_diff_range(&self, off: u64, old: &[u8], new: &[u8]) -> Result<bool> {
        assert_eq!(old.len(), new.len(), "diff XOR requires equal-length ranges");
        self.check_bounds(off, new.len())?;
        self.maybe_crash();
        let len = new.len();
        // A partial first line, whole device cache lines, a partial last.
        let head = ((off.wrapping_neg() % CACHELINE as u64) as usize).min(len);
        let tail = head + (len - head) / CACHELINE * CACHELINE;
        let mut touched = 0u64; // bytes actually XORed
        let mut lines = 0u64; // distinct cache lines dirtied
        let mut tally = |xored: u64| {
            touched += xored;
            lines += (xored > 0) as u64;
        };
        tally(self.xor_diff_edge(off, &old[..head], &new[..head]));
        let body =
            old[head..tail].chunks_exact(CACHELINE).zip(new[head..tail].chunks_exact(CACHELINE));
        for (k, (o, n)) in body.enumerate() {
            let pos = off + (head + k * CACHELINE) as u64;
            let (o, n) = (o.try_into().expect("whole line"), n.try_into().expect("whole line"));
            tally(self.xor_diff_line(pos, o, n));
        }
        tally(self.xor_diff_edge(off + tail as u64, &old[tail..], &new[tail..]));
        if touched > 0 {
            DeviceStats::add(&self.stats.xor_bytes, touched);
            DeviceStats::add(&self.stats.bytes_written, touched);
            if self.latency.write_ns_per_line > 0 {
                LatencyModel::charge(self.latency.write_ns_per_line * lines);
            }
            self.charge_xor_flushes(lines);
        }
        Ok(touched > 0)
    }

    /// One whole cache line of [`NvmDevice::xor_diff_range`] (`pos` is
    /// line-aligned and bounds-checked): returns the bytes XORed, 8 per
    /// non-zero diff word. Byte arrays for the diff and the XOR (they
    /// vectorize), a word view for the zero test and the count.
    #[inline]
    fn xor_diff_line(&self, pos: u64, old: &[u8; CACHELINE], new: &[u8; CACHELINE]) -> u64 {
        let mut diff = [0u8; CACHELINE];
        for k in 0..CACHELINE {
            diff[k] = old[k] ^ new[k];
        }
        let mut words = [0u64; CACHELINE / 8];
        for (k, w) in words.iter_mut().enumerate() {
            *w = u64::from_ne_bytes(diff[k * 8..k * 8 + 8].try_into().expect("8-byte word"));
        }
        if words.iter().fold(0, |any, &w| any | w) == 0 {
            return 0;
        }
        self.note_xor_line(pos / CACHELINE as u64);
        // SAFETY: `pos` is a line-aligned offset of a bounds-checked range
        // that covers the whole line, and the caller's exclusive
        // range-lock keeps other accesses off it. XORing a zero byte
        // changes nothing.
        let line = unsafe { &mut *(self.ptr_at(pos) as *mut [u8; CACHELINE]) };
        for k in 0..CACHELINE {
            line[k] ^= diff[k];
        }
        self.note_xor_line_flushed(pos / CACHELINE as u64);
        8 * words.iter().filter(|&&w| w != 0).count() as u64
    }

    /// The partial first or last cache line of
    /// [`NvmDevice::xor_diff_range`], walked one 8-byte device word at a
    /// time: each word's diff is built with unaligned loads (zero-padded
    /// where the range starts or ends inside it), an all-zero one is
    /// skipped, a non-zero one is XORed in with plain stores, and the line
    /// is flushed once if any word was. Returns the bytes XORed: 8 per
    /// whole word, 1 per non-zero byte of a partial one.
    fn xor_diff_edge(&self, pos: u64, old: &[u8], new: &[u8]) -> u64 {
        let end = pos + new.len() as u64;
        let line = pos / CACHELINE as u64;
        let mut touched = 0u64;
        let mut w_off = pos & !7;
        while w_off < end {
            let (at, n) = window(pos, end, w_off);
            let diff = window_word(old, pos, w_off) ^ window_word(new, pos, w_off);
            if diff != 0 {
                if touched == 0 {
                    self.note_xor_line(line);
                }
                let ptr = self.ptr_at(w_off);
                if n == 8 {
                    touched += 8;
                    // SAFETY: an aligned word inside the bounds-checked
                    // range, which the caller holds exclusively.
                    unsafe { *(ptr as *mut u64) ^= diff };
                } else {
                    for (k, &b) in diff.to_ne_bytes().iter().enumerate().skip(at).take(n) {
                        touched += (b != 0) as u64;
                        // SAFETY: as above; only the range's own bytes of
                        // the word are written.
                        unsafe { *ptr.add(k) ^= b };
                    }
                }
            }
            w_off += 8;
        }
        if touched > 0 {
            self.note_xor_line_flushed(line);
        }
        touched
    }

    /// Atomically XORs `patch` into the range at `off` with lock-free
    /// word atomics: visits every 8-byte-aligned word overlapping the
    /// range, builds its patch word (zero-padded at the two unaligned
    /// edges), `fetch_xor`s the non-zero ones in, and flushes (`CLWB`)
    /// each cache line it dirtied once it moves past it. Returns `true` if
    /// anything was applied — callers skip their trailing fence otherwise.
    /// The library patches parity with [`NvmDevice::xor_diff_range`] under
    /// an exclusive stripe guard; this primitive stays as the priced
    /// reference for the lock-free alternative.
    ///
    /// Latency accounting: unlike [`NvmDevice::atomic_xor_u64`] (an
    /// isolated RMW, charged a full NVM round trip), a span of adjacent
    /// word RMWs keeps its cache line resident — real lock-prefixed
    /// instructions to one cached line pipeline and the line takes a
    /// single media write-back — so the charge here is
    /// `atomic_rmw_ns` per *touched cache line*, not per word.
    pub fn atomic_xor_patch_span(&self, off: u64, patch: &[u8]) -> Result<bool> {
        let end = off + patch.len() as u64;
        if patch.is_empty() {
            return Ok(false);
        }
        let a_start = off & !7;
        self.check_bounds(a_start, crate::align_up(end as usize, 8) - a_start as usize)?;
        self.maybe_crash();
        let mut words = 0u64;
        let mut lines = 0u64;
        let mut noted = u64::MAX;
        let mut w_off = a_start;
        while w_off < end {
            let v = window_word(patch, off, w_off);
            if v != 0 {
                // An aligned 8-byte word never straddles a cache line.
                let line = w_off / CACHELINE as u64;
                if line != noted {
                    if lines > 0 {
                        self.note_xor_line_flushed(noted);
                    }
                    noted = line;
                    lines += 1;
                    self.note_xor_line(line);
                }
                // SAFETY: aligned, in-bounds.
                let atom = unsafe { &*(self.ptr_at(w_off) as *const AtomicU64) };
                atom.fetch_xor(v, Ordering::AcqRel);
                words += 1;
            }
            w_off += 8;
        }
        if words > 0 {
            self.note_xor_line_flushed(noted);
            DeviceStats::add(&self.stats.atomic_xors, words);
            if self.latency.atomic_rmw_ns > 0 {
                LatencyModel::charge(self.latency.atomic_rmw_ns * lines);
            }
            self.charge_xor_flushes(lines);
        }
        Ok(words > 0)
    }

    /// XORs `src` into the range at `off` with plain (vectorized) stores.
    ///
    /// Callers must hold an exclusive parity range-lock covering the
    /// range.
    pub fn xor_range(&self, off: u64, src: &[u8]) -> Result<()> {
        self.check_bounds(off, src.len())?;
        self.maybe_crash();
        DeviceStats::add(&self.stats.xor_bytes, src.len() as u64);
        DeviceStats::add(&self.stats.bytes_written, src.len() as u64);
        if self.latency.write_ns_per_line > 0 {
            let lines = Self::lines_of(off, src.len());
            LatencyModel::charge(self.latency.write_ns_per_line * (lines.end - lines.start));
        }
        if let Some(tracker) = &self.tracker {
            for line in Self::lines_of(off, src.len()) {
                tracker.note_store(line, &self.line_content(line));
            }
        }
        let ptr = self.ptr_at(off);
        let mut i = 0usize;
        // Word-at-a-time XOR for the aligned middle, byte ops at the edges.
        // SAFETY: all accesses stay within the bounds-checked range.
        unsafe {
            while i < src.len() && (off as usize + i) % 8 != 0 {
                *ptr.add(i) ^= src[i];
                i += 1;
            }
            while i + 8 <= src.len() {
                let d = ptr.add(i) as *mut u64;
                let s = std::ptr::read_unaligned(src.as_ptr().add(i) as *const u64);
                std::ptr::write_unaligned(d, std::ptr::read_unaligned(d) ^ s);
                i += 8;
            }
            while i < src.len() {
                *ptr.add(i) ^= src[i];
                i += 1;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Issues `CLWB` for every cache line overlapping the range. The data is
    /// durable only after the next [`NvmDevice::drain`].
    pub fn flush(&self, off: u64, len: usize) -> Result<()> {
        self.check_bounds(off, len)?;
        self.maybe_crash();
        let lines = Self::lines_of(off, len);
        let n_lines = lines.end - lines.start;
        DeviceStats::add(&self.stats.lines_flushed, n_lines);
        if self.latency.flush_ns_per_line > 0 {
            LatencyModel::charge(self.latency.flush_ns_per_line * n_lines);
        }
        if let Some(tracker) = &self.tracker {
            for line in lines {
                tracker.note_flush(line, &self.line_content(line));
            }
        }
        Ok(())
    }

    /// Issues a store fence (`SFENCE`): all previously flushed lines and
    /// non-temporal stores become durable.
    pub fn drain(&self) {
        self.maybe_crash();
        DeviceStats::add(&self.stats.fences, 1);
        if self.latency.fence_ns > 0 {
            LatencyModel::charge(self.latency.fence_ns);
        }
        if let Some(tracker) = &self.tracker {
            tracker.drain();
        }
    }

    /// Flush + drain: makes the range durable (`pmem_persist` analogue).
    pub fn persist(&self, off: u64, len: usize) -> Result<()> {
        self.flush(off, len)?;
        self.drain();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Faults and crashes
    // ------------------------------------------------------------------

    /// Marks page index `page` as poisoned: subsequent reads covering it
    /// fail with [`MemError::Poisoned`] (the MCE/`SIGBUS` analogue).
    pub fn poison_page(&self, page: u64) -> Result<()> {
        if page >= self.pages() {
            return Err(MemError::OutOfBounds {
                off: page * PAGE_SIZE as u64,
                len: PAGE_SIZE,
                size: self.len(),
            });
        }
        self.poison.poison(page);
        Ok(())
    }

    /// Returns `true` if `page` is poisoned.
    pub fn is_poisoned_page(&self, page: u64) -> bool {
        self.poison.is_poisoned(page)
    }

    /// Lists all poisoned pages (the kernel's persistent bad-page list).
    pub fn poisoned_pages(&self) -> Vec<u64> {
        self.poison.all()
    }

    /// Repairs a poisoned page by rewriting it with `data` and clearing the
    /// poison, then persisting — the ACPI clear-uncorrectable flow.
    pub fn repair_page(&self, page: u64, data: &[u8]) -> Result<()> {
        if data.len() != PAGE_SIZE {
            return Err(MemError::OutOfBounds {
                off: page * PAGE_SIZE as u64,
                len: data.len(),
                size: PAGE_SIZE,
            });
        }
        let off = page * PAGE_SIZE as u64;
        self.check_bounds(off, PAGE_SIZE)?;
        self.write(off, data)?;
        self.persist(off, PAGE_SIZE)?;
        self.poison.clear(page);
        Ok(())
    }

    /// Corrupts memory directly, bypassing the store path: the model of a
    /// software "scribble" (wild pointer / buffer overrun) that hardware ECC
    /// cannot detect. The corruption is immediately durable.
    pub fn scribble(&self, off: u64, src: &[u8]) -> Result<()> {
        self.check_bounds(off, src.len())?;
        if let Some(tracker) = &self.tracker {
            for line in Self::lines_of(off, src.len()) {
                tracker.note_store(line, &self.line_content(line));
            }
        }
        // SAFETY: bounds checked.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr_at(off), src.len());
        }
        if let Some(tracker) = &self.tracker {
            for line in Self::lines_of(off, src.len()) {
                tracker.note_flush(line, &self.line_content(line));
            }
            tracker.drain();
        }
        Ok(())
    }

    /// Simulates a power failure: every dirty line reverts to a state the
    /// hardware could have left it in, as chosen by `plan`.
    ///
    /// The caller must have quiesced all other device users.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::Untracked`] if the device was built in
    /// [`PersistenceMode::Fast`], which does not track dirty lines.
    pub fn simulate_crash(&self, plan: &mut dyn CrashPlan) -> Result<()> {
        let tracker = self.tracker.as_ref().ok_or(MemError::Untracked)?;
        tracker.crash_with(
            plan,
            |line| self.line_content(line),
            |line, content| {
                // SAFETY: line indices derive from bounds-checked stores.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        content.as_ptr(),
                        self.ptr_at(line * CACHELINE as u64),
                        CACHELINE,
                    );
                }
            },
        );
        Ok(())
    }

    /// Returns the indices of cache lines with unsettled persistence state
    /// (testing/diagnostics; empty in Fast mode).
    pub fn dirty_lines(&self) -> Vec<u64> {
        self.tracker.as_ref().map(|t| t.dirty_lines()).unwrap_or_default()
    }

    /// Returns `(line index, pending flush captures)` for every cache line
    /// whose persistence state is still unsettled, sorted by line index
    /// (empty in Fast mode).
    ///
    /// Each listed line has `pending + 2` possible crash outcomes
    /// ([`crate::LineOutcome::Old`], `pending` distinct
    /// [`crate::LineOutcome::Flushed`] captures,
    /// [`crate::LineOutcome::New`]), so the full crash-outcome space of the
    /// device is `∏ (pending_i + 2)` — the quantity exhaustive small-model
    /// sweeps enumerate via [`crate::MappedPlan::nth_combination`].
    pub fn dirty_line_choices(&self) -> Vec<(u64, usize)> {
        self.tracker
            .as_ref()
            .map(|t| t.dirty_line_choices(|line| self.line_content(line)))
            .unwrap_or_default()
    }

    /// Captures the complete device state — raw bytes, dirty-line tracker
    /// state, and the poisoned-page list — into a [`DeviceSnapshot`] that
    /// [`NvmDevice::restore`] can re-apply later.
    ///
    /// The copy bypasses poison checks (a snapshot is a simulator-level
    /// checkpoint, not a load) and does not count against the crash-point
    /// countdown. The caller must have quiesced all other device users.
    pub fn snapshot(&self) -> DeviceSnapshot {
        let mut bytes = vec![0u8; self.len()];
        // SAFETY: the copy covers exactly the allocation; callers quiesce
        // concurrent writers per the documented contract.
        unsafe {
            std::ptr::copy_nonoverlapping(self.buf.ptr(), bytes.as_mut_ptr(), self.len());
        }
        DeviceSnapshot {
            bytes,
            tracker: self.tracker.as_ref().map(|t| t.export()),
            poisoned: self.poison.all(),
        }
    }

    /// Restores the device to a previously captured [`DeviceSnapshot`]:
    /// raw bytes, dirty-line state, and poisoned pages all revert.
    ///
    /// Like [`NvmDevice::snapshot`] this is a simulator-level operation: it
    /// bypasses the store path, counts nothing against the crash countdown,
    /// and the caller must have quiesced all other device users. The crash
    /// countdown itself is left untouched — re-arm or disarm explicitly.
    ///
    /// # Errors
    ///
    /// Fails with [`MemError::OutOfBounds`] if the snapshot was taken from a
    /// device of a different size, and with [`MemError::Untracked`] if the
    /// snapshot carries dirty-line state but this device was built in
    /// [`PersistenceMode::Fast`].
    pub fn restore(&self, snap: &DeviceSnapshot) -> Result<()> {
        if snap.bytes.len() != self.len() {
            return Err(MemError::OutOfBounds { off: 0, len: snap.bytes.len(), size: self.len() });
        }
        match (&self.tracker, &snap.tracker) {
            (Some(tracker), Some(ts)) => tracker.import(ts),
            (Some(tracker), None) => tracker.import(&TrackerSnapshot::default()),
            (None, Some(_)) => return Err(MemError::Untracked),
            (None, None) => {}
        }
        // SAFETY: length verified above; callers quiesce concurrent users.
        unsafe {
            std::ptr::copy_nonoverlapping(snap.bytes.as_ptr(), self.buf.ptr(), self.len());
        }
        for page in self.poison.all() {
            self.poison.clear(page);
        }
        for &page in &snap.poisoned {
            self.poison.poison(page);
        }
        Ok(())
    }

    #[inline]
    fn check_aligned8(&self, off: u64) -> Result<()> {
        self.check_bounds(off, 8)?;
        if off % 8 != 0 {
            return Err(MemError::Misaligned { off, align: 8 });
        }
        Ok(())
    }
}

impl std::fmt::Debug for NvmDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvmDevice")
            .field("len", &self.len())
            .field("precise", &self.tracker.is_some())
            .field("poisoned_pages", &self.poison.all().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{AllNew, AllOld, LineOutcome};

    fn dev(mode: PersistenceMode) -> NvmDevice {
        NvmDevice::new(64 * 1024, DeviceConfig { mode, latency: LatencyModel::disabled() }).unwrap()
    }

    #[test]
    fn basic_write_read_roundtrip() {
        let d = dev(PersistenceMode::Fast);
        d.write(100, b"pangolin").unwrap();
        let mut out = [0u8; 8];
        d.read(100, &mut out).unwrap();
        assert_eq!(&out, b"pangolin");
        assert_eq!(d.read_slice(100, 8).unwrap(), b"pangolin");
    }

    #[test]
    fn bounds_are_enforced() {
        let d = dev(PersistenceMode::Fast);
        assert!(matches!(
            d.write(d.len() as u64 - 4, b"12345678"),
            Err(MemError::OutOfBounds { .. })
        ));
        let mut out = [0u8; 16];
        assert!(d.read(u64::MAX - 2, &mut out).is_err());
        assert!(NvmDevice::new(1000, DeviceConfig::fast()).is_err(), "non-page-multiple size");
    }

    #[test]
    fn unflushed_store_lost_on_pessimistic_crash() {
        let d = dev(PersistenceMode::Precise);
        d.write(0, &[7u8; 64]).unwrap();
        d.simulate_crash(&mut AllOld).unwrap();
        assert_eq!(d.read_slice(0, 64).unwrap(), &[0u8; 64][..]);
    }

    #[test]
    fn persisted_store_survives_pessimistic_crash() {
        let d = dev(PersistenceMode::Precise);
        d.write(0, &[7u8; 64]).unwrap();
        d.persist(0, 64).unwrap();
        d.simulate_crash(&mut AllOld).unwrap();
        assert_eq!(d.read_slice(0, 64).unwrap(), &[7u8; 64][..]);
    }

    #[test]
    fn evicted_store_can_survive_without_flush() {
        let d = dev(PersistenceMode::Precise);
        d.write(0, &[9u8; 16]).unwrap();
        d.simulate_crash(&mut AllNew).unwrap();
        assert_eq!(d.read_slice(0, 16).unwrap(), &[9u8; 16][..]);
    }

    #[test]
    fn nt_store_durable_after_fence_only() {
        let d = dev(PersistenceMode::Precise);
        d.write_nt(128, &[3u8; 32]).unwrap();
        // Without a fence the NT store may be lost.
        d.simulate_crash(&mut AllOld).unwrap();
        assert_eq!(d.read_slice(128, 32).unwrap(), &[0u8; 32][..]);

        d.write_nt(128, &[3u8; 32]).unwrap();
        d.drain();
        d.simulate_crash(&mut AllOld).unwrap();
        assert_eq!(d.read_slice(128, 32).unwrap(), &[3u8; 32][..]);
    }

    #[test]
    fn poison_blocks_reads_until_repair() {
        let d = dev(PersistenceMode::Fast);
        d.write(4096, &[5u8; 64]).unwrap();
        d.poison_page(1).unwrap();
        let mut out = [0u8; 4];
        assert_eq!(d.read(4096, &mut out), Err(MemError::Poisoned { page: 1 }));
        assert_eq!(d.read(8192, &mut out), Ok(()), "other pages unaffected");
        // Writes are allowed; reads still fail until a full-page repair.
        d.write(4096, &[6u8; 8]).unwrap();
        assert!(d.read(4100, &mut out).is_err());
        d.repair_page(1, &[0xEE; PAGE_SIZE]).unwrap();
        d.read(4096, &mut out).unwrap();
        assert_eq!(out, [0xEE; 4]);
        assert!(d.poisoned_pages().is_empty());
    }

    #[test]
    fn poison_spanning_read_reports_first_bad_page() {
        let d = dev(PersistenceMode::Fast);
        d.poison_page(2).unwrap();
        let mut buf = vec![0u8; 3 * PAGE_SIZE];
        assert_eq!(d.read(PAGE_SIZE as u64, &mut buf), Err(MemError::Poisoned { page: 2 }));
    }

    #[test]
    fn atomic_store_and_load() {
        let d = dev(PersistenceMode::Fast);
        d.atomic_store_u64(64, 0xDEAD_BEEF).unwrap();
        assert_eq!(d.atomic_load_u64(64).unwrap(), 0xDEAD_BEEF);
        assert!(matches!(d.atomic_store_u64(61, 1), Err(MemError::Misaligned { .. })));
    }

    #[test]
    fn atomic_xor_commutes() {
        let d = dev(PersistenceMode::Fast);
        d.atomic_store_u64(0, 0).unwrap();
        d.atomic_xor_u64(0, 0xFF00).unwrap();
        d.atomic_xor_u64(0, 0x00FF).unwrap();
        assert_eq!(d.atomic_load_u64(0).unwrap(), 0xFFFF);
        // XOR is its own inverse.
        d.atomic_xor_u64(0, 0xFFFF).unwrap();
        assert_eq!(d.atomic_load_u64(0).unwrap(), 0);
    }

    #[test]
    fn xor_range_matches_bytewise() {
        let d = dev(PersistenceMode::Fast);
        let base: Vec<u8> = (0..100u8).collect();
        let patch: Vec<u8> = (0..100u8).map(|b| b.wrapping_mul(31)).collect();
        d.write(3, &base).unwrap(); // deliberately misaligned
        d.xor_range(3, &patch).unwrap();
        let got = d.read_slice(3, 100).unwrap();
        for i in 0..100 {
            assert_eq!(got[i], base[i] ^ patch[i], "byte {i}");
        }
    }

    #[test]
    fn xor_diff_range_matches_bytewise_and_skips_zero() {
        let d = dev(PersistenceMode::Fast);
        let base: Vec<u8> = (0..200u8).collect();
        d.write(5, &base).unwrap(); // misaligned on purpose
                                    // A diff that is zero except for two islands (one mid-word, one
                                    // at the tail byte).
        let old: Vec<u8> = (0..200u8).map(|b| b.wrapping_mul(7)).collect();
        let mut new = old.clone();
        new[40..56].copy_from_slice(&[0xFF; 16]);
        new[199] ^= 0x01;
        let s0 = d.stats();
        let touched = d.xor_diff_range(5, &old, &new).unwrap();
        assert!(touched);
        let got = d.read_slice(5, 200).unwrap();
        for i in 0..200 {
            assert_eq!(got[i], base[i] ^ old[i] ^ new[i], "byte {i}");
        }
        // Only the non-zero diff words hit the device.
        let delta = d.stats().delta_since(&s0);
        assert!(delta.xor_bytes < 40, "zero diff words skipped, got {}", delta.xor_bytes);
        // Identical contents: nothing touched at all.
        let s1 = d.stats();
        assert!(!d.xor_diff_range(5, &old, &old).unwrap());
        assert_eq!(d.stats().delta_since(&s1).xor_bytes, 0);
    }

    #[test]
    fn read_and_commit_old_counters() {
        let d = dev(PersistenceMode::Fast);
        let mut buf = [0u8; 32];
        let s0 = d.stats();
        d.read(0, &mut buf).unwrap();
        d.note_commit_old_read(32);
        let delta = d.stats().delta_since(&s0);
        assert_eq!(delta.bytes_read, 32);
        assert_eq!(delta.read_ops, 1);
        assert_eq!(delta.commit_old_reads, 1);
        assert_eq!(delta.commit_old_bytes, 32);
    }

    #[test]
    fn scribble_bypasses_and_persists() {
        let d = dev(PersistenceMode::Precise);
        d.write(0, &[1u8; 8]).unwrap();
        d.persist(0, 8).unwrap();
        d.scribble(0, &[0xBA; 8]).unwrap();
        d.simulate_crash(&mut AllOld).unwrap();
        assert_eq!(d.read_slice(0, 8).unwrap(), &[0xBA; 8][..], "scribbles are durable");
    }

    #[test]
    fn stats_count_traffic() {
        let d = dev(PersistenceMode::Fast);
        d.write(0, &[0u8; 128]).unwrap();
        d.write_nt(256, &[0u8; 64]).unwrap();
        d.persist(0, 128).unwrap();
        d.atomic_xor_u64(512, 1).unwrap();
        let s = d.stats();
        assert_eq!(s.bytes_written, 128);
        assert_eq!(s.bytes_written_nt, 64);
        assert_eq!(s.lines_flushed, 2);
        assert_eq!(s.fences, 1);
        assert_eq!(s.atomic_xors, 1);
    }

    #[test]
    fn set_fills_and_tracks() {
        let d = dev(PersistenceMode::Precise);
        d.set(64, 0xAB, 200).unwrap();
        assert_eq!(d.read_slice(64, 200).unwrap(), &[0xAB; 200][..]);
        d.simulate_crash(&mut AllOld).unwrap();
        assert_eq!(d.read_slice(64, 200).unwrap(), &[0u8; 200][..]);
    }

    #[test]
    fn simulate_crash_on_fast_device_is_a_typed_error() {
        let d = dev(PersistenceMode::Fast);
        assert_eq!(d.simulate_crash(&mut AllOld), Err(MemError::Untracked));
    }

    #[test]
    fn snapshot_restores_bytes_dirty_state_and_poison() {
        let d = dev(PersistenceMode::Precise);
        // Durable data, an unsettled line with one pending flush, and a
        // poisoned page — the full checkpointable state.
        d.write(0, &[1u8; 64]).unwrap();
        d.persist(0, 64).unwrap();
        d.write(64, &[2u8; 64]).unwrap();
        d.flush(64, 64).unwrap(); // CLWB issued, never fenced
        d.write(64, &[3u8; 64]).unwrap(); // newer unflushed store on top
        d.poison_page(5).unwrap();
        let snap = d.snapshot();

        // Diverge: settle everything, clear the poison, overwrite.
        d.write(0, &[9u8; 128]).unwrap();
        d.persist(0, 128).unwrap();
        d.repair_page(5, &[0u8; PAGE_SIZE]).unwrap();
        assert!(d.dirty_line_choices().is_empty());

        d.restore(&snap).unwrap();
        assert_eq!(d.read_slice(0, 64).unwrap(), &[1u8; 64][..]);
        assert_eq!(d.read_slice(64, 64).unwrap(), &[3u8; 64][..]);
        assert_eq!(d.poisoned_pages(), vec![5]);
        assert_eq!(d.dirty_line_choices(), vec![(1, 1)], "pending flush survived restore");
        // The restored dirty state replays crash outcomes exactly as the
        // original would have: Flushed(0) picks the CLWB'd capture.
        d.simulate_crash(&mut |_line: u64, _p: usize| LineOutcome::Flushed(0)).unwrap();
        assert_eq!(d.read_slice(64, 64).unwrap(), &[2u8; 64][..]);
    }

    #[test]
    fn restore_rejects_size_mismatch_and_fast_mode_tracker_state() {
        let precise = dev(PersistenceMode::Precise);
        precise.write(0, &[7u8; 8]).unwrap();
        let snap = precise.snapshot();

        let small = NvmDevice::new(4096, DeviceConfig::precise()).unwrap();
        assert!(matches!(small.restore(&snap), Err(MemError::OutOfBounds { .. })));

        let fast = dev(PersistenceMode::Fast);
        assert_eq!(fast.restore(&snap), Err(MemError::Untracked));

        // Fast → fast roundtrips fine (bytes + poison only).
        let fast2 = dev(PersistenceMode::Fast);
        fast2.write(128, b"state").unwrap();
        let fsnap = fast2.snapshot();
        fast2.write(128, b"xxxxx").unwrap();
        fast2.restore(&fsnap).unwrap();
        assert_eq!(fast2.read_slice(128, 5).unwrap(), b"state");
    }

    #[test]
    fn arm_crash_after_rearms_from_scratch() {
        let d = dev(PersistenceMode::Precise);
        // Arming replaces the previous countdown rather than adding to it.
        d.arm_crash_after(1000);
        d.write(0, &[1u8; 8]).unwrap();
        d.arm_crash_after(1);
        d.write(0, &[2u8; 8]).unwrap(); // countdown 1 -> 0
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.write(0, &[3u8; 8]).unwrap() // fires at 0
        }));
        assert!(crashed.is_err());
        assert!(crashed.unwrap_err().downcast_ref::<CrashPoint>().is_some());
        // After firing, the countdown keeps decrementing into negatives:
        // effectively disarmed until the next arm_crash_after.
        d.write(0, &[4u8; 8]).unwrap();
        d.write(0, &[5u8; 8]).unwrap();
        assert!(d.crash_countdown() < 0);
        // Re-arming restarts the count regardless of prior state.
        d.arm_crash_after(0);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.write(0, &[6u8; 8]).unwrap()
        }));
        assert!(crashed.is_err());
        d.disarm_crash();
        d.write(0, &[7u8; 8]).unwrap();
    }

    #[test]
    fn dirty_line_choices_reports_outcome_space() {
        let d = dev(PersistenceMode::Precise);
        assert!(d.dirty_line_choices().is_empty());
        // Settle line 2 first: its drain would otherwise fence line 1's
        // CLWBs too (SFENCE is global, not per line).
        d.write(128, &[4u8; 64]).unwrap();
        d.persist(128, 64).unwrap(); // line 2: settled, not listed
        d.write(0, &[1u8; 64]).unwrap(); // line 0: store only
        d.write(64, &[2u8; 64]).unwrap();
        d.flush(64, 64).unwrap(); // line 1: one pending flush
        d.write(64, &[3u8; 64]).unwrap();
        d.flush(64, 64).unwrap(); // line 1: two pending flushes
        let choices = d.dirty_line_choices();
        assert_eq!(choices, vec![(0, 0), (1, 2)]);
        assert_eq!(crate::MappedPlan::combinations(&choices), 2 * 4);
    }

    #[test]
    fn mapped_plan_combinations_enumerate_every_outcome() {
        use crate::MappedPlan;
        let choices = vec![(0u64, 0usize), (1, 2)];
        let total = MappedPlan::combinations(&choices);
        assert_eq!(total, 8);
        // Decode every combination and collect the (line0, line1) outcomes.
        let mut seen = Vec::new();
        for c in 0..total {
            let mut plan = MappedPlan::nth_combination(&choices, c);
            let o0 = plan.choose(0, 0);
            let o1 = plan.choose(1, 2);
            assert_eq!(plan.choose(999, 0), LineOutcome::Old, "default outcome");
            seen.push((o0, o1));
        }
        seen.sort_by_key(|&(a, b)| (rank(a), rank(b)));
        seen.dedup();
        assert_eq!(seen.len(), 8, "all combinations distinct");
        for o1 in
            [LineOutcome::Old, LineOutcome::Flushed(0), LineOutcome::Flushed(1), LineOutcome::New]
        {
            for o0 in [LineOutcome::Old, LineOutcome::New] {
                assert!(seen.contains(&(o0, o1)), "missing {o0:?}/{o1:?}");
            }
        }

        fn rank(o: LineOutcome) -> usize {
            match o {
                LineOutcome::Old => 0,
                LineOutcome::Flushed(i) => 1 + i,
                LineOutcome::New => usize::MAX,
            }
        }
    }
}
