//! Reusable scratch memory: the allocation-free backbone of the fused
//! commit pipeline, plus the thread-local buffers of the fault path
//! ([`FaultScratch`]: reconstruction, column recompute, parity
//! verification, scribble repair).
//!
//! A committing transaction needs two kinds of transient memory:
//!
//! 1. **old-data bytes** — the pre-image of every write-back span,
//!    assembled from what the transaction's micro-buffers loaded (never
//!    read from NVMM a second time) and consumed twice: by the
//!    incremental Adler32 delta (commit stage 2) and by the parity XOR
//!    patch at write-back (stage 6);
//! 2. **a staging buffer** for the on-NVMM pre-image a construction
//!    write-back needs for parity.
//!
//! [`CommitScratch`] owns both as growable buffers that are *cleared
//! but never shrunk* between transactions: finished transactions recycle
//! their scratch into a thread-local slot, so steady-state commits of
//! small objects perform **zero heap allocations**. The regression tests
//! in `tests/commit_reads.rs` pin both this and the zero-commit-time-reads
//! invariant (via the device's read counters).

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::parity::LeftOut;
use crate::ubuf::{FrameParts, UBuf};

/// Multiply–xorshift hasher for `u64` pool offsets. Transaction maps are
/// keyed by object offsets (already unique, low entropy in the low bits);
/// SipHash is wasted work on this hot path.
#[derive(Default)]
pub(crate) struct OffHasher(u64);

impl Hasher for OffHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback (unused by u64 keys): FNV-1a.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }
}

/// `HashMap` keyed by pool offsets with the cheap [`OffHasher`].
pub(crate) type OffMap<V> = HashMap<u64, V, BuildHasherDefault<OffHasher>>;

/// Upper bound on recycled micro-buffer frames kept per thread; past
/// this, frames are simply dropped (bounds idle memory).
const MAX_FRAMES: usize = 8;

/// Reusable per-transaction commit scratch (see the module docs).
///
/// Obtained via [`CommitScratch::take`] (thread-local recycling) and
/// returned with [`CommitScratch::recycle`]; a fresh default is used when
/// the thread has none cached yet.
#[derive(Default)]
pub(crate) struct CommitScratch {
    /// Pre-image bytes of every write-back span, packed end to end in
    /// commit processing order — the exact order the write-back stage
    /// re-walks them, so a byte cursor pairs them back up.
    pub old: Vec<u8>,
    /// Staging buffer for an allocate-and-publish node's image.
    pub tmp: Vec<u8>,
    /// The parity shards a commit's effects land in (cross-shard routing).
    pub shards: Vec<u64>,
    /// Recycled (empty) micro-buffer table for the next transaction.
    pub ubuf_map: OffMap<UBuf>,
    /// Recycled insertion-order buffer.
    pub order: Vec<u64>,
    /// Recycled micro-buffer storage, capacity-preserving.
    pub frames: Vec<FrameParts>,
}

thread_local! {
    /// Per-thread recycled scratch: commits on the same thread reuse the
    /// grown buffers instead of re-allocating.
    static RECYCLED: RefCell<Option<CommitScratch>> = const { RefCell::new(None) };
}

impl CommitScratch {
    /// Takes the thread's recycled scratch (or a fresh default), cleared
    /// and ready for one transaction's commit.
    pub fn take() -> CommitScratch {
        RECYCLED.with(|slot| slot.borrow_mut().take()).unwrap_or_default()
    }

    /// Clears the scratch (keeping capacity) and parks it in the
    /// thread-local slot for the next transaction on this thread.
    pub fn recycle(mut self) {
        self.reset();
        RECYCLED.with(|slot| *slot.borrow_mut() = Some(self));
    }

    /// Clears all buffers without releasing their capacity.
    pub fn reset(&mut self) {
        self.old.clear();
        self.tmp.clear();
        self.shards.clear();
        self.ubuf_map.clear();
        self.order.clear();
    }

    /// Parks a finished micro-buffer's storage for reuse (bounded pool).
    pub fn push_frame(&mut self, parts: FrameParts) {
        park_frame(&mut self.frames, parts);
    }
}

/// Byte bound on a parked frame: [`MAX_FRAMES`] caps the count, this
/// caps each frame's pinned capacity. Transactions load the segments they
/// touch, but `ubuf_mut` and `open_object` load objects up to `max_alloc`
/// — parking those would pin object-sized DRAM per thread indefinitely,
/// so frames above 64 KiB are dropped and simply re-allocated on the next
/// large load.
const MAX_FRAME_BYTES: usize = (64 << 10) + 64;

/// Parks micro-buffer storage in `frames`, bounded by [`MAX_FRAMES`]
/// entries of at most [`MAX_FRAME_BYTES`] each (shared by the commit
/// scratch and the thread-local read-path pool). Storage that never grew
/// (a lazy open's placeholder) is not worth a slot.
pub(crate) fn park_frame(frames: &mut Vec<FrameParts>, parts: FrameParts) {
    let bytes = parts.frame.capacity();
    if frames.len() < MAX_FRAMES && bytes > 0 && bytes <= MAX_FRAME_BYTES {
        frames.push(parts);
    }
}

thread_local! {
    /// Recycled frames for the paths that cannot use the commit scratch an
    /// in-flight transaction owns: `open_object`'s load and the protected
    /// write's pre-image.
    static READ_FRAMES: RefCell<Vec<FrameParts>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's recycled read-path frames. Frames popped
/// and parked inside `f` keep their capacity across calls, so steady-state
/// verified reads allocate nothing. Re-entrant calls (a read inside a
/// read) see an empty pool and simply fall back to allocating.
pub(crate) fn with_read_frames<R>(f: impl FnOnce(&mut Vec<FrameParts>) -> R) -> R {
    let mut frames = READ_FRAMES.with(|slot| std::mem::take(&mut *slot.borrow_mut()));
    let r = f(&mut frames);
    READ_FRAMES.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_empty() {
            *slot = frames;
        }
    });
    r
}

/// Byte bound on a fault-path buffer kept between uses: slot- and
/// page-sized repairs and chunk-sized windows stay allocation-free, while
/// a one-off column recompute over a huge range does not pin its buffer.
const MAX_FAULT_BYTES: usize = 256 << 10;

/// Reusable fault-path scratch: every reconstruction, column recompute,
/// parity verification and scribble repair on this thread folds into
/// `rebuilt` and compares against `current`, so steady-state repairs and
/// scrub passes allocate nothing.
#[derive(Default)]
pub(crate) struct FaultScratch {
    /// XOR-fold accumulator: the parity-consistent bytes of a range.
    pub rebuilt: Vec<u8>,
    /// The bytes the same range currently holds on media.
    pub current: Vec<u8>,
}

thread_local! {
    static FAULT: RefCell<FaultScratch> =
        const { RefCell::new(FaultScratch { rebuilt: Vec::new(), current: Vec::new() }) };
    /// The parity engine's row-fold memo: per row, "leave it out of the
    /// fold" (the rebuilt row itself, and `Log` chunks).
    static LEFT_OUT: RefCell<LeftOut> = const { RefCell::new(LeftOut::new()) };
}

/// Runs `f` on the value parked in `slot`, parking it again afterwards.
/// The slot holds a default while `f` runs, so a re-entrant use simply
/// starts from empty buffers instead of aliasing.
fn with_parked<T: Default, R>(
    slot: &'static std::thread::LocalKey<RefCell<T>>,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    let mut v = slot.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let r = f(&mut v);
    slot.with(|s| *s.borrow_mut() = v);
    r
}

/// Runs `f` with this thread's [`FaultScratch`].
pub(crate) fn with_fault_scratch<R>(f: impl FnOnce(&mut FaultScratch) -> R) -> R {
    with_parked(&FAULT, |s| {
        let r = f(s);
        for buf in [&mut s.rebuilt, &mut s.current] {
            if buf.capacity() > MAX_FAULT_BYTES {
                *buf = Vec::new();
            }
        }
        r
    })
}

/// Runs `f` with this thread's row-fold memo ([`LeftOut`]), emptied of
/// any column an earlier use resolved.
pub(crate) fn with_left_out<R>(f: impl FnOnce(&mut LeftOut) -> R) -> R {
    with_parked(&LEFT_OUT, |lo| {
        lo.forget();
        f(lo)
    })
}

/// Resizes `buf` to `len` zero bytes, keeping its capacity.
pub(crate) fn zeroed(buf: &mut Vec<u8>, len: usize) -> &mut [u8] {
    buf.clear();
    buf.resize(len, 0);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycle_keeps_capacity_and_clears_content() {
        let mut s = CommitScratch::take();
        s.old.extend_from_slice(&[1, 2, 3]);
        s.tmp.resize(100, 7);
        let cap = s.tmp.capacity();
        s.recycle();
        let s2 = CommitScratch::take();
        assert!(s2.old.is_empty());
        assert!(s2.tmp.is_empty());
        assert!(s2.tmp.capacity() >= cap, "capacity survives recycling");
        // The slot is empty now; a second take yields a fresh default.
        let s3 = CommitScratch::take();
        assert_eq!(s3.tmp.capacity(), 0);
        s2.recycle();
        s3.recycle();
    }
}
