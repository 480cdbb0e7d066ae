//! Micro-buffers: DRAM shadow copies of NVMM objects (paper §3.2).
//!
//! Applications never store to NVMM directly. An object is copied into a
//! `malloc`-style DRAM buffer, modified there, and written back atomically
//! at commit. The buffer is framed by two 64-bit canary words; a destroyed
//! canary at commit time means the application overran an object boundary,
//! and the transaction aborts *before* the corruption can reach NVMM.
//! Micro-buffers also record their modified ranges, which sizes the redo
//! log and the parity update.
//!
//! # Pre-images
//!
//! Commit needs every modified range's *old* bytes twice — for the
//! incremental checksum and for the parity patch (paper §3.5) — and the
//! micro-buffer already loaded them from NVMM at open. So a buffer keeps
//! what it loaded: before any part of the user area is handed out for
//! mutation ([`UBuf::write`], [`UBuf::user_mut`]) the bytes about to be
//! exposed are saved in a `PreImage` store, at a cost proportional to the
//! bytes saved, and the loaded header is kept beside the working one.
//! `UBuf::preimage_into` then serves the commit from DRAM — no second
//! device read. A range that was marked but never handed out needs no
//! save: the frame still holds its loaded bytes.

use pgl_nvm::pod::{bytes_of, from_bytes, Pod};
use pgl_pmemobj::util::RangeSet;
use pgl_pmemobj::{ObjectHeader, PMEMoid, OBJ_HEADER_SIZE};

use crate::checksum::adler32;
use crate::error::{PglError, Result};

const CANARY_SEED: u64 = 0x70_61_6E_67_6F_6C_69_6E; // "pangolin"
const FRONT: usize = 8;

/// One saved run of loaded bytes.
#[derive(Debug, Clone, Copy)]
struct Piece {
    /// Offset within the user data.
    off: u64,
    len: u64,
    /// Where the run starts in [`PreImage::bytes`].
    start: usize,
}

impl Piece {
    fn end(&self) -> u64 {
        self.off + self.len
    }
}

/// The loaded bytes of the parts of a micro-buffer's user area that were
/// handed out for mutation, saved run by run in the order of first
/// exposure (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct PreImage {
    /// Sorted by offset, disjoint.
    pieces: Vec<Piece>,
    bytes: Vec<u8>,
}

impl PreImage {
    fn clear(&mut self) {
        self.pieces.clear();
        self.bytes.clear();
    }

    /// Saves the parts of `user[off..off+len]` not saved yet. Must run
    /// before the range is mutated for the first time.
    fn save(&mut self, user: &[u8], off: u64, len: u64) {
        let end = off + len;
        let mut at = off;
        let mut i = self.pieces.partition_point(|p| p.end() <= off);
        while at < end {
            let next = self.pieces.get(i).map_or(end, |p| p.off.min(end));
            if at < next {
                let start = self.bytes.len();
                self.bytes.extend_from_slice(&user[at as usize..next as usize]);
                self.pieces.insert(i, Piece { off: at, len: next - at, start });
                i += 1;
            }
            match self.pieces.get(i) {
                Some(p) if p.off < end => at = p.end(),
                _ => break,
            }
            i += 1;
        }
    }

    /// Appends the loaded bytes of `[off, off+len)` to `out`: saved runs
    /// from the store, the gaps from `user` (never handed out, so still as
    /// loaded).
    fn assemble(&self, user: &[u8], off: u64, len: u64, out: &mut Vec<u8>) {
        let end = off + len;
        let mut at = off;
        let first = self.pieces.partition_point(|p| p.end() <= off);
        for p in self.pieces[first..].iter().take_while(|p| p.off < end) {
            if at < p.off {
                out.extend_from_slice(&user[at as usize..p.off as usize]);
                at = p.off;
            }
            let upto = p.end().min(end);
            let from = p.start + (at - p.off) as usize;
            out.extend_from_slice(&self.bytes[from..from + (upto - at) as usize]);
            at = upto;
        }
        out.extend_from_slice(&user[at as usize..end as usize]);
    }
}

/// A micro-buffer's recyclable storage: frame bytes, range-set buffer and
/// pre-image store, all capacity-preserving.
#[derive(Debug, Default)]
pub(crate) struct FrameParts {
    pub(crate) frame: Vec<u8>,
    pub(crate) modified: RangeSet,
    pre: PreImage,
}

/// Lifecycle state of a micro-buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UBufState {
    /// Copied from NVMM, not yet modified.
    Clean,
    /// Copied from NVMM and modified; needs redo + write-back.
    Modified,
    /// Backs a fresh allocation; the NVMM object does not exist yet.
    New,
}

/// A DRAM shadow copy of one NVMM object.
///
/// Layout of `frame`: `[front canary 8][header 16][user data][back canary 8]`.
/// The frame is a `Vec` so finished transactions can recycle its storage
/// through the commit scratch (steady-state opens then allocate nothing).
pub struct UBuf {
    oid: PMEMoid,
    frame: Vec<u8>,
    user_size: usize,
    state: UBufState,
    /// Modified ranges, relative to the user data.
    modified: RangeSet,
    /// The header as loaded from NVMM (the working copy in the frame takes
    /// the refreshed checksum at commit).
    loaded_header: ObjectHeader,
    /// Loaded bytes of the ranges handed out for mutation so far.
    pre: PreImage,
}

impl UBuf {
    fn canary_for(oid: PMEMoid) -> u64 {
        CANARY_SEED ^ oid.off.rotate_left(17)
    }

    /// Builds the canary/header framing in (possibly recycled) storage,
    /// leaving the user area zeroed.
    fn frame_in(parts: FrameParts, oid: PMEMoid, header: ObjectHeader) -> UBuf {
        let FrameParts { mut frame, mut modified, mut pre } = parts;
        modified.clear();
        pre.clear();
        let user_size = header.size as usize;
        frame.clear();
        frame.resize(FRONT + 16 + user_size + 8, 0);
        let canary = Self::canary_for(oid).to_le_bytes();
        frame[..FRONT].copy_from_slice(&canary);
        frame[FRONT..FRONT + 16].copy_from_slice(bytes_of(&header));
        frame[FRONT + 16 + user_size..].copy_from_slice(&canary);
        UBuf {
            oid,
            frame,
            user_size,
            state: UBufState::Clean,
            modified,
            loaded_header: header,
            pre,
        }
    }

    fn framed(oid: PMEMoid, header: ObjectHeader, user: &[u8]) -> UBuf {
        debug_assert_eq!(user.len() as u64, header.size);
        let mut b = Self::frame_in(FrameParts::default(), oid, header);
        b.frame[FRONT + 16..FRONT + 16 + b.user_size].copy_from_slice(user);
        b
    }

    /// Builds a micro-buffer from the object's current NVMM content.
    pub fn from_nvmm(oid: PMEMoid, header: ObjectHeader, user: &[u8]) -> UBuf {
        Self::framed(oid, header, user)
    }

    /// Builds a `Clean` micro-buffer with zeroed user data sized from the
    /// header, for the pool to read NVMM content into directly (via
    /// [`UBuf::load_mut`]) — the open path's zero-staging-copy
    /// constructor. `parts` is recycled storage (any content; empty
    /// containers work).
    pub(crate) fn for_load(oid: PMEMoid, header: ObjectHeader, parts: FrameParts) -> UBuf {
        Self::frame_in(parts, oid, header)
    }

    /// Consumes the buffer, returning its storage for recycling.
    pub(crate) fn into_parts(self) -> FrameParts {
        FrameParts { frame: self.frame, modified: self.modified, pre: self.pre }
    }

    /// Builds a zero-filled micro-buffer for a fresh allocation; the whole
    /// object counts as modified.
    pub fn for_alloc(oid: PMEMoid, size: u64, type_num: u32) -> UBuf {
        Self::for_alloc_in(oid, size, type_num, FrameParts::default())
    }

    /// [`UBuf::for_alloc`] in recycled frame storage.
    pub(crate) fn for_alloc_in(oid: PMEMoid, size: u64, type_num: u32, parts: FrameParts) -> UBuf {
        let header = ObjectHeader { size, type_num, csum: 0 };
        let mut b = Self::frame_in(parts, oid, header);
        b.state = UBufState::New;
        b.modified.insert(0, size);
        b
    }

    /// The object this buffer shadows.
    pub fn oid(&self) -> PMEMoid {
        self.oid
    }

    /// Current state.
    pub fn state(&self) -> UBufState {
        self.state
    }

    /// The shadowed header (with whatever checksum was loaded/computed).
    pub fn header(&self) -> ObjectHeader {
        from_bytes(&self.frame[FRONT..FRONT + 16])
    }

    /// User data size in bytes.
    pub fn user_size(&self) -> usize {
        self.user_size
    }

    /// Read-only view of the user data.
    pub fn user(&self) -> &[u8] {
        &self.frame[FRONT + 16..FRONT + 16 + self.user_size]
    }

    /// The header as loaded from NVMM (unaffected by [`UBuf::set_csum`]):
    /// the header's pre-image at commit.
    pub fn loaded_header(&self) -> ObjectHeader {
        self.loaded_header
    }

    /// Mutable view of the user data *without* range tracking; callers must
    /// mark ranges with [`UBuf::mark_modified`] (the `pgl_tx_add_range`
    /// pattern), before or after modifying. Misuse is caught at commit:
    /// unmarked changes simply do not persist, exactly like forgetting
    /// `add_range` in `libpmemobj`. The whole view is about to be exposed,
    /// so the first call saves whatever part of the loaded object was not
    /// saved yet (an O(object) copy; [`UBuf::write`] saves only its range).
    pub fn user_mut(&mut self) -> &mut [u8] {
        self.save_loaded(0, self.user_size as u64);
        self.load_mut()
    }

    /// The user area for filling in loaded or constructed content: no
    /// pre-image is saved. For the pool's load path and for handles whose
    /// commit never consumes a pre-image.
    pub(crate) fn load_mut(&mut self) -> &mut [u8] {
        &mut self.frame[FRONT + 16..FRONT + 16 + self.user_size]
    }

    /// Saves the loaded bytes of `[off, off+len)` ahead of their first
    /// mutable exposure. Fresh allocations have no pre-image.
    fn save_loaded(&mut self, off: u64, len: u64) {
        if self.state != UBufState::New {
            let user = &self.frame[FRONT + 16..FRONT + 16 + self.user_size];
            self.pre.save(user, off, len);
        }
    }

    /// Appends the loaded (pre-transaction) bytes of `[off, off+len)` to
    /// `out` — the range's NVMM content under the §3.4 ownership rule,
    /// served from DRAM.
    pub(crate) fn preimage_into(&self, off: u64, len: u64, out: &mut Vec<u8>) {
        self.pre.assemble(self.user(), off, len, out);
    }

    /// Marks `[off, off+len)` of the user data as modified.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the object.
    pub fn mark_modified(&mut self, off: u64, len: u64) {
        assert!(
            off + len <= self.user_size as u64,
            "range [{off}, +{len}) exceeds object size {}",
            self.user_size
        );
        if len == 0 {
            return;
        }
        self.modified.insert(off, len);
        if self.state == UBufState::Clean {
            self.state = UBufState::Modified;
        }
    }

    /// Copies `src` into the user data at `off` and marks the range
    /// (saving its loaded bytes first).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the object.
    pub fn write(&mut self, off: u64, src: &[u8]) {
        let len = src.len() as u64;
        self.mark_modified(off, len); // bounds-checks the range
        self.save_loaded(off, len);
        let o = off as usize;
        self.load_mut()[o..o + src.len()].copy_from_slice(src);
    }

    /// Typed store into the user data.
    pub fn write_pod<T: Pod>(&mut self, off: u64, val: &T) {
        self.write(off, bytes_of(val));
    }

    /// Typed load from the user data.
    pub fn read_pod<T: Pod>(&self, off: u64) -> T {
        from_bytes(&self.user()[off as usize..])
    }

    /// The modified ranges (user-data relative).
    pub fn modified(&self) -> &RangeSet {
        &self.modified
    }

    /// Verifies both canary words, failing with
    /// [`PglError::CanaryMismatch`] if the application overran the buffer.
    pub fn check_canaries(&self) -> Result<()> {
        let canary = Self::canary_for(self.oid).to_le_bytes();
        let front_ok = self.frame[..FRONT] == canary;
        let back = &self.frame[FRONT + 16 + self.user_size..];
        let back_ok = back == canary;
        if front_ok && back_ok {
            Ok(())
        } else {
            Err(PglError::CanaryMismatch { off: self.oid.off })
        }
    }

    /// Verifies the user data against the header checksum.
    pub fn verify_checksum(&self) -> bool {
        self.header().csum == adler32(self.user())
    }

    /// Stores `csum` into the shadowed header.
    pub fn set_csum(&mut self, csum: u32) {
        let mut h = self.header();
        h.csum = csum;
        self.frame[FRONT..FRONT + 16].copy_from_slice(bytes_of(&h));
    }

    /// Returns the raw header+user bytes (what gets written back for `New`
    /// objects, starting at the NVMM header offset).
    pub fn header_and_user(&self) -> &[u8] {
        &self.frame[FRONT..FRONT + 16 + self.user_size]
    }

    /// NVMM offset of the object header.
    pub fn header_off(&self) -> u64 {
        self.oid.off - OBJ_HEADER_SIZE
    }

    /// Deliberately corrupts a canary (test/fault-injection helper
    /// simulating a buffer overrun).
    pub fn smash_back_canary(&mut self) {
        let n = self.frame.len();
        self.frame[n - 1] ^= 0xFF;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid() -> PMEMoid {
        PMEMoid::new(1, 4096)
    }

    #[test]
    fn from_nvmm_preserves_content() {
        let hdr = ObjectHeader { size: 32, type_num: 5, csum: 77 };
        let data: Vec<u8> = (0..32).collect();
        let b = UBuf::from_nvmm(oid(), hdr, &data);
        assert_eq!(b.user(), &data[..]);
        assert_eq!(b.header().type_num, 5);
        assert_eq!(b.state(), UBufState::Clean);
        assert!(b.modified().is_empty());
        b.check_canaries().unwrap();
    }

    #[test]
    fn writes_track_ranges_and_state() {
        let b = UBuf::for_alloc(oid(), 64, 1);
        assert_eq!(b.state(), UBufState::New);
        assert_eq!(b.modified().total_bytes(), 64, "new objects fully modified");

        let hdr = ObjectHeader { size: 64, type_num: 1, csum: 0 };
        let mut b = UBuf::from_nvmm(oid(), hdr, &[0u8; 64]);
        b.write(8, &[1, 2, 3]);
        b.write_pod(32, &0xABCDu64);
        assert_eq!(b.state(), UBufState::Modified);
        assert_eq!(b.modified().total_bytes(), 3 + 8);
        assert_eq!(b.read_pod::<u64>(32), 0xABCD);
    }

    #[test]
    fn preimage_is_the_loaded_bytes_after_any_write_sequence() {
        let loaded: Vec<u8> = (0..200u8).collect();
        let hdr = ObjectHeader { size: 200, type_num: 1, csum: 0 };
        let mut b = UBuf::from_nvmm(oid(), hdr, &loaded);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |below: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) % below
        };
        for step in 0..400u32 {
            // Overlapping, adjacent, nested and repeated writes ...
            let off = next(200);
            let len = next(200 - off + 1).min(1 + next(40));
            b.write(off, &vec![step as u8 ^ 0xA5; len as usize]);
            // ... never disturb what any range was loaded as (saved runs
            // and never-written gaps alike); `out` is appended to.
            let q_off = next(200);
            let q_len = next(200 - q_off + 1);
            let mut out = vec![0xEE];
            b.preimage_into(q_off, q_len, &mut out);
            assert_eq!(out[0], 0xEE);
            assert_eq!(out[1..], loaded[q_off as usize..(q_off + q_len) as usize], "step {step}");
        }
        assert_eq!(b.loaded_header().csum, 0);
    }

    #[test]
    fn raw_view_saves_the_whole_object_once_and_new_buffers_save_nothing() {
        let loaded = [7u8; 64];
        let hdr = ObjectHeader { size: 64, type_num: 1, csum: 9 };
        let mut b = UBuf::from_nvmm(oid(), hdr, &loaded);
        b.write(8, &[1; 8]); // saved before the raw view is taken
        b.user_mut()[..32].fill(2); // modify first ...
        b.mark_modified(0, 32); // ... mark afterwards
        b.user_mut()[40] = 3; // a second view saves nothing more
        assert_eq!(b.pre.bytes.len(), 64);
        let mut out = Vec::new();
        b.preimage_into(0, 64, &mut out);
        assert_eq!(out, loaded);
        b.set_csum(0xDEAD);
        assert_eq!((b.header().csum, b.loaded_header().csum), (0xDEAD, 9));

        let mut fresh = UBuf::for_alloc(oid(), 64, 1);
        fresh.write(0, &[1; 16]);
        fresh.user_mut()[20] = 5;
        assert!(fresh.pre.bytes.is_empty() && fresh.pre.pieces.is_empty());
    }

    #[test]
    fn canary_detects_overrun() {
        let mut b = UBuf::for_alloc(oid(), 16, 1);
        b.check_canaries().unwrap();
        b.smash_back_canary();
        assert!(matches!(b.check_canaries(), Err(PglError::CanaryMismatch { .. })));
    }

    #[test]
    fn checksum_roundtrip() {
        let data = [9u8; 48];
        let hdr = ObjectHeader { size: 48, type_num: 2, csum: adler32(&data) };
        let b = UBuf::from_nvmm(oid(), hdr, &data);
        assert!(b.verify_checksum());

        let hdr_bad = ObjectHeader { csum: 123, ..hdr };
        let b = UBuf::from_nvmm(oid(), hdr_bad, &data);
        assert!(!b.verify_checksum());
    }

    #[test]
    fn set_csum_updates_header_only() {
        let mut b = UBuf::for_alloc(oid(), 8, 3);
        b.set_csum(0xDEAD);
        assert_eq!(b.header().csum, 0xDEAD);
        assert_eq!(b.header().size, 8);
        b.check_canaries().unwrap();
    }

    #[test]
    #[should_panic(expected = "exceeds object")]
    fn out_of_bounds_mark_panics() {
        let mut b = UBuf::for_alloc(oid(), 8, 1);
        b.mark_modified(4, 8);
    }
}
