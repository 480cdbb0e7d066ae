//! Micro-buffers: DRAM shadow copies of NVMM objects (paper §3.2).
//!
//! Applications never store to NVMM directly. The parts of an object a
//! transaction works on are copied into DRAM, modified there, and written
//! back atomically at commit. A [`UBuf`] is the one shadow an object has:
//! its header (working and as loaded) plus a sorted set of disjoint
//! **resident runs** of the user area. An object loaded whole has the one
//! run `[0, size)`, a lazily opened one has none, and a write into an
//! object too large to load whole makes exactly the bytes it covers
//! resident (`UBuf::load`).
//!
//! Every run sits in one recycled frame as
//! `[canary 8][slot 16][bytes][canary 8]`. A destroyed canary at commit
//! means the application overran a boundary, and the transaction aborts
//! *before* the corruption can reach NVMM. The slot of the run at offset
//! 0 holds the working header, so header and data are adjacent in DRAM
//! exactly as they are on NVMM: a modified range that starts at 0 is
//! logged, stored and parity-patched together with the header as one
//! span (`UBuf::spans`). Loading a range that touches resident runs
//! merges them into one run, so runs never touch and every marked range
//! lies inside a single run — contiguous in DRAM.
//!
//! # Pre-images
//!
//! Commit needs every modified range's *old* bytes twice — for the
//! incremental checksum and for the parity patch (paper §3.5) — and the
//! micro-buffer already loaded them from NVMM. So a buffer keeps what it
//! loaded: before resident bytes are handed out for mutation
//! ([`UBuf::write`], [`UBuf::user_mut`]) they are saved in a `PreImage`
//! store, at a cost proportional to the bytes saved, and the loaded header
//! is kept beside the working one. `UBuf::seal` then serves the commit
//! from DRAM — no second device read. A range that was marked but never
//! handed out needs no save: its run still holds the loaded bytes.

use pgl_nvm::pod::{bytes_of, from_bytes, Pod};
use pgl_pmemobj::util::RangeSet;
use pgl_pmemobj::{ObjectHeader, PMEMoid, OBJ_HEADER_SIZE};

use crate::checksum::{adler32, adler32_update};
use crate::error::{PglError, Result};

const CANARY_SEED: u64 = 0x70_61_6E_67_6F_6C_69_6E; // "pangolin"
const CANARY: usize = 8;
const SLOT: usize = OBJ_HEADER_SIZE as usize;

/// The bytes of `[off, off+len)` of the user area, starting at `start` in
/// a byte arena: a resident run in the frame, or a saved run of loaded
/// bytes in the [`PreImage`] store.
#[derive(Debug, Clone, Copy)]
struct Piece {
    off: u64,
    len: u64,
    start: usize,
}

impl Piece {
    fn end(&self) -> u64 {
        self.off + self.len
    }

    /// Arena index of user offset `off` (which must lie in the piece).
    fn at(&self, off: u64) -> usize {
        self.start + (off - self.off) as usize
    }
}

/// The loaded bytes of the parts of a micro-buffer's resident runs that
/// were handed out for mutation, saved piece by piece in the order of
/// first exposure (see the module docs).
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

    /// Saves the parts of `[off, off+len)` not saved yet from `run`, the
    /// bytes of the resident run that starts at user offset `base`. Must
    /// run before the range is mutated for the first time.
    fn save(&mut self, run: &[u8], base: u64, off: u64, len: u64) {
        let end = off + len;
        let mut at = off;
        let mut i = self.pieces.partition_point(|p| p.end() <= off);
        while at < end {
            let next = self.pieces.get(i).map_or(end, |p| p.off.min(end));
            if at < next {
                let start = self.bytes.len();
                self.bytes.extend_from_slice(&run[(at - base) as usize..(next - base) as usize]);
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

    /// Appends the loaded bytes of `[off, off+len)` to `out`: saved pieces
    /// from the store, the gaps from `run` (never handed out, so still as
    /// loaded), the resident run that starts at user offset `base`.
    fn assemble(&self, run: &[u8], base: u64, off: u64, len: u64, out: &mut Vec<u8>) {
        let end = off + len;
        let mut at = off;
        let first = self.pieces.partition_point(|p| p.end() <= off);
        for p in self.pieces[first..].iter().take_while(|p| p.off < end) {
            if at < p.off {
                out.extend_from_slice(&run[(at - base) as usize..(p.off - base) as usize]);
                at = p.off;
            }
            let upto = p.end().min(end);
            out.extend_from_slice(&self.bytes[p.at(at)..p.at(upto)]);
            at = upto;
        }
        out.extend_from_slice(&run[(at - base) as usize..(end - base) as usize]);
    }
}

/// One contiguous piece of a sealed buffer's write-back: `len` new bytes
/// at `start` in the frame, bound for NVMM offset `off`.
#[derive(Debug, Clone, Copy)]
struct Span {
    off: u64,
    start: usize,
    len: usize,
}

/// A micro-buffer's recyclable storage: frame bytes, run and span tables,
/// range-set buffer and pre-image store, all capacity-preserving.
#[derive(Debug, Default)]
pub(crate) struct FrameParts {
    pub(crate) frame: Vec<u8>,
    runs: Vec<Piece>,
    spans: Vec<Span>,
    pub(crate) modified: RangeSet,
    pre: PreImage,
}

/// Lifecycle state of a micro-buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UBufState {
    /// Opened while verified-fresh in the verification cache: only the
    /// size is known, the header was not read and nothing is resident.
    Lazy,
    /// Header read from NVMM, nothing modified.
    Clean,
    /// Modified; needs redo + write-back.
    Modified,
    /// Backs a fresh allocation; the NVMM object does not exist yet.
    New,
}

/// A DRAM shadow copy of one NVMM object (see the module docs).
///
/// The frame is a `Vec` so finished transactions can recycle its storage
/// through the commit scratch (steady-state opens then allocate nothing).
pub struct UBuf {
    oid: PMEMoid,
    state: UBufState,
    /// The working header (takes the refreshed checksum at commit),
    /// mirrored in the slot of the run at offset 0. A `Lazy` buffer knows
    /// only its `size`.
    header: ObjectHeader,
    /// The header as loaded from NVMM: the header's pre-image at commit.
    loaded_header: ObjectHeader,
    /// Resident runs: sorted, disjoint and never touching; `start` is
    /// where a run's bytes begin in `frame`.
    runs: Vec<Piece>,
    /// Arena of framed runs (a merged run's old frames stay behind, unused,
    /// until the storage is recycled).
    frame: Vec<u8>,
    /// Modified ranges, relative to the user data; each lies in one run.
    modified: RangeSet,
    /// Loaded bytes of the ranges handed out for mutation so far.
    pre: PreImage,
    /// The write-back [`UBuf::seal`] laid out (see [`UBuf::spans`]).
    spans: Vec<Span>,
}

impl UBuf {
    fn canary_for(oid: PMEMoid) -> [u8; CANARY] {
        (CANARY_SEED ^ oid.off.rotate_left(17)).to_le_bytes()
    }

    fn new_in(parts: FrameParts, oid: PMEMoid, header: ObjectHeader, state: UBufState) -> UBuf {
        let FrameParts { mut frame, mut runs, mut spans, mut modified, mut pre } = parts;
        frame.clear();
        runs.clear();
        spans.clear();
        modified.clear();
        pre.clear();
        UBuf { oid, state, header, loaded_header: header, runs, frame, modified, pre, spans }
    }

    /// A placeholder for an object opened under a verification-cache hit
    /// of `size` bytes: no header read, nothing resident, no storage.
    pub(crate) fn lazy(oid: PMEMoid, size: u64) -> UBuf {
        let header = ObjectHeader { size, type_num: 0, csum: 0 };
        Self::new_in(FrameParts::default(), oid, header, UBufState::Lazy)
    }

    /// Builds a `Clean` micro-buffer with no resident run, for the pool to
    /// read NVMM content into (`UBuf::load`). `parts` is recycled
    /// storage (any content; empty containers work).
    pub(crate) fn for_load(oid: PMEMoid, header: ObjectHeader, parts: FrameParts) -> UBuf {
        Self::new_in(parts, oid, header, UBufState::Clean)
    }

    /// Builds a fully resident micro-buffer from the object's NVMM content.
    pub fn from_nvmm(oid: PMEMoid, header: ObjectHeader, user: &[u8]) -> UBuf {
        debug_assert_eq!(user.len() as u64, header.size);
        let mut b = Self::for_load(oid, header, FrameParts::default());
        let run = b.frame_run(0, header.size);
        b.frame[run.start..run.at(run.end())].copy_from_slice(user);
        b.runs.push(run);
        b
    }

    /// Consumes the buffer, returning its storage for recycling.
    pub(crate) fn into_parts(self) -> FrameParts {
        FrameParts {
            frame: self.frame,
            runs: self.runs,
            spans: self.spans,
            modified: self.modified,
            pre: self.pre,
        }
    }

    /// Builds a zero-filled micro-buffer for a fresh allocation; the whole
    /// object counts as modified.
    pub fn for_alloc(oid: PMEMoid, size: u64, type_num: u32) -> UBuf {
        Self::for_alloc_in(oid, size, type_num, FrameParts::default())
    }

    /// [`UBuf::for_alloc`] in recycled frame storage.
    pub(crate) fn for_alloc_in(oid: PMEMoid, size: u64, type_num: u32, parts: FrameParts) -> UBuf {
        let header = ObjectHeader { size, type_num, csum: 0 };
        let mut b = Self::new_in(parts, oid, header, UBufState::New);
        let run = b.frame_run(0, size);
        b.runs.push(run);
        b.modified.insert(0, size);
        b
    }

    /// Frames a zeroed run for `[off, off+len)` at the end of the arena
    /// (the caller enters it in the run table).
    fn frame_run(&mut self, off: u64, len: u64) -> Piece {
        let base = self.frame.len();
        let start = base + CANARY + SLOT;
        self.frame.resize(start + len as usize + CANARY, 0);
        let canary = Self::canary_for(self.oid);
        self.frame[base..base + CANARY].copy_from_slice(&canary);
        self.frame[start + len as usize..].copy_from_slice(&canary);
        if off == 0 {
            self.frame[start - SLOT..start].copy_from_slice(bytes_of(&self.header));
        }
        Piece { off, len, start }
    }

    /// Makes `[off, off+len)` resident, as part of one run: the parts no
    /// run holds yet are filled by `read(user offset, destination)`, and
    /// every run the range overlaps or touches is merged into the result.
    /// Returns the number of bytes read. A range that already lies in a
    /// run costs one lookup. On a read error nothing changes.
    pub(crate) fn load(
        &mut self,
        off: u64,
        len: u64,
        mut read: impl FnMut(u64, &mut [u8]) -> Result<()>,
    ) -> Result<u64> {
        let end = off + len;
        let i = self.runs.partition_point(|r| r.end() < off);
        let j = self.runs.partition_point(|r| r.off <= end);
        if len == 0 || (j == i + 1 && self.runs[i].off <= off && end <= self.runs[i].end()) {
            return Ok(0);
        }
        let lo = self.runs[i..j].first().map_or(off, |r| r.off.min(off));
        let hi = self.runs[i..j].last().map_or(end, |r| r.end().max(end));
        let new = self.frame_run(lo, hi - lo);
        let (mut at, mut loaded) = (lo, 0);
        let mut fill = |frame: &mut [u8], at: u64, upto: u64| {
            loaded += upto - at;
            read(at, &mut frame[new.at(at)..new.at(upto)])
        };
        for r in &self.runs[i..j] {
            if at < r.off {
                fill(&mut self.frame, at, r.off)?;
            }
            self.frame.copy_within(r.start..r.at(r.end()), new.at(r.off));
            at = r.end();
        }
        if at < hi {
            fill(&mut self.frame, at, hi)?;
        }
        self.runs.drain(i..j);
        self.runs.insert(i, new);
        Ok(loaded)
    }

    /// The run `[0, size)` of a fully resident buffer.
    ///
    /// # Panics
    ///
    /// Panics unless the whole object is resident.
    fn whole(&self) -> Piece {
        self.run_of(0, self.header.size).expect("object is not fully resident")
    }

    /// The run holding all of `[off, off+len)`, if one does.
    fn run_of(&self, off: u64, len: u64) -> Option<Piece> {
        let i = self.runs.partition_point(|r| r.end() <= off);
        self.runs.get(i).copied().filter(|r| r.off <= off && off + len <= r.end())
    }

    /// The resident bytes of `[off, off+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is not resident in one run.
    fn bytes(&self, off: u64, len: u64) -> &[u8] {
        let r = self.run_of(off, len).expect("range is not resident");
        &self.frame[r.at(off)..r.at(off + len)]
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
    /// Of a [`UBufState::Lazy`] buffer only the size is meaningful.
    pub fn header(&self) -> ObjectHeader {
        self.header
    }

    /// User data size in bytes.
    pub fn user_size(&self) -> usize {
        self.header.size as usize
    }

    /// Read-only view of the user data.
    ///
    /// # Panics
    ///
    /// Panics unless the whole object is resident.
    pub fn user(&self) -> &[u8] {
        let r = self.whole();
        &self.frame[r.start..r.at(r.end())]
    }

    /// Copies the resident bytes of `[off, off+dst.len())` over `dst`
    /// and reports whether they covered all of it. A caller that gets
    /// `false` fills `dst` from NVMM and calls again, so the transaction's
    /// own writes overlay the device bytes.
    pub fn read(&self, off: u64, dst: &mut [u8]) -> bool {
        let end = off + dst.len() as u64;
        let mut covered = 0;
        let first = self.runs.partition_point(|r| r.end() <= off);
        for r in self.runs[first..].iter().take_while(|r| r.off < end) {
            let (lo, hi) = (r.off.max(off), r.end().min(end));
            dst[(lo - off) as usize..(hi - off) as usize]
                .copy_from_slice(&self.frame[r.at(lo)..r.at(hi)]);
            covered += hi - lo;
        }
        covered == dst.len() as u64
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
    ///
    /// # Panics
    ///
    /// Panics unless the whole object is resident.
    pub fn user_mut(&mut self) -> &mut [u8] {
        self.save_loaded(self.whole(), 0, self.header.size);
        self.load_mut()
    }

    /// The user area for filling in constructed content: no pre-image is
    /// saved. For handles whose commit never consumes one.
    pub(crate) fn load_mut(&mut self) -> &mut [u8] {
        let r = self.whole();
        &mut self.frame[r.start..r.at(r.end())]
    }

    /// Saves the loaded bytes of `[off, off+len)`, resident in run `r`,
    /// ahead of their first mutable exposure. Fresh allocations have no
    /// pre-image.
    fn save_loaded(&mut self, r: Piece, off: u64, len: u64) {
        if self.state != UBufState::New {
            self.pre.save(&self.frame[r.start..r.at(r.end())], r.off, off, len);
        }
    }

    /// Marks `[off, off+len)` of the user data as modified.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the object or is not resident.
    pub fn mark_modified(&mut self, off: u64, len: u64) {
        self.mark(off, len);
    }

    /// [`UBuf::mark_modified`], returning the run that holds the range
    /// (`None` for an empty range, which marks nothing).
    fn mark(&mut self, off: u64, len: u64) -> Option<Piece> {
        assert!(
            off + len <= self.header.size,
            "range [{off}, +{len}) exceeds object size {}",
            self.header.size
        );
        if len == 0 {
            return None;
        }
        let run = self.run_of(off, len);
        assert!(run.is_some(), "range [{off}, +{len}) is not resident");
        self.modified.insert(off, len);
        if self.state == UBufState::Clean {
            self.state = UBufState::Modified;
        }
        run
    }

    /// Copies `src` into the user data at `off` and marks the range
    /// (saving its loaded bytes first).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the object or is not resident.
    pub fn write(&mut self, off: u64, src: &[u8]) {
        let len = src.len() as u64;
        if let Some(r) = self.mark(off, len) {
            self.save_loaded(r, off, len);
            self.frame[r.at(off)..r.at(off + len)].copy_from_slice(src);
        }
    }

    /// Typed store into the user data.
    pub fn write_pod<T: Pod>(&mut self, off: u64, val: &T) {
        self.write(off, bytes_of(val));
    }

    /// Typed load from the (resident) user data.
    pub fn read_pod<T: Pod>(&self, off: u64) -> T {
        from_bytes(self.bytes(off, std::mem::size_of::<T>() as u64))
    }

    /// The modified ranges (user-data relative).
    pub fn modified(&self) -> &RangeSet {
        &self.modified
    }

    /// Verifies both canary words of every run, failing with
    /// [`PglError::CanaryMismatch`] if the application overran one.
    pub fn check_canaries(&self) -> Result<()> {
        let canary = Self::canary_for(self.oid);
        let intact = |r: &Piece| {
            let (front, back) = (r.start - SLOT - CANARY, r.at(r.end()));
            self.frame[front..front + CANARY] == canary && self.frame[back..back + CANARY] == canary
        };
        if self.runs.iter().all(intact) {
            Ok(())
        } else {
            Err(PglError::CanaryMismatch { off: self.oid.off })
        }
    }

    /// Verifies the user data against the header checksum.
    pub fn verify_checksum(&self) -> bool {
        self.header.csum == adler32(self.user())
    }

    /// Stores `csum` into the shadowed header.
    pub fn set_csum(&mut self, csum: u32) {
        self.header.csum = csum;
        if let Some(r) = self.runs.first().filter(|r| r.off == 0) {
            self.frame[r.start - SLOT..r.start].copy_from_slice(bytes_of(&self.header));
        }
    }

    /// Returns the raw header+user bytes (what gets written back for `New`
    /// objects, starting at the NVMM header offset).
    pub fn header_and_user(&self) -> &[u8] {
        let r = self.whole();
        &self.frame[r.start - SLOT..r.at(r.end())]
    }

    /// NVMM offset of the object header.
    pub fn header_off(&self) -> u64 {
        self.oid.header_off()
    }

    /// Commit stage 2 for a `Modified` buffer: lays out its write-back as
    /// spans, each contiguous in DRAM — one per modified range, the one
    /// that starts at offset 0 extended downwards over the working header
    /// in front of it, and otherwise the 16 header bytes as a last span
    /// of their own (data, checksum and parity change together, §3.2).
    /// With `old`, the loaded bytes of every span are appended to it in
    /// span order, and with `csums` the working checksum is refreshed
    /// from them — incrementally per modified range, or in one pass over
    /// the new bytes when the range is the whole object. A `New` buffer
    /// has no spans and no loaded bytes; it just checksums its content.
    pub(crate) fn seal(&mut self, csums: bool, mut old: Option<&mut Vec<u8>>) {
        debug_assert!(old.is_some() || !csums, "the checksum refresh consumes the loaded bytes");
        match self.state {
            UBufState::Lazy | UBufState::Clean => return,
            UBufState::New if csums => return self.set_csum(adler32(self.user())),
            UBufState::New => return,
            UBufState::Modified => {}
        }
        let total = self.header.size;
        let mut c = self.loaded_header.csum;
        self.spans.clear();
        for (roff, rlen) in self.modified.iter() {
            let lead = if roff == 0 { SLOT } else { 0 };
            let r = self.run_of(roff, rlen).expect("marked ranges are resident");
            let (off, start) = (self.oid.off + roff - lead as u64, r.at(roff) - lead);
            self.spans.push(Span { off, start, len: lead + rlen as usize });
            let Some(old) = old.as_deref_mut() else { continue };
            old.extend_from_slice(&bytes_of(&self.loaded_header)[..lead]);
            let at = old.len();
            self.pre.assemble(&self.frame[r.start..r.at(r.end())], r.off, roff, rlen, old);
            let new = &self.frame[r.at(roff)..r.at(roff + rlen)];
            if csums && rlen == total {
                c = adler32(new);
            } else if csums {
                c = adler32_update(c, total, roff, &old[at..], new);
            }
        }
        if csums {
            self.set_csum(c);
        }
        if self.spans[0].off != self.header_off() {
            let start = self.frame.len();
            self.frame.extend_from_slice(bytes_of(&self.header));
            self.spans.push(Span { off: self.header_off(), start, len: SLOT });
            if let Some(old) = old {
                old.extend_from_slice(bytes_of(&self.loaded_header));
            }
        }
    }

    /// The write-back [`UBuf::seal`] laid out, as `(NVMM offset, new
    /// bytes)` spans.
    pub(crate) fn spans(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.spans.iter().map(|s| (s.off, &self.frame[s.start..s.start + s.len]))
    }

    /// Deliberately corrupts a canary (test/fault-injection helper
    /// simulating a buffer overrun).
    pub fn smash_back_canary(&mut self) {
        if let Some(r) = self.runs.last() {
            self.frame[r.at(r.end()) + CANARY - 1] ^= 0xFF;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid() -> PMEMoid {
        PMEMoid::new(1, 4096)
    }

    /// Appends the loaded bytes of the resident `[off, off+len)` to `out`.
    fn preimage_into(b: &UBuf, off: u64, len: u64, out: &mut Vec<u8>) {
        let r = b.run_of(off, len).expect("range is not resident");
        b.pre.assemble(&b.frame[r.start..r.at(r.end())], r.off, off, len, out);
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

    /// Random loads, writes and marks against a byte-wise model of the
    /// device image, the working view and the residency map: overlapping,
    /// adjacent, nested and gap-spanning ranges in any order.
    #[test]
    fn preimage_is_the_loaded_bytes_after_any_write_sequence() {
        const SIZE: u64 = 600;
        let device: Vec<u8> = (0..SIZE).map(|i| (i % 251) as u8).collect();
        let hdr = ObjectHeader { size: SIZE, type_num: 1, csum: 9 };
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |below: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) % below
        };
        for round in 0..8 {
            let mut b = UBuf::for_load(oid(), hdr, FrameParts::default());
            let mut working = device.clone();
            let mut resident = vec![false; SIZE as usize];
            for step in 0..400u32 {
                let off = next(SIZE);
                let len = next(SIZE - off + 1).min(1 + next(if round == 0 { SIZE } else { 40 }));
                let (lo, hi) = (off as usize, (off + len) as usize);
                let want = resident[lo..hi].iter().filter(|r| !**r).count() as u64;
                let got = b
                    .load(off, len, |at, dst| {
                        let at = at as usize;
                        assert!(resident[at..at + dst.len()].iter().all(|r| !r), "re-read");
                        dst.copy_from_slice(&device[at..at + dst.len()]);
                        Ok(())
                    })
                    .unwrap();
                assert_eq!(got, want, "step {step}: exactly the missing bytes were read");
                resident[lo..hi].fill(true);
                match step % 3 {
                    0 => {
                        b.write(off, &vec![step as u8 ^ 0xA5; len as usize]);
                        working[lo..hi].fill(step as u8 ^ 0xA5);
                    }
                    1 => b.mark_modified(off, len),
                    _ => {}
                }
                assert!(b.runs.windows(2).all(|w| w[0].end() < w[1].off), "runs never touch");
                b.check_canaries().unwrap();

                // The working view: resident bytes overlay the device's.
                let q_off = next(SIZE);
                let q_len = next(SIZE - q_off + 1);
                let (q_lo, q_hi) = (q_off as usize, (q_off + q_len) as usize);
                let mut out = device[q_lo..q_hi].to_vec();
                let covered = b.read(q_off, &mut out);
                assert_eq!(out, working[q_lo..q_hi], "step {step}");
                assert_eq!(covered, resident[q_lo..q_hi].iter().all(|r| *r), "step {step}");

                // The loaded view of every modified range is the device's
                // bytes, whatever was written since; `old` is appended to.
                for (roff, rlen) in b.modified().iter() {
                    let mut old = vec![0xEE];
                    preimage_into(&b, roff, rlen, &mut old);
                    assert_eq!(old[0], 0xEE);
                    assert_eq!(old[1..], device[roff as usize..(roff + rlen) as usize]);
                    assert_eq!(
                        b.bytes(roff, rlen),
                        &working[roff as usize..(roff + rlen) as usize]
                    );
                }
            }
            // The commit walk pairs every span with its loaded bytes.
            let mut old = Vec::new();
            b.seal(true, Some(&mut old));
            let mut image = vec![0u8; SLOT];
            image[..SLOT].copy_from_slice(bytes_of(&hdr));
            image.extend_from_slice(&device);
            let mut cur = 0;
            for (at, new) in b.spans() {
                let i = (at + OBJ_HEADER_SIZE - oid().off) as usize;
                assert_eq!(old[cur..cur + new.len()], image[i..i + new.len()], "loaded bytes");
                image[i..i + new.len()].copy_from_slice(new);
                cur += new.len();
            }
            assert_eq!(cur, old.len());
            let sealed: ObjectHeader = from_bytes(&image[..SLOT]);
            let whole = b.modified().iter().next() == Some((0, SIZE));
            let delta = adler32_update(9, SIZE, 0, &device, &working);
            assert_eq!(sealed.csum, if whole { adler32(&working) } else { delta });
            assert_eq!(image[SLOT..], working);
            assert_eq!(b.loaded_header().csum, 9);
            // The header goes out once: in front of the range at offset 0
            // (the first span), or else as the last span, on its own.
            let rides = b.modified().iter().next().is_some_and(|(off, _)| off == 0);
            let at = if rides { 0 } else { b.spans().count() - 1 };
            let (off, new) = b.spans().nth(at).unwrap();
            assert_eq!((off, new.len() == SLOT), (b.header_off(), !rides));
            assert_eq!(b.spans().filter(|(off, _)| *off < oid().off).count(), 1);
            // An overrun of any run is caught, not only of the first.
            b.smash_back_canary();
            assert!(matches!(b.check_canaries(), Err(PglError::CanaryMismatch { .. })));
        }
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
        preimage_into(&b, 0, 64, &mut out);
        assert_eq!(out, loaded);
        b.set_csum(0xDEAD);
        assert_eq!((b.header().csum, b.loaded_header().csum), (0xDEAD, 9));
        let slot: ObjectHeader = from_bytes(&b.header_and_user()[..SLOT]);
        assert_eq!(slot.csum, 0xDEAD, "the run at offset 0 carries the working header");

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
