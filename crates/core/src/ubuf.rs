//! Micro-buffers: DRAM shadow copies of NVMM objects (paper §3.2).
//!
//! Applications never store to NVMM directly. The parts of an object a
//! transaction works on are copied into DRAM, modified there, and written
//! back atomically at commit. A [`UBuf`] is the one shadow an object has:
//! its header (working and as loaded), a sorted set of disjoint **resident
//! runs** of the user area, and the loaded sum of every segment
//! ([`crate::segment`]) those runs touch. An object loaded whole has the
//! one run `[0, size)`, a freshly opened one has none, and a write makes
//! the segments it covers resident: the load core (`Inner::load_verified`)
//! drives it, `UBufLoad` decides what exactly is read and checks it,
//! and `UBuf::load` reads it.
//!
//! Every run sits in one recycled frame as
//! `[canary 8][slot 16][bytes][tail][canary 8]`. A destroyed canary at
//! commit means the application overran a boundary, and the transaction
//! aborts *before* the corruption can reach NVMM. The slot of the run at
//! offset 0 holds the working header, so header and data are adjacent in
//! DRAM exactly as they are on NVMM: a modified range that starts at 0 is
//! logged, stored and parity-patched together with the header as one
//! span (`UBuf::spans`). The tail is symmetric: the run that reaches the
//! object's end has room behind it for the sum table, so a range in the
//! last segment goes out as one span with the entries it changes. Loading
//! a range that touches resident runs merges them into one run, so runs
//! never touch and every marked range lies inside a single run —
//! contiguous in DRAM.
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
//! handed out needs no save: its run still holds the loaded bytes. The
//! loaded sums are kept the same way, so the commit refreshes each dirtied
//! segment's sum incrementally and patches parity with the old entries.

use pgl_nvm::pod::{bytes_of, from_bytes, Pod};
use pgl_pmemobj::util::RangeSet;
use pgl_pmemobj::{ObjectHeader, PMEMoid, OBJ_HEADER_SIZE};

use crate::checksum::{adler32, adler32_update};
use crate::error::{PglError, Result};
use crate::pool::{Filled, Inner, LoadDst, Probe, Window};
use crate::scratch;
use crate::segment::{self, ENTRY, SEG};

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

/// A micro-buffer's recyclable storage: frame bytes, run, span and sum
/// tables, range-set buffer and pre-image store, all capacity-preserving.
#[derive(Debug, Default)]
pub(crate) struct FrameParts {
    pub(crate) frame: Vec<u8>,
    runs: Vec<Piece>,
    spans: Vec<Span>,
    pub(crate) modified: RangeSet,
    pre: PreImage,
    sums: Vec<(u64, u32)>,
    dirty: Vec<(u64, u32)>,
}

/// Lifecycle state of a micro-buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UBufState {
    /// Opened while the verification cache knew the object: only the
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
    /// `(segment, loaded sum)` of every segment with resident bytes,
    /// sorted (segment 0's is the loaded header's).
    sums: Vec<(u64, u32)>,
    /// `(segment, new sum)` of every segment [`UBuf::seal`] dirtied,
    /// sorted.
    dirty: Vec<(u64, u32)>,
    /// Sum-table bytes behind the user data (pad included): the tail the
    /// run that reaches the object's end carries. 0 for an object with no
    /// table, or in modes without checksums.
    tail: u64,
}

impl UBuf {
    fn canary_for(oid: PMEMoid) -> [u8; CANARY] {
        (CANARY_SEED ^ oid.off.rotate_left(17)).to_le_bytes()
    }

    fn new_in(
        parts: FrameParts,
        oid: PMEMoid,
        header: ObjectHeader,
        state: UBufState,
        table: bool,
    ) -> UBuf {
        let FrameParts {
            mut frame,
            mut runs,
            mut spans,
            mut modified,
            mut pre,
            mut sums,
            mut dirty,
        } = parts;
        frame.clear();
        runs.clear();
        spans.clear();
        modified.clear();
        pre.clear();
        sums.clear();
        dirty.clear();
        let tail = if table { segment::footprint(header.size) - header.size } else { 0 };
        let loaded_header = header;
        UBuf {
            oid,
            state,
            header,
            loaded_header,
            runs,
            frame,
            modified,
            pre,
            spans,
            sums,
            dirty,
            tail,
        }
    }

    /// A placeholder for an object opened under a verification-cache hit
    /// of `size` bytes: no header read, nothing resident, no storage.
    pub(crate) fn lazy(oid: PMEMoid, size: u64) -> UBuf {
        let header = ObjectHeader { size, type_num: 0, csum: 0 };
        Self::new_in(FrameParts::default(), oid, header, UBufState::Lazy, false)
    }

    /// Builds a `Clean` micro-buffer with no resident run, for the pool to
    /// read NVMM content into (`UBuf::load`). `parts` is recycled
    /// storage (any content; empty containers work); `table` says whether
    /// the object carries a sum table (modes with checksums).
    pub(crate) fn for_load(
        oid: PMEMoid,
        header: ObjectHeader,
        parts: FrameParts,
        table: bool,
    ) -> UBuf {
        Self::new_in(parts, oid, header, UBufState::Clean, table)
    }

    /// Consumes the buffer, returning its storage for recycling.
    pub(crate) fn into_parts(self) -> FrameParts {
        FrameParts {
            frame: self.frame,
            runs: self.runs,
            spans: self.spans,
            modified: self.modified,
            pre: self.pre,
            sums: self.sums,
            dirty: self.dirty,
        }
    }

    /// Builds a zero-filled micro-buffer for a fresh allocation in
    /// recycled frame storage; the whole object counts as modified.
    pub(crate) fn for_alloc_in(
        oid: PMEMoid,
        size: u64,
        type_num: u32,
        parts: FrameParts,
        table: bool,
    ) -> UBuf {
        let header = ObjectHeader { size, type_num, csum: 0 };
        let mut b = Self::new_in(parts, oid, header, UBufState::New, table);
        let run = b.frame_run(0, size);
        b.runs.push(run);
        b.modified.insert(0, size);
        b
    }

    /// Table bytes framed behind run `r`: the tail, if `r` reaches the
    /// object's end.
    fn tail_of(&self, r: &Piece) -> usize {
        if r.end() == self.header.size {
            self.tail as usize
        } else {
            0
        }
    }

    /// Frames a zeroed run for `[off, off+len)` at the end of the arena
    /// (the caller enters it in the run table).
    fn frame_run(&mut self, off: u64, len: u64) -> Piece {
        let base = self.frame.len();
        let start = base + CANARY + SLOT;
        let run = Piece { off, len, start };
        let back = run.at(run.end()) + self.tail_of(&run);
        self.frame.resize(back + CANARY, 0);
        let canary = Self::canary_for(self.oid);
        self.frame[base..base + CANARY].copy_from_slice(&canary);
        self.frame[back..].copy_from_slice(&canary);
        if off == 0 {
            self.frame[start - SLOT..start].copy_from_slice(bytes_of(&self.header));
        }
        run
    }

    /// Makes `[off, off+len)` resident, as part of one run: the parts no
    /// run holds yet are filled by `read(user offset, destination)`, and
    /// every run the range overlaps or touches is merged into the result.
    /// A fill that ends at the object's end reads on over the first
    /// `tail` bytes of the run's tail — the pad and the leading sum-table
    /// entries behind the user bytes — in the same device read
    /// ([`UBuf::tail`]). Returns the number of user bytes read. A range
    /// that already lies in a run costs one lookup. On a read error
    /// nothing changes.
    pub(crate) fn load(
        &mut self,
        off: u64,
        len: u64,
        tail: u64,
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
        let tail = (tail as usize).min(self.tail_of(&new));
        let (mut at, mut loaded) = (lo, 0);
        let mut fill = |frame: &mut [u8], at: u64, upto: u64| {
            loaded += upto - at;
            let more = if upto == hi { tail } else { 0 };
            read(at, &mut frame[new.at(at)..new.at(upto) + more])
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

    /// The tail of the run that reaches the object's end: the pad and sum
    /// table bytes behind the user data, as far as a load read them
    /// (empty when no run reaches the end).
    pub(crate) fn tail(&self) -> &[u8] {
        match self.runs.last().filter(|r| r.end() == self.header.size) {
            Some(r) => &self.frame[r.at(r.end())..r.at(r.end()) + self.tail as usize],
            None => &[],
        }
    }

    /// Overwrites the resident, never handed out bytes of `[off, off+len)`
    /// with `read(user offset, destination)`: a segment repaired on media
    /// right after it loaded is re-read in place.
    pub(crate) fn reload(
        &mut self,
        off: u64,
        len: u64,
        mut read: impl FnMut(u64, &mut [u8]) -> Result<()>,
    ) -> Result<()> {
        let r = self.run_of(off, len).expect("reloaded range is resident");
        read(off, &mut self.frame[r.at(off)..r.at(off + len)])
    }

    /// The loaded sum of segment `k`, if any of its bytes are resident.
    pub(crate) fn sum_of(&self, k: u64) -> Option<u32> {
        let i = self.sums.binary_search_by_key(&k, |s| s.0).ok()?;
        Some(self.sums[i].1)
    }

    /// The first segment at or after `k` with a loaded sum.
    pub(crate) fn next_known(&self, k: u64) -> Option<u64> {
        self.sums.get(self.sums.partition_point(|s| s.0 < k)).map(|s| s.0)
    }

    /// How many segments of `k0..=k1` have a loaded sum.
    pub(crate) fn sums_within(&self, k0: u64, k1: u64) -> usize {
        let i = self.sums.partition_point(|s| s.0 < k0);
        self.sums[i..].partition_point(|s| s.0 <= k1)
    }

    /// Records `sum(k)` as the loaded sum of each segment of `k0..=k1`,
    /// none of which has one yet: their bytes are about to become
    /// resident.
    pub(crate) fn note_sums(&mut self, k0: u64, k1: u64, sum: impl Fn(u64) -> u32) {
        debug_assert_eq!(self.sums_within(k0, k1), 0);
        let i = self.sums.partition_point(|s| s.0 < k0);
        if i == self.sums.len() {
            self.sums.extend((k0..=k1).map(|k| (k, sum(k))));
        } else {
            self.sums.splice(i..i, (k0..=k1).map(|k| (k, sum(k))));
        }
    }

    /// Takes the header as repaired on media (same size): the loaded and
    /// working copies follow it, so segment 0 verifies against the
    /// repaired sum.
    pub(crate) fn reloaded_header(&mut self, hdr: ObjectHeader) {
        debug_assert_eq!(hdr.size, self.header.size);
        self.loaded_header = hdr;
        self.header.type_num = hdr.type_num;
        self.set_csum(hdr.csum);
    }

    /// The check half of a load into this buffer: every run of segments
    /// of `w.a..=w.z` with no sum yet is checked against its sums
    /// (segment 0's in the loaded header, the others in `table`, the
    /// entries of `max(a, 1)..=z`) unless the cache vouched for the
    /// window, and its sums noted. Returns the bytes checked, or `Err`
    /// with those checked through the first mismatch.
    fn check_new(&mut self, w: &Window, table: &[u8]) -> std::result::Result<u64, u64> {
        let hdr = self.loaded_header;
        let mut checked = 0;
        let mut k = w.a;
        while k <= w.z {
            let e = match self.next_known(k) {
                Some(n) if n == k => {
                    k += 1;
                    continue;
                }
                Some(n) => (n - 1).min(w.z),
                None => w.z,
            };
            // Entries of `max(k, 1)..=e`, in table order.
            let run = &table[(ENTRY * (w.z - e)) as usize..];
            if !w.vouched {
                let (start, end) = (k * SEG, segment::bounds(hdr.size, e).1);
                if let Err(bad) = segment::check(&hdr, k, e, self.bytes(start, end - start), run) {
                    return Err(checked + segment::bounds(hdr.size, bad).1 - start);
                }
                checked += end - start;
            }
            self.note_sums(k, e, |j| if j == 0 { hdr.csum } else { segment::entry_in(run, e, j) });
            k = e + 1;
        }
        Ok(checked)
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
    pub(crate) fn bytes(&self, off: u64, len: u64) -> &[u8] {
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

    /// The first and last non-resident byte of `[off, off+len)`, as a
    /// range: what a read of it still has to fetch.
    pub(crate) fn missing(&self, off: u64, len: u64) -> Option<(u64, u64)> {
        let end = off + len;
        let i = self.runs.partition_point(|r| r.end() <= off);
        let lo = match self.runs.get(i) {
            Some(r) if r.off <= off => r.end(),
            _ => off,
        };
        let j = self.runs.partition_point(|r| r.off < end);
        let hi = match j.checked_sub(1).map(|j| self.runs[j]) {
            Some(r) if r.end() >= end => r.off,
            _ => end,
        };
        (lo < hi).then(|| (lo, hi - lo))
    }

    /// The header as loaded from NVMM (unaffected by [`UBuf::set_csum`]):
    /// the header's pre-image at commit.
    pub fn loaded_header(&self) -> ObjectHeader {
        self.loaded_header
    }

    /// Mutable view of the user data *without* range tracking; callers must
    /// mark ranges with [`UBuf::mark_modified`] (the `pgl_tx_add_range`
    /// pattern), before or after modifying. An unmarked change is not
    /// guaranteed to persist, exactly like forgetting `add_range` in
    /// `libpmemobj`; one the commit writes back anyway (the rest of the
    /// last segment rides behind a range into it) goes with its segment's
    /// sum and parity, so it never fails a check. The whole view is about
    /// to be exposed, so the first call saves whatever part of the loaded
    /// object was not saved yet (an O(object) copy; [`UBuf::write`] saves
    /// only its range).
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
            let (front, back) = (r.start - SLOT - CANARY, r.at(r.end()) + self.tail_of(r));
            self.frame[front..front + CANARY] == canary && self.frame[back..back + CANARY] == canary
        };
        if self.runs.iter().all(intact) {
            Ok(())
        } else {
            Err(PglError::CanaryMismatch { off: self.oid.off })
        }
    }

    /// Stores `csum` into the shadowed header.
    pub fn set_csum(&mut self, csum: u32) {
        self.header.csum = csum;
        if let Some(r) = self.runs.first().filter(|r| r.off == 0) {
            self.frame[r.start - SLOT..r.start].copy_from_slice(bytes_of(&self.header));
        }
    }

    /// The header, user bytes and sum table of a fully resident buffer:
    /// what a `New` object's construction writes, from its header offset
    /// on.
    pub(crate) fn construction(&self) -> &[u8] {
        let r = self.whole();
        &self.frame[r.start - SLOT..r.at(r.end()) + self.tail_of(&r)]
    }

    /// NVMM offset of the object header.
    pub fn header_off(&self) -> u64 {
        self.oid.header_off()
    }

    /// Commit stage 2 for a `Modified` buffer: lays out its write-back as
    /// spans, each contiguous in DRAM — one per modified range (the one
    /// that starts at offset 0 extended downwards over the working header
    /// in front of it), then the dirtied sum-table entries, then the 16
    /// header bytes as a span of their own when segment 0 changed and no
    /// range took them along (data, checksums and parity change together,
    /// §3.2). A range in the last segment of an object whose table starts
    /// right behind its user bytes is extended to the end of the object
    /// and takes the leading dirtied entries along, through the run's
    /// tail.
    ///
    /// With `old`, the loaded bytes of every span are appended to it in
    /// span order, and with `csums` each dirtied segment's sum is
    /// refreshed from them — incrementally, or in one pass over the new
    /// bytes when the segment is overwritten whole. A `New` buffer has no
    /// spans and no loaded bytes; it just checksums its content.
    pub(crate) fn seal(&mut self, csums: bool, mut old: Option<&mut Vec<u8>>) {
        debug_assert!(old.is_some() || !csums, "the checksum refresh consumes the loaded bytes");
        match self.state {
            UBufState::Lazy | UBufState::Clean => return,
            UBufState::New if csums => {
                let r = self.whole();
                let end = r.at(r.end());
                let pad = (segment::table_off(self.header.size) - self.header.size) as usize;
                let (user, table) = self.frame.split_at_mut(end);
                let table = &mut table[pad.min(self.tail as usize)..self.tail as usize];
                let c = segment::fill_table(&user[r.start..end], table);
                return self.set_csum(c);
            }
            UBufState::New => return,
            UBufState::Modified => {}
        }
        let size = self.header.size;
        self.spans.clear();
        self.dirty.clear();
        let mut last = None;
        for (roff, rlen) in self.modified.iter() {
            let lead = if roff == 0 { SLOT } else { 0 };
            let r = self.run_of(roff, rlen).expect("marked ranges are resident");
            let (off, start) = (self.oid.off + roff - lead as u64, r.at(roff) - lead);
            self.spans.push(Span { off, start, len: lead + rlen as usize });
            last = Some((r, roff + rlen));
            let Some(old) = old.as_deref_mut() else { continue };
            old.extend_from_slice(&bytes_of(&self.loaded_header)[..lead]);
            let at = old.len();
            self.pre.assemble(&self.frame[r.start..r.at(r.end())], r.off, roff, rlen, old);
            if csums {
                let new = &self.frame[r.at(roff)..r.at(roff + rlen)];
                refresh_sums(&self.sums, &mut self.dirty, size, roff, &old[at..], new);
            }
        }
        if let Some(&(0, c)) = self.dirty.first() {
            self.set_csum(c);
        }
        // Dirtied table entries, entry order (descending segment).
        let n = segment::count(size);
        let mut i = self.dirty.len();
        if let Some((r, end)) = last.filter(|(r, _)| {
            self.dirty.last().is_some_and(|d| d.0 == n - 1 && d.0 > 0)
                && r.end() == size
                && segment::table_off(size) == size
        }) {
            // The rest of the last segment rides along to reach the
            // entries behind it: its loaded bytes join the pre-image, and
            // whatever the frame holds there joins the segment's sum, so
            // the span writes back nothing its sum does not cover.
            if let Some(old) = old.as_deref_mut().filter(|_| end < size) {
                let at = old.len();
                self.pre.assemble(&self.frame[r.start..r.at(r.end())], r.off, end, size - end, old);
                if csums {
                    let new = &self.frame[r.at(end)..r.at(size)];
                    refresh_sums(&self.sums, &mut self.dirty, size, end, &old[at..], new);
                }
            }
            // The leading run of entries rides behind the last range.
            let mut k = n;
            while i > 0 && self.dirty[i - 1].0 == k - 1 && k > 1 {
                i -= 1;
                k -= 1;
            }
            let back = r.at(size);
            for &(k, sum) in &self.dirty[i..] {
                let at = back + (ENTRY * (n - 1 - k)) as usize;
                self.frame[at..at + 4].copy_from_slice(&sum.to_le_bytes());
            }
            let span = self.spans.last_mut().expect("a range reaches the last segment");
            span.len += (size - end) as usize + self.dirty[i..].len() * ENTRY as usize;
            if let Some(old) = old.as_deref_mut() {
                // Both tables are sorted: walk the loaded sums down with
                // the dirtied ones.
                let mut j = self.sums.len();
                for &(k, _) in self.dirty[i..].iter().rev() {
                    j -= 1;
                    while self.sums[j].0 > k {
                        j -= 1;
                    }
                    old.extend_from_slice(&self.sums[j].1.to_le_bytes());
                }
            }
        }
        while i > 0 && self.dirty[i - 1].0 > 0 {
            // One span per run of consecutive segments.
            let hi = i;
            i -= 1;
            while i > 0 && self.dirty[i - 1].0 > 0 && self.dirty[i - 1].0 + 1 == self.dirty[i].0 {
                i -= 1;
            }
            let start = self.frame.len();
            let (k_hi, _) = self.dirty[hi - 1];
            for j in (i..hi).rev() {
                let (k, sum) = self.dirty[j];
                self.frame.extend_from_slice(&sum.to_le_bytes());
                if let Some(old) = old.as_deref_mut() {
                    old.extend_from_slice(&self.loaded_sum(k).to_le_bytes());
                }
            }
            let off = self.oid.off + segment::entry_off(size, k_hi);
            self.spans.push(Span { off, start, len: (hi - i) * ENTRY as usize });
        }
        let first = self.modified.iter().next().map_or(SEG, |(off, _)| off);
        if first < SEG && first > 0 {
            let start = self.frame.len();
            self.frame.extend_from_slice(bytes_of(&self.header));
            self.spans.push(Span { off: self.header_off(), start, len: SLOT });
            if let Some(old) = old {
                old.extend_from_slice(bytes_of(&self.loaded_header));
            }
        }
    }

    /// The loaded sum of segment `k`, which has resident bytes.
    fn loaded_sum(&self, k: u64) -> u32 {
        self.sum_of(k).expect("a segment with resident bytes has a loaded sum")
    }

    /// First and last segment [`UBuf::seal`] dirtied.
    pub(crate) fn dirty_segments(&self) -> Option<(u64, u64)> {
        Some((self.dirty.first()?.0, self.dirty.last()?.0))
    }

    /// The write-back [`UBuf::seal`] laid out, as `(NVMM offset, new
    /// bytes)` spans.
    pub(crate) fn spans(&self) -> impl Iterator<Item = (u64, &[u8])> + Clone + '_ {
        self.spans.iter().map(|s| (s.off, &self.frame[s.start..s.start + s.len]))
    }

    /// Deliberately corrupts a canary (test/fault-injection helper
    /// simulating a buffer overrun).
    pub fn smash_back_canary(&mut self) {
        if let Some(&r) = self.runs.last() {
            let back = r.at(r.end()) + self.tail_of(&r);
            self.frame[back + CANARY - 1] ^= 0xFF;
        }
    }
}

/// A transaction's load of `[off, off+len)` into its micro-buffer: the
/// destination side of [`Inner::load_verified`] for the open rule. The
/// window is the segments of the range with no loaded sum yet, read into
/// a run — the entries behind it into the run's tail when it reaches the
/// object's end — and a repaired segment is re-read in place.
pub(crate) struct UBufLoad<'a> {
    pub(crate) inner: &'a Inner,
    pub(crate) b: &'a mut UBuf,
    pub(crate) off: u64,
    pub(crate) len: u64,
}

impl<'a> UBufLoad<'a> {
    /// The device reader of the object's bytes: `(user offset, destination)`.
    fn reader(&self) -> impl Fn(u64, &mut [u8]) -> Result<()> + 'a {
        let (inner, oid) = (self.inner, self.b.oid);
        move |at, dst| inner.read_with_recovery(oid.off + at, dst)
    }
}

impl LoadDst for UBufLoad<'_> {
    fn plan(&mut self, probe: &mut Probe<'_>) -> Result<Option<Window>> {
        let (off, len) = (self.off, self.len);
        let (k0, k1) = segment::covering(off, len);
        let unloaded = |b: &UBuf, k: &u64| b.sum_of(*k).is_none();
        let (a, z) = match self.b.sums_within(k0, k1) {
            0 => (k0, k1),
            _ => match (k0..=k1).find(|k| unloaded(self.b, k)) {
                Some(a) => {
                    (a, (a..=k1).rev().find(|k| unloaded(self.b, k)).expect("segment a is new"))
                }
                None => {
                    // Every segment has its sum already: the range's
                    // bytes are read as they are.
                    self.b.load(off, len, 0, self.reader())?;
                    return Ok(None);
                }
            },
        };
        let size = self.b.user_size() as u64;
        // A vouched window reads the range (and the entries) only.
        let vouched = probe.entry().is_some_and(|e| e.size == size && e.covers(a, z));
        let lo = if a == k0 && !vouched { k0 * SEG } else { off };
        let hi = if z == k1 && !vouched { segment::bounds(size, k1).1 } else { off + len };
        Ok(Some(Window::new(size, (a, z), (lo, hi), vouched)))
    }

    fn fill(&mut self, w: &Window) -> Result<Filled> {
        let read = self.reader();
        let mut fused = false;
        self.b.load(
            w.lo,
            w.hi - w.lo,
            if w.through { w.t + w.n - w.size } else { 0 },
            |at, dst| {
                fused |= at + dst.len() as u64 > w.size;
                read(at, dst)
            },
        )?;
        let pad = (w.t - w.size) as usize;
        let fill = |b: &UBuf, table: &mut [u8]| {
            if fused {
                table.copy_from_slice(&b.tail()[pad..pad + table.len()]);
            } else if !table.is_empty() {
                read(w.t, table)?;
            }
            Ok::<(), PglError>(())
        };
        let checked = if w.n <= 64 {
            let mut apart = [0u8; 64];
            let table = &mut apart[..w.n as usize];
            fill(self.b, table)?;
            self.b.check_new(w, table)
        } else {
            scratch::with_fault_scratch(|s| {
                let table = scratch::zeroed(&mut s.current, w.n as usize);
                fill(self.b, table)?;
                Ok::<_, PglError>(self.b.check_new(w, table))
            })?
        };
        // Handed out: what became resident here — the range of a vouched
        // window, the checked segments otherwise (resident ones merge).
        Ok(match checked {
            Ok(checked) if w.vouched => Filled::Held { checked, handed: w.hi - w.lo },
            Ok(checked) => Filled::Held { checked, handed: checked },
            Err(checked) => Filled::Mismatch(checked),
        })
    }

    fn repaired(&mut self, hdr: ObjectHeader, w: &Window) -> Result<()> {
        if hdr.size != w.size {
            return Err(PglError::ChecksumMismatch { off: self.b.oid.off });
        }
        self.b.reloaded_header(hdr);
        // Nothing of the window was handed out yet: re-read it in place.
        for k in w.a..=w.z {
            let (s, e) = segment::bounds(w.size, k);
            let (s, e) = (s.max(w.lo), e.min(w.hi));
            if self.b.sum_of(k).is_none() && s < e {
                self.b.reload(s, e - s, self.reader())?;
            }
        }
        Ok(())
    }
}

/// Folds the modified range `[roff, roff+len)` (loaded bytes `old`, new
/// bytes `new`) into the new sums of the segments it covers: `dirty`
/// starts each segment from its sum in `sums` and keeps what earlier
/// ranges made of it. A segment the range covers whole is summed afresh.
fn refresh_sums(
    sums: &[(u64, u32)],
    dirty: &mut Vec<(u64, u32)>,
    size: u64,
    roff: u64,
    old: &[u8],
    new: &[u8],
) {
    let (k0, k1) = segment::covering(roff, new.len() as u64);
    for k in k0..=k1 {
        let (s, e) = segment::bounds(size, k);
        let (lo, hi) = (roff.max(s), (roff + new.len() as u64).min(e));
        let part = (lo - roff) as usize..(hi - roff) as usize;
        let sum = if (lo, hi) == (s, e) {
            adler32(&new[part])
        } else {
            let cur = match dirty.last() {
                Some(&(dk, c)) if dk == k => c,
                _ => {
                    let i = sums.binary_search_by_key(&k, |s| s.0);
                    sums[i.expect("a segment with resident bytes has a loaded sum")].1
                }
            };
            adler32_update(cur, e - s, lo - s, &old[part.clone()], &new[part])
        };
        match dirty.last_mut() {
            Some(d) if d.0 == k => d.1 = sum,
            _ => dirty.push((k, sum)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid() -> PMEMoid {
        PMEMoid::new(1, 4096)
    }

    /// The object `user` as stored: its header (segment 0's sum, `type_num`
    /// 1) and its user bytes, pad and sum table.
    fn stored(user: &[u8]) -> (ObjectHeader, Vec<u8>) {
        let size = user.len() as u64;
        let mut image = user.to_vec();
        image.resize(segment::footprint(size) as usize, 0);
        let t = (segment::table_off(size) as usize).min(image.len());
        let csum = segment::fill_table(user, &mut image[t..]);
        (ObjectHeader { size, type_num: 1, csum }, image)
    }

    /// A fully resident buffer of the stored object `image` (the sums it
    /// loads are the ones `stored` computed).
    fn loaded(hdr: ObjectHeader, image: &[u8]) -> UBuf {
        let mut b = UBuf::for_load(oid(), hdr, FrameParts::default(), true);
        load_from(&mut b, image, 0, hdr.size);
        b
    }

    /// Loads `[off, off+len)` of `image` into `b`, noting every covered
    /// segment's stored sum.
    fn load_from(b: &mut UBuf, image: &[u8], off: u64, len: u64) -> u64 {
        let size = b.user_size() as u64;
        let got = b
            .load(off, len, 0, |at, dst| {
                let at = at as usize;
                dst.copy_from_slice(&image[at..at + dst.len()]);
                Ok(())
            })
            .unwrap();
        if len > 0 {
            let (k0, k1) = segment::covering(off, len);
            let new: Vec<u64> = (k0..=k1).filter(|&k| b.sum_of(k).is_none()).collect();
            for k in new {
                let sum = match k {
                    0 => b.loaded_header().csum,
                    k => {
                        let at = segment::entry_off(size, k) as usize;
                        u32::from_le_bytes(image[at..at + 4].try_into().unwrap())
                    }
                };
                b.note_sums(k, k, |_| sum);
            }
        }
        got
    }

    fn fresh(size: u64) -> UBuf {
        UBuf::for_alloc_in(oid(), size, 1, FrameParts::default(), true)
    }

    /// Appends the loaded bytes of the resident `[off, off+len)` to `out`.
    fn preimage_into(b: &UBuf, off: u64, len: u64, out: &mut Vec<u8>) {
        let r = b.run_of(off, len).expect("range is not resident");
        b.pre.assemble(&b.frame[r.start..r.at(r.end())], r.off, off, len, out);
    }

    #[test]
    fn from_nvmm_preserves_content() {
        let data: Vec<u8> = (0..32).collect();
        let (hdr, image) = stored(&data);
        let b = loaded(hdr, &image);
        assert_eq!(b.user(), &data[..]);
        assert_eq!(b.header().type_num, 1);
        assert_eq!(b.state(), UBufState::Clean);
        assert!(b.modified().is_empty());
        b.check_canaries().unwrap();
    }

    #[test]
    fn writes_track_ranges_and_state() {
        let b = fresh(64);
        assert_eq!(b.state(), UBufState::New);
        assert_eq!(b.modified().total_bytes(), 64, "new objects fully modified");

        let (hdr, image) = stored(&[0u8; 64]);
        let mut b = loaded(hdr, &image);
        b.write(8, &[1, 2, 3]);
        b.write_pod(32, &0xABCDu64);
        assert_eq!(b.state(), UBufState::Modified);
        assert_eq!(b.modified().total_bytes(), 3 + 8);
        assert_eq!(b.read_pod::<u64>(32), 0xABCD);
    }

    /// Random loads, writes and marks against a byte-wise model of the
    /// device image, the working view and the residency map: overlapping,
    /// adjacent, nested and gap-spanning ranges in any order, on objects
    /// of one segment and of several (with and without table pad).
    #[test]
    fn preimage_is_the_loaded_bytes_after_any_write_sequence() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |below: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) % below
        };
        for (round, size) in [600u64, 600, 200, 1023, 600, 1024, 256, 777].into_iter().enumerate() {
            let device: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            let (hdr, image) = stored(&device);
            let mut b = UBuf::for_load(oid(), hdr, FrameParts::default(), true);
            let mut working = device.clone();
            let mut resident = vec![false; size as usize];
            for step in 0..400u32 {
                let off = next(size);
                let len = next(size - off + 1).min(1 + next(if round == 0 { size } else { 40 }));
                let (lo, hi) = (off as usize, (off + len) as usize);
                let want = resident[lo..hi].iter().filter(|r| !**r).count() as u64;
                let got = load_from(&mut b, &image, off, len);
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
                let q_off = next(size);
                let q_len = next(size - q_off + 1);
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
            // The commit walk pairs every span with its loaded bytes, and
            // the image it leaves checks in every segment.
            let mut old = Vec::new();
            b.seal(true, Some(&mut old));
            let mut media = bytes_of(&hdr).to_vec();
            media.extend_from_slice(&image);
            let mut cur = 0;
            for (at, new) in b.spans() {
                let i = (at + OBJ_HEADER_SIZE - oid().off) as usize;
                assert_eq!(old[cur..cur + new.len()], media[i..i + new.len()], "loaded bytes");
                media[i..i + new.len()].copy_from_slice(new);
                cur += new.len();
            }
            assert_eq!(cur, old.len());
            let sealed: ObjectHeader = from_bytes(&media[..SLOT]);
            assert_eq!(media[SLOT..SLOT + size as usize], working);
            assert_eq!(segment::check_all(&sealed, &media[SLOT..]), Ok(()), "size {size}");
            assert_eq!(b.loaded_header().csum, hdr.csum);
            // The header goes out at most once: in front of the range at
            // offset 0 (the first span), or else on its own when segment 0
            // changed.
            let first = b.modified().iter().next().map(|(off, _)| off).unwrap();
            let alone = b.spans().filter(|(off, new)| *off < oid().off && new.len() == SLOT);
            assert_eq!(alone.count(), (first > 0 && first < SEG) as usize);
            assert_eq!(
                b.spans().filter(|(off, _)| *off < oid().off).count(),
                (first < SEG) as usize
            );
            // An overrun of any run is caught, not only of the first.
            b.smash_back_canary();
            assert!(matches!(b.check_canaries(), Err(PglError::CanaryMismatch { .. })));
        }
    }

    #[test]
    fn a_range_in_the_last_segment_takes_its_entries_along() {
        // 4 136 B (the radix-tree node): segment 16 is 40 bytes, and its
        // entry sits right behind them. A write into it is one span that
        // runs to the object's end and over the entry; a write into
        // segment 3 leaves its entry a 4-byte span of its own.
        let user: Vec<u8> = (0..4136u32).map(|i| (i % 13) as u8).collect();
        let (hdr, image) = stored(&user);
        let mut b = UBuf::for_load(oid(), hdr, FrameParts::default(), true);
        load_from(&mut b, &image, 16 * 256, 40);
        load_from(&mut b, &image, 3 * 256, 256);
        b.write(16 * 256 + 24, &[7; 8]);
        b.write(3 * 256 + 8, &[9; 8]);
        let mut old = Vec::new();
        b.seal(true, Some(&mut old));
        let spans: Vec<(u64, usize)> =
            b.spans().map(|(at, new)| (at - oid().off, new.len())).collect();
        assert_eq!(
            spans,
            [(3 * 256 + 8, 8), (16 * 256 + 24, 16 + 4), (segment::entry_off(4136, 3), 4)]
        );
        assert_eq!(b.dirty_segments(), Some((3, 16)));
    }

    #[test]
    fn raw_view_saves_the_whole_object_once_and_new_buffers_save_nothing() {
        let loaded_bytes = [7u8; 64];
        let (hdr, image) = stored(&loaded_bytes);
        let mut b = loaded(hdr, &image);
        b.write(8, &[1; 8]); // saved before the raw view is taken
        b.user_mut()[..32].fill(2); // modify first ...
        b.mark_modified(0, 32); // ... mark afterwards
        b.user_mut()[40] = 3; // a second view saves nothing more
        assert_eq!(b.pre.bytes.len(), 64);
        let mut out = Vec::new();
        preimage_into(&b, 0, 64, &mut out);
        assert_eq!(out, loaded_bytes);
        b.set_csum(0xDEAD);
        assert_eq!((b.header().csum, b.loaded_header().csum), (0xDEAD, hdr.csum));
        let slot: ObjectHeader = from_bytes(&b.construction()[..SLOT]);
        assert_eq!(slot.csum, 0xDEAD, "the run at offset 0 carries the working header");

        let mut fresh = fresh(64);
        fresh.write(0, &[1; 16]);
        fresh.user_mut()[20] = 5;
        assert!(fresh.pre.bytes.is_empty() && fresh.pre.pieces.is_empty());
    }

    #[test]
    fn checksum_roundtrip() {
        // A new buffer constructs header, user bytes and sum table; every
        // segment checks, and a wrong header sum fails segment 0.
        let mut b = fresh(700);
        b.user_mut().iter_mut().enumerate().for_each(|(i, x)| *x = i as u8);
        b.seal(true, Some(&mut Vec::new()));
        let image = b.construction();
        assert_eq!(image.len(), SLOT + segment::footprint(700) as usize);
        let hdr: ObjectHeader = from_bytes(&image[..SLOT]);
        assert_eq!(segment::check_all(&hdr, &image[SLOT..]), Ok(()));
        let bad = ObjectHeader { csum: hdr.csum ^ 1, ..hdr };
        assert_eq!(segment::check_all(&bad, &image[SLOT..]), Err(0));
        b.check_canaries().unwrap();
        b.smash_back_canary();
        assert!(b.check_canaries().is_err(), "the back canary sits behind the table");
    }

    #[test]
    fn canary_detects_overrun() {
        let mut b = fresh(16);
        b.check_canaries().unwrap();
        b.smash_back_canary();
        assert!(matches!(b.check_canaries(), Err(PglError::CanaryMismatch { .. })));
    }

    #[test]
    fn set_csum_updates_header_only() {
        let mut b = fresh(8);
        b.set_csum(0xDEAD);
        assert_eq!(b.header().csum, 0xDEAD);
        assert_eq!(b.header().size, 8);
        b.check_canaries().unwrap();
    }

    #[test]
    #[should_panic(expected = "exceeds object")]
    fn out_of_bounds_mark_panics() {
        let mut b = fresh(8);
        b.mark_modified(4, 8);
    }
}
