//! Transaction lanes: per-transaction persistent log space, with overflow.
//!
//! Following `libpmemobj`, the pool provisions a fixed array of lanes
//! (paper Figure 1's "Log" region). A transaction claims a lane and
//! appends checksummed log entries to it from entry 0, under the lane's
//! current generation ([`crate::ulog`]: recovery reads the run of entries
//! from offset 0 that carry the generation entry 0's tag names inside the
//! header word's window).
//!
//! # Log retirement on demand
//!
//! A committed log whose write-back is done stays valid
//! ([`LaneHandle::retain_committed`]): the commit moves the lane to the
//! next generation in DRAM only, and recovery may replay the log again,
//! which rewrites the bytes and bits the pool already holds (a reopen
//! after a clean close replays it too; the parity re-levelling in
//! `pangolin::recover` keeps a row scribbled since repairable). The lane's
//! next log overwrites entry 0 under that next generation. The header
//! word is rewritten only when the lane's generations would leave its
//! live window (once per [`GEN_LIVE`] commits), by an abort or an
//! overflow commit (durably
//! when chunks return to the allocator, [`LaneHandle::bump_gen`]), and by
//! *retirement*: another lane raises it to the owner's current
//! generation. The invariant is: **where a valid committed log lands, its
//! bytes and allocator ops equal the pool's current state.** One rule
//! keeps it: before its fence, every durable mutator retires every
//! *other* lane's valid log ([`LaneHandle::retire_others`]); its own old
//! log is superseded by its own entry 0 (a commit) or retired in the line
//! it persists anyway (a detectable CAS, [`LaneHandle::retire_own_with`]).
//! Lanes that may hold a valid log are one bit each in a mask (a word per
//! 64 lanes), set at commit end; a lane's log is valid while its
//! generation is above its header, so an idle single-thread pool pays one
//! atomic load per mutator and no device op.
//!
//! Header stores take the lane's header lock, so the word only ever
//! rises. Fences persist every flushed line whoever flushed it (the
//! device model's `drain`). The ordering argument, one line per fence:
//!
//! 1. **Commit fence** (`persist_commit`): the new log, entry 0 included,
//!    and every retirement the commit made before it persist together;
//!    after it the lane's old log is superseded and no log valid when the
//!    commit read the mask can replay.
//! 2. **Write-back and allocator fences**: they follow fence 1, so every
//!    byte and bit they persist is what this lane's committed log replays
//!    and no other valid log names it.
//! 3. **Mask bit** (no fence): set after the last fence of 2, before the
//!    commit's allocator completion and return; a mutator can acquire the
//!    log's targets only after that, and it reads the mask after it holds
//!    what it will write, so it sees the bit. A retirer that finds the
//!    header already raised still flushes it, so its own fence covers it.
//! 4. **Detectable CAS F1** (`persist_desc`): retirements of other lanes,
//!    and the own lane's header word in the descriptor's line, persist
//!    before the word changes.
//! 5. **A run format's commit fence**: as 1; the publish's F1 then retires
//!    that log as 4 says.
//! 6. **Aborts, overflow commits, window wraps**: their header store is
//!    flushed; an overflow commit fences it before its chunks return, the
//!    others before anything their log names changes (the next fence of
//!    any mutator, which must be after the header's flush).
//! 7. **Recovery**: replays each lane's newest log, then persists its
//!    header past every generation either copy's entry 0 names
//!    ([`Lanes::invalidate`]), before the pool serves.
//!
//! Appended entries are **staged in DRAM**: the handle encodes them into a
//! recycled buffer, and [`LaneHandle::persist_log`] writes the staged tail
//! with one non-temporal span per log copy and one fence (as `libpmemobj`
//! streams its ulog buffers). Log lines are therefore never cached,
//! never flushed and never written twice, and no entry can reach media
//! before the persist that publishes it. [`LaneHandle::persist_commit`]
//! is the same persist with the commit folded in: it sets the commit flag
//! on the last staged entry (16-byte headers, [`crate::ulog`]) and adds a
//! standalone commit record only when nothing is staged.
//!
//! Two extensions from the paper:
//!
//! * **Mirroring** (`-ML` modes): every lane write is duplicated into a
//!   replica lane region in the same pool (paper Figure 2).
//! * **Overflow**: when a transaction outgrows its lane, the log continues
//!   in heap chunks typed `Log` (paper §2.3: "Large ones overflow into the
//!   Heap storage area"). A `LogExt` entry chains the segments; recovery
//!   follows the chain. Pangolin treats `Log` chunks as zeros in parity
//!   (paper §3.1), so log appends never contend with object parity.
//!
//! The transaction layer owns overflow-chunk allocation (it differs between
//! the baseline and Pangolin); the lane only records segments.
//!
//! # Lane registry and per-thread lanes
//!
//! Lane claiming is **lock-free**: the registry is an array of atomic
//! claim flags, and each thread remembers the lane it used last
//! (thread-local), re-claiming it with a single CAS on its next
//! transaction. This gives the FliT-style "per-thread persist handle"
//! behavior — under steady state every thread owns a distinct lane, its
//! staging buffer is recycled thread-locally, and no claim ever takes
//! a lock or blocks another thread's claim. Only when a preferred lane is
//! taken does the claim scan for another free flag; when *all* lanes are
//! busy it spins with exponential backoff until one frees (transactions
//! are short).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::{ObjError, Result};
use crate::io::PoolIo;
use crate::layout::Layout;
use crate::ulog::{self, encode_entry, payload, Entry, EntryKind, GEN_LIVE};

/// Size of the persistent lane header preceding the log area.
pub const LANE_HEADER_SIZE: u64 = 64;

/// Log bytes kept in reserve per segment so that allocation-intent entries
/// for overflow chunks plus the `LogExt` chain entry always fit after
/// ordinary appends report the segment full — and so does a standalone
/// commit record, which comes last and never alongside those.
fn segment_reserve() -> u64 {
    2 * ulog::entry_space(8) + ulog::entry_space(24) + 64
}

/// First read of a segment scan. A lane is sized for the largest
/// transaction but almost always holds a few hundred bytes (or nothing), so
/// recovery reads this much and goes on only while entries keep decoding.
const SCAN_WINDOW: usize = 4096;

/// Decodes one copy of a `len`-byte log segment through `read(at, buf)`, in
/// windows that start at the first undecoded entry, cover at least that
/// entry and at least double each round. Stops after a flagged (commit)
/// entry, and at the first position that does not decode for `gen` or
/// that cannot be read: a bad page ends this copy's log only if the log
/// actually reaches it. No read is larger than the segment, whatever
/// length a header on media claims.
pub fn walk_copy(
    len: usize,
    gen: u64,
    read: impl Fn(u64, &mut [u8]) -> Result<()>,
) -> Result<Vec<Entry>> {
    walk(len, Gen::Exact(gen), read).map(|(_, entries)| entries)
}

/// [`walk_copy`] for a lane's base segment under header word `base`: the
/// log's generation is the one entry 0's tag names above the header
/// ([`ulog::resolve_gen`]). Returns that generation (`base` when entry 0
/// names none or cannot be read) and the entries.
pub fn walk_window(
    len: usize,
    base: u64,
    read: impl Fn(u64, &mut [u8]) -> Result<()>,
) -> Result<(u64, Vec<Entry>)> {
    walk(len, Gen::Window(base), read)
}

/// The generation a segment walk decodes under.
#[derive(Clone, Copy)]
enum Gen {
    /// Known (an overflow segment takes its lane's).
    Exact(u64),
    /// Named by entry 0's tag inside the window of this header word.
    Window(u64),
}

fn walk(
    len: usize,
    gen: Gen,
    read: impl Fn(u64, &mut [u8]) -> Result<()>,
) -> Result<(u64, Vec<Entry>)> {
    let mut gen = gen;
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let mut pos = 0;
    // Bytes the entry at `pos` is known to occupy.
    let mut need = ulog::ENTRY_HEADER_SIZE as usize;
    let mut window = SCAN_WINDOW;
    while pos + need <= len {
        buf.resize(window.max(need).min(len - pos), 0);
        if read(pos as u64, &mut buf).is_err() {
            if buf.len() == need {
                break;
            }
            // The bad page may lie in the read-ahead, past the log's end:
            // from here on read exactly what the pending entry needs.
            window = 0;
            continue;
        }
        let g = match gen {
            Gen::Exact(g) => g,
            Gen::Window(base) => match ulog::resolve_gen(&buf, base) {
                Some(g) => g,
                None => break, // entry 0 is older than the header
            },
        };
        gen = Gen::Exact(g);
        let mut used = 0;
        while let Some((entry, space)) = ulog::decode_entry(&buf[used..], g)? {
            let done = entry.commit;
            out.push(entry);
            used += space as usize;
            if done {
                return Ok((g, out));
            }
        }
        // Either the log ends at `pos + used` or the window cut an entry.
        match ulog::entry_need(&buf[used..], g) {
            Some(n) if n as usize > buf.len() - used => {
                pos += used;
                need = n as usize;
                window *= 2;
            }
            _ => break,
        }
    }
    let (Gen::Exact(g) | Gen::Window(g)) = gen;
    Ok((g, out))
}

/// A lane's newest log as recovery reads it ([`Lanes::read_log`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneLog {
    /// The generation its entries carry.
    pub gen: u64,
    /// Its entries, overflow segments followed (empty: no log).
    pub entries: Vec<Entry>,
    /// The header value that retires it and whatever else entry 0 of
    /// either log copy names (a torn overwrite can leave the two copies
    /// naming two generations): one above the higher.
    pub retire_at: u64,
}

/// Whether lane writes are duplicated, and where the duplicate lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogMirror {
    /// No duplication (the `libpmemobj` baseline; a replicated *pool*
    /// mirrors lanes implicitly through [`PoolIo`]).
    None,
    /// Mirror into the same pool's lane-replica region (Pangolin `-ML`).
    SameDevice,
}

/// One contiguous piece of a lane's log.
#[derive(Debug, Clone, Copy)]
struct Segment {
    primary: u64,
    /// 0 when unmirrored.
    replica: u64,
    /// Usable capacity (excluding the `LogExt` reserve).
    cap: u64,
    /// Bytes appended so far. The last `staged.len()` of them (current
    /// segment only) are the handle's staged tail; the device holds the
    /// rest.
    cursor: u64,
}

thread_local! {
    /// The lane this thread claimed most recently (`u32::MAX` = none yet).
    /// A hint only: correctness comes from the CAS on the claim flag.
    static PREFERRED_LANE: Cell<u32> = const { Cell::new(u32::MAX) };
    /// Recycled lane-handle buffers (segment list + staged log tail): a
    /// released handle parks them here so the next claim on this thread
    /// allocates nothing. Pairs with the lane-affinity scheme above.
    static LANE_BUFS: Cell<Option<(Vec<Segment>, Vec<u8>)>> = const { Cell::new(None) };
}

/// Volatile lane bookkeeping: a lock-free claim registry, each lane's
/// generation and header word, and the mask of lanes that may hold a
/// valid committed log (module docs).
pub struct Lanes {
    layout: Layout,
    mirror: LogMirror,
    /// One claim flag per lane; `true` = claimed. Claiming is a CAS, so
    /// the registry itself never blocks or serializes claimers.
    claimed: Vec<AtomicBool>,
    /// Per lane, the generation its current (or next) log is written
    /// under. Only the lane's holder moves it, and only up.
    gens: Vec<AtomicU64>,
    /// Per lane, the persistent header word's value: the base of the
    /// generation window. Set after the store is flushed, under the
    /// lane's `hdr_locks` entry; only rises. The lane holds a valid
    /// committed log iff its generation is above it.
    hdrs: Vec<AtomicU64>,
    /// Serializes each lane's header stores, so none lands below another.
    hdr_locks: Vec<Mutex<()>>,
    /// One bit per lane that has retained a committed log since load.
    valid: Vec<AtomicU64>,
}

/// A claimed lane: append-only log access for one transaction.
pub struct LaneHandle<'a> {
    lanes: &'a Lanes,
    io: &'a PoolIo,
    idx: u32,
    segments: Vec<Segment>,
    /// Encoded entries not yet written to the device: the tail of the
    /// current segment, ending at its `cursor`.
    staged: Vec<u8>,
    /// Where the last staged entry starts in `staged`, and its payload's
    /// CRC: what [`LaneHandle::persist_commit`] needs to flag it.
    last: Option<(usize, u32)>,
}

impl Lanes {
    /// Initializes all lane headers for a fresh pool (generation 1).
    pub fn format(io: &PoolIo, layout: &Layout, mirror: LogMirror) -> Result<()> {
        for l in 0..layout.cfg.n_lanes as u64 {
            for off in Self::header_offsets(layout, l as u32, mirror) {
                io.atomic_store_u64(off, 1)?; // generation
                io.persist(off, 8)?;
            }
        }
        Ok(())
    }

    fn header_offsets(layout: &Layout, idx: u32, mirror: LogMirror) -> impl Iterator<Item = u64> {
        let second = (mirror == LogMirror::SameDevice).then(|| layout.lane_replica_off(idx as u64));
        std::iter::once(layout.lane_off(idx as u64)).chain(second)
    }

    /// Loads lane bookkeeping from an existing pool (after recovery).
    pub fn load(io: &PoolIo, layout: Layout, mirror: LogMirror) -> Result<Lanes> {
        let n = layout.cfg.n_lanes;
        let mut hdrs = Vec::with_capacity(n);
        for l in 0..n as u64 {
            hdrs.push(Self::read_gen(io, &layout, l as u32, mirror)?);
        }
        Ok(Lanes {
            layout,
            mirror,
            claimed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            gens: hdrs.iter().map(|&h| AtomicU64::new(h)).collect(),
            hdrs: hdrs.into_iter().map(AtomicU64::new).collect(),
            hdr_locks: (0..n).map(|_| Mutex::new(())).collect(),
            valid: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Raises lane `idx`'s header to its current generation, which
    /// retires the lane's valid committed log (if any) and keeps a log it
    /// is writing readable. Flushes the word even when another retirer
    /// raised it first, so the caller's next fence covers it.
    fn raise(&self, io: &PoolIo, idx: u32) -> Result<()> {
        let l = idx as usize;
        let _g = self.hdr_locks[l].lock().unwrap_or_else(|e| e.into_inner());
        let target = self.gens[l].load(Ordering::Acquire);
        let store = target > self.hdrs[l].load(Ordering::Relaxed);
        for off in Self::header_offsets(&self.layout, idx, self.mirror) {
            if store {
                io.atomic_store_u64(off, target)?;
            }
            io.flush(off, 8)?;
        }
        if store {
            self.hdrs[l].store(target, Ordering::Release);
        }
        Ok(())
    }

    /// Whether lane `l` holds a valid committed log.
    fn holds_valid(&self, l: usize) -> bool {
        self.gens[l].load(Ordering::Acquire) > self.hdrs[l].load(Ordering::Acquire)
    }

    /// Number of lanes in the registry (the pool's maximum number of
    /// simultaneously running transactions).
    pub fn len(&self) -> usize {
        self.claimed.len()
    }

    /// `true` if the pool has no lanes (never the case for a valid pool).
    pub fn is_empty(&self) -> bool {
        self.claimed.is_empty()
    }

    /// Lanes currently claimed by running transactions (diagnostics).
    pub fn in_use(&self) -> usize {
        self.claimed.iter().filter(|c| c.load(Ordering::Relaxed)).count()
    }

    /// Tries to claim lane `idx` with a single CAS.
    fn try_claim(&self, idx: u32) -> bool {
        self.claimed[idx as usize]
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Reads a lane's generation, preferring the primary copy and falling
    /// back to the mirror on a media error.
    pub fn read_gen(io: &PoolIo, layout: &Layout, idx: u32, mirror: LogMirror) -> Result<u64> {
        let mut hdr = [0u8; 8];
        let primary = layout.lane_off(idx as u64);
        match io.read_with_replica_fallback(primary, &mut hdr) {
            Ok(()) => {}
            Err(_) if mirror == LogMirror::SameDevice => {
                io.read(layout.lane_replica_off(idx as u64), &mut hdr)?;
            }
            Err(e) => return Err(e),
        }
        Ok(u64::from_le_bytes(hdr).max(1))
    }

    /// Invalidates a lane's log during recovery (no [`Lanes`] instance
    /// needed): persists header word `to` — [`LaneLog::retire_at`] of the
    /// log recovery read — on all header copies. The header rises past
    /// the generation replayed, so neither copy's entry 0 can name a log
    /// again; the lane's next log is written under `to`.
    pub fn invalidate(
        io: &PoolIo,
        layout: &Layout,
        idx: u32,
        mirror: LogMirror,
        to: u64,
    ) -> Result<()> {
        for off in Self::header_offsets(layout, idx, mirror) {
            io.atomic_store_u64(off, to)?;
            io.persist(off, 8)?;
        }
        Ok(())
    }

    /// Claims a free lane, preferring the one this thread used last (lane
    /// affinity makes the steady-state claim a single uncontended CAS and
    /// keeps concurrent threads on distinct lanes). Spins with
    /// backoff when every lane is busy; transactions are short, so a lane
    /// frees quickly.
    pub fn claim<'a>(&'a self, io: &'a PoolIo) -> LaneHandle<'a> {
        let n = self.claimed.len() as u32;
        let preferred = PREFERRED_LANE.with(|p| p.get());
        let start = if preferred < n {
            preferred
        } else {
            // First claim on this thread: spread threads across the
            // registry so they don't all race for lane 0.
            let mut h = std::hash::DefaultHasher::new();
            std::hash::Hash::hash(&std::thread::current().id(), &mut h);
            (std::hash::Hasher::finish(&h) % n as u64) as u32
        };
        let mut spins = 0u32;
        let idx = loop {
            let mut found = None;
            for i in 0..n {
                let cand = (start + i) % n;
                if self.try_claim(cand) {
                    found = Some(cand);
                    break;
                }
            }
            if let Some(idx) = found {
                break idx;
            }
            // All lanes busy: back off. yield_now lets the lane owners run
            // (essential when threads outnumber cores).
            spins += 1;
            if spins < 8 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        };
        PREFERRED_LANE.with(|p| p.set(idx));
        let base = Segment {
            primary: self.layout.lane_off(idx as u64) + LANE_HEADER_SIZE,
            replica: if self.mirror == LogMirror::SameDevice {
                self.layout.lane_replica_off(idx as u64) + LANE_HEADER_SIZE
            } else {
                0
            },
            cap: self.layout.cfg.lane_size as u64 - LANE_HEADER_SIZE - segment_reserve(),
            cursor: 0,
        };
        let (mut segments, staged) = LANE_BUFS.with(|c| c.take()).unwrap_or_default();
        segments.clear();
        segments.push(base);
        LaneHandle { lanes: self, io, idx, segments, staged, last: None }
    }

    /// Reads and decodes the valid entries of lane `idx`, following
    /// overflow chains and falling back to mirror copies for segments whose
    /// primary bytes are unreadable or torn.
    ///
    /// A chain that names a segment it already visited, or that is longer
    /// than the lane plus one segment per pool chunk (each overflow
    /// segment is a chunk of its own), is [`ObjError::Corruption`] before
    /// that segment is read again.
    pub fn read_entries(
        io: &PoolIo,
        layout: &Layout,
        idx: u32,
        mirror: LogMirror,
    ) -> Result<Vec<Entry>> {
        Self::read_log(io, layout, idx, mirror).map(|log| log.entries)
    }

    /// [`Lanes::read_entries`], with the generation the log was written
    /// under and the header value that retires it.
    pub fn read_log(io: &PoolIo, layout: &Layout, idx: u32, mirror: LogMirror) -> Result<LaneLog> {
        let base = Self::read_gen(io, layout, idx, mirror)?;
        let mut seg = Some((
            layout.lane_off(idx as u64) + LANE_HEADER_SIZE,
            if mirror == LogMirror::SameDevice {
                layout.lane_replica_off(idx as u64) + LANE_HEADER_SIZE
            } else {
                0
            },
            layout.cfg.lane_size as u64 - LANE_HEADER_SIZE,
        ));
        let mut log = LaneLog { gen: base, entries: Vec::new(), retire_at: base + 1 };
        let mut gen = Gen::Window(base);
        let max_segments = 1 + layout.n_zones * layout.zone.n_chunks;
        let mut visited = Vec::new();
        while let Some((primary, replica, len)) = seg.take() {
            if visited.contains(&primary) || visited.len() as u64 == max_segments {
                return Err(ObjError::Corruption { off: primary, what: "log-extension chain" });
            }
            visited.push(primary);
            let (g, top, entries) = Self::walk_segment(io, primary, replica, len as usize, gen)?;
            if let Gen::Window(_) = gen {
                log.gen = g;
                log.retire_at = top + 1;
            }
            gen = Gen::Exact(g);
            if let Some(last) = entries.last() {
                if last.kind == EntryKind::LogExt && !last.commit {
                    let (np, nr, ncap) = payload::parse_log_ext(&last.payload);
                    seg = Some((np, nr, ncap));
                }
            }
            log.entries.extend(entries);
        }
        Ok(log)
    }

    /// Walks both copies of a segment; returns the generation and entries
    /// of the copy used, and the higher generation of the two.
    fn walk_segment(
        io: &PoolIo,
        primary: u64,
        replica: u64,
        len: usize,
        gen: Gen,
    ) -> Result<(u64, u64, Vec<Entry>)> {
        let (pg, primary_entries) =
            walk(len, gen, |at, buf| io.read_with_replica_fallback(primary + at, buf))?;
        if replica == 0 {
            return Ok((pg, pg, primary_entries));
        }
        // A torn, corrupted or unreadable primary suffix is recovered from
        // the replica: use whichever copy decodes further. The copies name
        // different generations only while a new log's first persist is
        // unfenced, when replaying either is safe; recovery then raises
        // the header past both.
        let (rg, replica_entries) = walk(len, gen, |at, buf| io.read(replica + at, buf))?;
        if replica_entries.len() > primary_entries.len() {
            Ok((rg, pg.max(rg), replica_entries))
        } else {
            Ok((pg, pg.max(rg), primary_entries))
        }
    }

    fn release(&self, idx: u32) {
        self.claimed[idx as usize].store(false, Ordering::Release);
    }
}

impl<'a> LaneHandle<'a> {
    /// The lane index.
    pub fn index(&self) -> u32 {
        self.idx
    }

    /// The lane's current generation.
    pub fn gen(&self) -> u64 {
        self.lanes.gens[self.idx as usize].load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total log bytes used across all segments.
    pub fn used(&self) -> u64 {
        self.segments.iter().map(|s| s.cursor).sum()
    }

    /// Number of overflow segments in use.
    pub fn overflow_segments(&self) -> usize {
        self.segments.len() - 1
    }

    /// Appends an entry to the lane's staged log tail. Nothing reaches the
    /// device until [`LaneHandle::persist_log`] (or a segment switch).
    ///
    /// Fails with [`ObjError::LogFull`] when the current segment is full;
    /// the transaction layer then provisions an overflow chunk and calls
    /// [`LaneHandle::add_segment`].
    pub fn append(&mut self, kind: EntryKind, off: u64, payload: &[u8]) -> Result<()> {
        self.append_inner(kind, off, payload, false)
    }

    /// Appends an entry that may use the segment's reserve space (overflow
    /// allocation intents). Only the transaction layer's overflow path may
    /// call this; the reserve is sized for its fixed entry budget.
    pub fn append_reserved(&mut self, kind: EntryKind, off: u64, payload: &[u8]) -> Result<()> {
        self.append_inner(kind, off, payload, true)
    }

    fn append_inner(
        &mut self,
        kind: EntryKind,
        off: u64,
        payload: &[u8],
        allow_reserve: bool,
    ) -> Result<()> {
        let space = ulog::entry_space(payload.len());
        let gen = self.gen();
        let seg = self.segments.last_mut().expect("at least one segment");
        let limit = if allow_reserve {
            seg.cap + segment_reserve() - ulog::entry_space(24)
        } else {
            seg.cap
        };
        if seg.cursor + space > limit {
            return Err(ObjError::LogFull);
        }
        let at = self.staged.len();
        let crc = encode_entry(&mut self.staged, kind, off, payload, gen);
        self.last = Some((at, crc));
        seg.cursor += space;
        Ok(())
    }

    /// Writes the staged tail to the current segment — one non-temporal
    /// span per log copy, so no log line is ever cached, flushed or
    /// written twice. Durable at the next fence.
    fn emit(&mut self) -> Result<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let seg = self.segments.last().expect("at least one segment");
        let at = seg.cursor - self.staged.len() as u64;
        self.io.write_nt(seg.primary + at, &self.staged)?;
        if seg.replica != 0 {
            self.io.write_nt(seg.replica + at, &self.staged)?;
        }
        self.staged.clear();
        self.last = None;
        Ok(())
    }

    /// Chains a new overflow segment: appends a `LogExt` entry into the
    /// current segment's reserve, emits that segment's staged tail and
    /// makes the new segment current.
    ///
    /// `replica` is 0 when logs are unmirrored. `total_len` is the raw
    /// segment size; the usable capacity keeps the `LogExt` reserve.
    pub fn add_segment(&mut self, primary: u64, replica: u64, total_len: u64) -> Result<()> {
        let ext = payload::log_ext(primary, replica, total_len);
        let gen = self.gen();
        encode_entry(&mut self.staged, EntryKind::LogExt, 0, &ext, gen);
        self.segments.last_mut().expect("at least one segment").cursor +=
            ulog::entry_space(ext.len());
        self.emit()?;
        self.segments.push(Segment {
            primary,
            replica,
            cap: total_len - segment_reserve(),
            cursor: 0,
        });
        Ok(())
    }

    /// Emits the staged log tail and fences once: every entry appended so
    /// far is durable on return, and none could reach media before this
    /// call (earlier segments were emitted at their switch and settle at
    /// the same fence).
    pub fn persist_log(&mut self) -> Result<()> {
        self.emit()?;
        self.io.drain();
        Ok(())
    }

    /// Commits: sets the commit flag on the last staged entry (re-CRCing
    /// its header only), or appends a standalone [`EntryKind::Commit`]
    /// when nothing is staged (a cross-shard secondary's late commit, or
    /// a commit whose entries were all persisted earlier), then persists
    /// as [`LaneHandle::persist_log`] does: the fence is the commit
    /// point. The standalone record may use the segment reserve, which
    /// nothing else needs once a log commits, so this never reports
    /// [`ObjError::LogFull`].
    pub fn persist_commit(&mut self) -> Result<()> {
        match self.last {
            Some((at, crc)) => {
                let gen = self.gen();
                ulog::set_commit(&mut self.staged[at..], crc, gen)
            }
            None => self.append_inner(EntryKind::Commit, 0, &[], true)?,
        }
        self.persist_log()
    }

    /// Invalidates the lane's log by writing the next generation into the
    /// header word (both copies; the window then starts there) and resets
    /// to the base segment. Overflow chunks are released by the
    /// transaction layer afterwards. A committed log whose chunks stay
    /// put does not need this: [`LaneHandle::retain_committed`].
    ///
    /// `durable` controls whether the header words are *fenced* before
    /// returning. Without the fence (an abort, a window wrap) the store is
    /// flushed and settles at the next fence anyone issues, which comes
    /// before any store that could differ from what the old log replays
    /// (module docs, line 6); a crash before it leaves the old header, and
    /// replaying the old log is harmless. Transactions that overflowed
    /// into heap chunks MUST pass `true`: their chunks return to the
    /// allocator right after this call, and a stale log chain must never
    /// be walked into a chunk another lane now owns. So must a
    /// cross-shard secondary, whose generation a primary's marker names.
    pub fn bump_gen(&mut self, durable: bool) -> Result<()> {
        let l = self.idx as usize;
        let new_gen = self.gen() + 1;
        {
            let _g = self.lanes.hdr_locks[l].lock().unwrap_or_else(|e| e.into_inner());
            for off in Lanes::header_offsets(&self.lanes.layout, self.idx, self.lanes.mirror) {
                self.io.atomic_store_u64(off, new_gen)?;
                self.io.flush(off, 8)?;
            }
            if durable {
                self.io.drain();
            }
            self.lanes.gens[l].store(new_gen, Ordering::Release);
            self.lanes.hdrs[l].store(new_gen, Ordering::Release);
        }
        self.reset();
        Ok(())
    }

    /// Ends a committed log whose every effect is durable, leaving it
    /// valid on media (module docs): the lane moves to the next
    /// generation in DRAM and its bit in the mask is set, so the next
    /// mutator on another lane retires the log. No device op, except
    /// once per [`GEN_LIVE`] commits, when the next generation would
    /// leave the header's live window and the header is rewritten
    /// instead (`bump_gen(false)`). Call it after the log's write-back
    /// and allocator fences, and before its allocator completion.
    pub fn retain_committed(&mut self) -> Result<()> {
        let l = self.idx as usize;
        let next = self.gen() + 1;
        if next - self.lanes.hdrs[l].load(Ordering::Acquire) >= GEN_LIVE {
            return self.bump_gen(false);
        }
        self.lanes.gens[l].store(next, Ordering::Release);
        let (word, bit) = (&self.lanes.valid[l / 64], 1 << (l % 64));
        if word.load(Ordering::Acquire) & bit == 0 {
            word.fetch_or(bit, Ordering::AcqRel);
        }
        self.reset();
        Ok(())
    }

    /// Retires every other lane's valid committed log: raises each such
    /// lane's header to its current generation and flushes it, unfenced.
    /// A durable mutator calls this after it holds what it will write and
    /// before its fence, which then orders the retirements before its
    /// stores (module docs). One atomic load per 64 lanes when no other
    /// lane holds a valid log.
    pub fn retire_others(&self) -> Result<()> {
        let lanes = self.lanes;
        for (w, word) in lanes.valid.iter().enumerate() {
            let mut bits = word.load(Ordering::Acquire);
            if w == self.idx as usize / 64 {
                bits &= !(1 << (self.idx % 64));
            }
            while bits != 0 {
                let l = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if lanes.holds_valid(l) {
                    lanes.raise(self.io, l as u32)?;
                }
            }
        }
        Ok(())
    }

    /// Runs `write` under the lane's header lock with the header value
    /// that retires this lane's own valid committed log, or `None` when
    /// it holds none; `write` stores that value in its own line write
    /// (the detectable CAS's descriptor shares the header's line), and
    /// on success the lane counts the log retired.
    pub fn retire_own_with<R>(&self, write: impl FnOnce(Option<u64>) -> Result<R>) -> Result<R> {
        let l = self.idx as usize;
        if !self.lanes.holds_valid(l) {
            return write(None);
        }
        let _g = self.lanes.hdr_locks[l].lock().unwrap_or_else(|e| e.into_inner());
        let gen = self.gen();
        let r = write(Some(gen))?;
        self.lanes.hdrs[l].store(gen, Ordering::Release);
        Ok(r)
    }

    fn reset(&mut self) {
        self.segments.truncate(1);
        self.segments[0].cursor = 0;
        self.staged.clear();
        self.last = None;
    }

    /// Decodes this lane's persisted entries (for abort replay): the
    /// device's view, so a staged tail that never reached `persist_log`
    /// is not part of it.
    pub fn entries(&self) -> Result<Vec<Entry>> {
        Lanes::read_entries(self.io, &self.lanes.layout, self.idx, self.lanes.mirror)
    }
}

impl Drop for LaneHandle<'_> {
    fn drop(&mut self) {
        self.lanes.release(self.idx);
        let mut segments = std::mem::take(&mut self.segments);
        segments.clear();
        let mut staged = std::mem::take(&mut self.staged);
        staged.clear();
        LANE_BUFS.with(|c| c.set(Some((segments, staged))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PoolConfig;
    use pgl_nvm::{DeviceConfig, NvmDevice};
    use std::sync::Arc;

    fn setup(mirror: LogMirror) -> (PoolIo, Layout, Lanes) {
        let cfg = PoolConfig::small();
        let layout = Layout::new(cfg).unwrap();
        let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
        let io = PoolIo::new(dev);
        Lanes::format(&io, &layout, mirror).unwrap();
        let lanes = Lanes::load(&io, layout, mirror).unwrap();
        (io, layout, lanes)
    }

    #[test]
    fn claim_append_walk_roundtrip() {
        let (io, layout, lanes) = setup(LogMirror::None);
        let mut h = lanes.claim(&io);
        h.append(EntryKind::Data, 0x2000, b"undo bytes").unwrap();
        h.persist_commit().unwrap();
        let idx = h.index();
        let entries = Lanes::read_entries(&io, &layout, idx, LogMirror::None).unwrap();
        assert_eq!(entries.len(), 1, "the commit rides on the data entry");
        assert!(entries[0].commit && ulog::is_committed(&entries));
    }

    #[test]
    fn bump_gen_invalidates_entries() {
        let (io, layout, lanes) = setup(LogMirror::None);
        let mut h = lanes.claim(&io);
        h.append(EntryKind::Data, 64, b"x").unwrap();
        h.persist_log().unwrap();
        h.bump_gen(true).unwrap();
        let entries = Lanes::read_entries(&io, &layout, h.index(), LogMirror::None).unwrap();
        assert!(entries.is_empty(), "old-generation entries are invisible");
        // The lane is immediately reusable.
        h.append(EntryKind::Data, 64, b"y").unwrap();
        h.persist_log().unwrap();
        let entries = Lanes::read_entries(&io, &layout, h.index(), LogMirror::None).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].payload, b"y");
    }

    #[test]
    fn mirrored_lane_survives_primary_poison() {
        let (io, layout, lanes) = setup(LogMirror::SameDevice);
        let mut h = lanes.claim(&io);
        h.append(EntryKind::Data, 0x2000, &[0xCD; 100]).unwrap();
        h.persist_commit().unwrap();
        let idx = h.index();
        drop(h);
        // Poison the page holding the primary log copy.
        let page = (layout.lane_off(idx as u64) + LANE_HEADER_SIZE) / pgl_nvm::PAGE_SIZE as u64;
        io.dev().poison_page(page).unwrap();
        let entries = Lanes::read_entries(&io, &layout, idx, LogMirror::SameDevice).unwrap();
        assert_eq!(entries.len(), 1, "entries recovered from the replica log");
        assert!(ulog::is_committed(&entries));
    }

    #[test]
    fn appends_stage_in_dram_and_persist_is_one_nt_span_per_copy() {
        let (io, layout, lanes) = setup(LogMirror::SameDevice);
        let mut h = lanes.claim(&io);
        let s0 = io.dev().stats();
        let mut space = 0;
        for len in [0usize, 1, 8, 100, 4096, 5000] {
            h.append(EntryKind::Data, 0x2000, &vec![0xA5; len]).unwrap();
            space += ulog::entry_space(len);
        }
        assert_eq!(space, 6 * 16 + (8 + 8 + 104 + 4096 + 5000), "16-byte headers");
        assert_eq!(io.dev().stats().delta_since(&s0), Default::default(), "append is DRAM-only");
        assert!(h.entries().unwrap().is_empty(), "entries() is the device's view");

        // The commit flag rides on the last entry: not one byte more.
        h.persist_commit().unwrap();
        let d = io.dev().stats().delta_since(&s0);
        assert_eq!(d.bytes_written_nt, 2 * space);
        assert_eq!((d.bytes_written, d.lines_flushed, d.fences), (0, 0, 1));
        let entries = Lanes::read_entries(&io, &layout, h.index(), LogMirror::SameDevice).unwrap();
        assert_eq!(entries.len(), 6);
        assert!(ulog::is_committed(&entries));
        assert_eq!(entries.iter().filter(|e| e.commit).count(), 1);

        // A second persist with nothing staged only fences.
        let s1 = io.dev().stats();
        h.persist_log().unwrap();
        let d = io.dev().stats().delta_since(&s1);
        assert_eq!((d.bytes_written_nt, d.fences), (0, 1));

        // A commit with nothing staged is a 16-byte record of its own.
        h.bump_gen(true).unwrap();
        h.append(EntryKind::Data, 0x2000, &[1; 8]).unwrap();
        h.persist_log().unwrap();
        let s2 = io.dev().stats();
        h.persist_commit().unwrap();
        let d = io.dev().stats().delta_since(&s2);
        assert_eq!((d.bytes_written_nt, d.fences), (2 * ulog::ENTRY_HEADER_SIZE, 1));
        let entries = Lanes::read_entries(&io, &layout, h.index(), LogMirror::SameDevice).unwrap();
        assert_eq!(
            entries.iter().map(|e| (e.kind, e.commit)).collect::<Vec<_>>(),
            [(EntryKind::Data, false), (EntryKind::Commit, true)]
        );
    }

    /// A committed log image under `gen`: `n` Data entries of `len` bytes
    /// of `fill`, the last one flagged.
    fn log_image(gen: u64, n: u64, len: usize, fill: u8) -> Vec<u8> {
        let mut log = Vec::new();
        let mut last = (0, 0);
        for i in 0..n {
            let at = log.len();
            let crc =
                encode_entry(&mut log, EntryKind::Data, 0x2000 + 64 * i, &vec![fill; len], gen);
            last = (at, crc);
        }
        ulog::set_commit(&mut log[last.0..], last.1, gen);
        log
    }

    fn put(io: &PoolIo, off: u64, bytes: &[u8]) {
        io.write(off, bytes).unwrap();
        io.persist(off, bytes.len()).unwrap();
    }

    #[test]
    fn a_retained_log_stays_readable_until_another_lane_retires_it() {
        let (io, layout, lanes) = setup(LogMirror::SameDevice);
        let mut a = lanes.claim(&io);
        let (idx, g) = (a.index(), a.gen());
        a.append(EntryKind::Data, 0x2000, b"kept").unwrap();
        a.persist_commit().unwrap();
        let s0 = io.dev().stats();
        a.retain_committed().unwrap();
        assert_eq!(io.dev().stats().delta_since(&s0), Default::default(), "DRAM-only");
        assert_eq!(a.gen(), g + 1, "the next log takes the next generation");
        drop(a);
        let log = Lanes::read_log(&io, &layout, idx, LogMirror::SameDevice).unwrap();
        assert_eq!((log.gen, log.entries.len(), log.retire_at), (g, 1, g + 1));
        assert!(ulog::is_committed(&log.entries), "the header still admits it");

        // Another lane's mutator retires it: both header copies, flushed.
        let hold = lanes.claim(&io);
        let b = lanes.claim(&io);
        assert_eq!(hold.index(), idx);
        assert_ne!(b.index(), idx);
        let s0 = io.dev().stats();
        b.retire_others().unwrap();
        let d = io.dev().stats().delta_since(&s0);
        assert_eq!((d.atomic_stores, d.lines_flushed, d.fences), (2, 2, 0));
        assert!(Lanes::read_entries(&io, &layout, idx, LogMirror::SameDevice).unwrap().is_empty());
        assert_eq!(Lanes::read_gen(&io, &layout, idx, LogMirror::SameDevice).unwrap(), g + 1);
        // Nothing valid is left: the next mutator pays no device op, and
        // the holder's own log needs none either.
        let s0 = io.dev().stats();
        b.retire_others().unwrap();
        hold.retire_others().unwrap();
        assert_eq!(io.dev().stats().delta_since(&s0), Default::default());
    }

    #[test]
    fn a_lane_retires_its_own_log_in_the_callers_line() {
        let (io, _, lanes) = setup(LogMirror::None);
        let mut a = lanes.claim(&io);
        a.append(EntryKind::Data, 0x2000, b"x").unwrap();
        a.persist_commit().unwrap();
        a.retain_committed().unwrap();
        let gen = a.gen();
        assert_eq!(a.retire_own_with(Ok).unwrap(), Some(gen), "the value that retires it");
        assert_eq!(a.retire_own_with(Ok).unwrap(), None, "retired once");
        // A retirer on another lane finds nothing either.
        let b = lanes.claim(&io);
        let s0 = io.dev().stats();
        b.retire_others().unwrap();
        assert_eq!(io.dev().stats().delta_since(&s0), Default::default());
    }

    #[test]
    fn entry_zero_below_the_header_or_failing_its_crc_is_no_log() {
        let (io, layout, _) = setup(LogMirror::None);
        let at = layout.lane_off(0) + LANE_HEADER_SIZE;
        let read = || Lanes::read_log(&io, &layout, 0, LogMirror::None).unwrap();
        // Generation 1 + 2^11 carries generation 1's tag: it maps to the
        // header's generation, and the CRC refuses it.
        put(&io, at, &log_image(1 + ulog::GEN_WINDOW, 2, 40, 0xA1));
        let log = read();
        assert_eq!((log.gen, log.entries.len()), (1, 0));
        // A log written under the header's generation, then the header
        // raised past it: its tag now names a generation below the
        // header, refused before its payload is read.
        put(&io, at, &log_image(1, 2, 40, 0xA1));
        assert_eq!(read().entries.len(), 2);
        Lanes::invalidate(&io, &layout, 0, LogMirror::None, 2).unwrap();
        let s0 = io.dev().stats();
        let log = read();
        assert_eq!((log.gen, log.entries.len()), (2, 0), "entry 0 below the header");
        // The header word and one scan window: nothing past entry 0 is
        // needed to refuse it.
        assert_eq!(io.dev().stats().delta_since(&s0).read_ops, 2);
    }

    #[test]
    fn a_torn_overwrite_is_not_replayed_as_the_new_log() {
        // Log g holds two equal-sized entries; log g + 1's second entry
        // lands over the old one and its first does not.
        let (io, layout, _) = setup(LogMirror::None);
        let at = layout.lane_off(0) + LANE_HEADER_SIZE;
        let old = log_image(5, 2, 40, 0xA1);
        let new = log_image(6, 2, 40, 0xB2);
        Lanes::invalidate(&io, &layout, 0, LogMirror::None, 5).unwrap();
        put(&io, at, &old);
        let half = old.len() / 2;
        put(&io, at + half as u64, &new[half..]);
        let log = Lanes::read_log(&io, &layout, 0, LogMirror::None).unwrap();
        assert_eq!(log.gen, 5, "entry 0 names the old log");
        assert_eq!(log.entries.len(), 1, "the new entry ends it");
        assert!(!ulog::is_committed(&log.entries));
        assert_eq!(log.entries[0].payload, [0xA1; 40]);
    }

    #[test]
    fn copies_naming_two_generations_replay_one_and_retire_both() {
        // A new log's first persist reached the primary only: its entry 0
        // names generation 2 there, the replica still holds log 1.
        let (io, layout, _) = setup(LogMirror::SameDevice);
        let (p, r) = (layout.lane_off(0), layout.lane_replica_off(0));
        let (p, r) = (p + LANE_HEADER_SIZE, r + LANE_HEADER_SIZE);
        put(&io, p, &log_image(1, 3, 40, 0xA1));
        put(&io, r, &log_image(1, 3, 40, 0xA1));
        put(&io, p, &log_image(2, 1, 40, 0xB2));
        let log = Lanes::read_log(&io, &layout, 0, LogMirror::SameDevice).unwrap();
        assert_eq!((log.gen, log.entries.len()), (1, 3), "the copy that decodes further");
        assert!(ulog::is_committed(&log.entries));
        assert_eq!(log.retire_at, 3, "past both copies' generations");
        Lanes::invalidate(&io, &layout, 0, LogMirror::SameDevice, log.retire_at).unwrap();
        let again = Lanes::read_log(&io, &layout, 0, LogMirror::SameDevice).unwrap();
        assert!(again.entries.is_empty(), "neither copy resurfaces: {again:?}");
    }

    #[test]
    fn invalidate_after_replaying_generation_g_leaves_the_header_at_g_plus_1() {
        let (io, layout, lanes) = setup(LogMirror::SameDevice);
        let mut h = lanes.claim(&io);
        for i in 0..5u8 {
            h.append(EntryKind::Data, 0x2000, &[i; 8]).unwrap();
            h.persist_commit().unwrap();
            h.retain_committed().unwrap();
        }
        let idx = h.index();
        drop(h);
        let hdr = Lanes::read_gen(&io, &layout, idx, LogMirror::SameDevice).unwrap();
        let log = Lanes::read_log(&io, &layout, idx, LogMirror::SameDevice).unwrap();
        assert_eq!(log.gen, hdr + 4, "five logs, the header never written");
        assert_eq!(log.entries[0].payload, [4; 8]);
        Lanes::invalidate(&io, &layout, idx, LogMirror::SameDevice, log.retire_at).unwrap();
        let g = log.gen;
        assert_eq!(Lanes::read_gen(&io, &layout, idx, LogMirror::SameDevice).unwrap(), g + 1);
        assert!(Lanes::read_entries(&io, &layout, idx, LogMirror::SameDevice).unwrap().is_empty());
        // The next load writes the lane's next log under g + 1.
        let lanes = Lanes::load(&io, layout, LogMirror::SameDevice).unwrap();
        assert_eq!(lanes.gens[idx as usize].load(Ordering::Relaxed), g + 1);
    }

    #[test]
    fn bump_gen_drops_a_staged_tail() {
        let (io, layout, lanes) = setup(LogMirror::SameDevice);
        let mut h = lanes.claim(&io);
        h.append(EntryKind::Data, 64, b"persisted").unwrap();
        h.persist_log().unwrap();
        h.append(EntryKind::Data, 64, b"staged only").unwrap();
        h.bump_gen(true).unwrap();
        let idx = h.index();
        let read = || Lanes::read_entries(&io, &layout, idx, LogMirror::SameDevice).unwrap();
        assert!(read().is_empty(), "abort leaves no trace");
        // The dropped tail does not resurface under the new generation.
        h.persist_commit().unwrap();
        assert_eq!(read().len(), 1);
        assert!(ulog::is_committed(&read()));
    }

    #[test]
    fn idle_lane_scan_reads_one_window_per_copy() {
        let (io, layout, _) = setup(LogMirror::SameDevice);
        let s0 = io.dev().stats();
        assert!(Lanes::read_entries(&io, &layout, 3, LogMirror::SameDevice).unwrap().is_empty());
        let d = io.dev().stats().delta_since(&s0);
        // Two windows plus the 8-byte generation word.
        assert!(d.bytes_read <= 2 * SCAN_WINDOW as u64 + 8, "read {} bytes", d.bytes_read);
    }

    #[test]
    fn poison_past_the_log_end_keeps_the_primary_copy() {
        let (io, layout, lanes) = setup(LogMirror::SameDevice);
        let mut h = lanes.claim(&io);
        h.append(EntryKind::Data, 0x2000, &[0xCD; 100]).unwrap();
        h.persist_commit().unwrap();
        let idx = h.index();
        drop(h);
        // The log sits in the lane's first page. Poison the primary's
        // second page — inside the first scan window, past the log — and
        // the replica's first: only the primary can produce the entries.
        let page = |off: u64| off / pgl_nvm::PAGE_SIZE as u64;
        io.dev().poison_page(page(layout.lane_off(idx as u64)) + 1).unwrap();
        io.dev().poison_page(page(layout.lane_replica_off(idx as u64))).unwrap();
        let entries = Lanes::read_entries(&io, &layout, idx, LogMirror::SameDevice).unwrap();
        assert_eq!(entries.len(), 1, "a bad page the log never reaches is not a log fault");
        assert!(ulog::is_committed(&entries));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The windowed scan returns exactly what decoding the whole
        /// segment at once returns — with an entry across the first window
        /// edge and one larger than any doubling step reaches early.
        #[test]
        fn windowed_scan_matches_whole_segment_walk(
            lead in 3900usize..4200,
            sizes in proptest::collection::vec(0usize..2500, 0..12),
            big in (64usize << 10) + 1..(72 << 10),
            big_at in 0usize..12,
        ) {
            let (io, layout, lanes) = setup(LogMirror::None);
            let mut h = lanes.claim(&io);
            let mut sizes = sizes.clone();
            sizes.insert(0, lead);
            sizes.insert(1 + big_at % sizes.len(), big);
            for (i, len) in sizes.iter().enumerate() {
                h.append(EntryKind::Data, i as u64, &vec![i as u8; *len]).unwrap();
            }
            h.persist_log().unwrap();

            let mut whole = vec![0u8; layout.cfg.lane_size - LANE_HEADER_SIZE as usize];
            io.read(layout.lane_off(h.index() as u64) + LANE_HEADER_SIZE, &mut whole).unwrap();
            let expect = ulog::walk(&whole, h.gen()).unwrap();
            proptest::prop_assert_eq!(expect.len(), sizes.len());
            proptest::prop_assert_eq!(h.entries().unwrap(), expect);
        }
    }

    #[test]
    fn log_full_is_reported_then_overflow_continues() {
        let (io, layout, lanes) = setup(LogMirror::None);
        let mut h = lanes.claim(&io);
        let big = vec![0xEFu8; 8 << 10];
        let mut appended = 0u32;
        loop {
            match h.append(EntryKind::Data, 0, &big) {
                Ok(()) => appended += 1,
                Err(ObjError::LogFull) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(appended > 0);
        // Chain an overflow segment in some free space and keep appending.
        let chunk_base = layout.chunk_base(0, layout.zone.cm_chunks);
        let s0 = io.dev().stats();
        h.add_segment(chunk_base, 0, layout.cfg.chunk_size as u64).unwrap();
        // The staged tail belongs to the full segment: the switch emits it
        // (with the chain entry) as one span and leaves nothing behind.
        let d = io.dev().stats().delta_since(&s0);
        assert_eq!(d.bytes_written_nt, h.used());
        assert_eq!((d.bytes_written, d.lines_flushed, d.fences), (0, 0, 0));
        h.append(EntryKind::Data, 0, &big).unwrap();
        h.persist_commit().unwrap();
        assert_eq!(h.overflow_segments(), 1);

        let entries = Lanes::read_entries(&io, &layout, h.index(), LogMirror::None).unwrap();
        // appended + LogExt + 1 flagged data entry
        assert_eq!(entries.len() as u32, appended + 2);
        assert!(ulog::is_committed(&entries));
        assert_eq!(
            entries.iter().filter(|e| e.kind == EntryKind::LogExt).count(),
            1,
            "chain entry present in the decoded stream"
        );
    }

    #[test]
    fn a_standalone_commit_fits_a_full_segment() {
        // Entries persisted until not even a payload-less one fits,
        // nothing staged: the commit record goes into the reserve.
        let (io, layout, lanes) = setup(LogMirror::None);
        let mut h = lanes.claim(&io);
        let mut appended = 0;
        for len in [1000, 8, 0] {
            while h.append(EntryKind::Data, 0, &vec![7; len]).is_ok() {
                appended += 1;
            }
        }
        h.persist_log().unwrap();
        h.persist_commit().unwrap();
        let entries = Lanes::read_entries(&io, &layout, h.index(), LogMirror::None).unwrap();
        assert_eq!(entries.len(), appended + 1);
        assert!(ulog::is_committed(&entries) && entries[appended].kind == EntryKind::Commit);
    }

    #[test]
    fn mirrored_overflow_chain_survives_poison() {
        let (io, layout, lanes) = setup(LogMirror::SameDevice);
        let mut h = lanes.claim(&io);
        let big = vec![1u8; 8 << 10];
        while h.append(EntryKind::Data, 0, &big).is_ok() {}
        let p = layout.chunk_base(0, layout.zone.cm_chunks);
        let r = layout.chunk_base(0, layout.zone.cm_chunks + 1);
        h.add_segment(p, r, layout.cfg.chunk_size as u64).unwrap();
        h.append(EntryKind::Data, 0x42, b"in overflow").unwrap();
        h.persist_commit().unwrap();
        // Poison the primary overflow chunk: the replica copy serves reads.
        io.dev().poison_page(p / pgl_nvm::PAGE_SIZE as u64).unwrap();
        let entries = Lanes::read_entries(&io, &layout, h.index(), LogMirror::SameDevice).unwrap();
        assert!(ulog::is_committed(&entries));
        assert!(entries.iter().any(|e| e.payload == b"in overflow"));
    }

    #[test]
    fn lanes_block_until_released() {
        let (io, _, lanes) = setup(LogMirror::None);
        let handles: Vec<_> = (0..8).map(|_| lanes.claim(&io)).collect();
        assert_eq!(lanes.in_use(), 8);
        // All 8 lanes taken; a 9th claim would spin. Release and claim.
        drop(handles);
        assert_eq!(lanes.in_use(), 0);
        let h = lanes.claim(&io);
        assert!(h.index() < 8);
    }

    #[test]
    fn claims_prefer_the_thread_local_lane() {
        let (io, _, lanes) = setup(LogMirror::None);
        let first = lanes.claim(&io).index();
        // Same thread, lane free again: the claim must come back to it.
        for _ in 0..4 {
            assert_eq!(lanes.claim(&io).index(), first);
        }
    }

    #[test]
    fn concurrent_claims_get_distinct_lanes() {
        // Every claimer holds its lane until all eight hold one: the
        // claims overlap by construction, not by a sleep that a loaded
        // host can outlast.
        let (io, _, lanes) = setup(LogMirror::None);
        let io = &io;
        let lanes = &lanes;
        let all_held = &std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(move || {
                        let h = lanes.claim(io);
                        let idx = h.index();
                        all_held.wait();
                        drop(h);
                        idx
                    })
                })
                .collect();
            let mut got: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got.len(), 8, "8 concurrent claims → 8 distinct lanes");
        });
    }
}
