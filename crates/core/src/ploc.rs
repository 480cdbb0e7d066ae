//! Detectable persistent atomics (`ploc` — persistent lock-free operation
//! checkpoints).
//!
//! Transactions give atomicity for arbitrary updates, but every structure
//! built on them is lock-per-store: under the striped range-locks, hot
//! nodes serialize all writers. This module provides the alternative the
//! lock-free `pgl-kv` structures build on: a **detectable compare-and-swap
//! over one 8-byte word of a pangolin object**, with the object's Adler32
//! checksum and parity column patched at word granularity — no whole-object
//! span guard, no redo log, two fences per operation — and the same CAS
//! fused with the allocation of the node it links, in four.
//!
//! # Operation descriptors (the checkpoint region)
//!
//! Every lane header (64 bytes, of which the transaction engine uses only
//! the 8-byte generation word) donates its spare bytes as one persistent
//! *operation descriptor*:
//!
//! ```text
//! lane_off + 0   generation          (owned by the transaction engine)
//!          + 8   state               0 = IDLE, 1 = PREPARED, 2 = ALLOCATING
//!          + 16  tag                 caller-chosen operation identity
//!          + 24  obj_off             user-data offset of the target object
//!          + 32  word_off            absolute offset of the CAS target word
//!          + 40  expected            the compare value
//!          + 48  new                 the swap value (ALLOCATING: the node)
//! ```
//!
//! The descriptor shares the generation word's cache line, so it is
//! mirrored to the lane-replica region in ML modes for free, and — because
//! the crash model (like real hardware) never tears a cache line — it
//! persists all-or-nothing.
//!
//! # Fence discipline
//!
//! A successful word CAS (`Inner::word_cas`, reached through
//! [`crate::PglPool::atomic_update`]) issues exactly two fences:
//!
//! 1. **Prepare.** Write the descriptor (`PREPARED`, tag, addresses,
//!    values) to every lane-header copy, flush, fence. From here on a
//!    crash *replays* the operation instead of losing it.
//! 2. **Publish + patch.** Under a stripe guard covering just the
//!    target word's and its *sum word's* parity columns: clear the word's
//!    segment in the verification cache, CAS the word, XOR
//!    `expected ⊕ new` into its parity column, fold the same delta into
//!    the sum of the word's segment ([`crate::segment`]) with a CAS loop
//!    on the aligned 8-byte word holding it — the header's
//!    `(type_num, csum)` word for segment 0, the word holding the
//!    segment's table entry otherwise — XOR that word's diff into *its*
//!    parity column, flush the touched lines, fence. A CAS updates exactly
//!    one checksum word.
//!
//! The descriptor then stays `PREPARED` until the lane's next operation
//! overwrites it: retiring it eagerly would need a third fence, and a
//! *lazily* retired descriptor could persist as `IDLE` while the CAS
//! itself persisted — turning a completed operation invisible, which is
//! exactly what detectability forbids. A failed CAS *does* retire its
//! descriptor with a fence (the cold path), so replay can never promote a
//! mismatch into a completion.
//!
//! # Allocate-and-publish
//!
//! [`crate::PglPool::atomic_publish_new`] links a *new* node: it reserves
//! a run block in DRAM (raising the zone's watermark first, as
//! [`crate::PglTx::alloc`] does) and then issues four fences, none of them
//! for a redo log:
//!
//! 1. **F1** — the descriptor, state `ALLOCATING`, `new` = the node's user
//!    offset.
//! 2. **F2** — the node's header (size, type, Adler32 of its content) and
//!    content, stored non-temporally and parity-patched against the slot's
//!    current bytes under one span guard; the slot's verified-generation
//!    entry is bumped first.
//! 3. **F3** — the publish of a word CAS (above). On a mismatch the
//!    descriptor retires, the reservation is cancelled and the slot stays
//!    free on media, its parity consistent with whatever F2 left there.
//! 4. **F4** — the block's allocator bit, set with its parity patch.
//!
//! So **bit durable ⇒ CAS durable ⇒ node durable**: no crash can leave an
//! allocated node that nothing links, and a linked node's bytes are always
//! whole. A block that needs a fresh run first publishes the run's format
//! and chunk-metadata entry as a redo commit of their own; the node then
//! takes the same four fences.
//!
//! # Recovery
//!
//! `replay_descriptors` runs at pool open, after redo-log replay and before
//! the heap rebuild. For every `PREPARED` descriptor it decides the
//! operation's fate by comparing the target word against the descriptor's
//! `new` value — **recompute, never re-apply**: the word itself persisted
//! atomically, so recovery only re-derives the sum of the word's segment
//! from the bytes actually on media and recomputes the two parity columns (both
//! idempotent), then reports a [`CasRecovery`] through
//! [`crate::PglPool::cas_recoveries`]. A crashed operation therefore either
//! never happened (descriptor absent or `IDLE`; the word is untouched) or
//! completed exactly once (descriptor `PREPARED`; the word decides), and
//! the client that was running it can tell which from the report for its
//! tag.
//!
//! An `ALLOCATING` descriptor replays the same way, plus its node. `new`
//! must be a block start + 16 inside a `Run` chunk whose metadata verifies
//! (otherwise the descriptor replays as `PREPARED`). The parity columns of
//! the block and of its bitmap word are recomputed, a crash inside F2 or F4
//! may have torn either. If the target word holds `new` the operation is
//! `Completed` and a clear bit is set (the crash fell between F3 and F4);
//! otherwise it is `RolledBack` and the bit is left as found — clear if the
//! node never got linked, set if the operation completed and the word moved
//! on later.
//!
//! The decision rule assumes the in-flight word is not concurrently
//! retargeted between the crash and the comparison — the single-threaded
//! crash model — and, like every detectable-CAS design, that tags are not
//! reused across unrelated operations on the same word (an ABA on the
//! *word value itself* between prepare and replay would misreport; the
//! lock-free structures never reuse a node offset while its operation is
//! in flight, see `pgl-kv::lockfree`). A word another thread moved on
//! after the CAS therefore misreports the operation as `RolledBack`; for
//! an allocate-and-publish the rule below keeps that from also freeing a
//! linked node.
//!
//! # Concurrent linkers
//!
//! F3 makes a node visible before F4 allocates it, so another thread can
//! move the word past it in between — push `M` with `M.next = N`, pop `N`,
//! seal `N`'s hash slot. Were the crash to fall right then, recovery would
//! find the word moved on and leave `N`'s bit clear while `M` still links
//! `N`. So every allocate-and-publish registers its node in a volatile
//! table keyed by node offset (`Linking`) before F3 and retires it after
//! F4, and every CAS first *settles* its `expected` value: if that value is
//! a registered node, the CAS makes the node's bit durable itself before it
//! can move a word past it. A word thus moves past a node only once the
//! node's bit is durable. Two registrations that hash to one slot wait for
//! each other (the wait spans one publish); a compared value that merely
//! equals a registered node's offset costs at most that block, leaked.

use std::sync::atomic::{AtomicU64, Ordering};

use pgl_nvm::pod::bytes_of;
use pgl_pmemobj::heap::{classes, run_slot, AllocReservation, MetaOp};
use pgl_pmemobj::lane::{LaneHandle, LogMirror};
use pgl_pmemobj::{Layout, ObjectHeader, PMEMoid, PoolIo, OBJ_HEADER_SIZE};

use crate::checksum::{adler32, adler32_update};
use crate::error::{PglError, Result};
use crate::parity::{segments, ParityDomains, RangeGuard};
use crate::pool::Inner;
use crate::scratch::CommitScratch;
use crate::segment::{self, SEG};

/// Byte offset of the descriptor state word within a lane header.
const DESC_STATE: u64 = 8;
/// Descriptor length in bytes (state through `new`).
const DESC_LEN: usize = 48;

/// Descriptor state: no operation in flight (or the last one failed).
const STATE_IDLE: u64 = 0;
/// Descriptor state: an operation is prepared; replay decides its fate.
const STATE_PREPARED: u64 = 1;
/// Descriptor state: an allocate-and-publish is prepared; replay decides
/// its fate and its node's allocator bit.
const STATE_ALLOCATING: u64 = 2;

/// Slots of the [`Linking`] table.
const LINK_SLOTS: usize = 64;
/// Marks a [`Linking`] entry whose node's bit a linker made durable (node
/// offsets are 8-byte aligned, so bit 0 is free).
const SETTLED: u64 = 1;

/// One [`Linking`] slot, alone on its cache line.
#[derive(Default)]
#[repr(align(64))]
struct LinkSlot(AtomicU64);

/// The nodes of in-flight allocate-and-publish operations, each registered
/// from just before its CAS until its allocator bit is durable (module
/// docs, "Concurrent linkers"). An entry is the node's offset, `| SETTLED`
/// once a linker made the bit durable; 0 is a free slot. An entry outlives
/// its operation only if the publishing thread panics.
pub(crate) struct Linking([LinkSlot; LINK_SLOTS]);

impl Linking {
    pub(crate) fn new() -> Linking {
        Linking(std::array::from_fn(|_| LinkSlot::default()))
    }

    fn slot(&self, node: u64) -> &AtomicU64 {
        &self.0[(node / 8) as usize % LINK_SLOTS].0
    }

    /// Registers `node`, waiting out an in-flight publish that holds its
    /// slot.
    fn claim(&self, node: u64) -> &AtomicU64 {
        let slot = self.slot(node);
        while slot.compare_exchange(0, node, Ordering::AcqRel, Ordering::Acquire).is_err() {
            std::thread::yield_now();
        }
        slot
    }
}

/// What recovery decided about a prepared CAS found after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasOutcome {
    /// The swapped value is on media: the operation completed (exactly
    /// once — replay recomputes checksum/parity but never re-applies).
    Completed,
    /// The word does not hold the swap value: the operation never took
    /// effect and has been rolled away entirely.
    RolledBack,
}

/// One recovered CAS descriptor, reported from pool open via
/// [`crate::PglPool::cas_recoveries`].
#[derive(Debug, Clone, Copy)]
pub struct CasRecovery {
    /// Lane whose descriptor slot held the operation.
    pub lane: u32,
    /// Caller-chosen operation identity (see [`crate::PglPool::atomic_update`]).
    pub tag: u64,
    /// User-data offset of the target object.
    pub obj_off: u64,
    /// Absolute device offset of the CAS target word.
    pub word_off: u64,
    /// The compare value the operation carried.
    pub expected: u64,
    /// The swap value the operation carried.
    pub new: u64,
    /// Whether the operation completed or rolled back.
    pub outcome: CasOutcome,
}

/// Result of a detectable word CAS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordCas {
    /// The word held `expected` and now holds `new`, durably.
    Applied,
    /// The word held this value instead of `expected`; nothing changed.
    Mismatch(u64),
}

impl WordCas {
    /// `true` when the CAS took effect.
    pub fn is_applied(&self) -> bool {
        matches!(self, WordCas::Applied)
    }
}

/// Result of an allocate-and-publish
/// ([`crate::PglPool::atomic_publish_new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NewCas {
    /// The word held `expected` and now points at this new node, which is
    /// durably constructed and allocated.
    Applied(PMEMoid),
    /// The word held this value instead of `expected`; nothing was
    /// allocated.
    Mismatch(u64),
}

/// Operands of one validated word CAS (internal bundle; `size` is the
/// target object's user size, already range-checked against `off`).
#[derive(Clone, Copy)]
struct CasOp {
    oid: PMEMoid,
    off: u64,
    size: u64,
    expected: u64,
    new: u64,
    tag: u64,
}

/// A typed detectable CAS cell: one 8-byte word at a fixed offset inside a
/// pangolin object, plus the operation tag its owner uses for recovery.
///
/// This is the `ploc`-style primitive the lock-free structures are built
/// from: construct one per (object, field) you CAS, call
/// [`DetectableCas::cas`] with a fresh tag per logical operation, and
/// after a crash ask [`crate::PglPool::cas_recoveries`] what happened to
/// the tag that was in flight.
#[derive(Debug, Clone, Copy)]
pub struct DetectableCas {
    oid: PMEMoid,
    off: u64,
}

impl DetectableCas {
    /// A cell over the 8-byte word at `off` inside `oid`'s user data.
    pub fn new(oid: PMEMoid, off: u64) -> DetectableCas {
        DetectableCas { oid, off }
    }

    /// The object this cell lives in.
    pub fn oid(&self) -> PMEMoid {
        self.oid
    }

    /// Atomically reads the cell.
    pub fn load(&self, pool: &crate::PglPool) -> Result<u64> {
        pool.atomic_load(self.oid, self.off)
    }

    /// Detectable CAS on the cell; `tag` names the operation for recovery.
    pub fn cas(&self, pool: &crate::PglPool, expected: u64, new: u64, tag: u64) -> Result<WordCas> {
        pool.atomic_update(self.oid, self.off, expected, new, tag)
    }
}

/// Descriptor slot offsets (absolute) for lane `idx`: the primary lane
/// header plus the replica header in log-mirroring modes.
fn desc_offsets(layout: &Layout, idx: u32, mirror: LogMirror) -> (u64, Option<u64>) {
    let primary = layout.lane_off(idx as u64) + DESC_STATE;
    let replica =
        (mirror == LogMirror::SameDevice).then(|| layout.lane_replica_off(idx as u64) + DESC_STATE);
    (primary, replica)
}

fn encode_desc(state: u64, op: &CasOp) -> [u8; DESC_LEN] {
    let words = [state, op.tag, op.oid.off, op.oid.off + op.off, op.expected, op.new];
    let mut d = [0u8; DESC_LEN];
    for (i, w) in words.iter().enumerate() {
        d[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
    }
    d
}

fn word_at(d: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(d[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
}

/// The (zone-relative) parity cache line a data word's column patch lands
/// on, for the distinct-line accounting behind
/// [`pgl_nvm::StatsSnapshot::atomic_parity_patches`].
fn parity_line_of(layout: &Layout, off: u64) -> Result<u64> {
    let (zone, _row, col) = layout.row_col_of(off).map_err(PglError::from)?;
    Ok(layout.parity_off(zone, col) / 64)
}

/// The aligned 8-byte word holding the sum of the segment of the word at
/// user offset `off` inside the `size`-byte object at `obj_off`, and the
/// sum's bit shift inside it: the header's `(type_num, csum)` word for
/// segment 0, the word holding the segment's table entry otherwise (an
/// entry is 4-byte aligned, so it never straddles two words).
fn sum_word(obj_off: u64, size: u64, off: u64) -> (u64, u32) {
    match off / SEG {
        0 => (obj_off - OBJ_HEADER_SIZE + 8, 32),
        k => {
            let at = obj_off + segment::entry_off(size, k);
            (at & !7, 8 * (at & 7) as u32)
        }
    }
}

/// An error raised once a CAS has taken effect: the word is already
/// linked, so a caller that retried would apply the operation twice.
fn after_link(e: PglError) -> PglError {
    PglError::unrecoverable(format!("failure after link: {e}"))
}

impl Inner {
    /// [`sum_word`], in this pool's mode: without checksums there is no
    /// table and the header word stands in (it is locked, never changed).
    fn sum_word(&self, obj_off: u64, size: u64, off: u64) -> (u64, u32) {
        if self.mode.has_checksums() {
            sum_word(obj_off, size, off)
        } else {
            sum_word(obj_off, size, 0)
        }
    }

    /// Validates a CAS target word (a known object, an aligned word inside
    /// it) and returns the object's user size.
    fn cas_target(&self, oid: PMEMoid, off: u64) -> Result<u64> {
        self.check_oid(oid)?;
        if off % 8 != 0 {
            return Err(PglError::Config(format!("cas_word offset {off} is not 8-byte aligned")));
        }
        // Header read (with online recovery) before entering the commit
        // bracket: recovery freezes the pool and would deadlock against
        // our own begin_commit.
        let hdr = self.obj_header_checked(oid)?;
        if !Inner::range_fits(off, 8, hdr.size) {
            return Err(PglError::Config(format!(
                "cas_word range {off}+8 exceeds object size {}",
                hdr.size
            )));
        }
        Ok(hdr.size)
    }

    /// The detectable-CAS fast path (see the module docs for the protocol).
    ///
    /// `lane` supplies the descriptor slot: the pool-level entry point
    /// claims a lane for the call's duration, while [`crate::PglTx::cas_word`]
    /// passes the transaction's own lane (claiming a second one there
    /// could deadlock a pool whose lanes are all held by transactions).
    pub(crate) fn word_cas(
        &self,
        lane: &LaneHandle<'_>,
        oid: PMEMoid,
        off: u64,
        expected: u64,
        new: u64,
        tag: u64,
    ) -> Result<WordCas> {
        let size = self.cas_target(oid, off)?;
        if expected == new {
            // Degenerate CAS: success would change nothing, so nothing
            // needs to persist — report against the current word.
            let cur = self.io.dev().atomic_load_u64(oid.off + off).map_err(PglError::from)?;
            return Ok(if cur == expected { WordCas::Applied } else { WordCas::Mismatch(cur) });
        }
        let op = CasOp { oid, off, size, expected, new, tag };
        self.freeze.begin_commit();
        let res = self
            .persist_desc(lane.index(), STATE_PREPARED, &op)
            .and_then(|()| self.publish(lane.index(), &op));
        self.freeze.end_commit();
        res
    }

    /// Allocate-and-publish (see the module docs): constructs a node from
    /// `init` in a fresh run block and links it into the word at `off`
    /// inside `target` with one detectable CAS against `expected`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn publish_new(
        &self,
        lane: &mut LaneHandle<'_>,
        target: PMEMoid,
        off: u64,
        expected: u64,
        type_num: u32,
        init: &[u8],
        tag: u64,
    ) -> Result<NewCas> {
        let size = self.cas_target(target, off)?;
        let user = init.len() as u64;
        let footprint = self.footprint(user);
        if classes::class_for(footprint + OBJ_HEADER_SIZE, self.layout.cfg.chunk_size).is_none() {
            return Err(PglError::Config(format!(
                "a published node of {user} bytes does not fit a run block"
            )));
        }
        let mut r = self.heap.reserve_alloc_in(footprint, type_num, self.alloc_pref())?;
        r.user_size = user;
        if let Err(e) = self.reserve_rows(r.start_off, r.total_len) {
            self.heap.cancel_alloc(&r);
            return Err(e);
        }
        let op = CasOp { oid: target, off, size, expected, new: r.oid_off, tag };
        self.freeze.begin_commit();
        let res = self.publish_new_in(lane, &mut r, &op, type_num, init);
        self.freeze.end_commit();
        res
    }

    fn publish_new_in(
        &self,
        lane: &mut LaneHandle<'_>,
        r: &mut AllocReservation,
        op: &CasOp,
        type_num: u32,
        init: &[u8],
    ) -> Result<NewCas> {
        let built = self
            .format_run(lane, r)
            .and_then(|()| self.persist_desc(lane.index(), STATE_ALLOCATING, op))
            .and_then(|()| self.construct(r, type_num, init));
        if let Err(e) = built {
            self.heap.cancel_alloc(r);
            return Err(e);
        }
        let link = self.linking.claim(r.oid_off);
        match self.publish(lane.index(), op) {
            Ok(WordCas::Applied) => {}
            Ok(WordCas::Mismatch(cur)) => {
                // A settled block is allocated on media: it stays reserved.
                if !self.retire_link(link) {
                    self.heap.cancel_alloc(r);
                }
                return Ok(NewCas::Mismatch(cur));
            }
            Err(e) => {
                // The block stays reserved in DRAM: whether the node is
                // linked is the descriptor's to decide at the next open.
                self.retire_link(link);
                return Err(e);
            }
        }
        // ---- F4: the allocator bit, once the link is durable -----------
        let bit = self.apply_meta_ops(&r.ops);
        link.store(0, Ordering::Release);
        bit.map_err(after_link)?;
        self.heap.complete_alloc(r);
        Ok(NewCas::Applied(PMEMoid::new(self.uuid, r.oid_off)))
    }

    /// Makes the allocator bit of `node` durable if `node` is registered in
    /// [`Linking`] — linked, but perhaps not yet allocated. Every CAS
    /// settles its `expected` value before it can move a word past it.
    fn settle_link(&self, node: u64) -> Result<()> {
        let slot = self.linking.slot(node);
        if node == 0 || slot.load(Ordering::Acquire) & !SETTLED != node {
            return Ok(());
        }
        // Under the publish guard, which the owner's F4 and retirement
        // also take: an entry found unchanged here is still in flight, and
        // one marked settled has its bit durable.
        let _guard = self.heap.publish_guard();
        if slot.load(Ordering::Acquire) != node {
            return Ok(());
        }
        let s = run_slot(&self.io, &self.layout, node)
            .ok_or_else(|| self.unrecoverable_here(node, "a linked node is no run block"))?;
        self.publish_meta_ops(&[MetaOp::SetBits { off: s.bit_word, mask: s.mask }])?;
        let _ = slot.compare_exchange(node, node | SETTLED, Ordering::AcqRel, Ordering::Relaxed);
        Ok(())
    }

    /// Retires a [`Linking`] entry whose operation ends without its F4;
    /// `true` when a linker settled it first.
    fn retire_link(&self, slot: &AtomicU64) -> bool {
        let _guard = self.heap.publish_guard();
        slot.swap(0, Ordering::AcqRel) & SETTLED != 0
    }

    /// Publishes a fresh run's format (run header + chunk-metadata entry)
    /// ahead of its first block, as a redo commit of its own; the block
    /// then takes the log-free path like any other. Nothing to do for a
    /// block of an existing run.
    fn format_run(&self, lane: &mut LaneHandle<'_>, r: &mut AllocReservation) -> Result<()> {
        let ops = r.run_format_ops();
        if ops.is_empty() {
            return Ok(());
        }
        for op in ops {
            let (kind, off, payload) = op.encode();
            lane.append(kind, off, &payload)?;
        }
        lane.persist_commit()?; // commit point
        let fatal =
            |e: PglError| PglError::unrecoverable(format!("failure after commit point: {e}"));
        self.apply_meta_ops(ops).map_err(fatal)?;
        // Lazy invalidation: F1's fence settles it before any bit of the
        // run is set, so a replay of this log can never clear one.
        lane.bump_gen(false).map_err(|e| fatal(e.into()))?;
        self.heap.complete_run_format(r);
        Ok(())
    }

    /// Persists lane `lane`'s descriptor for `op` in `state` (one fence).
    fn persist_desc(&self, lane: u32, state: u64, op: &CasOp) -> Result<()> {
        let (primary, replica) = desc_offsets(&self.layout, lane, self.mirror());
        let desc = encode_desc(state, op);
        for base in std::iter::once(primary).chain(replica) {
            self.io.write(base, &desc).map_err(PglError::from)?;
            self.io.flush(base, DESC_LEN).map_err(PglError::from)?;
        }
        self.io.drain();
        Ok(())
    }

    /// F2 of an allocate-and-publish: the node's header and content,
    /// through the one protected write, like a transaction's construction.
    fn construct(&self, r: &AllocReservation, type_num: u32, init: &[u8]) -> Result<()> {
        // The slot may carry a verified-generation entry from an object
        // freed there before.
        self.vcache.bump(r.oid_off);
        let mut s = CommitScratch::take();
        s.tmp.extend_from_slice(bytes_of(&ObjectHeader { size: r.user_size, type_num, csum: 0 }));
        s.tmp.extend_from_slice(init);
        s.tmp.resize(OBJ_HEADER_SIZE as usize + self.footprint(r.user_size) as usize, 0);
        if self.mode.has_checksums() {
            let table = (OBJ_HEADER_SIZE + segment::table_off(r.user_size)) as usize;
            let table = table.min(s.tmp.len());
            let (head, table) = s.tmp.split_at_mut(table);
            let csum = segment::fill_table(&head[OBJ_HEADER_SIZE as usize..][..init.len()], table);
            s.tmp[12..16].copy_from_slice(&csum.to_le_bytes());
        }
        let res = self.protected_write(r.start_off, &s.tmp);
        s.recycle();
        res
    }

    /// Publish + patch (the word CAS's second fence; see the module docs).
    /// A mismatch retires lane `lane`'s descriptor with a fence of its own.
    fn publish(&self, lane: u32, op: &CasOp) -> Result<WordCas> {
        let CasOp { oid, off, size, expected, new, .. } = *op;
        let word_off = oid.off + off;
        let (sw_off, _) = self.sum_word(oid.off, size, off);

        self.settle_link(expected)?;
        // Stripe guard over exactly the two words' parity columns: the
        // scrubber, commit write-backs and other CASes whose columns share
        // a granule take turns with this one, so its parity patches are
        // plain stores.
        let guard = match &self.parity {
            Some(engine) => Some(engine.lock_words(&[word_off, sw_off])?),
            None => None,
        };

        // Invalidate the word's cached segment *before* the store can be
        // seen: the same write-back rule the span-guard path follows, so a
        // reader racing this CAS re-verifies instead of trusting a stale
        // cached generation.
        self.vcache.clear(oid.off, off / SEG, off / SEG);

        let prev = self.io.atomic_cas_u64(word_off, expected, new).map_err(PglError::from)?;
        if prev != expected {
            drop(guard);
            // Retire the descriptor *with* a fence: were it left PREPARED
            // and the word later matched `new` by other means, replay
            // would promote this failed operation to Completed.
            let (primary, replica) = desc_offsets(&self.layout, lane, self.mirror());
            for base in std::iter::once(primary).chain(replica) {
                self.io.atomic_store_u64(base, STATE_IDLE).map_err(PglError::from)?;
                self.io.flush(base, 8).map_err(PglError::from)?;
            }
            self.io.drain();
            return Ok(WordCas::Mismatch(prev));
        }
        self.seal(op, guard.as_ref()).map_err(after_link)?;
        drop(guard);
        // The descriptor stays PREPARED until this lane's next operation
        // overwrites it (see the module docs for why eager retirement is
        // not free and lazy retirement is wrong).
        Ok(WordCas::Applied)
    }

    /// The rest of the publish fence once the word holds `new`: its parity
    /// patch, the checksum fold, the flushes and the fence.
    fn seal(&self, op: &CasOp, guard: Option<&RangeGuard<'_>>) -> Result<()> {
        let CasOp { oid, off, size, expected, new, .. } = *op;
        let word_off = oid.off + off;
        let (hw_off, shift) = self.sum_word(oid.off, size, off);
        let oldb = expected.to_le_bytes();
        let newb = new.to_le_bytes();
        let mut patched_lines: [Option<u64>; 2] = [None, None];
        if let (Some(engine), Some(g)) = (&self.parity, guard) {
            if engine.patch(g, &self.io, word_off, &oldb, &newb)? {
                patched_lines[0] = Some(parity_line_of(&self.layout, word_off)?);
            }
        }

        // Fold the word delta into its segment's Adler32 with a CAS loop on
        // the sum word: the delta depends only on (offset, old, new,
        // segment length), not on the base checksum, so concurrent CASes
        // on the same segment serialize here linearizably no matter the
        // order their data words landed in.
        if self.mode.has_checksums() {
            let (s, e) = segment::bounds(size, off / SEG);
            loop {
                let cur = self.io.dev().atomic_load_u64(hw_off).map_err(PglError::from)?;
                let csum = (cur >> shift) as u32;
                let csum2 = adler32_update(csum, e - s, off - s, &oldb, &newb);
                let neww = (cur & !(0xFFFF_FFFF << shift)) | ((csum2 as u64) << shift);
                let prevh = self.io.atomic_cas_u64(hw_off, cur, neww).map_err(PglError::from)?;
                if prevh != cur {
                    continue;
                }
                if let (Some(engine), Some(g)) = (&self.parity, guard) {
                    if engine.patch(g, &self.io, hw_off, &cur.to_le_bytes(), &neww.to_le_bytes())? {
                        patched_lines[1] = Some(parity_line_of(&self.layout, hw_off)?);
                    }
                }
                self.io.flush(hw_off, 8).map_err(PglError::from)?;
                break;
            }
        }

        // ---- fence: data word + sum word + parity lines ----------------
        self.io.flush(word_off, 8).map_err(PglError::from)?;
        self.io.drain();

        let distinct = match patched_lines {
            [Some(a), Some(b)] if a == b => 1,
            [a, b] => a.is_some() as u64 + b.is_some() as u64,
        };
        if distinct > 0 {
            self.io.dev().note_atomic_parity_patch(distinct);
        }
        Ok(())
    }
}

/// Re-derives the sum of the segment holding `word_off` in the object at
/// `obj_off` from the bytes on media — a crash may have persisted a CAS's
/// data word without the delta-patched sum word, or the reverse. The
/// header's `size` is a media word: an object that cannot hold `word_off`,
/// or whose footprint is larger than any allocation or runs off the
/// device, is left alone. Returns the sum word, if any.
fn refresh_checksum(
    io: &PoolIo,
    layout: &Layout,
    obj_off: u64,
    word_off: u64,
) -> Result<Option<u64>> {
    let size = io.read_u64(obj_off - OBJ_HEADER_SIZE).map_err(PglError::from)?;
    let fits = size <= layout.max_alloc()
        && obj_off
            .checked_add(segment::footprint(size))
            .is_some_and(|end| word_off + 8 <= obj_off + size && end <= io.dev().len() as u64);
    if !fits {
        return Ok(None);
    }
    let off = word_off - obj_off;
    let (s, e) = segment::bounds(size, off / SEG);
    let mut data = [0u8; SEG as usize];
    let data = &mut data[..(e - s) as usize];
    io.read(obj_off + s, data).map_err(PglError::from)?;
    let csum = adler32(data);
    let (sw_off, shift) = sum_word(obj_off, size, off);
    let cur = io.read_u64(sw_off).map_err(PglError::from)?;
    let neww = (cur & !(0xFFFF_FFFF << shift)) | ((csum as u64) << shift);
    if neww != cur {
        io.write(sw_off, &neww.to_le_bytes()).map_err(PglError::from)?;
        io.persist(sw_off, 8).map_err(PglError::from)?;
    }
    Ok(Some(sw_off))
}

/// Replays every lane's CAS descriptor after a crash (pool open path,
/// *after* redo-log replay — transactions win the recovery order, the
/// word-granular recompute below is idempotent either way — and *before*
/// the heap rebuild, which then sees any allocator bit replay set).
pub(crate) fn replay_descriptors(
    io: &PoolIo,
    layout: &Layout,
    mirror: LogMirror,
    parity: Option<&ParityDomains>,
    has_csums: bool,
) -> Result<Vec<CasRecovery>> {
    let mut reports = Vec::new();
    for l in 0..layout.cfg.n_lanes as u32 {
        let (primary, replica) = desc_offsets(layout, l, mirror);
        let mut desc = [0u8; DESC_LEN];
        match io.read_with_replica_fallback(primary, &mut desc) {
            Ok(()) => {}
            Err(_) if replica.is_some() => {
                io.read(replica.expect("mirrored"), &mut desc).map_err(PglError::from)?;
            }
            Err(e) => return Err(e.into()),
        }
        let state = word_at(&desc, 0);
        if state != STATE_PREPARED && state != STATE_ALLOCATING {
            continue;
        }
        let (tag, obj_off, word_off, expected, new) = (
            word_at(&desc, 1),
            word_at(&desc, 2),
            word_at(&desc, 3),
            word_at(&desc, 4),
            word_at(&desc, 5),
        );
        // Defensive bounds check — a descriptor normally only ever holds
        // addresses word_cas validated, but recovery trusts nothing.
        let dev_len = io.dev().len() as u64;
        if obj_off < OBJ_HEADER_SIZE
            || word_off < obj_off
            || word_off % 8 != 0
            || word_off > dev_len - 8
        {
            continue;
        }
        // An allocating operation's node, if `new` names one; otherwise
        // the descriptor replays as a plain CAS.
        let node = if state == STATE_ALLOCATING { run_slot(io, layout, new) } else { None };
        let outcome = if io.read_u64(word_off).map_err(PglError::from)? == new {
            CasOutcome::Completed
        } else {
            CasOutcome::RolledBack
        };
        let sw_off =
            if has_csums { refresh_checksum(io, layout, obj_off, word_off)? } else { None };
        if let Some(slot) = node.filter(|_| outcome == CasOutcome::Completed) {
            // Linked but possibly not yet allocated: the crash fell
            // between F3 and F4.
            let w = io.read_u64(slot.bit_word).map_err(PglError::from)?;
            if w & slot.mask == 0 {
                io.write(slot.bit_word, &(w | slot.mask).to_le_bytes()).map_err(PglError::from)?;
                io.persist(slot.bit_word, 8).map_err(PglError::from)?;
            }
        }
        if let Some(engine) = parity {
            // Recompute (not re-patch) every column the operation touches
            // — idempotent, so replaying an already-complete operation is
            // harmless.
            let hw_off = obj_off - OBJ_HEADER_SIZE + 8;
            let mut ranges = vec![(word_off, 8), (sw_off.unwrap_or(hw_off), 8)];
            if let Some(slot) = node {
                ranges.extend([(slot.start, slot.len), (slot.bit_word, 8)]);
            }
            for (off, len) in ranges {
                for seg in segments(layout, off, len)? {
                    engine.recompute_columns(io, seg.zone, seg.col, seg.len)?;
                }
            }
        }
        for base in std::iter::once(primary).chain(replica) {
            io.atomic_store_u64(base, STATE_IDLE).map_err(PglError::from)?;
            io.persist(base, 8).map_err(PglError::from)?;
        }
        reports.push(CasRecovery { lane: l, tag, obj_off, word_off, expected, new, outcome });
    }
    Ok(reports)
}
