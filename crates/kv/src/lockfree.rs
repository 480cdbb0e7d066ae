//! Lock-free persistent data structures over the detectable-CAS subsystem.
//!
//! The six Table 3 structures are transactional: every mutation runs under
//! a lane + redo log + parity span guard, so two writers to the same hot
//! node serialize. The structures here take the other route the paper's
//! design space allows: **persistent lock-free algorithms** whose
//! linearization points are single 8-byte CASes issued through
//! [`PglPool::atomic_update`] or, when the CAS links a new node,
//! [`PglPool::atomic_publish_new`] — Pangolin's detectable CAS (`ploc`),
//! which patches the object checksum and parity column at word
//! granularity and persists a per-lane operation descriptor so a crashed
//! operation is decidable after recovery.
//!
//! Three structures:
//!
//! * [`LfStack`] — a Treiber stack.
//! * [`LfQueue`] — a Michael–Scott queue with a *volatile* tail hint.
//! * [`LfHash`] — an open-addressing hash table with Clevel-style
//!   incremental resize driven by single-CAS steps.
//!
//! # Detectable recovery contract
//!
//! Every mutating operation takes a caller-chosen `tag` that names its
//! linearizing CAS. After a crash, [`PglPool::cas_recoveries`] reports the
//! fate of the operation that was in flight: the crashed op either never
//! happened ([`CasOutcome::RolledBack`] or no report) or completed exactly
//! once ([`CasOutcome::Completed`]) — see [`op_outcome`]. Only the tag the
//! caller knows was in flight is meaningful; reports for operations that
//! completed long before the crash may linger (their descriptors retire
//! lazily) and must be ignored. Tag `0` is reserved for internal helper
//! CASes (resize migration) and never decides an application operation.
//!
//! # Crash-step granularity
//!
//! Every operation has **one commit point**: its linearizing CAS. An
//! operation that links a new node (push, enqueue, insert) allocates,
//! constructs and links it in one [`PglPool::atomic_publish_new`] — no
//! transaction, no redo log — whose protocol makes the node's allocator
//! bit durable only after the CAS (see `pangolin::ploc`). A crash
//! therefore leaves either the whole operation or none of it, with no
//! allocated-but-unlinked node, and the crash-oracle sweeps place one
//! commit point after each operation. Only [`LfQueue::create`],
//! [`LfStack::create`], [`LfHash::create`] and the resize's table
//! allocation run transactions.
//!
//! # Memory reclamation
//!
//! Unlinked nodes (popped stack nodes, dequeued sentinels, replaced hash
//! entries) are still **leaked**, the standard first cut for persistent
//! lock-free structures: safe reclamation needs an epoch/hazard scheme
//! (Memento's §D), and a leaked node is merely dead space with a valid
//! checksum. The leak is also what makes tags safe: a node offset is never
//! reused while any operation that read it can still be replayed.

use std::sync::atomic::{AtomicU64, Ordering};

use pangolin::{CasOutcome, NewCas, PglPool};
use pgl_pmemobj::PMEMoid;

use crate::store::{KvError, KvResult};

/// Tag for internal helper CASes (resize migration); never reported
/// as an application operation's outcome.
pub const INTERNAL_TAG: u64 = 0;

const TYPE_LFS_ANCHOR: u32 = 160;
const TYPE_LFS_NODE: u32 = 161;
const TYPE_LFQ_ANCHOR: u32 = 162;
const TYPE_LFQ_NODE: u32 = 163;
const TYPE_LFH_ANCHOR: u32 = 164;
const TYPE_LFH_TABLE: u32 = 165;
const TYPE_LFH_NODE: u32 = 166;

/// Brands a raw user-data offset as an oid in `pool`.
fn oid_at(pool: &PglPool, off: u64) -> PMEMoid {
    PMEMoid::new(pool.uuid(), off)
}

/// The bytes of a `[a: u64, b: u64]` node.
fn node_bytes(a: u64, b: u64) -> [u8; 16] {
    let mut n = [0u8; 16];
    n[..8].copy_from_slice(&a.to_le_bytes());
    n[8..].copy_from_slice(&b.to_le_bytes());
    n
}

/// What recovery decided about the operation tagged `tag`, if it was in
/// flight when the pool crashed. `None` means the operation never reached
/// its linearizing CAS (its descriptor was never persisted), which for a
/// crashed operation means it did not happen.
pub fn op_outcome(pool: &PglPool, tag: u64) -> Option<CasOutcome> {
    if tag == INTERNAL_TAG {
        return None;
    }
    pool.cas_recoveries().iter().find(|r| r.tag == tag).map(|r| r.outcome)
}

/// `true` when recovery proved the operation tagged `tag` completed.
pub fn op_completed(pool: &PglPool, tag: u64) -> bool {
    op_outcome(pool, tag) == Some(CasOutcome::Completed)
}

// ---------------------------------------------------------------------
// Treiber stack
// ---------------------------------------------------------------------

/// A lock-free persistent Treiber stack of `u64` values.
///
/// Layout: anchor `[head: u64, pad]`; node `[next: u64, value: u64]`.
/// `push` builds the node with `next` pointed at the observed head and
/// links it with one allocate-and-publish CAS on the anchor's head word
/// (a moved head costs a retry with a fresh node); `pop` swings the head
/// past the top node with one CAS. Popped nodes are leaked (see the
/// module docs).
#[derive(Debug, Clone, Copy)]
pub struct LfStack {
    anchor: PMEMoid,
}

impl LfStack {
    /// Allocates a new empty stack (one 16-byte anchor object).
    pub fn create(pool: &PglPool) -> KvResult<LfStack> {
        let anchor = pool.tx(|tx| tx.alloc(16, TYPE_LFS_ANCHOR))?;
        Ok(LfStack { anchor })
    }

    /// Re-attaches to an existing stack by its anchor (e.g. after reopen).
    pub fn attach(anchor: PMEMoid) -> LfStack {
        LfStack { anchor }
    }

    /// The anchor object (store it in the pool root to find the stack
    /// again after reopen).
    pub fn anchor(&self) -> PMEMoid {
        self.anchor
    }

    /// Pushes `value`; `tag` names the operation for crash recovery.
    pub fn push(&self, pool: &PglPool, value: u64, tag: u64) -> KvResult<()> {
        let mut head = pool.atomic_load(self.anchor, 0)?;
        loop {
            let node = node_bytes(head, value);
            match pool.atomic_publish_new(self.anchor, 0, head, TYPE_LFS_NODE, &node, tag)? {
                NewCas::Applied(_) => return Ok(()),
                NewCas::Mismatch(cur) => head = cur,
            }
        }
    }

    /// Pops the top value, or `None` when empty; `tag` names the
    /// operation for crash recovery.
    pub fn try_pop(&self, pool: &PglPool, tag: u64) -> KvResult<Option<u64>> {
        loop {
            let head = pool.atomic_load(self.anchor, 0)?;
            if head == 0 {
                return Ok(None);
            }
            let node = oid_at(pool, head);
            let next = pool.atomic_load(node, 0)?;
            let value = pool.atomic_load(node, 8)?;
            if pool.atomic_update(self.anchor, 0, head, next, tag)?.is_applied() {
                return Ok(Some(value));
            }
        }
    }

    /// The stack's values, top first (walks the chain; test/debug aid).
    pub fn items(&self, pool: &PglPool) -> KvResult<Vec<u64>> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut cur = pool.atomic_load(self.anchor, 0)?;
        while cur != 0 {
            if !seen.insert(cur) {
                return Err(KvError::Corrupt("lf-stack chain cycle"));
            }
            let node = oid_at(pool, cur);
            out.push(pool.atomic_load(node, 8)?);
            cur = pool.atomic_load(node, 0)?;
        }
        Ok(out)
    }

    /// Number of values on the stack (walks the chain).
    pub fn len(&self, pool: &PglPool) -> KvResult<usize> {
        Ok(self.items(pool)?.len())
    }

    /// `true` when the stack holds no values.
    pub fn is_empty(&self, pool: &PglPool) -> KvResult<bool> {
        Ok(pool.atomic_load(self.anchor, 0)? == 0)
    }
}

// ---------------------------------------------------------------------
// Michael–Scott queue
// ---------------------------------------------------------------------

/// A lock-free persistent Michael–Scott FIFO queue of `u64` values.
///
/// Layout: anchor `[head: u64, pad]` pointing at a sentinel node; node
/// `[next: u64, value: u64]`. The tail pointer is a **volatile DRAM
/// hint** (rebuilt by walking from any reachable node — dequeued nodes
/// keep their forward links, so even a stale hint converges): enqueue is
/// then a *single* detectable CAS on the last node's `next` word, and
/// dequeue a single CAS swinging the head to the next node, which becomes
/// the new sentinel. No operation needs two persistent stores, so each is
/// atomic under the crash oracle.
#[derive(Debug)]
pub struct LfQueue {
    anchor: PMEMoid,
    /// Volatile tail hint (0 = resolve from head); never trusted blindly.
    tail: AtomicU64,
}

impl LfQueue {
    /// Allocates a new empty queue (anchor + sentinel node, one
    /// transaction).
    pub fn create(pool: &PglPool) -> KvResult<LfQueue> {
        let (anchor, sent) = pool.tx(|tx| {
            let anchor = tx.alloc(16, TYPE_LFQ_ANCHOR)?;
            let sent = tx.alloc(16, TYPE_LFQ_NODE)?;
            tx.write(anchor, 0, &sent.off.to_le_bytes())?;
            Ok((anchor, sent))
        })?;
        Ok(LfQueue { anchor, tail: AtomicU64::new(sent.off) })
    }

    /// Re-attaches to an existing queue by its anchor; the tail hint is
    /// rebuilt lazily from the head chain.
    pub fn attach(anchor: PMEMoid) -> LfQueue {
        LfQueue { anchor, tail: AtomicU64::new(0) }
    }

    /// The anchor object.
    pub fn anchor(&self) -> PMEMoid {
        self.anchor
    }

    /// Enqueues `value` with one allocate-and-publish CAS on the last
    /// node's `next` word; `tag` names the operation for crash recovery.
    pub fn enqueue(&self, pool: &PglPool, value: u64, tag: u64) -> KvResult<()> {
        let node = node_bytes(0, value);
        let mut t = self.find_tail(pool)?;
        loop {
            match pool.atomic_publish_new(oid_at(pool, t), 0, 0, TYPE_LFQ_NODE, &node, tag)? {
                NewCas::Applied(n) => {
                    self.tail.store(n.off, Ordering::Relaxed);
                    return Ok(());
                }
                // Someone appended behind our back; chase the new link.
                NewCas::Mismatch(next) => t = self.walk_to_tail(pool, next)?,
            }
        }
    }

    /// Dequeues the oldest value, or `None` when empty; `tag` names the
    /// operation for crash recovery.
    pub fn try_dequeue(&self, pool: &PglPool, tag: u64) -> KvResult<Option<u64>> {
        loop {
            let sent = pool.atomic_load(self.anchor, 0)?;
            let first = pool.atomic_load(oid_at(pool, sent), 0)?;
            if first == 0 {
                return Ok(None);
            }
            let value = pool.atomic_load(oid_at(pool, first), 8)?;
            if pool.atomic_update(self.anchor, 0, sent, first, tag)?.is_applied() {
                // `first` is the new sentinel; the old one is leaked but
                // keeps its forward link, so stale tail hints stay valid.
                return Ok(Some(value));
            }
        }
    }

    fn find_tail(&self, pool: &PglPool) -> KvResult<u64> {
        let mut cur = self.tail.load(Ordering::Relaxed);
        if cur == 0 {
            cur = pool.atomic_load(self.anchor, 0)?;
        }
        self.walk_to_tail(pool, cur)
    }

    fn walk_to_tail(&self, pool: &PglPool, mut cur: u64) -> KvResult<u64> {
        loop {
            let next = pool.atomic_load(oid_at(pool, cur), 0)?;
            if next == 0 {
                self.tail.store(cur, Ordering::Relaxed);
                return Ok(cur);
            }
            cur = next;
        }
    }

    /// The queue's values, oldest first (walks the chain; test/debug aid).
    pub fn items(&self, pool: &PglPool) -> KvResult<Vec<u64>> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let sent = pool.atomic_load(self.anchor, 0)?;
        let mut cur = pool.atomic_load(oid_at(pool, sent), 0)?;
        while cur != 0 {
            if !seen.insert(cur) {
                return Err(KvError::Corrupt("lf-queue chain cycle"));
            }
            let node = oid_at(pool, cur);
            out.push(pool.atomic_load(node, 8)?);
            cur = pool.atomic_load(node, 0)?;
        }
        Ok(out)
    }

    /// Number of queued values (walks the chain).
    pub fn len(&self, pool: &PglPool) -> KvResult<usize> {
        Ok(self.items(pool)?.len())
    }

    /// `true` when the queue holds no values.
    pub fn is_empty(&self, pool: &PglPool) -> KvResult<bool> {
        let sent = pool.atomic_load(self.anchor, 0)?;
        Ok(pool.atomic_load(oid_at(pool, sent), 0)? == 0)
    }
}

// ---------------------------------------------------------------------
// Clevel-style resizable open-addressing hash table
// ---------------------------------------------------------------------

/// Empty slot sentinel.
const EMPTY: u64 = 0;
/// Deleted-entry sentinel (skipped by probes, reusable by inserts).
const TOMB: u64 = 1;
/// Migrated-slot sentinel (only in a table being drained by a resize).
const MOVED: u64 = 2;
/// Smallest slot value that is a real entry offset (object user data
/// always sits well past the pool metadata, so 0/1/2 are never offsets).
const MIN_ENTRY: u64 = 3;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A lock-free persistent open-addressing hash table (`u64 → u64`) with
/// Clevel-style incremental resize.
///
/// Layout: anchor `[table: u64, next_table: u64]`; table object
/// `[cap: u64, slots: cap × u64]`; entry node `[key: u64, value: u64]`.
/// A slot holds an entry-node offset or one of the sentinels
/// (empty / tombstone / moved). Insert, update and remove each linearize
/// at a single detectable CAS on a slot word.
///
/// **Resize** is a persistent state machine driven by [`LfHash::resize_step`]
/// calls, each of which performs exactly one atomic transition (allocate
/// the new table, publish it in `next_table`, copy-or-seal one slot,
/// swing `table`, retire `next_table`) — so the crash sweeps can crash
/// between any two steps, and any thread can help. Entries are copied to
/// the new table *before* their old slot is sealed `MOVED`, so a reader
/// probing old-then-new always finds them. Mutating operations first help
/// any in-flight resize to completion ([`LfHash::help_resize`]), which
/// keeps the mutation a single CAS on the one live table.
///
/// Limitation (documented, enforced by the help-first discipline): a
/// remove concurrent with an *unhelped* migration could resurrect via the
/// stale copy; since every mutator helps the resize drain before
/// mutating, the window does not arise in this implementation.
#[derive(Debug)]
pub struct LfHash {
    anchor: PMEMoid,
    /// Requested capacity for a resize not yet begun (volatile).
    pending_cap: AtomicU64,
    /// New table allocated but not yet published (volatile; leaks on
    /// crash, which is safe — an unpublished table is just dead space).
    pending_table: AtomicU64,
    /// Approximate live-entry count (volatile; drives auto-growth).
    count: AtomicU64,
}

impl LfHash {
    /// Allocates a new table with capacity `cap` (≥ 4) slots.
    pub fn create(pool: &PglPool, cap: u64) -> KvResult<LfHash> {
        let cap = cap.max(4);
        let anchor = pool.tx(|tx| {
            let anchor = tx.alloc(16, TYPE_LFH_ANCHOR)?;
            let t = tx.alloc(8 + cap * 8, TYPE_LFH_TABLE)?;
            tx.write(t, 0, &cap.to_le_bytes())?;
            tx.write(anchor, 0, &t.off.to_le_bytes())?;
            Ok(anchor)
        })?;
        Ok(LfHash {
            anchor,
            pending_cap: AtomicU64::new(0),
            pending_table: AtomicU64::new(0),
            count: AtomicU64::new(0),
        })
    }

    /// Re-attaches to an existing table by its anchor, rebuilding the
    /// volatile entry count. A resize left in flight by a crash resumes
    /// the next time a mutating operation helps (or call
    /// [`LfHash::help_resize`] explicitly).
    pub fn attach(pool: &PglPool, anchor: PMEMoid) -> KvResult<LfHash> {
        let h = LfHash {
            anchor,
            pending_cap: AtomicU64::new(0),
            pending_table: AtomicU64::new(0),
            count: AtomicU64::new(0),
        };
        let n = h.items(pool)?.len() as u64;
        h.count.store(n, Ordering::Relaxed);
        Ok(h)
    }

    /// The anchor object.
    pub fn anchor(&self) -> PMEMoid {
        self.anchor
    }

    /// Looks up `key`.
    pub fn get(&self, pool: &PglPool, key: u64) -> KvResult<Option<u64>> {
        let t = pool.atomic_load(self.anchor, 0)?;
        if let Some((_, node)) = self.probe_find(pool, t, key)? {
            return Ok(Some(pool.atomic_load(oid_at(pool, node), 8)?));
        }
        let nt = pool.atomic_load(self.anchor, 8)?;
        if nt != 0 && nt != t {
            if let Some((_, node)) = self.probe_find(pool, nt, key)? {
                return Ok(Some(pool.atomic_load(oid_at(pool, node), 8)?));
            }
        }
        Ok(None)
    }

    /// Inserts or updates `key → value` with one allocate-and-publish CAS
    /// of a new entry node into its slot; `tag` names the operation for
    /// crash recovery. Returns the replaced value for an update, `None`
    /// for a fresh insert.
    ///
    /// Helps any in-flight resize to completion first, so the linearizing
    /// CAS targets the single live table.
    pub fn insert(&self, pool: &PglPool, key: u64, value: u64, tag: u64) -> KvResult<Option<u64>> {
        self.help_resize(pool)?;
        let node = node_bytes(key, value);
        let publish = |table, so, expected| {
            pool.atomic_publish_new(table, so, expected, TYPE_LFH_NODE, &node, tag)
        };
        loop {
            let t = pool.atomic_load(self.anchor, 0)?;
            let table = oid_at(pool, t);
            let cap = pool.atomic_load(table, 0)?;
            let start = splitmix64(key) % cap;
            let mut free: Option<(u64, u64)> = None;
            let mut found: Option<(u64, u64)> = None;
            for k in 0..cap {
                let so = 8 + ((start + k) % cap) * 8;
                let s = pool.atomic_load(table, so)?;
                if s == EMPTY {
                    if free.is_none() {
                        free = Some((so, EMPTY));
                    }
                    break;
                }
                if s == TOMB {
                    if free.is_none() {
                        free = Some((so, TOMB));
                    }
                    continue;
                }
                if s == MOVED {
                    continue;
                }
                if pool.atomic_load(oid_at(pool, s), 0)? == key {
                    found = Some((so, s));
                    break;
                }
            }
            if let Some((so, old_node)) = found {
                let old = pool.atomic_load(oid_at(pool, old_node), 8)?;
                if let NewCas::Applied(_) = publish(table, so, old_node)? {
                    return Ok(Some(old));
                }
                continue;
            }
            let Some((so, exp)) = free else {
                self.grow(pool, cap * 2)?;
                continue;
            };
            if let NewCas::Applied(_) = publish(table, so, exp)? {
                let n = self.count.fetch_add(1, Ordering::Relaxed) + 1;
                if n * 4 >= cap * 3 {
                    self.grow(pool, cap * 2)?;
                }
                return Ok(None);
            }
        }
    }

    /// Removes `key`, returning its value, with one detectable CAS
    /// (slot → tombstone) tagged `tag`. Helps any in-flight resize first.
    pub fn remove(&self, pool: &PglPool, key: u64, tag: u64) -> KvResult<Option<u64>> {
        self.help_resize(pool)?;
        loop {
            let t = pool.atomic_load(self.anchor, 0)?;
            match self.probe_find(pool, t, key)? {
                None => return Ok(None),
                Some((so, node)) => {
                    let old = pool.atomic_load(oid_at(pool, node), 8)?;
                    if pool.atomic_update(oid_at(pool, t), so, node, TOMB, tag)?.is_applied() {
                        // One read-modify-write, like insert's increment: a
                        // separate load and store would lose a concurrent
                        // update, and a count drifting up grows the table.
                        // (At 0 the count stays 0.)
                        let dec = |c: u64| c.checked_sub(1);
                        let _ = self.count.fetch_update(Ordering::Relaxed, Ordering::Relaxed, dec);
                        return Ok(Some(old));
                    }
                }
            }
        }
    }

    /// Requests a resize to `new_cap` slots; the actual work happens in
    /// subsequent [`LfHash::resize_step`] calls (volatile bookkeeping
    /// only — crashing between begin and the first step loses nothing).
    pub fn resize_begin(&self, new_cap: u64) {
        let _ = self.pending_cap.compare_exchange(
            0,
            new_cap.max(4),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Performs **one** atomic transition of the resize state machine
    /// (allocate / publish / copy-or-seal one slot / swing / retire) and
    /// returns `true`, or returns `false` when no resize work remains.
    /// `tag` names the transition's CAS for the crash sweeps; pass
    /// [`INTERNAL_TAG`] outside tests.
    pub fn resize_step(&self, pool: &PglPool, tag: u64) -> KvResult<bool> {
        let t = pool.atomic_load(self.anchor, 0)?;
        let nt = pool.atomic_load(self.anchor, 8)?;
        if nt == 0 {
            let pt = self.pending_table.load(Ordering::Relaxed);
            if pt != 0 {
                // Publish; on mismatch someone else's table won and ours
                // leaks (dead space with a valid checksum).
                pool.atomic_update(self.anchor, 8, 0, pt, tag)?;
                self.pending_table.store(0, Ordering::Relaxed);
                return Ok(true);
            }
            let cap = self.pending_cap.swap(0, Ordering::Relaxed);
            if cap != 0 {
                let toff = pool.tx(|tx| {
                    let t = tx.alloc(8 + cap * 8, TYPE_LFH_TABLE)?;
                    tx.write(t, 0, &cap.to_le_bytes())?;
                    Ok(t.off)
                })?;
                self.pending_table.store(toff, Ordering::Relaxed);
                return Ok(true);
            }
            return Ok(false);
        }
        if nt == t {
            // Migration drained and the table swung; retire next_table.
            pool.atomic_update(self.anchor, 8, nt, 0, tag)?;
            return Ok(true);
        }
        let table = oid_at(pool, t);
        let cap = pool.atomic_load(table, 0)?;
        for i in 0..cap {
            let so = 8 + i * 8;
            let s = pool.atomic_load(table, so)?;
            if s == MOVED {
                continue;
            }
            if s == EMPTY || s == TOMB {
                pool.atomic_update(table, so, s, MOVED, tag)?;
                return Ok(true);
            }
            let key = pool.atomic_load(oid_at(pool, s), 0)?;
            if self.probe_find(pool, nt, key)?.is_some() {
                // Copied already (by us or a helper): seal the old slot.
                pool.atomic_update(table, so, s, MOVED, tag)?;
            } else {
                // Copy first, seal on a later step: a probe of old-then-new
                // can never miss the entry.
                let (so2, exp) = self
                    .probe_free(pool, nt, key)?
                    .ok_or(KvError::Corrupt("lf-hash resize target table full"))?;
                pool.atomic_update(oid_at(pool, nt), so2, exp, s, tag)?;
            }
            return Ok(true);
        }
        // Every slot sealed: swing the live table pointer.
        pool.atomic_update(self.anchor, 0, t, nt, tag)?;
        Ok(true)
    }

    /// Drives any in-flight (or pending) resize to completion.
    pub fn help_resize(&self, pool: &PglPool) -> KvResult<()> {
        while self.resize_step(pool, INTERNAL_TAG)? {}
        Ok(())
    }

    /// `true` while a resize is published and not yet retired.
    pub fn resize_active(&self, pool: &PglPool) -> KvResult<bool> {
        Ok(pool.atomic_load(self.anchor, 8)? != 0)
    }

    fn grow(&self, pool: &PglPool, new_cap: u64) -> KvResult<()> {
        self.resize_begin(new_cap);
        self.help_resize(pool)
    }

    /// Probes `table_off` for `key`: `Some((slot_off, node_off))`.
    fn probe_find(&self, pool: &PglPool, table_off: u64, key: u64) -> KvResult<Option<(u64, u64)>> {
        let table = oid_at(pool, table_off);
        let cap = pool.atomic_load(table, 0)?;
        let start = splitmix64(key) % cap;
        for k in 0..cap {
            let so = 8 + ((start + k) % cap) * 8;
            let s = pool.atomic_load(table, so)?;
            if s == EMPTY {
                return Ok(None);
            }
            if s < MIN_ENTRY {
                continue;
            }
            if pool.atomic_load(oid_at(pool, s), 0)? == key {
                return Ok(Some((so, s)));
            }
        }
        Ok(None)
    }

    /// First reusable slot (tombstone preferred, else first empty) along
    /// `key`'s probe sequence: `Some((slot_off, expected_sentinel))`.
    fn probe_free(&self, pool: &PglPool, table_off: u64, key: u64) -> KvResult<Option<(u64, u64)>> {
        let table = oid_at(pool, table_off);
        let cap = pool.atomic_load(table, 0)?;
        let start = splitmix64(key) % cap;
        let mut tomb = None;
        for k in 0..cap {
            let so = 8 + ((start + k) % cap) * 8;
            let s = pool.atomic_load(table, so)?;
            if s == EMPTY {
                return Ok(Some(tomb.unwrap_or((so, EMPTY))));
            }
            if s == TOMB && tomb.is_none() {
                tomb = Some((so, TOMB));
            }
        }
        Ok(tomb)
    }

    /// Every `(key, value)` pair, sorted by key (walks both tables during
    /// a migration; duplicates collapse to the single shared entry node).
    pub fn items(&self, pool: &PglPool) -> KvResult<Vec<(u64, u64)>> {
        let mut map = std::collections::BTreeMap::new();
        let t = pool.atomic_load(self.anchor, 0)?;
        let nt = pool.atomic_load(self.anchor, 8)?;
        for toff in std::iter::once(t).chain((nt != 0 && nt != t).then_some(nt)) {
            let table = oid_at(pool, toff);
            let cap = pool.atomic_load(table, 0)?;
            for i in 0..cap {
                let s = pool.atomic_load(table, 8 + i * 8)?;
                if s >= MIN_ENTRY {
                    let node = oid_at(pool, s);
                    map.insert(pool.atomic_load(node, 0)?, pool.atomic_load(node, 8)?);
                }
            }
        }
        Ok(map.into_iter().collect())
    }

    /// Number of live entries (walks the tables).
    pub fn len(&self, pool: &PglPool) -> KvResult<usize> {
        Ok(self.items(pool)?.len())
    }

    /// `true` when the table holds no entries.
    pub fn is_empty(&self, pool: &PglPool) -> KvResult<bool> {
        Ok(self.len(pool)? == 0)
    }

    /// Capacity of the live table.
    pub fn capacity(&self, pool: &PglPool) -> KvResult<u64> {
        let t = pool.atomic_load(self.anchor, 0)?;
        Ok(pool.atomic_load(oid_at(pool, t), 0)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangolin::PglConfig;
    use pgl_nvm::{DeviceConfig, NvmDevice};
    use std::sync::Arc;

    fn pool() -> PglPool {
        let cfg = PglConfig::small();
        let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
        PglPool::create(dev, cfg).unwrap()
    }

    #[test]
    fn stack_pushes_and_pops_lifo() {
        let p = pool();
        let s = LfStack::create(&p).unwrap();
        assert!(s.is_empty(&p).unwrap());
        for (i, v) in [10, 20, 30].iter().enumerate() {
            s.push(&p, *v, (i + 1) as u64).unwrap();
        }
        assert_eq!(s.items(&p).unwrap(), vec![30, 20, 10]);
        assert_eq!(s.try_pop(&p, 4).unwrap(), Some(30));
        assert_eq!(s.try_pop(&p, 5).unwrap(), Some(20));
        assert_eq!(s.try_pop(&p, 6).unwrap(), Some(10));
        assert_eq!(s.try_pop(&p, 7).unwrap(), None);
        assert!(p.verify_parity().unwrap());
        assert!(p.find_corrupt_objects().unwrap().is_empty());
    }

    #[test]
    fn queue_is_fifo_and_tail_hint_recovers() {
        let p = pool();
        let q = LfQueue::create(&p).unwrap();
        for (i, v) in [1u64, 2, 3].iter().enumerate() {
            q.enqueue(&p, *v, (i + 1) as u64).unwrap();
        }
        assert_eq!(q.items(&p).unwrap(), vec![1, 2, 3]);
        // A re-attached handle has no tail hint; it must rebuild it.
        let q2 = LfQueue::attach(q.anchor());
        q2.enqueue(&p, 4, 10).unwrap();
        assert_eq!(q2.try_dequeue(&p, 11).unwrap(), Some(1));
        assert_eq!(q2.try_dequeue(&p, 12).unwrap(), Some(2));
        assert_eq!(q2.items(&p).unwrap(), vec![3, 4]);
        assert!(p.verify_parity().unwrap());
    }

    #[test]
    fn hash_inserts_updates_removes() {
        let p = pool();
        let h = LfHash::create(&p, 8).unwrap();
        let mut tag = 0u64;
        let mut next_tag = || {
            tag += 1;
            tag
        };
        assert_eq!(h.insert(&p, 7, 700, next_tag()).unwrap(), None);
        assert_eq!(h.insert(&p, 8, 800, next_tag()).unwrap(), None);
        assert_eq!(h.get(&p, 7).unwrap(), Some(700));
        assert_eq!(h.insert(&p, 7, 701, next_tag()).unwrap(), Some(700));
        assert_eq!(h.get(&p, 7).unwrap(), Some(701));
        assert_eq!(h.remove(&p, 8, next_tag()).unwrap(), Some(800));
        assert_eq!(h.get(&p, 8).unwrap(), None);
        assert_eq!(h.remove(&p, 8, next_tag()).unwrap(), None);
        assert_eq!(h.items(&p).unwrap(), vec![(7, 701)]);
        assert!(p.verify_parity().unwrap());
    }

    #[test]
    fn hash_grows_through_stepped_resize() {
        let p = pool();
        let h = LfHash::create(&p, 4).unwrap();
        for k in 0..24u64 {
            h.insert(&p, k, k * 10, k + 1).unwrap();
        }
        assert!(h.capacity(&p).unwrap() >= 24);
        for k in 0..24u64 {
            assert_eq!(h.get(&p, k).unwrap(), Some(k * 10), "key {k}");
        }
        assert_eq!(h.len(&p).unwrap(), 24);
        // An explicit stepped resize with lookups mid-migration.
        let cap = h.capacity(&p).unwrap();
        h.resize_begin(cap * 2);
        let mut steps = 0;
        while h.resize_step(&p, 1000 + steps).unwrap() {
            steps += 1;
            assert_eq!(h.get(&p, 5).unwrap(), Some(50));
        }
        assert_eq!(h.capacity(&p).unwrap(), cap * 2);
        assert_eq!(h.len(&p).unwrap(), 24);
        assert!(!h.resize_active(&p).unwrap());
        assert!(p.verify_parity().unwrap());
        assert!(p.find_corrupt_objects().unwrap().is_empty());
    }

    #[test]
    fn hash_tombstones_are_reused() {
        let p = pool();
        let h = LfHash::create(&p, 8).unwrap();
        h.insert(&p, 1, 100, 1).unwrap();
        h.remove(&p, 1, 2).unwrap();
        h.insert(&p, 1, 101, 3).unwrap();
        assert_eq!(h.get(&p, 1).unwrap(), Some(101));
        assert_eq!(h.len(&p).unwrap(), 1);
    }

    /// Two threads insert and remove their own keys on one small table:
    /// at most two entries are ever live, so an exact count never reaches
    /// the growth threshold (48 of 64 slots). A remove that loses a
    /// concurrent update to the count lets it drift up until it does.
    #[test]
    fn hash_count_stays_exact_under_concurrent_insert_remove() {
        let p = pool();
        let h = LfHash::create(&p, 64).unwrap();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let (p, h, start) = (p.clone(), &h, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..1_000u64 {
                        let key = (t << 32) | i;
                        let tag = 1 + (t << 32) + 2 * i;
                        assert_eq!(h.insert(&p, key, i, tag).unwrap(), None);
                        assert_eq!(h.remove(&p, key, tag + 1).unwrap(), Some(i));
                    }
                });
            }
        });
        assert_eq!(h.capacity(&p).unwrap(), 64, "the count drifted and grew the table");
        assert!(h.is_empty(&p).unwrap());
        assert!(p.verify_parity().unwrap());
    }

    #[test]
    fn lockfree_structures_take_concurrent_traffic() {
        let p = pool();
        let s = LfStack::create(&p).unwrap();
        let q = LfQueue::create(&p).unwrap();
        let h = LfHash::create(&p, 256).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let p = p.clone();
                let (s, q, h) = (&s, &q, &h);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let tag = 1 + t * 1000 + i * 4;
                        s.push(&p, t * 100 + i, tag).unwrap();
                        q.enqueue(&p, t * 100 + i, tag + 1).unwrap();
                        h.insert(&p, t * 100 + i, i, tag + 2).unwrap();
                        if i % 3 == 0 {
                            s.try_pop(&p, tag + 3).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(q.len(&p).unwrap(), 200);
        assert_eq!(h.len(&p).unwrap(), 200);
        let popped = 4 * 17; // per thread: i % 3 == 0 for 17 of 0..50
        assert_eq!(s.len(&p).unwrap(), 200 - popped);
        assert!(p.verify_parity().unwrap());
        assert!(p.find_corrupt_objects().unwrap().is_empty());
    }
}
