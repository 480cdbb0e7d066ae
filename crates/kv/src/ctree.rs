//! Crit-bit tree (PMDK's `ctree_map`): a binary radix tree keyed by the
//! most significant differing bit.
//!
//! Layout matches the paper's Table 3: one 56-byte internal node per stored
//! key (leaves are embedded entries), so "Insert New" is exactly 56 (1.00).

use pangolin::typed::PObj;
use pangolin::{field, impl_ptype};

use crate::maps::PersistentMap;
use crate::store::{KvError, KvResult, Store, TxOps, ValueRef, ValueSlot};
use pgl_pmemobj::PMEMoid;

const TYPE_ANCHOR: u32 = 100;
const TYPE_NODE: u32 = 101;

/// `{key, slot}` — a leaf (inline value slot) or a child pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C)]
struct Entry {
    key: u64,
    slot: ValueSlot,
}
pangolin::impl_pod!(Entry, 24);

/// Anchor: `{count, root entry}` = 32 bytes.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct CAnchor {
    count: u64,
    root: Entry,
}
impl_ptype!(CAnchor, 32, TYPE_ANCHOR);

/// Node: `{diff, pad, entries[2]}` = 56 bytes.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct CNode {
    diff: u32,
    pad: u32,
    entries: [Entry; 2],
}
impl_ptype!(CNode, 56, TYPE_NODE);

/// Where an entry lives: the anchor's root slot or one of a node's two
/// entry slots.
#[derive(Debug, Clone, Copy)]
enum EntryLoc {
    Root(PObj<CAnchor>),
    Node(PObj<CNode>, usize),
}

/// The crit-bit tree map.
pub struct CTree {
    anchor: PMEMoid,
}

impl CTree {
    fn anchor_h(&self) -> PObj<CAnchor> {
        PObj::from_oid(self.anchor)
    }

    fn is_leaf(e: &Entry) -> bool {
        e.slot.inline_value().is_some()
    }

    /// The node an interior entry points at.
    fn child(e: &Entry) -> KvResult<PObj<CNode>> {
        match e.slot.decode::<CNode>() {
            ValueRef::Obj(h) => Ok(h),
            _ => Err(KvError::Corrupt("ctree: interior entry without a child")),
        }
    }

    /// The inline value of a leaf entry.
    fn leaf_value(e: &Entry) -> KvResult<u64> {
        e.slot.inline_value().ok_or(KvError::Corrupt("ctree: leaf without a value"))
    }

    /// Position of the most significant differing bit.
    fn crit_bit(a: u64, b: u64) -> u32 {
        63 - (a ^ b).leading_zeros()
    }

    fn read_entry(tx: &mut dyn TxOps, loc: EntryLoc) -> KvResult<Entry> {
        match loc {
            EntryLoc::Root(a) => tx.read_at(a, field!(CAnchor, root: Entry)),
            EntryLoc::Node(n, i) => tx.read_at(n, field!(CNode, entries: [Entry; 2]).index(i)),
        }
    }

    fn write_entry(tx: &mut dyn TxOps, loc: EntryLoc, e: &Entry) -> KvResult<()> {
        match loc {
            EntryLoc::Root(a) => tx.write_at(a, field!(CAnchor, root: Entry), e),
            EntryLoc::Node(n, i) => tx.write_at(n, field!(CNode, entries: [Entry; 2]).index(i), e),
        }
    }

    fn bump_count(tx: &mut dyn TxOps, anchor: PObj<CAnchor>, delta: i64) -> KvResult<()> {
        let count: u64 = tx.read_at(anchor, field!(CAnchor, count: u64))?;
        let new = count.checked_add_signed(delta).ok_or(KvError::Corrupt("ctree count"))?;
        tx.write_at(anchor, field!(CAnchor, count: u64), &new)
    }
}

impl PersistentMap for CTree {
    const NAME: &'static str = "ctree";

    fn create<S: Store>(store: &S) -> KvResult<Self> {
        let anchor = store.txn(&mut |tx| tx.alloc_obj_zeroed::<CAnchor>())?;
        Ok(CTree { anchor: anchor.oid() })
    }

    fn from_anchor(anchor: PMEMoid) -> Self {
        CTree { anchor }
    }

    fn anchor(&self) -> PMEMoid {
        self.anchor
    }

    fn insert<S: Store>(&self, store: &S, key: u64, value: u64) -> KvResult<Option<u64>> {
        let anchor = self.anchor_h();
        store.txn(&mut |tx| {
            let root_loc = EntryLoc::Root(anchor);
            let root = Self::read_entry(tx, root_loc)?;
            if root.slot.is_null() {
                Self::write_entry(tx, root_loc, &Entry { key, slot: ValueSlot::inline(value) })?;
                Self::bump_count(tx, anchor, 1)?;
                return Ok(None);
            }
            // Walk to the closest leaf, remembering every interior entry on
            // the way with the crit bit of the node it points at (diffs
            // strictly decrease, so 64 bounds the depth).
            let mut path: Vec<(EntryLoc, Entry, u32)> = Vec::with_capacity(64);
            let mut loc = root_loc;
            let mut e = root;
            while !Self::is_leaf(&e) {
                let node = Self::child(&e)?;
                let diff: u32 = tx.read_at(node, field!(CNode, diff: u32))?;
                path.push((loc, e, diff));
                let bit = (key >> diff) & 1;
                loc = EntryLoc::Node(node, bit as usize);
                e = Self::read_entry(tx, loc)?;
            }
            if e.key == key {
                let old = Self::leaf_value(&e)?;
                Self::write_entry(tx, loc, &Entry { key, slot: ValueSlot::inline(value) })?;
                return Ok(Some(old));
            }
            // New critical bit. Diffs decrease downward, so the insertion
            // point is the first entry on the path whose node has a smaller
            // diff, or the leaf itself.
            let diff = Self::crit_bit(e.key, key);
            let (loc, at) = path
                .iter()
                .find(|&&(_, _, ndiff)| ndiff < diff)
                .map_or((loc, e), |&(loc, at, _)| (loc, at));
            let node = tx.alloc_obj_zeroed::<CNode>()?;
            let bit = ((key >> diff) & 1) as usize;
            tx.write_at(node, field!(CNode, diff: u32), &diff)?;
            Self::write_entry(
                tx,
                EntryLoc::Node(node, bit),
                &Entry { key, slot: ValueSlot::inline(value) },
            )?;
            Self::write_entry(tx, EntryLoc::Node(node, 1 - bit), &at)?;
            Self::write_entry(tx, loc, &Entry { key: 0, slot: ValueSlot::obj(node) })?;
            Self::bump_count(tx, anchor, 1)?;
            Ok(None)
        })
    }

    fn remove<S: Store>(&self, store: &S, key: u64) -> KvResult<Option<u64>> {
        let anchor = self.anchor_h();
        store.txn(&mut |tx| {
            let root_loc = EntryLoc::Root(anchor);
            let mut loc = root_loc;
            let mut e = Self::read_entry(tx, loc)?;
            if e.slot.is_null() {
                return Ok(None);
            }
            // Track the entry that points at the node containing `loc`.
            let mut parent: Option<(EntryLoc, PObj<CNode>, usize)> = None;
            while !Self::is_leaf(&e) {
                let node = Self::child(&e)?;
                let diff: u32 = tx.read_at(node, field!(CNode, diff: u32))?;
                let bit = ((key >> diff) & 1) as usize;
                parent = Some((loc, node, bit));
                loc = EntryLoc::Node(node, bit);
                e = Self::read_entry(tx, loc)?;
            }
            if e.key != key {
                return Ok(None);
            }
            let old = Self::leaf_value(&e)?;
            match parent {
                None => {
                    Self::write_entry(tx, root_loc, &Entry::default())?;
                }
                Some((ploc, node, bit)) => {
                    let sibling = Self::read_entry(tx, EntryLoc::Node(node, 1 - bit))?;
                    Self::write_entry(tx, ploc, &sibling)?;
                    tx.free_obj(node)?;
                }
            }
            Self::bump_count(tx, anchor, -1)?;
            Ok(Some(old))
        })
    }

    fn get<S: Store>(&self, store: &S, key: u64) -> KvResult<Option<u64>> {
        let mut e: Entry = store.read_at_direct(self.anchor_h(), field!(CAnchor, root: Entry))?;
        if e.slot.is_null() {
            return Ok(None);
        }
        while !Self::is_leaf(&e) {
            let node = Self::child(&e)?;
            let diff: u32 = store.read_at_direct(node, field!(CNode, diff: u32))?;
            let bit = ((key >> diff) & 1) as usize;
            e = store.read_at_direct(node, field!(CNode, entries: [Entry; 2]).index(bit))?;
        }
        Ok(if e.key == key { Some(Self::leaf_value(&e)?) } else { None })
    }
}

/// Sanity self-check used by tests: walks the whole tree and verifies the
/// crit-bit invariant (diffs strictly decrease downward, keys agree with
/// their path bits). Returns the number of keys.
pub fn check_invariants<S: Store>(map: &CTree, store: &S) -> KvResult<u64> {
    fn walk<S: Store>(store: &S, e: Entry, max_diff: Option<u32>) -> KvResult<u64> {
        if e.slot.is_null() {
            return Ok(0);
        }
        if CTree::is_leaf(&e) {
            return Ok(1);
        }
        let node = CTree::child(&e)?;
        let diff: u32 = store.read_at_direct(node, field!(CNode, diff: u32))?;
        if let Some(m) = max_diff {
            if diff >= m {
                return Err(KvError::Corrupt("ctree: non-decreasing crit bits"));
            }
        }
        let l: Entry = store.read_at_direct(node, field!(CNode, entries: [Entry; 2]).index(0))?;
        let r: Entry = store.read_at_direct(node, field!(CNode, entries: [Entry; 2]).index(1))?;
        if l.slot.is_null() || r.slot.is_null() {
            return Err(KvError::Corrupt("ctree: internal node with a hole"));
        }
        Ok(walk(store, l, Some(diff))? + walk(store, r, Some(diff))?)
    }
    let root: Entry = store.read_at_direct(map.anchor_h(), field!(CAnchor, root: Entry))?;
    let n = walk(store, root, None)?;
    let count = map.len(store)?;
    if n != count {
        return Err(KvError::Corrupt("ctree: count mismatch"));
    }
    Ok(n)
}
