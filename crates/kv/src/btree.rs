//! B-tree of order 8 (PMDK's `btree_map`): 304-byte nodes with up to 7
//! items and 8 children (Table 3's btree row).
//!
//! Insertion splits full nodes pre-emptively on the way down; removal uses
//! the classic rebalance-before-descend algorithm (borrow from a sibling or
//! merge), so every visited node has at least `t` items before descending.
//!
//! A node is laid out so that a descent touches only the cache lines it
//! needs: the item count and the keys fill the first 64 bytes (the
//! node's *head*), values and children follow. Every traversal obeys the
//! **visit-once rule**: it reads a node's head, then the one child pointer
//! (or the one value) it picked, carries a child's head into the next step
//! instead of reading it again, and reads the rest of a node only once that
//! node is known to be modified. Writes stay whole-node (PMDK snapshots
//! node-sized ranges similarly, which is what makes Table 3's "Mod" column
//! node-scale).

use pangolin::typed::{Field, PObj};
use pangolin::{field, impl_pod, impl_ptype};
use pgl_nvm::pod::bytes_of_mut;
use pgl_pmemobj::PMEMoid;

use crate::maps::PersistentMap;
use crate::store::{KvError, KvResult, Store, TxOps};

const TYPE_ANCHOR: u32 = 120;
const TYPE_NODE: u32 = 121;

/// Minimum degree `t`: nodes hold `t-1..=2t-1` items.
const T: usize = 4;
const MAX_ITEMS: usize = 2 * T - 1; // 7
const MIN_ITEMS: usize = T - 1; // 3

/// A `(key, value)` pair in DRAM; on media the two live in separate arrays.
type Item = (u64, u64);

/// The first 64 bytes of a node: all a descent needs to pick its next step.
#[derive(Clone, Copy)]
#[repr(C)]
struct BHead {
    n: u64,
    keys: [u64; MAX_ITEMS],
}
impl_pod!(BHead, 64);

/// The 304-byte node: `n | keys[7] | values[7] | pad[7] | children[8]`.
#[derive(Clone, Copy)]
#[repr(C)]
struct BNode {
    head: BHead,
    values: [u64; MAX_ITEMS],
    pad: [u64; MAX_ITEMS],
    children: [PObj<BNode>; 2 * T],
}
impl_ptype!(BNode, 304, TYPE_NODE);

/// Anchor: `{count, root}` = 24 bytes.
#[derive(Clone, Copy, Default)]
#[repr(C)]
struct BAnchor {
    count: u64,
    root: PObj<BNode>,
}
impl_ptype!(BAnchor, 24, TYPE_ANCHOR);

impl BHead {
    fn len(&self) -> usize {
        self.n as usize
    }

    /// A head as read from media: under `CsumPolicy::Default` reads are
    /// unverified, so the count that bounds every index into the node is
    /// checked before anything uses it.
    fn checked(self) -> KvResult<BHead> {
        if self.n > MAX_ITEMS as u64 {
            return Err(KvError::Corrupt("btree: item count out of bounds"));
        }
        Ok(self)
    }

    /// First index with `key <= keys[i]`, and whether it holds `key`.
    fn search(&self, key: u64) -> (usize, bool) {
        let n = self.len();
        let i = (0..n).find(|&i| key <= self.keys[i]).unwrap_or(n);
        (i, i < n && self.keys[i] == key)
    }
}

impl BNode {
    fn empty() -> BNode {
        BNode {
            head: BHead { n: 0, keys: [0; MAX_ITEMS] },
            values: [0; MAX_ITEMS],
            pad: [0; MAX_ITEMS],
            children: [PObj::null(); 2 * T],
        }
    }

    fn len(&self) -> usize {
        self.head.len()
    }

    fn is_leaf(&self) -> bool {
        self.children[0].is_null()
    }

    fn item(&self, i: usize) -> Item {
        (self.head.keys[i], self.values[i])
    }

    fn set_item(&mut self, i: usize, (key, value): Item) {
        self.head.keys[i] = key;
        self.values[i] = value;
    }

    fn insert_item_at(&mut self, i: usize, item: Item) {
        let n = self.len();
        self.head.keys.copy_within(i..n, i + 1);
        self.values.copy_within(i..n, i + 1);
        self.set_item(i, item);
        self.head.n += 1;
    }

    fn remove_item_at(&mut self, i: usize) -> Item {
        let n = self.len();
        let it = self.item(i);
        self.head.keys.copy_within(i + 1..n, i);
        self.values.copy_within(i + 1..n, i);
        self.head.n -= 1;
        it
    }

    fn insert_child_at(&mut self, i: usize, c: PObj<BNode>) {
        let n = self.len(); // called after the item insert
        self.children.copy_within(i..n, i + 1);
        self.children[i] = c;
    }

    /// Removes `children[i]`; must run before the paired item removal so
    /// `n` still reflects the old item count (children are `0..=n`).
    fn remove_child_at(&mut self, i: usize) -> PObj<BNode> {
        let c = self.children[i];
        let n = self.len();
        self.children.copy_within(i + 1..=n, i);
        c
    }
}

/// Which item a descending delete is after.
#[derive(Clone, Copy)]
enum Target {
    Key(u64),
    /// The smallest item of the subtree (an interior item's successor).
    Min,
    /// The largest item of the subtree (an interior item's predecessor).
    Max,
}

const HEAD_LEN: usize = std::mem::size_of::<BHead>();

fn child_field(i: usize) -> Field<BNode, PObj<BNode>> {
    field!(BNode, children: [PObj<BNode>; 2 * T]).index(i)
}

fn read_head(tx: &mut dyn TxOps, h: PObj<BNode>) -> KvResult<BHead> {
    tx.read_at(h, field!(BNode, head: BHead)).and_then(BHead::checked)
}

fn read_child(tx: &mut dyn TxOps, h: PObj<BNode>, i: usize) -> KvResult<PObj<BNode>> {
    tx.read_at(h, child_field(i))
}

/// Completes a node whose head the descent already holds: reads the bytes
/// after the head, so no byte of the node is read twice.
fn read_rest(tx: &mut dyn TxOps, h: PObj<BNode>, head: BHead) -> KvResult<BNode> {
    let mut node = BNode::empty();
    node.head = head;
    tx.read_bytes(h.oid(), HEAD_LEN as u64, &mut bytes_of_mut(&mut node)[HEAD_LEN..])?;
    Ok(node)
}

fn write_node(tx: &mut dyn TxOps, h: PObj<BNode>, node: &BNode) -> KvResult<()> {
    tx.set_obj(h, node)
}

/// The order-8 B-tree map.
pub struct BTree {
    anchor: PMEMoid,
}

impl BTree {
    fn anchor_h(&self) -> PObj<BAnchor> {
        PObj::from_oid(self.anchor)
    }

    fn bump_count(tx: &mut dyn TxOps, anchor: PObj<BAnchor>, delta: i64) -> KvResult<()> {
        let count: u64 = tx.read_at(anchor, field!(BAnchor, count: u64))?;
        let n = count.checked_add_signed(delta).ok_or(KvError::Corrupt("btree count"))?;
        tx.write_at(anchor, field!(BAnchor, count: u64), &n)
    }

    /// Splits the full child `parent.children[i]` (whose head the caller
    /// read), promoting its median. Returns the heads of the two halves.
    fn split_child(
        tx: &mut dyn TxOps,
        parent_h: PObj<BNode>,
        parent: &mut BNode,
        i: usize,
        child_head: BHead,
    ) -> KvResult<[BHead; 2]> {
        let child_h = parent.children[i];
        let mut child = read_rest(tx, child_h, child_head)?;
        debug_assert_eq!(child.len(), MAX_ITEMS);
        let right_h = tx.alloc_obj_zeroed::<BNode>()?;
        let mut right = BNode::empty();
        right.head.n = (T - 1) as u64;
        right.head.keys[..T - 1].copy_from_slice(&child.head.keys[T..]);
        right.values[..T - 1].copy_from_slice(&child.values[T..]);
        if !child.is_leaf() {
            right.children[..T].copy_from_slice(&child.children[T..]);
        }
        let median = child.item(T - 1);
        child.head.n = (T - 1) as u64;

        parent.insert_item_at(i, median);
        parent.insert_child_at(i + 1, right_h);

        write_node(tx, child_h, &child)?;
        write_node(tx, right_h, &right)?;
        write_node(tx, parent_h, parent)?;
        Ok([child.head, right.head])
    }

    /// Ensures the child `child_h = children[i]` of the node at `parent_h`
    /// has at least `T` items before a descending delete, borrowing from a
    /// sibling or merging. The parent is read past its head only if it has
    /// to change. Returns the child to descend into (it changes when
    /// merging leftward) and its head.
    fn fix_child(
        tx: &mut dyn TxOps,
        parent_h: PObj<BNode>,
        parent_head: BHead,
        i: usize,
        child_h: PObj<BNode>,
    ) -> KvResult<(PObj<BNode>, BHead)> {
        let child_head = read_head(tx, child_h)?;
        if child_head.len() > MIN_ITEMS {
            return Ok((child_h, child_head));
        }
        let mut parent = read_rest(tx, parent_h, parent_head)?;
        let mut left_head = None;
        // Borrow from the left sibling.
        if i > 0 {
            let left_h = parent.children[i - 1];
            let head = read_head(tx, left_h)?;
            if head.len() > MIN_ITEMS {
                let mut left = read_rest(tx, left_h, head)?;
                let mut child = read_rest(tx, child_h, child_head)?;
                let moved = left.item(left.len() - 1);
                child.insert_item_at(0, parent.item(i - 1));
                if !child.is_leaf() {
                    let n = child.len(); // already counts the borrowed item
                    child.children.copy_within(0..n, 1);
                    child.children[0] = left.children[left.len()];
                }
                left.head.n -= 1;
                parent.set_item(i - 1, moved);
                write_node(tx, left_h, &left)?;
                write_node(tx, child_h, &child)?;
                write_node(tx, parent_h, &parent)?;
                return Ok((child_h, child.head));
            }
            left_head = Some(head);
        }
        // Borrow from the right sibling.
        let mut right_head = None;
        if i < parent.len() {
            let right_h = parent.children[i + 1];
            let head = read_head(tx, right_h)?;
            if head.len() > MIN_ITEMS {
                let mut right = read_rest(tx, right_h, head)?;
                let mut child = read_rest(tx, child_h, child_head)?;
                let n = child.len();
                child.set_item(n, parent.item(i));
                if !child.is_leaf() {
                    child.children[n + 1] = right.children[0];
                    let rn = right.len();
                    right.children.copy_within(1..=rn, 0);
                }
                child.head.n += 1;
                parent.set_item(i, right.remove_item_at(0));
                write_node(tx, right_h, &right)?;
                write_node(tx, child_h, &child)?;
                write_node(tx, parent_h, &parent)?;
                return Ok((child_h, child.head));
            }
            right_head = Some(head);
        }
        // Merge with a sibling (a non-root parent has at least two children,
        // so one of the two heads was read above).
        let (at, heads) = match (left_head, right_head) {
            (Some(left), _) => (i - 1, [left, child_head]),
            (None, Some(right)) => (i, [child_head, right]),
            (None, None) => return Err(KvError::Corrupt("btree: interior node without items")),
        };
        let merged = Self::merge_children(tx, parent_h, &mut parent, at, heads)?;
        Ok((parent.children[at], merged))
    }

    /// Merges `children[i]`, item `i`, and `children[i+1]` (whose heads the
    /// caller read) into `children[i]`, freeing the right node. Returns the
    /// merged node's head.
    fn merge_children(
        tx: &mut dyn TxOps,
        parent_h: PObj<BNode>,
        parent: &mut BNode,
        i: usize,
        [left_head, right_head]: [BHead; 2],
    ) -> KvResult<BHead> {
        let left_h = parent.children[i];
        let right_h = parent.children[i + 1];
        let mut left = read_rest(tx, left_h, left_head)?;
        let right = read_rest(tx, right_h, right_head)?;
        let ln = left.len();
        let rn = right.len();
        if ln + rn >= MAX_ITEMS {
            return Err(KvError::Corrupt("btree: merge of over-full siblings"));
        }
        left.set_item(ln, parent.item(i));
        left.head.keys[ln + 1..ln + 1 + rn].copy_from_slice(&right.head.keys[..rn]);
        left.values[ln + 1..ln + 1 + rn].copy_from_slice(&right.values[..rn]);
        if !left.is_leaf() {
            left.children[ln + 1..ln + 2 + rn].copy_from_slice(&right.children[..=rn]);
        }
        left.head.n = (ln + 1 + rn) as u64;

        parent.remove_child_at(i + 1);
        parent.remove_item_at(i);

        write_node(tx, left_h, &left)?;
        write_node(tx, parent_h, parent)?;
        tx.free_obj(right_h)?;
        Ok(left.head)
    }

    /// Insert inside an already-open transaction — the group-commit
    /// batcher drives many of these through one [`crate::store::Store::txn_batch`]
    /// commit. Returns the previous value, if any.
    pub fn insert_tx(&self, tx: &mut dyn TxOps, key: u64, value: u64) -> KvResult<Option<u64>> {
        let anchor = self.anchor_h();
        let root_fld = field!(BAnchor, root: PObj<BNode>);
        let mut cur: PObj<BNode> = tx.read_at(anchor, root_fld)?;
        if cur.is_null() {
            let h = tx.alloc_obj_zeroed::<BNode>()?;
            let mut node = BNode::empty();
            node.insert_item_at(0, (key, value));
            write_node(tx, h, &node)?;
            tx.write_at(anchor, root_fld, &h)?;
            Self::bump_count(tx, anchor, 1)?;
            return Ok(None);
        }
        let mut head = read_head(tx, cur)?;
        // Pre-emptive root split.
        if head.len() == MAX_ITEMS {
            let new_root = tx.alloc_obj_zeroed::<BNode>()?;
            let mut nr = BNode::empty();
            nr.children[0] = cur;
            Self::split_child(tx, new_root, &mut nr, 0, head)?;
            tx.write_at(anchor, root_fld, &new_root)?;
            (cur, head) = (new_root, nr.head);
        }
        // `head` is always the head of `cur`, read exactly once.
        loop {
            let (i, found) = head.search(key);
            if found {
                let mut node = read_rest(tx, cur, head)?;
                let old = std::mem::replace(&mut node.values[i], value);
                write_node(tx, cur, &node)?;
                return Ok(Some(old));
            }
            let child = read_child(tx, cur, i)?;
            if child.is_null() {
                let mut node = read_rest(tx, cur, head)?;
                node.insert_item_at(i, (key, value));
                write_node(tx, cur, &node)?;
                Self::bump_count(tx, anchor, 1)?;
                return Ok(None);
            }
            let child_head = read_head(tx, child)?;
            if child_head.len() < MAX_ITEMS {
                (cur, head) = (child, child_head);
                continue;
            }
            let mut node = read_rest(tx, cur, head)?;
            let halves = Self::split_child(tx, cur, &mut node, i, child_head)?;
            // The promoted median may be the key, or shift the path.
            let median = node.head.keys[i];
            if median == key {
                let old = std::mem::replace(&mut node.values[i], value);
                write_node(tx, cur, &node)?;
                return Ok(Some(old));
            }
            let side = (key > median) as usize;
            (cur, head) = (node.children[i + side], halves[side]);
        }
    }

    /// Remove inside an already-open transaction (batched counterpart of
    /// [`PersistentMap::remove`]). Returns the removed value, if any.
    pub fn remove_tx(&self, tx: &mut dyn TxOps, key: u64) -> KvResult<Option<u64>> {
        let anchor = self.anchor_h();
        let root_fld = field!(BAnchor, root: PObj<BNode>);
        let root: PObj<BNode> = tx.read_at(anchor, root_fld)?;
        if root.is_null() {
            return Ok(None);
        }
        let head = read_head(tx, root)?;
        let removed = Self::delete_from(tx, root, head, Target::Key(key))?;
        if removed.is_some() {
            Self::bump_count(tx, anchor, -1)?;
        }
        // Shrink the root if it emptied out — only a one-item root can, by
        // losing that item as a leaf or having its two children merged
        // (which happens even on an unsuccessful remove: the
        // rebalance-before-descend pass merges first). A root that did
        // empty was written, so it is the transaction's copy that is read.
        if head.len() == 1 && tx.read_at(root, field!(BNode, head.n: u64))? == 0 {
            let new_root = read_child(tx, root, 0)?; // null under a leaf
            tx.write_at(anchor, root_fld, &new_root)?;
            tx.free_obj(root)?;
        }
        Ok(removed.map(|(_, value)| value))
    }

    /// Ordered range scan: appends up to `limit` `(key, value)` pairs with
    /// `key >= start`, ascending, using direct (transaction-free) reads
    /// like [`PersistentMap::get`]. Serves the service's SCAN verb; per
    /// the §3.4 rule the caller must not race it with writers of the same
    /// map (the service's shards are single-writer, so the owning worker
    /// scans safely).
    pub fn scan<S: Store>(
        &self,
        store: &S,
        start: u64,
        limit: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> KvResult<()> {
        fn walk<S: Store>(
            store: &S,
            h: PObj<BNode>,
            start: u64,
            limit: usize,
            out: &mut Vec<(u64, u64)>,
        ) -> KvResult<()> {
            if h.is_null() || out.len() >= limit {
                return Ok(());
            }
            let node: BNode = store.get_obj_direct(h)?;
            let n = node.len();
            // Children before the lower bound hold only keys < start.
            for i in node.head.search(start).0..n {
                if !node.is_leaf() {
                    walk(store, node.children[i], start, limit, out)?;
                }
                if out.len() >= limit {
                    return Ok(());
                }
                out.push(node.item(i));
            }
            if !node.is_leaf() {
                walk(store, node.children[n], start, limit, out)?;
            }
            Ok(())
        }
        let root: PObj<BNode> =
            store.read_at_direct(self.anchor_h(), field!(BAnchor, root: PObj<BNode>))?;
        walk(store, root, start, limit, out)
    }

    /// Recursive delete of `target` below the node at `node_h`, whose head
    /// the caller read; every entered node has at least `T` items (except
    /// the root). Returns the removed item.
    fn delete_from(
        tx: &mut dyn TxOps,
        node_h: PObj<BNode>,
        head: BHead,
        target: Target,
    ) -> KvResult<Option<Item>> {
        let n = head.len();
        let (i, found) = match target {
            Target::Key(key) => head.search(key),
            Target::Min => (0, false),
            Target::Max => (n, false),
        };
        let child_h = read_child(tx, node_h, i)?;
        if child_h.is_null() {
            // A leaf: the item is here or nowhere.
            let at = match target {
                Target::Key(_) if !found => return Ok(None),
                Target::Key(_) | Target::Min => i,
                Target::Max => n - 1,
            };
            let mut node = read_rest(tx, node_h, head)?;
            let item = node.remove_item_at(at);
            write_node(tx, node_h, &node)?;
            return Ok(Some(item));
        }
        if !found {
            let (below, below_head) = Self::fix_child(tx, node_h, head, i, child_h)?;
            return Self::delete_from(tx, below, below_head, target);
        }
        // An interior item: replace it with its predecessor or successor,
        // taken out of the subtree in the same descent that finds it, or
        // merge the two subtrees around it and delete below.
        let mut node = read_rest(tx, node_h, head)?;
        let old = node.item(i);
        let left_head = read_head(tx, child_h)?;
        let right_h = node.children[i + 1];
        let replacement = if left_head.len() > MIN_ITEMS {
            Self::delete_from(tx, child_h, left_head, Target::Max)?
        } else {
            let right_head = read_head(tx, right_h)?;
            if right_head.len() > MIN_ITEMS {
                Self::delete_from(tx, right_h, right_head, Target::Min)?
            } else {
                let heads = [left_head, right_head];
                let merged = Self::merge_children(tx, node_h, &mut node, i, heads)?;
                Self::delete_from(tx, child_h, merged, target)?;
                return Ok(Some(old));
            }
        };
        node.set_item(i, replacement.ok_or(KvError::Corrupt("btree: empty subtree"))?);
        write_node(tx, node_h, &node)?;
        Ok(Some(old))
    }
}

impl PersistentMap for BTree {
    const NAME: &'static str = "btree";

    fn create<S: Store>(store: &S) -> KvResult<Self> {
        let anchor = store.txn(&mut |tx| tx.alloc_obj_zeroed::<BAnchor>())?;
        Ok(BTree { anchor: anchor.oid() })
    }

    fn from_anchor(anchor: PMEMoid) -> Self {
        BTree { anchor }
    }

    fn anchor(&self) -> PMEMoid {
        self.anchor
    }

    fn insert<S: Store>(&self, store: &S, key: u64, value: u64) -> KvResult<Option<u64>> {
        store.txn(&mut |tx| self.insert_tx(tx, key, value))
    }

    fn remove<S: Store>(&self, store: &S, key: u64) -> KvResult<Option<u64>> {
        store.txn(&mut |tx| self.remove_tx(tx, key))
    }

    fn get<S: Store>(&self, store: &S, key: u64) -> KvResult<Option<u64>> {
        let mut cur: PObj<BNode> =
            store.read_at_direct(self.anchor_h(), field!(BAnchor, root: PObj<BNode>))?;
        // Under a leaf the child pointer read is null and ends the walk.
        while !cur.is_null() {
            let head: BHead = store.read_at_direct(cur, field!(BNode, head: BHead))?;
            let (i, found) = head.checked()?.search(key);
            if found {
                let values = field!(BNode, values: [u64; MAX_ITEMS]);
                return store.read_at_direct(cur, values.index(i)).map(Some);
            }
            cur = store.read_at_direct(cur, child_field(i))?;
        }
        Ok(None)
    }
}

/// Test helper: walks the tree verifying order, item-count bounds and
/// uniform leaf depth. Returns the number of keys.
pub fn check_invariants<S: Store>(map: &BTree, store: &S) -> KvResult<u64> {
    fn walk<S: Store>(
        store: &S,
        h: PObj<BNode>,
        lo: Option<u64>,
        hi: Option<u64>,
        is_root: bool,
        depth: usize,
        leaf_depth: &mut Option<usize>,
    ) -> KvResult<u64> {
        let node: BNode = store.get_obj_direct(h)?;
        let n = node.len();
        if n > MAX_ITEMS || (!is_root && n < MIN_ITEMS) || (is_root && n == 0) {
            return Err(KvError::Corrupt("btree: item count out of bounds"));
        }
        let keys = &node.head.keys[..n];
        for w in keys.windows(2) {
            if w[0] >= w[1] {
                return Err(KvError::Corrupt("btree: unsorted items"));
            }
        }
        if let Some(lo) = lo {
            if keys[0] <= lo {
                return Err(KvError::Corrupt("btree: order violation (lo)"));
            }
        }
        if let Some(hi) = hi {
            if keys[n - 1] >= hi {
                return Err(KvError::Corrupt("btree: order violation (hi)"));
            }
        }
        if node.is_leaf() {
            match leaf_depth {
                Some(d) if *d != depth => return Err(KvError::Corrupt("btree: uneven leaf depth")),
                None => *leaf_depth = Some(depth),
                _ => {}
            }
            return Ok(n as u64);
        }
        let mut total = n as u64;
        for i in 0..=n {
            let lo = if i == 0 { lo } else { Some(keys[i - 1]) };
            let hi = if i == n { hi } else { Some(keys[i]) };
            total += walk(store, node.children[i], lo, hi, false, depth + 1, leaf_depth)?;
        }
        Ok(total)
    }
    let root: PObj<BNode> =
        store.read_at_direct(map.anchor_h(), field!(BAnchor, root: PObj<BNode>))?;
    let mut leaf_depth = None;
    let n =
        if root.is_null() { 0 } else { walk(store, root, None, None, true, 0, &mut leaf_depth)? };
    if n != map.len(store)? {
        return Err(KvError::Corrupt("btree: count mismatch"));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::{offset_of, size_of};

    #[test]
    fn node_is_304_bytes_with_count_and_keys_in_the_first_64() {
        assert_eq!(size_of::<BNode>(), 304);
        assert_eq!(offset_of!(BNode, head), 0);
        assert_eq!((offset_of!(BHead, n), offset_of!(BHead, keys)), (0, 8));
        assert_eq!(size_of::<BHead>(), 64, "n + keys end where the values begin");
        assert_eq!(offset_of!(BNode, values), 64);
        assert_eq!(offset_of!(BNode, pad), 120);
        assert_eq!(offset_of!(BNode, children), 176);
    }
}
