//! Op-count tests that pin the traversal diet: what a map operation reads
//! on its way down, counted two ways on a latency-free device —
//! `NvmDevice::stats()` deltas (bytes and read calls that reached the
//! media, opens and header checks included) and a recording [`Store`]
//! wrapper that sees every logical read with its object and range, so the
//! visit-once rule (before a node is opened for writing it is read as its
//! head, at most one 16-byte slot, and at most once the rest — never the
//! same part twice) is checked range by range, not inferred.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use pangolin::{PglConfig, PglPool};
use pgl_kv::maps::PersistentMap;
use pgl_kv::store::{KvResult, PglStore, Store, TxOps};
use pgl_kv::{btree, ctree, BTree, CTree};
use pgl_nvm::{DeviceConfig, NvmDevice, StatsSnapshot, CACHELINE};
use pgl_pmemobj::{PMEMoid, TxStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEYS: u64 = 10_000;

/// One operation's logical reads, per object: `(offset, len)` of every
/// read issued before the object's first write (or its free) in the
/// transaction.
#[derive(Default)]
struct ReadLog {
    reads: BTreeMap<u64, Vec<(u64, usize)>>,
    written: BTreeSet<u64>,
}

impl ReadLog {
    fn note_read(&mut self, oid: PMEMoid, off: u64, len: usize) {
        if !self.written.contains(&oid.off) {
            self.reads.entry(oid.off).or_default().push((off, len));
        }
    }

    /// Cache lines the recorded reads cover (an OID's offset is the pool
    /// offset of the object's first user byte).
    fn lines(&self) -> usize {
        let mut lines = BTreeSet::new();
        for (base, ranges) in &self.reads {
            for &(off, len) in ranges {
                let (lo, hi) = (base + off, base + off + len as u64 - 1);
                lines.extend(lo / CACHELINE as u64..=hi / CACHELINE as u64);
            }
        }
        lines.len()
    }

    /// Objects read as a B-tree node: everything but the 24-byte anchor,
    /// which is only ever read at offsets below 24.
    fn nodes(&self) -> impl Iterator<Item = (&u64, &Vec<(u64, usize)>)> {
        self.reads.iter().filter(|(_, r)| r.iter().any(|&(off, len)| off + len as u64 > 24))
    }

    /// The visit-once rule, per B-tree node: the head first and once, then
    /// at most one slot, then at most once the rest — and a node read past
    /// its slot is one the operation goes on to write. (One exception: a
    /// remove looks at a one-item root's count again, 8 bytes, to see
    /// whether the root emptied.)
    fn assert_visit_once(&self, what: &str) {
        for (oid, reads) in self.nodes() {
            let reads = reads.strip_suffix(&[(0, 8)]).unwrap_or(reads);
            let ok = match reads[..] {
                [(0, 64)] | [(0, 64), (64, 240)] => true,
                [(0, 64), (_, slot)] | [(0, 64), (_, slot), (64, 240)] => slot <= 16,
                _ => false,
            };
            assert!(ok, "{what}: node {oid:#x} was read as {reads:?} before its write-open");
            let past_slot = reads.last() == Some(&(64, 240));
            assert!(
                !past_slot || self.written.contains(oid),
                "{what}: {oid:#x} read whole, unwritten"
            );
        }
    }
}

/// A [`Store`] that forwards to `inner` and logs every logical read.
struct Recording<'a, S: Store> {
    inner: &'a S,
    log: Mutex<ReadLog>,
}

impl<'a, S: Store> Recording<'a, S> {
    fn new(inner: &'a S) -> Self {
        Recording { inner, log: Mutex::default() }
    }

    fn take(&self) -> ReadLog {
        std::mem::take(&mut self.log.lock().unwrap())
    }
}

struct RecordingTx<'a> {
    tx: &'a mut dyn TxOps,
    log: &'a Mutex<ReadLog>,
}

impl TxOps for RecordingTx<'_> {
    fn alloc(&mut self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        self.tx.alloc(size, type_num)
    }
    fn alloc_zeroed(&mut self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        self.tx.alloc_zeroed(size, type_num)
    }
    fn free(&mut self, oid: PMEMoid) -> KvResult<()> {
        self.log.lock().unwrap().written.insert(oid.off);
        self.tx.free(oid)
    }
    fn write_bytes(&mut self, oid: PMEMoid, off: u64, src: &[u8]) -> KvResult<()> {
        self.log.lock().unwrap().written.insert(oid.off);
        self.tx.write_bytes(oid, off, src)
    }
    fn read_bytes(&mut self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        self.log.lock().unwrap().note_read(oid, off, dst.len());
        self.tx.read_bytes(oid, off, dst)
    }
}

impl<S: Store> Store for Recording<'_, S> {
    fn uuid(&self) -> u64 {
        self.inner.uuid()
    }
    fn txn_with_stats<R>(
        &self,
        f: &mut dyn FnMut(&mut dyn TxOps) -> KvResult<R>,
    ) -> KvResult<(R, TxStats)> {
        self.inner.txn_with_stats(&mut |tx| f(&mut RecordingTx { tx, log: &self.log }))
    }
    fn read_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        self.log.lock().unwrap().note_read(oid, off, dst.len());
        self.inner.read_direct(oid, off, dst)
    }
    fn last_tx_stats(&self) -> TxStats {
        self.inner.last_tx_stats()
    }
    fn root(&self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        self.inner.root(size, type_num)
    }
}

fn store() -> (Arc<NvmDevice>, PglStore) {
    store_of(64 << 20)
}

fn store_of(size: usize) -> (Arc<NvmDevice>, PglStore) {
    let mut cfg = PglConfig::small();
    cfg.pool.size = size;
    cfg.pool.zone_size = 16 << 20;
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    assert!(dev.latency().is_disabled());
    (dev.clone(), PglStore::new(PglPool::create(dev, cfg).unwrap()))
}

/// A map holding `KEYS` distinct random keys, and the keys.
fn loaded<M: PersistentMap>(store: &PglStore, seed: u64) -> (M, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let map = M::create(store).unwrap();
    let mut keys = BTreeSet::new();
    while (keys.len() as u64) < KEYS {
        let k = rng.gen::<u64>() | 1; // odd: even keys stay free for inserts
        if keys.insert(k) {
            map.insert(store, k, k ^ 0xABCD).unwrap();
        }
    }
    (map, keys.into_iter().collect())
}

/// Runs `op` on `n` sampled keys; returns the device-stat delta of each.
fn per_op(dev: &NvmDevice, keys: &[u64], n: usize, mut op: impl FnMut(u64)) -> Vec<StatsSnapshot> {
    let step = keys.len() / n;
    (0..n)
        .map(|i| {
            let s0 = dev.stats();
            op(keys[i * step]);
            dev.stats().delta_since(&s0)
        })
        .collect()
}

fn mean(deltas: &[StatsSnapshot], f: impl Fn(&StatsSnapshot) -> u64) -> f64 {
    deltas.iter().map(f).sum::<u64>() as f64 / deltas.len() as f64
}

#[test]
fn btree_get_reads_a_head_and_one_slot_per_level() {
    let (dev, store) = store();
    let (map, keys) = loaded::<BTree>(&store, 7);
    let rec = Recording::new(&store);
    for &k in keys.iter().step_by(97) {
        let s0 = dev.stats();
        assert_eq!(map.get(&rec, k).unwrap(), Some(k ^ 0xABCD));
        let d = dev.stats().delta_since(&s0);
        let log = rec.take();
        let levels = log.nodes().count();
        // 2·4^(h-1) - 1 <= KEYS bounds the height of a minimum-degree-4 tree.
        assert!((1..=7).contains(&levels), "{levels} levels");
        for (oid, reads) in log.nodes() {
            assert_eq!(reads.len(), 2, "node {oid:#x}: {reads:?}");
            assert_eq!(reads[0], (0, 64), "the head comes first");
            assert!(reads[1].1 <= 16, "then one child pointer or one value: {reads:?}");
        }
        // A node block is 328 bytes (304 user bytes, a 4-byte sum-table
        // entry, the header), not a multiple of the 64-byte line: the head
        // spans at most two lines and the slot read at most two more.
        assert!(log.lines() <= 4 * levels + 1, "{} lines, {levels} levels", log.lines());
        assert_eq!(d.read_ops as usize, 2 * levels + 1, "nothing else reads the device");
        assert!(d.bytes_read as usize <= 16 + 80 * levels);
    }
    assert_eq!(map.get(&rec, 2).unwrap(), None);
    let log = rec.take();
    log.assert_visit_once("miss");
    assert!(log.lines() <= 4 * log.nodes().count() + 1);
}

#[test]
fn btree_writes_read_each_node_once_and_little() {
    let (dev, store) = store();
    let (map, keys) = loaded::<BTree>(&store, 8);
    let rec = Recording::new(&store);

    // In-place update: head + pointer per level, then the found node's
    // rest and its open. (HEAD read 3 894 B: every node whole, twice.)
    let upd = per_op(&dev, &keys, 200, |k| {
        assert_eq!(map.insert(&rec, k, 1).unwrap(), Some(k ^ 0xABCD));
        rec.take().assert_visit_once("update");
    });
    let bytes = mean(&upd, |d| d.bytes_read);
    assert!(bytes <= 1400.0, "in-place update read {bytes:.0} B on average (HEAD: 3 894)");

    // Insert of a new key (even keys are free), splits included.
    let ins = per_op(&dev, &keys, 200, |k| {
        assert_eq!(map.insert(&rec, k - 1, 2).unwrap(), None);
        rec.take().assert_visit_once("insert");
    });
    let bytes = mean(&ins, |d| d.bytes_read);
    assert!(bytes <= 1600.0, "insert read {bytes:.0} B on average (HEAD: 4 134)");

    // Remove, borrows and merges included.
    let rem = per_op(&dev, &keys, 200, |k| {
        assert_eq!(map.remove(&rec, k).unwrap(), Some(1));
        rec.take().assert_visit_once("remove");
    });
    let bytes = mean(&rem, |d| d.bytes_read);
    assert!(bytes <= 2000.0, "remove read {bytes:.0} B on average (HEAD: 4 610)");

    btree::check_invariants(&map, &store).unwrap();
    assert!(store.pool().verify_parity().unwrap());
}

#[test]
fn ctree_insert_walks_the_path_once() {
    let (dev, store) = store();
    let (map, keys) = loaded::<CTree>(&store, 9);
    let rec = Recording::new(&store);
    let (mut device_reads, mut allowed) = (0, 0);
    for &k in keys.iter().step_by(97) {
        // A miss walks to the closest leaf: the root entry, then a diff
        // and an entry per interior node.
        assert_eq!(map.get(&rec, k - 1).unwrap(), None);
        let walk: usize = rec.take().reads.values().map(Vec::len).sum();
        let s0 = dev.stats();
        assert_eq!(map.insert(&rec, k - 1, 3).unwrap(), None);
        let logical: usize = rec.take().reads.values().map(Vec::len).sum();
        assert_eq!(logical, walk + 1, "the same walk, once, plus the count");
        // On the device the insert adds a header check and a load for each
        // of the two objects it opens (the displaced entry's node, the
        // anchor) and two allocator reads — a third when a run fills up.
        // HEAD's second walk from the root added up to `walk` more.
        device_reads += dev.stats().delta_since(&s0).read_ops as usize;
        allowed += walk + 7;
    }
    assert!(device_reads <= allowed + 4, "{device_reads} device reads, {allowed} expected");
    ctree::check_invariants(&map, &store).unwrap();
}

/// Prints a per-tree table (mean device traffic per operation on a 10 000-key map, modelled time priced by
/// `StatsSnapshot::modelled_ns` under the `optane` model, as `bench_all`'s `device_us_per_op` is):
/// `cargo test --release -p pgl-kv --test traversal_reads -- --ignored --nocapture`
#[test]
#[ignore = "a probe that prints a table, not a check"]
fn probe_per_tree_device_traffic() {
    fn probe<M: PersistentMap>(seed: u64) {
        let (dev, store) = store_of(512 << 20); // the rtree's 4 KiB nodes need the room
        let (map, keys) = loaded::<M>(&store, seed);
        let row = |op: &str, d: Vec<StatsSnapshot>| {
            let device_ns = mean(&d, |d| d.modelled_ns(&pgl_nvm::LatencyModel::optane()));
            println!(
                "| {} | {op} | {:.0} | {:.1} | {:.2} | {:.2} |",
                M::NAME,
                mean(&d, |d| d.bytes_read),
                mean(&d, |d| d.read_ops),
                mean(&d, |d| d.lines_flushed),
                device_ns / 1e3
            );
        };
        row(
            "update",
            per_op(&dev, &keys, 500, |k| assert!(map.insert(&store, k, 1).unwrap().is_some())),
        );
        row(
            "insert",
            per_op(&dev, &keys, 500, |k| assert!(map.insert(&store, k - 1, 2).unwrap().is_none())),
        );
        row(
            "remove",
            per_op(&dev, &keys, 500, |k| assert!(map.remove(&store, k).unwrap().is_some())),
        );
    }
    println!("| tree | op | read B | read ops | flushed lines | device us |");
    probe::<BTree>(8);
    probe::<CTree>(9);
    probe::<pgl_kv::RTree>(10);
}
