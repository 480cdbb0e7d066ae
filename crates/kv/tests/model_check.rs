//! Model checking: every data structure, on both backends, against
//! `std::collections::BTreeMap`, under deterministic and property-based
//! operation sequences, with structural invariants verified throughout.

use std::collections::BTreeMap;
use std::sync::Arc;

use pangolin::{PglConfig, PglPool};
use pgl_kv::maps::PersistentMap;
use pgl_kv::store::{PglStore, PmemStore, Store};
use pgl_kv::{btree, ctree, hashmap, rbtree, rtree, skiplist};
use pgl_kv::{BTree, CTree, HashMap, RTree, RbTree, SkipList};
use pgl_nvm::{DeviceConfig, NvmDevice};
use pgl_pmemobj::{PmemPool, PoolConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pmem_store() -> PmemStore {
    let mut cfg = PoolConfig::small();
    cfg.size = 32 << 20;
    cfg.zone_size = 16 << 20;
    let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
    PmemStore::new(Arc::new(PmemPool::create(dev, cfg).unwrap()))
}

fn pgl_store() -> PglStore {
    let mut cfg = PglConfig::small();
    cfg.pool.size = 32 << 20;
    cfg.pool.zone_size = 16 << 20;
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    PglStore::new(PglPool::create(dev, cfg).unwrap())
}

/// One operation in a scripted run.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

fn run_ops<M: PersistentMap, S: Store>(
    store: &S,
    ops: &[Op],
    check: impl Fn(&M, &S) -> pgl_kv::KvResult<u64>,
    check_every: usize,
) {
    let map = M::create(store).unwrap();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k, v) => {
                let got = map.insert(store, k, v).unwrap();
                let want = model.insert(k, v);
                assert_eq!(got, want, "{} insert({k}) at step {i}", M::NAME);
            }
            Op::Remove(k) => {
                let got = map.remove(store, k).unwrap();
                let want = model.remove(&k);
                assert_eq!(got, want, "{} remove({k}) at step {i}", M::NAME);
            }
            Op::Get(k) => {
                let got = map.get(store, k).unwrap();
                let want = model.get(&k).copied();
                assert_eq!(got, want, "{} get({k}) at step {i}", M::NAME);
            }
        }
        if i % check_every == 0 {
            let n = check(&map, store).unwrap();
            assert_eq!(n, model.len() as u64, "{} invariant count at step {i}", M::NAME);
        }
    }
    // Final full validation: every model key readable, count exact.
    for (&k, &v) in &model {
        assert_eq!(map.get(store, k).unwrap(), Some(v), "{} final get({k})", M::NAME);
    }
    assert_eq!(map.len(store).unwrap(), model.len() as u64);
    let n = check(&map, store).unwrap();
    assert_eq!(n, model.len() as u64);
}

/// A deterministic torture script: clustered keys (prefix-sharing for the
/// radix/crit-bit trees), duplicates, removals of absent keys, re-inserts.
fn torture_script(n: usize, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(n);
    let mut known: Vec<u64> = Vec::new();
    for _ in 0..n {
        let k = match rng.gen_range(0..4u8) {
            // Clustered small keys: shared radix prefixes, adjacent bits.
            0 => rng.gen_range(0..64u64),
            // Clustered high keys.
            1 => 0xFFFF_FF00_0000_0000 | rng.gen_range(0..256u64),
            // Re-use a known key.
            2 if !known.is_empty() => known[rng.gen_range(0..known.len())],
            // Uniform random.
            _ => rng.gen(),
        };
        let op = match rng.gen_range(0..10u8) {
            0..=4 => {
                known.push(k);
                Op::Insert(k, rng.gen())
            }
            5..=7 => Op::Remove(k),
            _ => Op::Get(k),
        };
        ops.push(op);
    }
    ops
}

macro_rules! model_tests {
    ($name:ident, $map:ty, $checker:path) => {
        mod $name {
            use super::*;

            #[test]
            fn torture_on_baseline() {
                let store = pmem_store();
                run_ops::<$map, _>(&store, &torture_script(1500, 42), $checker, 97);
            }

            #[test]
            fn torture_on_pangolin() {
                let store = pgl_store();
                run_ops::<$map, _>(&store, &torture_script(1500, 43), $checker, 97);
                assert!(store.pool().verify_parity().unwrap());
                assert!(store.pool().find_corrupt_objects().unwrap().is_empty());
            }

            #[test]
            fn sequential_then_drain() {
                let store = pgl_store();
                let mut ops: Vec<Op> =
                    (0..400).map(|i| Op::Insert(i as u64, i as u64 * 10)).collect();
                ops.extend((0..400).map(|i| Op::Remove(i as u64)));
                run_ops::<$map, _>(&store, &ops, $checker, 53);
                assert!(store.pool().verify_parity().unwrap());
            }

            #[test]
            fn reverse_and_interleaved() {
                let store = pmem_store();
                let mut ops: Vec<Op> =
                    (0..300).rev().map(|i| Op::Insert(i as u64, i as u64)).collect();
                ops.extend((0..300).map(|i| {
                    if i % 2 == 0 {
                        Op::Remove(i as u64)
                    } else {
                        Op::Get(i as u64)
                    }
                }));
                run_ops::<$map, _>(&store, &ops, $checker, 41);
            }
        }
    };
}

model_tests!(ctree_model, CTree, ctree::check_invariants);
model_tests!(rbtree_model, RbTree, rbtree::check_invariants);
model_tests!(btree_model, BTree, btree::check_invariants);
model_tests!(skiplist_model, SkipList, skiplist::check_invariants);
model_tests!(rtree_model, RTree, rtree::check_invariants);
model_tests!(hashmap_model, HashMap, hashmap::check_invariants);

/// Root split, borrow-right, borrow-left and merge-to-empty-root of the
/// B-tree in one scripted run on both backends, invariants checked after
/// every operation. The transaction counters witness that each step took
/// the rebalancing path it is named for (a borrow rewrites the two
/// siblings and their parent and frees nothing; a merge under a one-item
/// root frees the right sibling and the root).
#[test]
fn btree_split_borrow_and_merge_paths_in_one_run() {
    /// Bytes a borrow modifies: three whole 304-byte nodes and the count.
    const BORROW: u64 = 3 * 304 + 8;
    fn run<S: Store>(store: &S) {
        let map = BTree::create(store).unwrap();
        let mut model = BTreeMap::new();
        let check = |map: &BTree, model: &BTreeMap<u64, u64>| {
            assert_eq!(btree::check_invariants(map, store).unwrap(), model.len() as u64);
            for (&k, &v) in model {
                assert_eq!(map.get(store, k).unwrap(), Some(v));
            }
        };
        let insert = |model: &mut BTreeMap<u64, u64>, k: u64| {
            let (old, stats) = map.insert_with_stats(store, k, k + 1).unwrap();
            assert_eq!(old, model.insert(k, k + 1));
            check(&map, model);
            stats
        };
        let remove = |model: &mut BTreeMap<u64, u64>, k: u64| {
            let (old, stats) = map.remove_with_stats(store, k).unwrap();
            assert_eq!(old, model.remove(&k));
            check(&map, model);
            stats
        };
        // Seven keys fill the root leaf; the eighth splits it:
        // [40] over [10 20 30] and [50 60 70 80].
        for k in (10..=70).step_by(10) {
            assert_eq!(insert(&mut model, k).alloc_objects, (k == 10) as u64);
        }
        assert_eq!(insert(&mut model, 80).alloc_objects, 2, "root split: new root + right half");
        // The left leaf is minimal and has no left sibling: borrow right.
        // [50] over [20 30 40] and [60 70 80].
        let s = remove(&mut model, 10);
        assert_eq!((s.modified_bytes, s.freed_objects), (BORROW, 0), "borrow-right: {s:?}");
        // Fatten the left leaf, then delete from the minimal right one:
        // borrow left. [40] over [5 20 30] and [50 70 80].
        insert(&mut model, 5);
        let s = remove(&mut model, 60);
        assert_eq!((s.modified_bytes, s.freed_objects), (BORROW, 0), "borrow-left: {s:?}");
        // Both leaves minimal under a one-item root: merge, root empties.
        let s = remove(&mut model, 5);
        assert_eq!(s.freed_objects, 2, "merge-to-empty-root frees a leaf and the root: {s:?}");
        // An interior item goes through its predecessor / successor.
        for k in [1, 2, 3, 4, 6, 7, 8, 9] {
            insert(&mut model, k);
        }
        for k in model.keys().copied().collect::<Vec<_>>() {
            remove(&mut model, k);
        }
        assert_eq!(map.len(store).unwrap(), 0);
    }
    run(&pmem_store());
    let store = pgl_store();
    run(&store);
    assert!(store.pool().verify_parity().unwrap());
    assert!(store.pool().find_corrupt_objects().unwrap().is_empty());
}

/// A node count scribbled above the node's capacity bounds every index
/// into the node: under `CsumPolicy::Default` (unverified reads) it must
/// surface as a typed error on every path that reads a head, not as an
/// index panic, and only for the keys whose path crosses the node.
#[test]
fn btree_scribbled_item_count_is_a_typed_error_not_a_panic() {
    let corrupt = |e: pgl_kv::KvError| {
        matches!(e, pgl_kv::KvError::Corrupt("btree: item count out of bounds"))
    };
    let store = pgl_store();
    let map = BTree::create(&store).unwrap();
    for k in 0..200u64 {
        map.insert(&store, k, k + 1).unwrap();
    }
    // The first node ever allocated is the leftmost leaf by now.
    let pool = store.pool();
    let (leaf, _) = pool
        .live_objects()
        .unwrap()
        .into_iter()
        .filter(|(_, h)| (h.size, h.type_num) == (304, 121))
        .min_by_key(|(oid, _)| oid.off)
        .unwrap();
    pangolin::inject::scribble_object(pool, leaf, 0, 1, 9).unwrap(); // n = 9 > 7

    let (mut lost, mut served) = (Vec::new(), 0);
    for k in 0..200u64 {
        match map.get(&store, k) {
            Ok(v) => {
                assert_eq!(v, Some(k + 1), "a served key is served right");
                served += 1;
            }
            Err(e) => {
                assert!(corrupt(e), "get({k})");
                lost.push(k);
            }
        }
    }
    assert!(!lost.is_empty() && served >= 190, "one leaf lost, the rest serve: {lost:?}");
    for &k in &lost {
        assert!(corrupt(map.insert(&store, k, 0).unwrap_err()), "insert({k})");
        assert!(corrupt(map.remove(&store, k).unwrap_err()), "remove({k})");
    }
    assert_eq!(map.get(&store, 199).unwrap(), Some(200), "failed writes aborted cleanly");

    // The scribble is ordinary detectable corruption: a scrub repairs it.
    pool.scrub_now().unwrap();
    for k in 0..200u64 {
        assert_eq!(map.get(&store, k).unwrap(), Some(k + 1));
    }
    assert_eq!(btree::check_invariants(&map, &store).unwrap(), 200);
}

#[test]
fn hashmap_rehash_via_overflow_is_correct() {
    // Push the hashmap through several rehashes (64 -> 2048 buckets); the
    // later ones exceed the lane and exercise log overflow end to end.
    let store = pgl_store();
    let map = HashMap::create(&store).unwrap();
    let n = 1500u64;
    for k in 0..n {
        map.insert(&store, k * 7919, k).unwrap();
    }
    assert_eq!(map.len(&store).unwrap(), n);
    for k in 0..n {
        assert_eq!(map.get(&store, k * 7919).unwrap(), Some(k));
    }
    hashmap::check_invariants(&map, &store).unwrap();
    assert!(store.pool().verify_parity().unwrap());
    assert!(store.pool().find_corrupt_objects().unwrap().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_small_key_sequences_match_model(
        seed in any::<u64>(),
        n in 200usize..600,
    ) {
        // Small key space maximizes collisions/structure churn.
        let mut rng = StdRng::seed_from_u64(seed);
        let ops: Vec<Op> = (0..n)
            .map(|_| {
                let k = rng.gen_range(0..48u64);
                match rng.gen_range(0..3u8) {
                    0 => Op::Insert(k, rng.gen()),
                    1 => Op::Remove(k),
                    _ => Op::Get(k),
                }
            })
            .collect();
        let store = pgl_store();
        run_ops::<CTree, _>(&store, &ops, ctree::check_invariants, 29);
        run_ops::<RbTree, _>(&store, &ops, rbtree::check_invariants, 29);
        run_ops::<BTree, _>(&store, &ops, btree::check_invariants, 29);
        run_ops::<SkipList, _>(&store, &ops, skiplist::check_invariants, 29);
        run_ops::<RTree, _>(&store, &ops, rtree::check_invariants, 29);
        run_ops::<HashMap, _>(&store, &ops, hashmap::check_invariants, 29);
        prop_assert!(store.pool().verify_parity().unwrap());
    }
}

/// The typed pool root of the reopen test: where the map anchor is kept.
#[derive(Clone, Copy, Default)]
#[repr(C)]
struct MapDirectory {
    btree_anchor: pgl_pmemobj::PMEMoid,
}
pangolin::impl_ptype!(MapDirectory, 16, 0);

#[test]
fn maps_survive_pool_reopen() {
    let opts = PglPool::options().size(32 << 20).zone_size(16 << 20);
    let dev = Arc::new(NvmDevice::new(opts.config().pool.size, DeviceConfig::fast()).unwrap());
    let store = PglStore::new(opts.create(dev.clone()).unwrap());
    let map = BTree::create(&store).unwrap();
    for k in 0..500u64 {
        map.insert(&store, k, k + 1).unwrap();
    }
    let anchor = map.anchor();
    let root = store.typed_root::<MapDirectory>().unwrap();
    store.txn(&mut |tx| tx.set_obj(root, &MapDirectory { btree_anchor: anchor })).unwrap();
    drop(store);

    let pool = PglPool::options().open(dev).unwrap();
    let store = PglStore::new(pool);
    let root = store.typed_root::<MapDirectory>().unwrap();
    let dir: MapDirectory = store.get_obj_direct(root).unwrap();
    let anchor = pgl_pmemobj::PMEMoid::new(store.uuid(), dir.btree_anchor.off);
    let map = BTree::from_anchor(anchor);
    for k in 0..500u64 {
        assert_eq!(map.get(&store, k).unwrap(), Some(k + 1));
    }
    btree::check_invariants(&map, &store).unwrap();
}
