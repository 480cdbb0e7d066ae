//! `kv_write` and `kv_read`: the persistent maps of `pgl-kv`, one
//! transaction per mutation, generic over the store under them.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use pangolin::{CsumPolicy, PglPool};
use pgl_kv::store::{PglStore, PmemStore, Store};
use pgl_kv::{btree, ctree, rtree, BTree, CTree, PersistentMap, RTree};
use pgl_nvm::{LatencyModel, NvmDevice};

use super::{pool_is_sound, timed, Bench, Params, PassOut, Workload, BLOCK};
use crate::device::{create_pgl, create_pmem, pgl_config, Mode};
use crate::gen::{mix64, Mix, Rng, Zipf};
use crate::metrics::Values;
use crate::trace::{enabled, span, Name, TracedStore, MAP_OP};

/// Tree indices, also the order of the `kv.<tree>.*` span names.
const BTREE: usize = 0;
const CTREE: usize = 1;
const RTREE: usize = 2;

const PUT: Name = 0;
const GET: Name = 1;
const DEL: Name = 2;

struct Spec {
    /// Trees the ops rotate over, and the keys preloaded into each.
    trees: &'static [(usize, usize)],
    ops_per_pass: usize,
    policy: CsumPolicy,
    /// Entries of the DRAM verification cache.
    vcache_entries: usize,
}

/// Uniform random 64-bit keys; 40% update, 30% insert, 30% remove keeps
/// each population stationary. An rtree key is a 4 KiB leaf node of its
/// own, which is what bounds that tree's population in a 256 MiB pool.
const WRITE: Spec = Spec {
    trees: &[(BTREE, 10_000), (CTREE, 10_000), (RTREE, 2_000)],
    ops_per_pass: 24_000,
    policy: CsumPolicy::Default,
    vcache_entries: 64 << 10,
};
const WRITE_MIX: Mix<3> = Mix::new([40, 30, 30]);

/// Zipf θ = 0.99 over 12 000 keys per tree. The trees hold about 15 000
/// objects and the verification cache is sized to 4 096 entries, so the
/// hot set hits and the tail misses: the larger-than-cache workload.
const READ: Spec = Spec {
    trees: &[(CTREE, 12_000), (BTREE, 12_000)],
    ops_per_pass: 100_000,
    policy: CsumPolicy::Conservative,
    vcache_entries: 4 << 10,
};
const READ_MIX: Mix<2> = Mix::new([95, 5]);

#[derive(Debug, Clone, Copy)]
struct Op {
    tree: u8,
    kind: Name,
    key: u64,
    /// The value a put stores.
    value: u64,
    /// What the map must return: a get's value, a put's or remove's old
    /// value.
    expect: Option<u64>,
}

/// Present keys of one tree, with O(1) uniform choice.
#[derive(Default)]
struct KeySet {
    keys: Vec<u64>,
    at: HashMap<u64, (usize, u64)>,
}

impl KeySet {
    fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        match self.at.get_mut(&key) {
            Some(slot) => Some(std::mem::replace(&mut slot.1, value)),
            None => {
                self.at.insert(key, (self.keys.len(), value));
                self.keys.push(key);
                None
            }
        }
    }

    fn remove(&mut self, key: u64) -> Option<u64> {
        let (idx, value) = self.at.remove(&key)?;
        self.keys.swap_remove(idx);
        if let Some(&moved) = self.keys.get(idx) {
            self.at.get_mut(&moved).expect("moved key is present").0 = idx;
        }
        Some(value)
    }

    fn pick(&self, rng: &mut Rng) -> u64 {
        self.keys[rng.below(self.keys.len() as u64) as usize]
    }
}

struct Stream {
    trees: Vec<usize>,
    model: [KeySet; 3],
    zipf: Option<Zipf>,
    rng: Rng,
    turn: usize,
}

impl Stream {
    fn new(spec: &Spec, read: bool, seed: u64) -> Stream {
        // The preloaded keys do not depend on the seed — only the op stream
        // does — so that every seed starts from trees of the same shape.
        // (Where the hottest zipf ranks happen to sit in a tree moves a
        // run's device time by several percent.)
        let mut model: [KeySet; 3] = Default::default();
        for &(tree, n) in spec.trees {
            for i in 0..n as u64 {
                let key = mix64(((tree as u64) << 56) ^ i);
                model[tree].insert(key, mix64(key));
            }
        }
        Stream {
            trees: spec.trees.iter().map(|t| t.0).collect(),
            model,
            zipf: read.then(|| Zipf::new(spec.trees[0].1, 0.99)),
            rng: Rng::new(seed, 21),
            turn: 0,
        }
    }

    fn next(&mut self) -> Op {
        let tree = self.trees[self.turn % self.trees.len()];
        self.turn += 1;
        let set = &mut self.model[tree];
        let rng = &mut self.rng;
        let (kind, key) = if let Some(zipf) = &self.zipf {
            // Preload order is rank order, and no key is ever removed.
            let key = set.keys[zipf.sample(rng)];
            (if READ_MIX.pick(rng) == 0 { GET } else { PUT }, key)
        } else {
            match WRITE_MIX.pick(rng) {
                0 => (PUT, set.pick(rng)),
                1 => loop {
                    let fresh = rng.next_u64();
                    if !set.at.contains_key(&fresh) {
                        break (PUT, fresh);
                    }
                },
                _ => (DEL, set.pick(rng)),
            }
        };
        let value = rng.next_u64();
        let expect = match kind {
            PUT => set.insert(key, value),
            GET => set.at.get(&key).map(|s| s.1),
            _ => set.remove(key),
        };
        Op { tree: tree as u8, kind, key, value, expect }
    }
}

struct Maps {
    btree: BTree,
    ctree: CTree,
    rtree: RTree,
}

impl Maps {
    /// Creates the maps and inserts the model's keys, one transaction each.
    fn populate<S: Store>(store: &S, spec: &Spec, stream: &Stream) -> Maps {
        let maps = Maps {
            btree: BTree::create(store).expect("btree"),
            ctree: CTree::create(store).expect("ctree"),
            rtree: RTree::create(store).expect("rtree"),
        };
        for &(tree, _) in spec.trees {
            for &key in &stream.model[tree].keys {
                let op = Op { tree: tree as u8, kind: PUT, key, value: mix64(key), expect: None };
                assert_eq!(maps.run(store, &op), Some(None), "preload");
            }
        }
        maps
    }

    fn run<S: Store>(&self, store: &S, op: &Op) -> Option<Option<u64>> {
        fn on<M: PersistentMap, S: Store>(map: &M, store: &S, op: &Op) -> Option<Option<u64>> {
            match op.kind {
                PUT => map.insert(store, op.key, op.value),
                GET => map.get(store, op.key),
                _ => map.remove(store, op.key),
            }
            .ok()
        }
        let _s = span(MAP_OP + 3 * op.tree + op.kind);
        match op.tree as usize {
            BTREE => on(&self.btree, store, op),
            CTREE => on(&self.ctree, store, op),
            _ => on(&self.rtree, store, op),
        }
    }

    /// Every key of the model is in the map with its value, and the map
    /// holds nothing else (its walked size equals the model's).
    fn sweep<S: Store>(&self, store: &S, model: &[KeySet; 3]) -> u64 {
        let mut bad = 0u64;
        for (tree, set) in model.iter().enumerate() {
            for &key in &set.keys {
                let op = Op { tree: tree as u8, kind: GET, key, value: 0, expect: None };
                if self.run(store, &op) != Some(set.at.get(&key).map(|s| s.1)) {
                    bad += 1;
                }
            }
            let walked = match tree {
                BTREE => btree::check_invariants(&self.btree, store),
                CTREE => ctree::check_invariants(&self.ctree, store),
                _ => rtree::check_invariants(&self.rtree, store),
            };
            if walked.as_ref().ok() != Some(&(set.keys.len() as u64)) {
                eprintln!("sweep: tree {tree} walks to {walked:?}, model has {}", set.keys.len());
                bad += 1;
            }
        }
        bad
    }
}

enum Backend {
    Pgl(TracedStore<PglStore>),
    Pmem(TracedStore<PmemStore>),
}

/// Transaction shape of the traced puts, from `TxStats`.
#[derive(Default)]
struct PutShape {
    puts: u64,
    objects: u64,
    modified_bytes: u64,
}

pub struct KvBench {
    ops_per_pass: usize,
    dev: Arc<NvmDevice>,
    store: Backend,
    maps: Maps,
    stream: Stream,
    shape: PutShape,
    corrupt: bool,
}

impl KvBench {
    fn run_pass<S: Store>(
        store: &S,
        maps: &Maps,
        ops: &[Op],
        shape: &mut PutShape,
        samples: &mut Vec<u32>,
    ) -> (Instant, Instant, u64) {
        let traced = enabled();
        timed(ops, BLOCK, samples, |op| {
            let ok = maps.run(store, op) == Some(op.expect);
            if traced && op.kind == PUT {
                let st = store.last_tx_stats();
                shape.puts += 1;
                shape.objects += st.alloc_objects + st.modified_objects + st.freed_objects;
                shape.modified_bytes += st.modified_bytes;
            }
            ok
        })
    }
}

impl Bench for KvBench {
    fn has_ladder(w: Workload) -> bool {
        w == Workload::KvWrite
    }

    fn setup(w: Workload, p: &Params, latency: LatencyModel, mode: Mode) -> KvBench {
        let read = w == Workload::KvRead;
        let spec = if read { &READ } else { &WRITE };
        let stream = Stream::new(spec, read, p.seed);
        let (dev, store, maps) = match mode {
            Mode::Pgl(m) => {
                let mut cfg = pgl_config(m, spec.policy);
                cfg.vcache_capacity = spec.vcache_entries;
                let (dev, pool) = create_pgl(latency, cfg);
                let store = TracedStore(PglStore::new(pool));
                let maps = Maps::populate(&store, spec, &stream);
                (dev, Backend::Pgl(store), maps)
            }
            Mode::Pmemobj | Mode::PmemobjR => {
                let (dev, pool) = create_pmem(latency, mode == Mode::PmemobjR);
                let store = TracedStore(PmemStore::new(pool));
                let maps = Maps::populate(&store, spec, &stream);
                (dev, Backend::Pmem(store), maps)
            }
        };
        KvBench {
            ops_per_pass: p.scaled(spec.ops_per_pass),
            dev,
            store,
            maps,
            stream,
            shape: PutShape::default(),
            corrupt: p.corrupt,
        }
    }

    fn pass(&mut self, _threads: usize, samples: &mut Vec<u32>) -> PassOut {
        let gen_start = Instant::now();
        let mut ops: Vec<Op> = (0..self.ops_per_pass).map(|_| self.stream.next()).collect();
        if std::mem::take(&mut self.corrupt) {
            let i = ops.iter().position(|op| op.kind != DEL).expect("a get or put");
            ops[i].expect = Some(ops[i].expect.map_or(1, |v| v ^ 1));
        }
        let gen = gen_start.elapsed();
        let (start, end, failed) = match &self.store {
            Backend::Pgl(s) => KvBench::run_pass(s, &self.maps, &ops, &mut self.shape, samples),
            Backend::Pmem(s) => KvBench::run_pass(s, &self.maps, &ops, &mut self.shape, samples),
        };
        PassOut {
            ops: ops.len() as u64,
            failed,
            // A put stores a key and a value.
            user_bytes: 16 * ops.iter().filter(|op| op.kind == PUT).count() as u64,
            wall: end - start,
            gen,
        }
    }

    fn dev(&self) -> &Arc<NvmDevice> {
        &self.dev
    }

    fn pool(&self) -> Option<PglPool> {
        match &self.store {
            Backend::Pgl(s) => Some(s.0.pool().clone()),
            Backend::Pmem(_) => None,
        }
    }

    fn extras(&mut self, values: &mut Values) -> u64 {
        let puts = self.shape.puts.max(1) as f64;
        values.set("kv.objs_per_put", self.shape.objects as f64 / puts);
        values.set("kv.mod_bytes_per_put", self.shape.modified_bytes as f64 / puts);
        0
    }

    fn finish(self) -> u64 {
        let mut bad = match &self.store {
            Backend::Pgl(s) => self.maps.sweep(s, &self.stream.model),
            Backend::Pmem(s) => self.maps.sweep(s, &self.stream.model),
        };
        if bad > 0 {
            eprintln!("sweep: {bad} key(s) or tree(s) differ from the model");
        }
        if let Backend::Pgl(s) = &self.store {
            bad += pool_is_sound(s.0.pool());
        }
        bad
    }
}

#[cfg(test)]
pub fn stream_hash(w: Workload, seed: u64, n: usize) -> u64 {
    let read = w == Workload::KvRead;
    let mut s = Stream::new(if read { &READ } else { &WRITE }, read, seed);
    let mut h = crate::gen::Fnv::default();
    for _ in 0..n {
        let op = s.next();
        h.eat(&[
            op.tree.into(),
            op.kind.into(),
            op.key,
            op.value,
            op.expect.map_or(u64::MAX, |v| v),
        ]);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_stream_keeps_populations_stationary_and_expectations_exact() {
        let mut s = Stream::new(&WRITE, false, 5);
        let mut shadow: [HashMap<u64, u64>; 3] = Default::default();
        for (t, set) in s.model.iter().enumerate() {
            shadow[t] = set.keys.iter().map(|k| (*k, set.at[k].1)).collect();
        }
        for _ in 0..30_000 {
            let op = s.next();
            let m = &mut shadow[op.tree as usize];
            let got = match op.kind {
                PUT => m.insert(op.key, op.value),
                GET => m.get(&op.key).copied(),
                _ => m.remove(&op.key),
            };
            assert_eq!(got, op.expect);
        }
        for &(tree, n) in WRITE.trees {
            let len = s.model[tree].keys.len();
            assert!(len.abs_diff(n) < n / 4, "tree {tree} drifted to {len}");
            assert_eq!(len, shadow[tree].len());
        }
    }

    #[test]
    fn read_stream_is_skewed_and_mostly_gets() {
        let mut s = Stream::new(&READ, true, 5);
        let hot = s.model[CTREE].keys[0];
        let (mut gets, mut hot_hits) = (0, 0);
        for _ in 0..20_000 {
            let op = s.next();
            assert!(op.expect.is_some(), "kv_read never misses");
            gets += u32::from(op.kind == GET);
            hot_hits += u32::from(op.key == hot);
        }
        assert!((18_700..19_300).contains(&gets), "{gets}");
        assert!(hot_hits > 500, "rank 0 of ctree drew only {hot_hits} of 10 000");
    }
}
