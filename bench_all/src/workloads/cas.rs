//! `cas_lockfree`: the lock-free queue, stack and hash of `pgl-kv`, whose
//! mutations linearize at one detectable CAS (`ploc`) instead of a
//! transaction commit.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use pangolin::{CsumPolicy, PglMode, PglPool};
use pgl_kv::{LfHash, LfQueue, LfStack};
use pgl_nvm::{LatencyModel, NvmDevice};

use super::{pool_is_sound, run_threads, timed, Bench, Params, PassOut, Workload, BLOCK};
use crate::device::{create_pgl, pgl_config, Mode};
use crate::gen::{Mix, Rng};
use crate::trace::{span, LF_HASH, LF_QUEUE, LF_STACK};

const OPS_PER_PASS: usize = 45_000;
/// Keys each hash table's ops draw from.
const HASH_KEYS: u64 = 10_000;
/// Slots per hash table: a load factor low enough that tombstones never
/// lengthen probes as the run goes on.
const HASH_SLOTS: u64 = 32_768;
const PRELOAD_ITEMS: usize = 2_000;
const PRELOAD_KEYS: u64 = 5_000;

/// insert : get : remove = 2 : 1 : 1.
const HASH_MIX: Mix<3> = Mix::new([50, 25, 25]);

#[derive(Debug, Clone, Copy)]
enum Op {
    Enqueue(u64),
    Dequeue { expect: Option<u64> },
    Push(u64),
    Pop { expect: Option<u64> },
    Insert { key: u64, value: u64, expect: Option<u64> },
    Get { key: u64, expect: Option<u64> },
    Remove { key: u64, expect: Option<u64> },
}

impl Op {
    fn user_bytes(&self) -> u64 {
        match self {
            Op::Enqueue(_) | Op::Push(_) => 8,
            Op::Insert { .. } => 16,
            _ => 0,
        }
    }

    #[cfg(test)]
    fn words(&self) -> [u64; 4] {
        let e = |x: &Option<u64>| x.map_or(u64::MAX, |v| v);
        match self {
            Op::Enqueue(v) => [0, *v, 0, 0],
            Op::Dequeue { expect } => [1, e(expect), 0, 0],
            Op::Push(v) => [2, *v, 0, 0],
            Op::Pop { expect } => [3, e(expect), 0, 0],
            Op::Insert { key, value, expect } => [4, *key, *value, e(expect)],
            Op::Get { key, expect } => [5, *key, e(expect), 0],
            Op::Remove { key, expect } => [6, *key, e(expect), 0],
        }
    }
}

/// The model of one generator thread's three structures.
struct Model {
    queue: VecDeque<u64>,
    stack: Vec<u64>,
    hash: HashMap<u64, u64>,
    rng: Rng,
    turn: usize,
}

impl Model {
    fn new(seed: u64, thread: usize) -> Model {
        let mut rng = Rng::new(seed, 30 + thread as u64);
        Model {
            queue: (0..PRELOAD_ITEMS).map(|_| rng.next_u64()).collect(),
            stack: (0..PRELOAD_ITEMS).map(|_| rng.next_u64()).collect(),
            hash: (0..PRELOAD_KEYS).map(|k| (k, rng.next_u64())).collect(),
            rng,
            turn: 0,
        }
    }

    /// Rotates over queue (50/50 enqueue/dequeue), stack (50/50 push/pop)
    /// and hash.
    fn next(&mut self) -> Op {
        self.turn += 1;
        let rng = &mut self.rng;
        match self.turn % 3 {
            0 if rng.below(2) == 0 => {
                let v = rng.next_u64();
                self.queue.push_back(v);
                Op::Enqueue(v)
            }
            0 => Op::Dequeue { expect: self.queue.pop_front() },
            1 if rng.below(2) == 0 => {
                let v = rng.next_u64();
                self.stack.push(v);
                Op::Push(v)
            }
            1 => Op::Pop { expect: self.stack.pop() },
            _ => {
                let key = rng.below(HASH_KEYS);
                match HASH_MIX.pick(rng) {
                    0 => {
                        let value = rng.next_u64();
                        Op::Insert { key, value, expect: self.hash.insert(key, value) }
                    }
                    1 => Op::Get { key, expect: self.hash.get(&key).copied() },
                    _ => Op::Remove { key, expect: self.hash.remove(&key) },
                }
            }
        }
    }
}

/// One generator thread's structures; threads never share one, which keeps
/// the model exact.
struct Trio {
    queue: LfQueue,
    stack: LfStack,
    hash: LfHash,
}

impl Trio {
    fn preload(pool: &PglPool, model: &Model, thread: usize) -> Trio {
        let trio = Trio {
            queue: LfQueue::create(pool).expect("queue"),
            stack: LfStack::create(pool).expect("stack"),
            hash: LfHash::create(pool, HASH_SLOTS).expect("hash"),
        };
        let mut tag = tag_base(thread) | (1 << 40);
        let mut next_tag = || {
            tag += 1;
            tag
        };
        for &v in &model.queue {
            trio.queue.enqueue(pool, v, next_tag()).expect("preload");
        }
        for &v in &model.stack {
            trio.stack.push(pool, v, next_tag()).expect("preload");
        }
        // `model.hash` iterates in a per-process order; insert by key.
        for key in 0..PRELOAD_KEYS {
            trio.hash.insert(pool, key, model.hash[&key], next_tag()).expect("preload");
        }
        trio
    }

    /// Runs `op` (its linearizing CAS named `tag`) and compares the answer.
    fn run(&self, pool: &PglPool, op: &Op, tag: u64) -> bool {
        match *op {
            Op::Enqueue(v) => {
                let _s = span(LF_QUEUE);
                self.queue.enqueue(pool, v, tag).is_ok()
            }
            Op::Dequeue { expect } => {
                let _s = span(LF_QUEUE);
                self.queue.try_dequeue(pool, tag).ok() == Some(expect)
            }
            Op::Push(v) => {
                let _s = span(LF_STACK);
                self.stack.push(pool, v, tag).is_ok()
            }
            Op::Pop { expect } => {
                let _s = span(LF_STACK);
                self.stack.try_pop(pool, tag).ok() == Some(expect)
            }
            Op::Insert { key, value, expect } => {
                let _s = span(LF_HASH);
                self.hash.insert(pool, key, value, tag).ok() == Some(expect)
            }
            Op::Get { key, expect } => {
                let _s = span(LF_HASH);
                self.hash.get(pool, key).ok() == Some(expect)
            }
            Op::Remove { key, expect } => {
                let _s = span(LF_HASH);
                self.hash.remove(pool, key, tag).ok() == Some(expect)
            }
        }
    }

    fn sweep(&self, pool: &PglPool, model: &Model) -> u64 {
        let queue: Vec<u64> = model.queue.iter().copied().collect();
        // `items` lists the stack top first.
        let stack: Vec<u64> = model.stack.iter().rev().copied().collect();
        let mut hash: Vec<(u64, u64)> = model.hash.iter().map(|(k, v)| (*k, *v)).collect();
        hash.sort_unstable();
        u64::from(self.queue.items(pool).ok() != Some(queue))
            + u64::from(self.stack.items(pool).ok() != Some(stack))
            + u64::from(self.hash.items(pool).ok() != Some(hash))
    }
}

/// Tags are unique per thread and never 0 (the structures' internal tag).
fn tag_base(thread: usize) -> u64 {
    (thread as u64 + 1) << 48
}

pub struct CasBench {
    ops_per_pass: usize,
    dev: Arc<NvmDevice>,
    pool: PglPool,
    trios: [Trio; 2],
    models: [Model; 2],
    tags: [u64; 2],
    corrupt: bool,
}

impl Bench for CasBench {
    const TWO_THREADS: bool = true;

    fn setup(_w: Workload, p: &Params, latency: LatencyModel, mode: Mode) -> CasBench {
        assert_eq!(mode, Mode::MLPC, "detectable CAS exists on Pangolin pools only");
        let (dev, pool) = create_pgl(latency, pgl_config(PglMode::Mlpc, CsumPolicy::Default));
        let models = [Model::new(p.seed, 0), Model::new(p.seed, 1)];
        let trios = [Trio::preload(&pool, &models[0], 0), Trio::preload(&pool, &models[1], 1)];
        CasBench {
            ops_per_pass: p.scaled(OPS_PER_PASS),
            dev,
            pool,
            trios,
            models,
            tags: [tag_base(0), tag_base(1)],
            corrupt: p.corrupt,
        }
    }

    fn pass(&mut self, threads: usize, samples: &mut Vec<u32>) -> PassOut {
        let gen_start = Instant::now();
        let per_thread = self.ops_per_pass / threads;
        let mut streams: Vec<Vec<Op>> = (0..threads)
            .map(|t| (0..per_thread).map(|_| self.models[t].next()).collect())
            .collect();
        if std::mem::take(&mut self.corrupt) {
            let op = streams[0].iter_mut().find_map(|op| match op {
                Op::Dequeue { expect } | Op::Pop { expect } | Op::Get { expect, .. } => {
                    Some(expect)
                }
                _ => None,
            });
            let expect = op.expect("a pass has reads");
            *expect = Some(expect.map_or(1, |v| v ^ 1));
        }
        let gen = gen_start.elapsed();
        let (pool, trios, tags) = (&self.pool, &self.trios, self.tags);
        let (wall, failed) = run_threads(threads, samples, |t, samples| {
            let mut tag = tags[t];
            timed(&streams[t], BLOCK, samples, |op| {
                tag += 1;
                trios[t].run(pool, op, tag)
            })
        });
        for tag in &mut self.tags[..threads] {
            *tag += per_thread as u64;
        }
        PassOut {
            ops: (per_thread * threads) as u64,
            failed,
            user_bytes: streams.iter().flatten().map(Op::user_bytes).sum(),
            wall,
            gen,
        }
    }

    fn dev(&self) -> &Arc<NvmDevice> {
        &self.dev
    }

    fn pool(&self) -> Option<PglPool> {
        Some(self.pool.clone())
    }

    fn finish(self) -> u64 {
        let mut bad = 0;
        for (trio, model) in self.trios.iter().zip(&self.models) {
            bad += trio.sweep(&self.pool, model);
        }
        if bad > 0 {
            eprintln!("sweep: {bad} lock-free structure(s) differ from the model");
        }
        bad + pool_is_sound(&self.pool)
    }
}

#[cfg(test)]
pub fn stream_hash(seed: u64, n: usize) -> u64 {
    let mut models = [Model::new(seed, 0), Model::new(seed, 1)];
    let mut h = crate::gen::Fnv::default();
    for i in 0..n {
        h.eat(&models[i % 2].next().words());
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_rotates_over_the_three_structures() {
        let mut m = Model::new(4, 0);
        let mut per = [0u32; 3];
        for _ in 0..9_000 {
            per[match m.next() {
                Op::Enqueue(_) | Op::Dequeue { .. } => 0,
                Op::Push(_) | Op::Pop { .. } => 1,
                _ => 2,
            }] += 1;
        }
        assert_eq!(per, [3_000; 3]);
        assert!(m.queue.len().abs_diff(PRELOAD_ITEMS) < 400, "queue drifted: {}", m.queue.len());
        assert_ne!(tag_base(0), 0);
        assert_ne!(tag_base(0), tag_base(1));
    }
}
