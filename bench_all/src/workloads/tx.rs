//! `tx_small` and `tx_large`: one transaction per op on raw objects,
//! through `PglPool::tx` directly (or `PmemPool::tx` on the ladder's
//! baseline rungs).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pangolin::{CsumPolicy, PglPool};
use pgl_nvm::{LatencyModel, NvmDevice};
use pgl_pmemobj::{PMEMoid, PmemPool};

use super::{pool_is_sound, run_threads, timed, Bench, Params, PassOut, Workload, BLOCK};
use crate::device::{create_pgl, create_pmem, pgl_config, Mode};
use crate::gen::{Arena, Mix, Rng};
use crate::trace::{span, POOL_TX, TX_ALLOC, TX_FREE, TX_WRITE};

const TYPE_OBJ: u32 = 1;
const SCRATCH_BYTES: usize = 64;
const ARENA_BYTES: usize = 2 << 20;

struct Spec {
    /// `(object count, object size)` per size class.
    classes: &'static [(usize, usize)],
    ops_per_pass: usize,
}

/// 16 384 objects, half 64 B and half 256 B: fits the 65 536-entry
/// verification cache four times over.
const SMALL: Spec = Spec { classes: &[(8192, 64), (8192, 256)], ops_per_pass: 80_000 };

/// 32 MiB in 4 KiB, 16 KiB and 256 KiB objects; the last class is above
/// `SPARSE_THRESHOLD` (64 KiB), so writes into it take the sparse-shadow
/// path.
const LARGE: Spec =
    Spec { classes: &[(2048, 4 << 10), (512, 16 << 10), (64, 256 << 10)], ops_per_pass: 6_000 };

const SMALL_MIX: Mix<3> = Mix::new([70, 15, 15]);
const LARGE_MIX: Mix<3> = Mix::new([50, 20, 30]);

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Store `len` arena bytes from `src` at `off` of object `obj`.
    Write { obj: u32, off: u32, len: u32, src: u32 },
    /// Allocate a 64 B object filled from `src` and free the one the
    /// previous `Swap` of this thread allocated: real allocator work with
    /// a stationary heap.
    Swap { src: u32 },
}

enum Pool {
    Pgl(PglPool),
    Pmem(Arc<PmemPool>),
}

/// The seeded op stream and the shadow model it evolves.
struct Stream {
    large: bool,
    /// Per object: offset into `model` and size.
    objs: Vec<(usize, usize)>,
    /// First object index of each size class, plus the total.
    class_start: Vec<usize>,
    model: Vec<u8>,
    arena: Arena,
    /// Generator per thread partition: `[0]` drives single-thread passes
    /// over all objects, `[1..=2]` drive the two-thread passes over the
    /// even and odd objects.
    rngs: [Rng; 3],
    /// Arena offset of each thread's live scratch object, if any.
    scratch_src: [Option<u32>; 2],
}

impl Stream {
    fn new(spec: &Spec, large: bool, seed: u64) -> Stream {
        let mut objs = Vec::new();
        let mut class_start = vec![0];
        let mut total = 0usize;
        for &(count, size) in spec.classes {
            for _ in 0..count {
                objs.push((total, size));
                total += size;
            }
            class_start.push(objs.len());
        }
        let arena = Arena::new(seed, ARENA_BYTES);
        let mut init = Rng::new(seed, 10);
        let mut model = vec![0u8; total];
        for &(at, size) in &objs {
            let src = arena.pick(&mut init, size);
            model[at..at + size].copy_from_slice(arena.slice(src, size));
        }
        Stream {
            large,
            objs,
            class_start,
            model,
            arena,
            rngs: [Rng::new(seed, 11), Rng::new(seed, 12), Rng::new(seed, 13)],
            scratch_src: [None; 2],
        }
    }

    /// An object of size class `class` in partition `part` of `parts`.
    fn pick_obj(&self, rng: &mut Rng, class: usize, part: usize, parts: usize) -> u32 {
        let (lo, hi) = (self.class_start[class], self.class_start[class + 1]);
        let n = (hi - lo) / parts;
        (lo + rng.below(n as u64) as usize * parts + part) as u32
    }

    /// The next op of generator `g`, applied to the model.
    fn next(&mut self, g: usize) -> Op {
        let (part, parts) = if g == 0 { (0, 1) } else { (g - 1, 2) };
        let mut rng = self.rngs[g].clone();
        let op = if self.large {
            match LARGE_MIX.pick(&mut rng) {
                kind @ (0 | 1) => self.whole(&mut rng, kind, part, parts),
                _ => {
                    let obj = self.pick_obj(&mut rng, 2, part, parts);
                    let size = self.objs[obj as usize].1;
                    let off = rng.below((size - 64 + 1) as u64) as u32;
                    Op::Write { obj, off, len: 64, src: self.arena.pick(&mut rng, 64) }
                }
            }
        } else {
            match SMALL_MIX.pick(&mut rng) {
                0 => {
                    let class = rng.below(2) as usize;
                    self.whole(&mut rng, class, part, parts)
                }
                1 => {
                    let obj = self.pick_obj(&mut rng, 1, part, parts);
                    let off = 8 * rng.below(256 / 8) as u32;
                    Op::Write { obj, off, len: 8, src: self.arena.pick(&mut rng, 8) }
                }
                _ => Op::Swap { src: self.arena.pick(&mut rng, SCRATCH_BYTES) },
            }
        };
        self.rngs[g] = rng;
        match op {
            Op::Write { obj, off, len, src } => {
                let at = self.objs[obj as usize].0 + off as usize;
                let data = self.arena.slice(src, len as usize);
                self.model[at..at + len as usize].copy_from_slice(data);
            }
            Op::Swap { src } => self.scratch_src[part] = Some(src),
        }
        op
    }

    fn whole(&self, rng: &mut Rng, class: usize, part: usize, parts: usize) -> Op {
        let obj = self.pick_obj(rng, class, part, parts);
        let size = self.objs[obj as usize].1;
        Op::Write { obj, off: 0, len: size as u32, src: self.arena.pick(rng, size) }
    }
}

impl Op {
    fn user_bytes(&self) -> u64 {
        match *self {
            Op::Write { len, .. } => u64::from(len),
            Op::Swap { .. } => SCRATCH_BYTES as u64,
        }
    }

    #[cfg(test)]
    fn words(&self) -> [u64; 4] {
        match *self {
            Op::Write { obj, off, len, src } => [obj.into(), off.into(), len.into(), src.into()],
            Op::Swap { src } => [u64::MAX, 0, 0, src.into()],
        }
    }
}

pub struct TxBench {
    spec: &'static Spec,
    ops_per_pass: usize,
    dev: Arc<NvmDevice>,
    pool: Pool,
    oids: Vec<PMEMoid>,
    stream: Stream,
    /// Offset of each generator thread's live scratch object (0 = none);
    /// a thread touches only its own slot.
    scratch: [AtomicU64; 2],
    corrupt: bool,
}

impl TxBench {
    fn alloc_filled(pool: &Pool, data: &[u8]) -> PMEMoid {
        match pool {
            Pool::Pgl(p) => p
                .tx(|tx| {
                    let oid = tx.alloc(data.len() as u64, TYPE_OBJ)?;
                    tx.write(oid, 0, data)?;
                    Ok(oid)
                })
                .expect("preload"),
            Pool::Pmem(p) => p
                .tx(|tx| {
                    let oid = tx.alloc(data.len() as u64, TYPE_OBJ)?;
                    tx.write(oid, 0, data)?;
                    Ok(oid)
                })
                .expect("preload"),
        }
    }

    fn scratch_oid(&self, t: usize) -> Option<PMEMoid> {
        let off = self.scratch[t].load(Ordering::Relaxed);
        (off != 0).then(|| PMEMoid::new(self.oids[0].pool, off))
    }

    /// One op, one transaction, on generator thread `t`.
    fn exec(&self, op: &Op, t: usize) -> bool {
        match *op {
            Op::Write { obj, off, len, src } => {
                let oid = self.oids[obj as usize];
                let data = self.stream.arena.slice(src, len as usize);
                match &self.pool {
                    Pool::Pgl(p) => {
                        let _tx = span(POOL_TX);
                        p.tx(|tx| {
                            let _w = span(TX_WRITE);
                            tx.write(oid, u64::from(off), data)
                        })
                        .is_ok()
                    }
                    Pool::Pmem(p) => p.tx(|tx| tx.write(oid, u64::from(off), data)).is_ok(),
                }
            }
            Op::Swap { src } => {
                let data = self.stream.arena.slice(src, SCRATCH_BYTES);
                let prev = self.scratch_oid(t);
                let fresh = match &self.pool {
                    Pool::Pgl(p) => {
                        let _tx = span(POOL_TX);
                        p.tx(|tx| {
                            if let Some(prev) = prev {
                                let _f = span(TX_FREE);
                                tx.free(prev)?;
                            }
                            let oid = {
                                let _a = span(TX_ALLOC);
                                tx.alloc(SCRATCH_BYTES as u64, TYPE_OBJ)?
                            };
                            let _w = span(TX_WRITE);
                            tx.write(oid, 0, data)?;
                            Ok(oid)
                        })
                        .ok()
                    }
                    Pool::Pmem(p) => p
                        .tx(|tx| {
                            if let Some(prev) = prev {
                                tx.free(prev)?;
                            }
                            let oid = tx.alloc(SCRATCH_BYTES as u64, TYPE_OBJ)?;
                            tx.write(oid, 0, data)?;
                            Ok(oid)
                        })
                        .ok(),
                };
                if let Some(oid) = fresh {
                    self.scratch[t].store(oid.off, Ordering::Relaxed);
                }
                fresh.is_some()
            }
        }
    }

    fn read_object(&self, oid: PMEMoid, dst: &mut [u8]) -> bool {
        match &self.pool {
            Pool::Pgl(p) => p.read_verified_into(oid, dst).is_ok(),
            Pool::Pmem(p) => p.read(oid, 0, dst).is_ok(),
        }
    }
}

impl Bench for TxBench {
    const TWO_THREADS: bool = true;

    fn has_ladder(_w: Workload) -> bool {
        true
    }

    fn setup(w: Workload, p: &Params, latency: LatencyModel, mode: Mode) -> TxBench {
        let large = w == Workload::TxLarge;
        let spec = if large { &LARGE } else { &SMALL };
        let (dev, pool) = match mode {
            Mode::Pgl(m) => {
                let (dev, pool) = create_pgl(latency, pgl_config(m, CsumPolicy::Default));
                (dev, Pool::Pgl(pool))
            }
            Mode::Pmemobj | Mode::PmemobjR => {
                let (dev, pool) = create_pmem(latency, mode == Mode::PmemobjR);
                (dev, Pool::Pmem(pool))
            }
        };
        let stream = Stream::new(spec, large, p.seed);
        let oids = stream
            .objs
            .iter()
            .map(|&(at, size)| TxBench::alloc_filled(&pool, &stream.model[at..at + size]))
            .collect();
        TxBench {
            spec,
            ops_per_pass: p.scaled(spec.ops_per_pass),
            dev,
            pool,
            oids,
            stream,
            scratch: [AtomicU64::new(0), AtomicU64::new(0)],
            corrupt: p.corrupt,
        }
    }

    fn pass(&mut self, threads: usize, samples: &mut Vec<u32>) -> PassOut {
        let gen_start = Instant::now();
        let per_thread = self.ops_per_pass / threads;
        let streams: Vec<Vec<Op>> = (0..threads)
            .map(|t| {
                let g = if threads == 1 { 0 } else { t + 1 };
                (0..per_thread).map(|_| self.stream.next(g)).collect()
            })
            .collect();
        let gen = gen_start.elapsed();
        // tx_large ops are tens of µs each, well above the 4 µs stall
        // quantum, so they are sampled one by one.
        let block = if self.stream.large { 1 } else { BLOCK };
        let this = &*self;
        let (wall, failed) = run_threads(threads, samples, |t, samples| {
            timed(&streams[t], block, samples, |op| this.exec(op, t))
        });
        let all = streams.iter().flatten();
        PassOut {
            ops: (per_thread * threads) as u64,
            failed,
            user_bytes: all.map(Op::user_bytes).sum(),
            wall,
            gen,
        }
    }

    fn dev(&self) -> &Arc<NvmDevice> {
        &self.dev
    }

    fn pool(&self) -> Option<PglPool> {
        match &self.pool {
            Pool::Pgl(p) => Some(p.clone()),
            Pool::Pmem(_) => None,
        }
    }

    fn finish(mut self) -> u64 {
        if self.corrupt {
            self.stream.model[0] ^= 0xFF;
        }
        let mut bad = 0u64;
        let mut buf = vec![0u8; self.spec.classes.iter().map(|c| c.1).max().unwrap_or(0)];
        for (&oid, &(at, size)) in self.oids.iter().zip(&self.stream.objs) {
            let ok = self.read_object(oid, &mut buf[..size]);
            if !ok || buf[..size] != self.stream.model[at..at + size] {
                bad += 1;
            }
        }
        for (t, src) in self.stream.scratch_src.into_iter().enumerate() {
            if let (Some(oid), Some(src)) = (self.scratch_oid(t), src) {
                let ok = self.read_object(oid, &mut buf[..SCRATCH_BYTES]);
                if !ok || &buf[..SCRATCH_BYTES] != self.stream.arena.slice(src, SCRATCH_BYTES) {
                    bad += 1;
                }
            }
        }
        if bad > 0 {
            eprintln!("sweep: {bad} object(s) differ from the model");
        }
        if let Pool::Pgl(p) = &self.pool {
            bad += pool_is_sound(p);
        }
        bad
    }
}

#[cfg(test)]
pub fn stream_hash(w: Workload, seed: u64, n: usize) -> u64 {
    let large = w == Workload::TxLarge;
    let mut s = Stream::new(if large { &LARGE } else { &SMALL }, large, seed);
    let mut h = crate::gen::Fnv::default();
    for i in 0..n {
        // Single-thread and both two-thread generators all feed the hash.
        h.eat(&s.next(i % 3).words());
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_follow_the_mix_and_stay_in_their_partition() {
        let mut s = Stream::new(&SMALL, false, 3);
        let (mut whole, mut patch, mut swap) = (0, 0, 0);
        for _ in 0..10_000 {
            match s.next(0) {
                Op::Write { len: 8, .. } => patch += 1,
                Op::Write { obj, off, len, .. } => {
                    assert_eq!(off, 0);
                    assert_eq!(len as usize, s.objs[obj as usize].1);
                    whole += 1;
                }
                Op::Swap { .. } => swap += 1,
            }
        }
        assert!((6_700..7_300).contains(&whole), "{whole}");
        assert!((1_300..1_700).contains(&patch) && (1_300..1_700).contains(&swap));
        for g in 1..=2 {
            for _ in 0..2_000 {
                if let Op::Write { obj, .. } = s.next(g) {
                    assert_eq!(obj as usize % 2, g - 1, "generator {g} left its partition");
                }
            }
        }
        let mut l = Stream::new(&LARGE, true, 3);
        for _ in 0..2_000 {
            if let Op::Write { obj, off, len, .. } = l.next(0) {
                assert!((off + len) as usize <= l.objs[obj as usize].1);
            }
        }
    }
}
