//! `recover_scrub`: restart, scrub and online repair.
//!
//! One pass is one full cycle: (a) a seeded mid-commit crash
//! (`arm_crash_after` during a burst of overwrites and detectable CASes),
//! the pool handle dropped, a timed reopen and a check of what the burst
//! touched; (b) a timed `scrub_now()`; (c) 1 000 seeded faults on cold
//! objects, half poisoned pages and half scribbles, each timed from
//! `read_verified_into` to correct bytes. The workload's ops are the
//! repairs and its latency samples the repair latencies; its `ops_per_s`
//! is repairs ÷ wall time of the *whole* pass, so a slower restart or
//! scrub lowers it too. The sweep adds (d), an untimed durability check on
//! a small `PersistenceMode::Precise` device.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use pangolin::{inject, CsumPolicy, PglConfig, PglMode, PglPool};
use pgl_nvm::{AllOld, CrashPoint, DeviceConfig, LatencyModel, NvmDevice};
use pgl_pmemobj::PMEMoid;

use super::{pool_is_sound, Bench, Params, PassOut, Workload};
use crate::device::{create_pgl, pgl_config, Mode, POOL_BYTES};
use crate::gen::{Arena, Rng};
use crate::metrics::Values;
use crate::stats::Summary;
use crate::trace::{span, REOPEN, REPAIR, SCRUB};

const OBJECTS: usize = 20_000;
const OBJ_BYTES: usize = 1024;
const FAULTS_PER_PASS: usize = 1_000;
/// Burst ops prepared per crash cycle; the crash lands long before the
/// last one (every op is at least four device operations).
const BURST_OPS: usize = 96;
const TYPE_OBJ: u32 = 7;
/// `shards(0)`: one parity shard per zone, as `PglConfig::bench` creates.
pub const AUTO_SHARDS: usize = 0;

/// One op of the crash burst.
#[derive(Debug, Clone, Copy)]
enum BurstOp {
    Overwrite {
        obj: u32,
        src: u32,
    },
    /// Detectable CAS bumping the shared counter word.
    Bump,
}

#[derive(Debug, Clone, Copy)]
enum Fault {
    Poison { obj: u32 },
    Scribble { obj: u32, off: u32, len: u32, pattern: u8 },
}

/// The seeded inputs of one pass.
struct Plan {
    crash_after: u64,
    burst: Vec<BurstOp>,
    faults: Vec<Fault>,
}

struct Stream {
    rng: Rng,
    arena: Arena,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream { rng: Rng::new(seed, 50), arena: Arena::new(seed, 1 << 20) }
    }

    fn plan(&mut self, faults: usize) -> Plan {
        let rng = &mut self.rng;
        let crash_after = 40 + rng.below(200);
        let burst = (0..BURST_OPS)
            .map(|i| {
                if i % 4 == 3 {
                    BurstOp::Bump
                } else {
                    let obj = rng.below(OBJECTS as u64) as u32;
                    BurstOp::Overwrite { obj, src: self.arena.pick(rng, OBJ_BYTES) }
                }
            })
            .collect();
        let faults = (0..faults)
            .map(|i| {
                let obj = rng.below(OBJECTS as u64) as u32;
                if i % 2 == 0 {
                    Fault::Poison { obj }
                } else {
                    let len = 1 + rng.below(64) as u32;
                    let off = rng.below(u64::from(OBJ_BYTES as u32 - len) + 1) as u32;
                    Fault::Scribble { obj, off, len, pattern: rng.below(256) as u8 }
                }
            })
            .collect();
        Plan { crash_after, burst, faults }
    }
}

/// Injected crashes unwind with a `CrashPoint` payload; keep them off
/// stderr and leave every other panic's report alone.
fn quiet_crash_points() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<CrashPoint>() {
                default(info);
            }
        }));
    });
}

/// Latencies of the recovery events, over all passes.
#[derive(Default)]
struct Events {
    reopen_ms: Vec<f64>,
    scrub_s: Vec<f64>,
    scrub_objects: u64,
    poison_us: Vec<f64>,
    scribble_us: Vec<f64>,
    cas_recoveries: u64,
}

pub struct RecoverBench {
    faults_per_pass: usize,
    dev: Arc<NvmDevice>,
    /// `None` only between a crash and the reopen.
    pool: Option<PglPool>,
    oids: Vec<PMEMoid>,
    /// Arena offset of each object's current content.
    model: Vec<u32>,
    counter: PMEMoid,
    counter_value: u64,
    next_tag: u64,
    stream: Stream,
    events: Events,
    seed: u64,
    corrupt: bool,
}

impl RecoverBench {
    fn open_pool(&self) -> &PglPool {
        self.pool.as_ref().expect("pool is open between cycles")
    }

    fn expected(&self, obj: u32) -> &[u8] {
        self.stream.arena.slice(self.model[obj as usize], OBJ_BYTES)
    }

    /// (a): crash mid-burst, drop the handle, reopen (timed), check what
    /// the burst touched. Returns `(mismatches, acknowledged bytes, reopen
    /// time)`.
    fn crash_cycle(&mut self, plan: &Plan, shards: usize) -> (u64, u64, Duration) {
        let pool = self.pool.take().expect("pool is open between cycles");
        let acked = AtomicUsize::new(0);
        let (counter, base, tag0) = (self.counter, self.counter_value, self.next_tag);
        self.dev.arm_crash_after(plan.crash_after);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut value = base;
            for (i, op) in plan.burst.iter().enumerate() {
                match *op {
                    BurstOp::Overwrite { obj, src } => {
                        let data = self.stream.arena.slice(src, OBJ_BYTES);
                        pool.tx(|tx| tx.write(self.oids[obj as usize], 0, data)).expect("burst tx");
                    }
                    BurstOp::Bump => {
                        let r = pool.atomic_update(counter, 0, value, value + 1, tag0 + i as u64);
                        assert!(r.expect("burst cas").is_applied(), "single-writer CAS");
                        value += 1;
                    }
                }
                acked.store(i + 1, Ordering::Relaxed);
            }
        }))
        .is_err();
        self.dev.disarm_crash();
        // No clean shutdown: the handle goes away with its lanes mid-flight.
        drop(pool);
        self.next_tag += BURST_OPS as u64;

        let start = Instant::now();
        let pool = {
            let _s = span(REOPEN);
            PglPool::options().shards(shards).open(self.dev.clone())
        };
        let reopen = start.elapsed();
        let Ok(pool) = pool else {
            panic!("pool does not reopen after a crash at device op {}", plan.crash_after);
        };
        self.events.cas_recoveries += pool.cas_recoveries().len() as u64;

        // Acknowledged ops must be there; the one in flight may be either
        // side of its commit, never torn.
        let acked = acked.load(Ordering::Relaxed);
        let mut bad = u64::from(!crashed);
        let mut buf = [0u8; OBJ_BYTES];
        let mut read = |oid: PMEMoid| pool.read_verified_into(oid, &mut buf).is_ok().then_some(buf);
        for op in &plan.burst[..acked] {
            match *op {
                BurstOp::Overwrite { obj, src } => self.model[obj as usize] = src,
                BurstOp::Bump => self.counter_value += 1,
            }
        }
        let on_media = pool.atomic_load(counter, 0).unwrap_or(u64::MAX);
        match plan.burst.get(acked).filter(|_| crashed) {
            Some(&BurstOp::Overwrite { obj, src }) => {
                let got = read(self.oids[obj as usize]);
                if got.as_ref().map(|b| &b[..]) == Some(self.stream.arena.slice(src, OBJ_BYTES)) {
                    self.model[obj as usize] = src;
                }
            }
            Some(BurstOp::Bump) if on_media == self.counter_value + 1 => self.counter_value += 1,
            _ => {}
        }
        bad += u64::from(on_media != self.counter_value);
        for op in plan.burst.iter().take(acked + 1) {
            if let BurstOp::Overwrite { obj, .. } = *op {
                let got = read(self.oids[obj as usize]);
                bad += u64::from(got.as_ref().map(|b| &b[..]) != Some(self.expected(obj)));
            }
        }
        let acked_bytes = (OBJ_BYTES
            * plan.burst[..acked].iter().filter(|op| !matches!(op, BurstOp::Bump)).count())
            as u64;
        self.pool = Some(pool);
        (bad, acked_bytes, reopen)
    }

    /// (c): inject one fault and time the read that repairs it.
    fn repair(&self, fault: Fault) -> (bool, Duration) {
        let pool = self.open_pool();
        let mut buf = [0u8; OBJ_BYTES];
        let obj = match fault {
            Fault::Poison { obj } => {
                inject::poison_object_page(pool, self.oids[obj as usize]).expect("poison");
                obj
            }
            Fault::Scribble { obj, off, len, pattern } => {
                let oid = self.oids[obj as usize];
                inject::scribble_object(pool, oid, u64::from(off), len as usize, pattern)
                    .expect("scribble");
                obj
            }
        };
        let start = Instant::now();
        let read = {
            let _s = span(REPAIR);
            pool.read_verified_into(self.oids[obj as usize], &mut buf)
        };
        let took = start.elapsed();
        (read.is_ok() && buf == *self.expected(obj), took)
    }
}

impl Bench for RecoverBench {
    fn setup(_w: Workload, p: &Params, latency: LatencyModel, mode: Mode) -> RecoverBench {
        assert_eq!(mode, Mode::MLPC, "repair needs parity and checksums");
        quiet_crash_points();
        let (dev, pool) = create_pgl(latency, pgl_config(PglMode::Mlpc, CsumPolicy::Default));
        let stream = Stream::new(p.seed);
        let mut init = Rng::new(p.seed, 51);
        let mut model = Vec::with_capacity(OBJECTS);
        let mut oids = Vec::with_capacity(OBJECTS);
        for i in 0..OBJECTS {
            // Spread the objects over every zone and parity shard.
            pool.bind_thread_to_shard(i % pool.shards());
            let src = stream.arena.pick(&mut init, OBJ_BYTES);
            let data = stream.arena.slice(src, OBJ_BYTES);
            let oid = pool.tx(|tx| {
                let oid = tx.alloc(OBJ_BYTES as u64, TYPE_OBJ)?;
                tx.write(oid, 0, data)?;
                Ok(oid)
            });
            oids.push(oid.expect("preload"));
            model.push(src);
        }
        pool.unbind_thread_from_shard();
        let counter = pool.tx(|tx| tx.alloc(64, TYPE_OBJ)).expect("counter");
        RecoverBench {
            faults_per_pass: p.scaled(FAULTS_PER_PASS),
            dev,
            pool: Some(pool),
            oids,
            model,
            counter,
            counter_value: 0,
            next_tag: 1,
            stream,
            events: Events::default(),
            seed: p.seed,
            corrupt: p.corrupt,
        }
    }

    /// One latency sample per repaired fault.
    fn pass(&mut self, _threads: usize, samples: &mut Vec<u32>) -> PassOut {
        let gen_start = Instant::now();
        let plan = self.stream.plan(self.faults_per_pass);
        let gen = gen_start.elapsed();
        let start = Instant::now();
        let (mut failed, user_bytes, reopen) = self.crash_cycle(&plan, AUTO_SHARDS);
        self.events.reopen_ms.push(reopen.as_secs_f64() * 1e3);

        let scrub_start = Instant::now();
        let report = {
            let _s = span(SCRUB);
            self.open_pool().scrub_now()
        };
        self.events.scrub_s.push(scrub_start.elapsed().as_secs_f64());
        match report {
            Ok(r) => self.events.scrub_objects = r.objects_verified,
            Err(_) => failed += 1,
        }

        for &fault in &plan.faults {
            let (ok, took) = self.repair(fault);
            failed += u64::from(!ok);
            samples.push(took.as_nanos().min(u128::from(u32::MAX)) as u32);
            let us = took.as_secs_f64() * 1e6;
            match fault {
                Fault::Poison { .. } => self.events.poison_us.push(us),
                Fault::Scribble { .. } => self.events.scribble_us.push(us),
            }
        }
        PassOut { ops: plan.faults.len() as u64, failed, user_bytes, wall: start.elapsed(), gen }
    }

    fn dev(&self) -> &Arc<NvmDevice> {
        &self.dev
    }

    fn pool(&self) -> Option<PglPool> {
        self.pool.clone()
    }

    fn extras(&mut self, values: &mut Values) -> u64 {
        const ONE_SHARD_CYCLES: usize = 3;
        let e = &self.events;
        let reopen_ms = Summary::of(&e.reopen_ms).median;
        let scrub_s = Summary::of(&e.scrub_s).median.max(f64::MIN_POSITIVE);
        values.set("core.reopen_ms", reopen_ms);
        values.set("core.scrub_mb_per_s", POOL_BYTES as f64 / 1e6 / scrub_s);
        values.set("core.scrub_objs_per_s", e.scrub_objects as f64 / scrub_s);
        values.set("core.repair_poison_us", Summary::of(&e.poison_us).median);
        values.set("core.repair_scribble_us", Summary::of(&e.scribble_us).median);
        values.set("core.cas_recoveries", e.cas_recoveries as f64);
        // The same crash cycle, reopened with one parity shard.
        let mut one_shard = Vec::new();
        let mut failed = 0;
        for _ in 0..ONE_SHARD_CYCLES {
            let plan = self.stream.plan(0);
            let (bad, _, reopen) = self.crash_cycle(&plan, 1);
            failed += bad;
            one_shard.push(reopen.as_secs_f64() * 1e3);
        }
        let one_shard = Summary::of(&one_shard).median;
        values.set("core.reopen_ms_1shard", one_shard);
        values.set("core.reopen_shard_speedup_x", one_shard / reopen_ms.max(f64::MIN_POSITIVE));
        // Back to the automatic shard count for whatever follows.
        drop(self.pool.take());
        self.pool =
            Some(PglPool::options().shards(AUTO_SHARDS).open(self.dev.clone()).expect("reopen"));
        failed
    }

    fn finish(mut self) -> u64 {
        if self.corrupt {
            self.model[0] = self.model[0].wrapping_add(1) % 1024;
        }
        let mut bad = 0u64;
        let mut buf = [0u8; OBJ_BYTES];
        for obj in 0..OBJECTS as u32 {
            let ok = self.open_pool().read_verified_into(self.oids[obj as usize], &mut buf).is_ok();
            if !ok || buf != *self.expected(obj) {
                bad += 1;
            }
        }
        if self.open_pool().atomic_load(self.counter, 0).ok() != Some(self.counter_value) {
            bad += 1;
        }
        if bad > 0 {
            eprintln!("sweep: {bad} object(s) differ from the model");
        }
        bad + pool_is_sound(self.open_pool()) + durability_check(self.seed)
    }
}

/// (d): on a small `Precise` device, crash at a seeded device operation,
/// let `simulate_crash` discard everything not flushed *and* fenced,
/// reopen, and require every acknowledged transaction to be present and
/// no object torn. Returns the number of violations.
pub fn durability_check(seed: u64) -> u64 {
    const N: usize = 64;
    const BYTES: usize = 256;
    quiet_crash_points();
    let mut rng = Rng::new(seed, 52);
    let arena = Arena::new(seed ^ 0xD0, 64 << 10);
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::precise()).expect("device"));
    let pool = PglPool::create(dev.clone(), cfg).expect("create");
    let mut model: Vec<u32> = (0..N).map(|_| arena.pick(&mut rng, BYTES)).collect();
    let oids: Vec<PMEMoid> = model
        .iter()
        .map(|&src| {
            pool.tx(|tx| {
                let oid = tx.alloc(BYTES as u64, TYPE_OBJ)?;
                tx.write(oid, 0, arena.slice(src, BYTES))?;
                Ok(oid)
            })
            .expect("preload")
        })
        .collect();
    let burst: Vec<(usize, u32)> =
        (0..2 * N).map(|_| (rng.below(N as u64) as usize, arena.pick(&mut rng, BYTES))).collect();
    let acked = AtomicUsize::new(0);
    dev.arm_crash_after(20 + rng.below(600));
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for (i, &(obj, src)) in burst.iter().enumerate() {
            pool.tx(|tx| tx.write(oids[obj], 0, arena.slice(src, BYTES))).expect("burst tx");
            acked.store(i + 1, Ordering::Relaxed);
        }
    }))
    .is_err();
    dev.disarm_crash();
    drop(pool);
    dev.simulate_crash(&mut AllOld).expect("precise device tracks dirty lines");
    let Ok(pool) = PglPool::options().open(dev) else {
        eprintln!("durability: pool does not reopen");
        return 1;
    };
    let acked = acked.load(Ordering::Relaxed);
    let mut bad = u64::from(!crashed);
    let mut in_flight = None;
    for (i, &(obj, src)) in burst.iter().enumerate().take(acked + 1) {
        if i < acked {
            model[obj] = src;
        } else {
            in_flight = Some((obj, src));
        }
    }
    let mut buf = [0u8; BYTES];
    for (obj, &src) in model.iter().enumerate() {
        let ok = pool.read_verified_into(oids[obj], &mut buf).is_ok();
        let newer = in_flight.filter(|f| f.0 == obj).map(|f| arena.slice(f.1, BYTES));
        if !ok || (buf != *arena.slice(src, BYTES) && Some(&buf[..]) != newer) {
            bad += 1;
        }
    }
    if bad > 0 {
        eprintln!("durability: {bad} acknowledged or torn object(s) after simulate_crash");
    }
    bad + pool_is_sound(&pool)
}

#[cfg(test)]
pub fn stream_hash(seed: u64, n: usize) -> u64 {
    let mut s = Stream::new(seed);
    let mut h = crate::gen::Fnv::default();
    let mut eaten = 0;
    while eaten < n {
        let plan = s.plan(FAULTS_PER_PASS);
        h.eat(&[plan.crash_after]);
        for op in &plan.burst {
            match *op {
                BurstOp::Overwrite { obj, src } => h.eat(&[0, obj.into(), src.into()]),
                BurstOp::Bump => h.eat(&[1]),
            }
        }
        for f in &plan.faults {
            match *f {
                Fault::Poison { obj } => h.eat(&[2, obj.into()]),
                Fault::Scribble { obj, off, len, pattern } => {
                    h.eat(&[3, obj.into(), off.into(), len.into(), pattern.into()]);
                }
            }
        }
        eaten += plan.burst.len() + plan.faults.len();
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_smoke_repairs_every_fault_and_catches_a_corrupted_expectation() {
        for corrupt in [false, true] {
            let p = Params { seed: 11, smoke: true, corrupt };
            let mut b = RecoverBench::setup(
                Workload::RecoverScrub,
                &p,
                LatencyModel::disabled(),
                Mode::MLPC,
            );
            let mut samples = Vec::new();
            let out = b.pass(1, &mut samples);
            assert_eq!(out.failed, 0);
            assert_eq!(samples.len(), b.faults_per_pass);
            assert_eq!(b.events.reopen_ms.len(), 1);
            assert_eq!(b.finish() > 0, corrupt);
        }
    }

    #[test]
    fn durability_check_holds_for_several_crash_points() {
        for seed in 0..4 {
            assert_eq!(durability_check(seed), 0, "seed {seed}");
        }
    }
}
