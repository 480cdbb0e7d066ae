//! The run shape shared by all workloads.
//!
//! Untraced (`--trace 0`, the end-to-end metrics): set-up three times
//! under the `optane` latency model (`setup_s` is the median) and once
//! with the model disabled → one discarded warm-up pass on each → measured
//! passes of a **fixed op count**, the two instances taking turns of three
//! passes, for 90 % of `--seconds` → the correctness sweeps. Every timing
//! is the median across passes. Device counts come from the first two
//! measured passes only, so at one thread they repeat exactly.
//!
//! Traced (`--trace 1`, the per-layer metrics) re-runs the workload with
//! spans off, spans on and the latency model disabled in turn, and adds
//! the two-thread phase, the Table 2 ladder, the kernels and the
//! restart/scrub/space tail.

use std::time::{Duration, Instant};

use pangolin::{PglMode, PglPool};
use pgl_nvm::LatencyModel;
use pgl_pmemobj::OBJ_HEADER_SIZE;

use crate::device::{Counts, Mode, POOL_BYTES};
use crate::metrics::Values;
use crate::report::LayerTimes;
use crate::stats::{percentile, Summary};
use crate::trace::{self, Collected};
use crate::workloads::recover::AUTO_SHARDS;
use crate::workloads::{cas, kv, recover, svc, tx, Bench, Params, PassOut, Workload};
use crate::{kernels, report};

const SETUPS: usize = 3;
/// Passes are measured until the phase's time is used and at least this
/// many are in (two on the rungs of the ladder).
const MIN_PASSES: usize = 3;
const MIN_RUNG_PASSES: usize = 2;
/// Consecutive passes an instance runs before the other one's turn.
const TURN: usize = 3;
/// Device operations are counted over the first measured passes only: for
/// one seed they do the same ops from the same state however many more
/// passes fit in the time, so at one thread the counts repeat exactly.
const COUNTED_PASSES: usize = 2;
/// A cap on the passes of one instance's main phase (a quarter of it on
/// its two-thread phase and on a ladder rung), so that a much faster
/// library cannot fill the pool: the lock-free structures never free a
/// node, and 64 B x 22 500 allocations a pass x 53 passes is 76 MiB of the
/// pool's 126 MiB heap.
const MAX_PASSES: usize = 40;

#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub workload: Workload,
    pub params: Params,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    match cfg.workload {
        Workload::TxSmall | Workload::TxLarge => run_as::<tx::TxBench>(cfg),
        Workload::KvWrite | Workload::KvRead => run_as::<kv::KvBench>(cfg),
        Workload::CasLockfree => run_as::<cas::CasBench>(cfg),
        Workload::SvcWrite | Workload::SvcRead => run_as::<svc::SvcBench>(cfg),
        Workload::RecoverScrub => run_as::<recover::RecoverBench>(cfg),
    }
}

fn run_as<B: Bench>(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome {
        workload: cfg.workload,
        trace: cfg.trace,
        attempted: 0,
        failed: 0,
        values: Values::default(),
    };
    if cfg.trace {
        traced::<B>(cfg, &mut out);
    } else {
        untraced::<B>(cfg, &mut out);
    }
    out
}

/// Measured passes of one configuration.
#[derive(Debug, Default)]
struct Phase {
    ops_per_pass: u64,
    wall_s: Vec<f64>,
    p50_ns: Vec<f64>,
    p99_ns: Vec<f64>,
    gen: Duration,
    /// Device operations of the first [`COUNTED_PASSES`] measured passes.
    counts: Counts,
}

impl Phase {
    fn us_per_op(&self) -> Summary {
        let ops = self.ops_per_pass as f64;
        Summary::of(&self.wall_s).map(|s| s * 1e6 / ops)
    }

    fn ops_per_s(&self) -> Summary {
        let ops = self.ops_per_pass as f64;
        Summary::of(&self.wall_s).map(|s| ops / s)
    }

    fn gen_ns_per_op(&self) -> f64 {
        self.gen.as_nanos() as f64 / (self.ops_per_pass * self.wall_s.len() as u64).max(1) as f64
    }
}

/// Runs passes on one instance and keeps what they measured.
struct Meter {
    samples: Vec<u32>,
    phase: Phase,
}

impl Meter {
    fn new() -> Meter {
        Meter { samples: Vec::with_capacity(1 << 16), phase: Phase::default() }
    }

    /// A pass whose timings are discarded (warm-up); its ops still count
    /// as attempted and are still checked.
    fn discard<B: Bench>(&mut self, b: &mut B, threads: usize, out: &mut Outcome) {
        self.samples.clear();
        let pass = b.pass(threads, &mut self.samples);
        out.attempted += pass.ops;
        out.failed += pass.failed;
    }

    /// The first measured passes, back to back, with the device's counters
    /// read before and after.
    fn counted_passes<B: Bench>(&mut self, b: &mut B, out: &mut Outcome) {
        let before = b.dev().stats();
        let mut counts = Counts::default();
        for _ in 0..COUNTED_PASSES {
            let pass = self.pass(b, 1, out);
            counts.ops += pass.ops;
            counts.user_bytes += pass.user_bytes;
        }
        counts.delta = b.dev().stats().delta_since(&before);
        self.phase.counts = counts;
    }

    fn pass<B: Bench>(&mut self, b: &mut B, threads: usize, out: &mut Outcome) -> PassOut {
        self.samples.clear();
        let pass = b.pass(threads, &mut self.samples);
        let phase = &mut self.phase;
        out.attempted += pass.ops;
        out.failed += pass.failed;
        phase.ops_per_pass = pass.ops;
        phase.gen += pass.gen;
        phase.wall_s.push(pass.wall.as_secs_f64());
        if let Some(p50) = percentile(&mut self.samples, 50.0) {
            phase.p50_ns.push(f64::from(p50));
        }
        // Reported only where at least ten samples lie beyond it.
        if let Some(p99) = percentile(&mut self.samples, 99.0) {
            phase.p99_ns.push(f64::from(p99));
        }
        pass
    }
}

/// Calls `round` until `budget` is used and at least `min` rounds are in,
/// at most `max` times.
fn rounds(budget: Duration, min: usize, max: usize, mut round: impl FnMut()) {
    let started = Instant::now();
    let mut n = 0;
    while n < max && (n < min || started.elapsed() < budget) {
        round();
        n += 1;
    }
}

/// One discarded warm-up pass, then measured passes for `budget`.
fn measure<B: Bench>(
    b: &mut B,
    threads: usize,
    budget: Duration,
    min_passes: usize,
    out: &mut Outcome,
) -> Phase {
    let mut meter = Meter::new();
    meter.discard(b, threads, out);
    if threads == 1 {
        meter.counted_passes(b, out);
    }
    rounds(budget, min_passes.saturating_sub(meter.phase.wall_s.len()), MAX_PASSES / 4, || {
        meter.pass(b, threads, out);
    });
    meter.phase
}

fn phase_budget(cfg: &RunCfg, share: f64) -> Duration {
    if cfg.params.smoke {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(cfg.seconds * share)
    }
}

fn untraced<B: Bench>(cfg: &RunCfg, out: &mut Outcome) {
    let (w, p) = (cfg.workload, &cfg.params);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        // One instance at a time: drop the last before building the next.
        drop(bench.take());
        let start = Instant::now();
        bench = Some(B::setup(w, p, LatencyModel::optane(), Mode::MLPC));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut b = bench.expect("SETUPS > 0");
    let mut h = B::setup(w, p, LatencyModel::disabled(), Mode::MLPC);

    // The two instances take turns of three passes, so that a few seconds
    // of interference from the host's other tenants slow some passes of
    // each and move neither median. (Turns of one pass would start every
    // pass on cold caches: 2-3 % on `tx_small`.)
    let (mut wall, mut host) = (Meter::new(), Meter::new());
    wall.discard(&mut b, 1, out);
    host.discard(&mut h, 1, out);
    wall.counted_passes(&mut b, out);
    rounds(phase_budget(cfg, 0.9), 1, MAX_PASSES / TURN, || {
        for _ in 0..TURN {
            wall.pass(&mut b, 1, out);
        }
        for _ in 0..TURN {
            host.pass(&mut h, 1, out);
        }
    });
    out.failed += b.finish();
    out.failed += h.finish();

    let (wall, host) = (wall.phase, host.phase);
    let v = &mut out.values;
    v.put("setup_s", Summary::of(&setups));
    v.put("ops_per_s", wall.ops_per_s());
    v.put("p50_us", Summary::of(&wall.p50_ns).map(|ns| ns / 1e3));
    v.put("host_us_per_op", host.us_per_op());
    v.set("device_us_per_op", wall.counts.device_us_per_op());
}

fn traced<B: Bench>(cfg: &RunCfg, out: &mut Outcome) {
    let (w, p) = (cfg.workload, &cfg.params);
    let share = |s: f64| phase_budget(cfg, s);
    let mut values = Values::default();

    // In turn: a pass with spans off, the same with spans on, and a pass
    // with the latency model disabled.
    let mut b = B::setup(w, p, LatencyModel::optane(), Mode::MLPC);
    let mut h = B::setup(w, p, LatencyModel::disabled(), Mode::MLPC);
    let (mut plain, mut spanned, mut host) = (Meter::new(), Meter::new(), Meter::new());
    plain.discard(&mut b, 1, out);
    host.discard(&mut h, 1, out);
    plain.counted_passes(&mut b, out);
    // Read here, after a number of ops the seed fixes, not at the end of a
    // number of passes the clock decides: `cas_lockfree` never frees a node.
    let pool = b.pool().expect("the full system runs on a Pangolin pool");
    values.set("core.space_overhead_frac", space_overhead(&pool));
    drop(pool);
    let mut span_ops = 0;
    rounds(share(0.5), MIN_PASSES, MAX_PASSES / 2, || {
        plain.pass(&mut b, 1, out);
        trace::set_enabled(true);
        spanned.pass(&mut b, 1, out);
        trace::set_enabled(false);
        span_ops += spanned.phase.ops_per_pass;
        host.pass(&mut h, 1, out);
    });
    out.failed += h.finish();
    let (plain, spanned, host) = (plain.phase, spanned.phase, host.phase);
    out.failed += b.extras(&mut values);
    let spans = trace::take();

    let two = B::TWO_THREADS.then(|| measure(&mut b, 2, share(0.1), MIN_PASSES, out));
    if let Some(pool) = b.pool() {
        scrub_rate(&pool, &mut values);
    }
    let dev = b.dev().clone();
    out.failed += b.finish();
    tail_after_close(&dev, &mut values);
    drop(dev);

    if B::has_ladder(w) {
        ladder::<B>(cfg, &plain, out, &mut values);
    }
    kernels::measure(p.seed, &mut values);

    let c = &plain.counts;
    let d = &c.delta;
    let wall_us = plain.us_per_op().median;
    let host_us = host.us_per_op().median;
    let device_us = c.device_us_per_op();
    let stall_us = wall_us - host_us;
    values.set("nvm.fences_per_op", c.per_op(d.fences));
    values.set("nvm.lines_flushed_per_op", c.per_op(d.lines_flushed));
    values.set("nvm.bytes_written_per_op", c.per_op(d.bytes_written));
    values.set("nvm.bytes_nt_per_op", c.per_op(d.bytes_written_nt));
    values.set("nvm.bytes_read_per_op", c.per_op(d.bytes_read));
    values.set("nvm.read_ops_per_op", c.per_op(d.read_ops));
    values.set("nvm.xor_bytes_per_op", c.per_op(d.xor_bytes));
    values.set("nvm.atomic_rmw_per_op", c.per_op(c.atomic_rmw()));
    values.set("nvm.write_amp", c.write_amp());
    values.set("nvm.stall_measured_us_per_op", stall_us);
    values.set("nvm.stall_overshoot_x", stall_us / device_us.max(f64::MIN_POSITIVE));
    values.set("core.commit_old_reads_per_op", c.per_op(d.commit_old_reads));
    values.set("core.commit_old_bytes_per_op", c.per_op(d.commit_old_bytes));
    values.set("core.csum_passes_per_op", c.per_op(d.csum_passes));
    values.set("core.csum_bytes_per_op", c.per_op(d.csum_bytes));
    values.set("core.vcache_hit_ratio", c.vcache_hit_ratio());
    values.set("core.atomic_parity_patches_per_op", c.per_op(d.atomic_parity_patches));
    if let Some(two) = &two {
        values.put("core.ops_per_s_2t", two.ops_per_s());
        values.set("core.scale_2t_x", two.ops_per_s().median / plain.ops_per_s().median);
    }
    span_metrics(&spans, span_ops, &mut values);
    let spanned_us = spanned.us_per_op().median;
    values.put("bench.p99_us", Summary::of(&plain.p99_ns).map(|ns| ns / 1e3));
    values.set("bench.trace_overhead_frac", (spanned_us - wall_us) / wall_us);
    values.set("bench.gen_ns_per_op", plain.gen_ns_per_op());

    // The span totals are sums over the traced passes, so the timeline they
    // are set against is those passes' mean, not their median.
    let timeline_us = spanned.wall_s.iter().sum::<f64>() * 1e6 / span_ops.max(1) as f64;
    let threads = B::GENERATORS as f64;
    let times = LayerTimes { threads, wall_us, spanned_us, timeline_us, host_us, device_us };
    report::layer_table(w, &spans, span_ops, &times);
    if let Err(e) = report::write_trace(w, &spans) {
        eprintln!("trace not written: {e}");
    }
    out.values = values;
}

/// The identical op stream on every Table 2 configuration; Pangolin's
/// mechanisms are priced by subtraction between neighbouring rungs.
fn ladder<B: Bench>(cfg: &RunCfg, mlpc: &Phase, out: &mut Outcome, values: &mut Values) {
    let (w, p) = (cfg.workload, &cfg.params);
    let rung = |mode: Mode, latency: LatencyModel, out: &mut Outcome| {
        let mut b = B::setup(w, p, latency, mode);
        let phase = measure(&mut b, 1, phase_budget(cfg, 0.05), MIN_RUNG_PASSES, out);
        out.failed += b.finish();
        phase
    };
    let optane = LatencyModel::optane();
    let pmem = rung(Mode::Pmemobj, optane, out);
    let pmem_host = rung(Mode::Pmemobj, LatencyModel::disabled(), out);
    let replica = rung(Mode::PmemobjR, optane, out).us_per_op().median;
    let pgl = rung(Mode::Pgl(PglMode::Baseline), optane, out).us_per_op().median;
    let ml = rung(Mode::Pgl(PglMode::Ml), optane, out).us_per_op().median;
    let mlp = rung(Mode::Pgl(PglMode::Mlp), optane, out).us_per_op().median;
    let mlpc = mlpc.us_per_op().median;
    let pmem_us = pmem.us_per_op().median;
    values.set("pmemobj.us_per_op", pmem_us);
    values.set("pmemobj.host_us_per_op", pmem_host.us_per_op().median);
    values.set("pmemobj.fences_per_op", pmem.counts.per_op(pmem.counts.delta.fences));
    values.set("pmemobj.lines_flushed_per_op", pmem.counts.per_op(pmem.counts.delta.lines_flushed));
    values.set("pmemobj.replica_us_per_op", replica);
    values.set("core.ubuf_us_per_op", pgl - pmem_us);
    values.set("core.logrep_us_per_op", ml - pgl);
    values.set("core.parity_us_per_op", mlp - ml);
    values.set("core.csum_us_per_op", mlpc - mlp);
    values.set("core.vs_pmemobj_x", mlpc / pmem_us);
    values.set("core.vs_replica_x", mlpc / replica);
}

/// Span totals turned into per-op layer times.
fn span_metrics(c: &Collected, ops: u64, values: &mut Values) {
    use crate::trace::*;
    let per_op = |ns: u64| ns as f64 / 1e3 / ops.max(1) as f64;
    let mean_us = |name: Name| {
        let a = c.of(name);
        a.total_ns as f64 / 1e3 / a.count.max(1) as f64
    };
    let tx_calls = c.sum([TX_WRITE, TX_ALLOC, TX_FREE, TX_READ]);
    let commits = c.sum([POOL_TX, STORE_TXN, STORE_TXN_BATCH]);
    let map_ops = c.sum(MAP_OP..MAP_OP + 9);
    values.set("core.tx_body_us_per_op", per_op(tx_calls.total_ns));
    values.set("core.commit_us_per_op", per_op(commits.self_ns));
    values.set("kv.self_us_per_op", per_op(map_ops.self_ns + c.of(TX_BODY).self_ns));
    const TREE_OPS: [&str; 9] = [
        "kv.btree.put_us",
        "kv.btree.get_us",
        "kv.btree.del_us",
        "kv.ctree.put_us",
        "kv.ctree.get_us",
        "kv.ctree.del_us",
        "kv.rtree.put_us",
        "kv.rtree.get_us",
        "kv.rtree.del_us",
    ];
    for (i, name) in TREE_OPS.into_iter().enumerate() {
        values.set(name, mean_us(MAP_OP + i as Name));
    }
    values.set("kv.lf.queue_us", mean_us(LF_QUEUE));
    values.set("kv.lf.stack_us", mean_us(LF_STACK));
    values.set("kv.lf.hash_us", mean_us(LF_HASH));
}

/// Scrub throughput on the pool the workload leaves. `recover_scrub` has
/// measured its own in `extras`; that stands.
fn scrub_rate(pool: &PglPool, values: &mut Values) {
    if values.get("core.scrub_mb_per_s").is_some() {
        return;
    }
    let start = Instant::now();
    let report = pool.scrub_now().expect("scrub");
    let s = start.elapsed().as_secs_f64();
    values.set("core.scrub_mb_per_s", POOL_BYTES as f64 / 1e6 / s);
    values.set("core.scrub_objs_per_s", report.objects_verified as f64 / s);
}

/// Bytes reserved for protection ÷ pool bytes: the parity rows, the
/// replicated pool header, zone headers and lane (log) region, and the
/// per-object header that carries size, type and checksum.
fn space_overhead(pool: &PglPool) -> f64 {
    let layout = pool.layout();
    let page = pgl_nvm::PAGE_SIZE as u64;
    let parity = layout.n_zones * layout.parity_bytes_per_zone();
    let replicas =
        page + layout.n_zones * page + (layout.cfg.n_lanes * layout.cfg.lane_size) as u64;
    let headers = pool.live_objects().map_or(0, |o| o.len() as u64) * OBJ_HEADER_SIZE;
    (parity + replicas + headers) as f64 / layout.cfg.size as f64
}

/// Restart time of the closed pool, with one parity shard per zone and
/// with a single shard.
fn tail_after_close(dev: &std::sync::Arc<pgl_nvm::NvmDevice>, values: &mut Values) {
    if values.get("core.reopen_ms").is_some() {
        return;
    }
    const REOPENS: usize = 3;
    let reopen_ms = |shards: usize| {
        let times: Vec<f64> = (0..REOPENS)
            .map(|_| {
                let start = Instant::now();
                let pool = PglPool::options().shards(shards).open(dev.clone()).expect("reopen");
                let ms = start.elapsed().as_secs_f64() * 1e3;
                drop(pool);
                ms
            })
            .collect();
        Summary::of(&times).median
    };
    let (auto, one) = (reopen_ms(AUTO_SHARDS), reopen_ms(1));
    values.set("core.reopen_ms", auto);
    values.set("core.reopen_ms_1shard", one);
    values.set("core.reopen_shard_speedup_x", one / auto);
}
