//! The eight named workloads and the interface the run driver sees.
//!
//! Every workload owns its seeded generator and a DRAM shadow model. The
//! generator *is* the model: it evolves the model as it emits ops, so each
//! op carries the answer the library must give (a GET's value, a PUT's old
//! value, a dequeue's item) and the timed loop only compares. Generator
//! threads and connections work on disjoint objects and keys, which keeps
//! the model exact under concurrency. After the passes, `finish` sweeps
//! model against pool and checks parity and checksums.

pub mod cas;
pub mod kv;
pub mod recover;
pub mod svc;
pub mod tx;

use std::sync::Arc;
use std::time::{Duration, Instant};

use pangolin::PglPool;
use pgl_nvm::{LatencyModel, NvmDevice};

use crate::device::Mode;
use crate::metrics::Values;

/// Ops per latency sample of µs-scale ops (see [`Bench::pass`]).
pub const BLOCK: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TxSmall,
    TxLarge,
    KvWrite,
    KvRead,
    CasLockfree,
    SvcWrite,
    SvcRead,
    RecoverScrub,
}

impl Workload {
    pub const ALL: [Workload; 8] = [
        Workload::TxSmall,
        Workload::TxLarge,
        Workload::KvWrite,
        Workload::KvRead,
        Workload::CasLockfree,
        Workload::SvcWrite,
        Workload::SvcRead,
        Workload::RecoverScrub,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TxSmall => "tx_small",
            Workload::TxLarge => "tx_large",
            Workload::KvWrite => "kv_write",
            Workload::KvRead => "kv_read",
            Workload::CasLockfree => "cas_lockfree",
            Workload::SvcWrite => "svc_write",
            Workload::SvcRead => "svc_read",
            Workload::RecoverScrub => "recover_scrub",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TxSmall => {
                "64-256 B transactions: per-tx fixed cost (lane, redo log, fences, checksum) \
                 dominates, so pmemobj and the fixed part of core do the work; kv and server idle"
            }
            Workload::TxLarge => {
                "4 KiB-256 KiB objects: byte-proportional work (pre-image read, Adler32, NT store, \
                 parity XOR, flushes) dominates; 30% sparse 64 B writes into 256 KiB objects"
            }
            Workload::KvWrite => {
                "btree, ctree and rtree update/insert/remove: multi-object transactions where kv \
                 structure code and core commit share the time (the paper's Figure 5 shape)"
            }
            Workload::KvRead => {
                "zipf 95% get / 5% update under CsumPolicy::Conservative on a working set larger \
                 than the verification cache: the verified read path, commit path minor"
            }
            Workload::CasLockfree => {
                "lock-free queue, stack and hash on detectable CAS: bypasses redo log and \
                 micro-buffers, so commit-path work predicts no change here"
            }
            Workload::SvcWrite => {
                "closed-loop TCP service, 2 connections x 32-op frames, 70% PUT: the full proto, \
                 admission, lane, batch and group-commit path doing real work"
            }
            Workload::SvcRead => {
                "same service, 94% GET / 5% PUT / 1% SCAN: back-end cost near zero, so this \
                 isolates server overhead (framing, hand-offs, queueing, scan fan-out)"
            }
            Workload::RecoverScrub => {
                "mid-commit crash and reopen, scrub, then 1000 poison/scribble faults repaired \
                 online per pass: the fault-tolerance code no throughput workload touches"
            }
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Ops ÷ 50: only so the oracle can be exercised quickly; the numbers
    /// of a smoke run are never reported.
    pub smoke: bool,
    /// Test hook: corrupt one model expectation, which must surface as a
    /// failed op and a non-zero exit status.
    pub corrupt: bool,
}

impl Params {
    pub fn scaled(&self, ops: usize) -> usize {
        if self.smoke {
            (ops / 50).max(64)
        } else {
            ops
        }
    }
}

/// What one pass did.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassOut {
    pub ops: u64,
    /// Ops failed, refused or answered differently from the model.
    pub failed: u64,
    /// Bytes the workload asked the library to store.
    pub user_bytes: u64,
    /// Wall time of the timed part.
    pub wall: Duration,
    /// Time spent generating the ops (untimed part).
    pub gen: Duration,
}

/// A workload instance: a pool with its preload, a generator and a model.
pub trait Bench: Sized {
    /// Whether the op stream can be split over two threads on disjoint
    /// objects.
    const TWO_THREADS: bool = false;
    /// Whether workload `w`'s stream also runs on every Table 2
    /// configuration (the write workloads the ladder explains).
    fn has_ladder(_w: Workload) -> bool {
        false
    }
    /// Generator threads (connections) of a single-thread pass.
    const GENERATORS: usize = 1;

    /// Pool create + preload — the set-up that `setup_s` times.
    fn setup(w: Workload, p: &Params, latency: LatencyModel, mode: Mode) -> Self;

    /// Generates (untimed) and runs (timed) one pass of the fixed op count,
    /// pushing latency samples in nanoseconds per op. µs-scale ops are
    /// sampled over blocks of 16 consecutive ops (block time ÷ 16): the
    /// latency model pays stall debt in 4 µs quanta, so a single such op
    /// sees either no stall or a whole quantum.
    fn pass(&mut self, threads: usize, samples: &mut Vec<u32>) -> PassOut;

    fn dev(&self) -> &Arc<NvmDevice>;

    /// The Pangolin pool under the workload (`None` on a pmemobj mode).
    fn pool(&self) -> Option<PglPool>;

    /// Workload-specific per-layer measurements, after the traced passes.
    /// Returns the ops that failed while taking them.
    fn extras(&mut self, _values: &mut Values) -> u64 {
        0
    }

    /// The correctness sweep; returns the number of mismatches. Consumes
    /// the instance: every pool handle is dropped when it returns.
    fn finish(self) -> u64;
}

/// Runs `f` over `ops` in blocks of `block`, one clock read per block.
pub fn timed<T>(
    ops: &[T],
    block: usize,
    samples: &mut Vec<u32>,
    mut f: impl FnMut(&T) -> bool,
) -> (Instant, Instant, u64) {
    let mut failed = 0u64;
    let start = Instant::now();
    let mut prev = start;
    for chunk in ops.chunks(block) {
        for op in chunk {
            if !f(op) {
                failed += 1;
            }
        }
        let now = Instant::now();
        let ns = (now - prev).as_nanos() as u64 / chunk.len() as u64;
        samples.push(ns.min(u64::from(u32::MAX)) as u32);
        prev = now;
    }
    (start, prev, failed)
}

/// Runs one closure per generator thread behind a barrier and returns the
/// span from the first start to the last end, plus the summed failures.
/// With one thread the closure runs on the caller's thread.
pub fn run_threads<F>(threads: usize, samples: &mut Vec<u32>, work: F) -> (Duration, u64)
where
    F: Fn(usize, &mut Vec<u32>) -> (Instant, Instant, u64) + Sync,
{
    if threads == 1 {
        let (start, end, failed) = work(0, samples);
        return (end - start, failed);
    }
    let barrier = std::sync::Barrier::new(threads);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, work) = (&barrier, &work);
                s.spawn(move || {
                    let mut local = Vec::with_capacity(1 << 14);
                    barrier.wait();
                    (work(t, &mut local), local)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let start = results.iter().map(|((s, _, _), _)| *s).min().expect("threads > 0");
    let end = results.iter().map(|((_, e, _), _)| *e).max().expect("threads > 0");
    let mut failed = 0;
    for ((_, _, f), local) in results {
        failed += f;
        samples.extend_from_slice(&local);
    }
    (end - start, failed)
}

/// Checks shared by every sweep: parity consistent, no corrupt object.
pub fn pool_is_sound(pool: &PglPool) -> u64 {
    let parity_ok = pool.verify_parity().unwrap_or(false);
    let corrupt = pool.find_corrupt_objects().map_or(1, |v| v.len() as u64);
    if !parity_ok {
        eprintln!("sweep: verify_parity() is false");
    }
    if corrupt > 0 {
        eprintln!("sweep: {corrupt} corrupt object(s)");
    }
    u64::from(!parity_ok) + corrupt
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64, corrupt: bool) -> Params {
        Params { seed, smoke: true, corrupt }
    }

    /// One smoke pass and the sweep, latency model off.
    fn smoke_run<B: Bench>(w: Workload, p: &Params) -> (PassOut, u64) {
        let mut b = B::setup(w, p, LatencyModel::disabled(), Mode::MLPC);
        let mut samples = Vec::new();
        let out = b.pass(1, &mut samples);
        assert!(!samples.is_empty());
        (out, b.finish())
    }

    #[test]
    fn names_meet_the_contract() {
        assert!((2..=8).contains(&Workload::ALL.len()));
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.name().len() <= 64);
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn op_streams_are_pinned_by_seed() {
        // The first 10 000 ops of every workload, hashed: the same seed
        // gives a byte-identical stream, another seed another one.
        for w in Workload::ALL {
            let a = stream_hash(w, 11);
            assert_eq!(a, stream_hash(w, 11), "{} is not deterministic", w.name());
            assert_ne!(a, stream_hash(w, 12), "{} ignores its seed", w.name());
        }
    }

    fn stream_hash(w: Workload, seed: u64) -> u64 {
        const N: usize = 10_000;
        match w {
            Workload::TxSmall | Workload::TxLarge => tx::stream_hash(w, seed, N),
            Workload::KvWrite | Workload::KvRead => kv::stream_hash(w, seed, N),
            Workload::CasLockfree => cas::stream_hash(seed, N),
            Workload::SvcWrite | Workload::SvcRead => svc::stream_hash(w, seed, N),
            Workload::RecoverScrub => recover::stream_hash(seed, N),
        }
    }

    #[test]
    fn oracle_passes_clean_runs_and_catches_a_corrupted_expectation() {
        // Library workloads through the trait; the service and recovery
        // workloads have their own smoke tests next to their code.
        let (out, swept) = smoke_run::<tx::TxBench>(Workload::TxSmall, &smoke(11, false));
        assert_eq!((out.failed, swept), (0, 0));
        assert!(out.ops >= 64 && out.user_bytes > 0);
        let (out, swept) = smoke_run::<tx::TxBench>(Workload::TxSmall, &smoke(11, true));
        assert!(out.failed + swept > 0, "tx_small oracle is dead");

        let (out, swept) = smoke_run::<kv::KvBench>(Workload::KvRead, &smoke(11, false));
        assert_eq!((out.failed, swept), (0, 0));
        let (out, swept) = smoke_run::<kv::KvBench>(Workload::KvRead, &smoke(11, true));
        assert!(out.failed + swept > 0, "kv_read oracle is dead");

        let (out, swept) = smoke_run::<cas::CasBench>(Workload::CasLockfree, &smoke(11, false));
        assert_eq!((out.failed, swept), (0, 0));
        let (out, swept) = smoke_run::<cas::CasBench>(Workload::CasLockfree, &smoke(11, true));
        assert!(out.failed + swept > 0, "cas_lockfree oracle is dead");
    }

    #[test]
    fn timed_samples_every_block_and_counts_failures() {
        let ops: Vec<u32> = (0..100).collect();
        let mut samples = Vec::new();
        let (start, end, failed) = timed(&ops, 16, &mut samples, |&op| op % 10 != 0);
        assert_eq!(samples.len(), 7, "six full blocks and a tail");
        assert_eq!(failed, 10);
        assert!(end >= start);
    }
}
