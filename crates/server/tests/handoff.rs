//! Frame-granular hand-off battery: what must stay true now that one
//! lane message carries a whole (frame, shard) sub-batch each way —
//! per-key program order inside a frame, the hand-off counts themselves,
//! the lane bound in requests with prefix shedding, group commit across
//! connections, reply-per-job, and a dead worker answering typed errors.
//!
//! Interleavings are forced, not slept for: a [`Hooked`] store holds the
//! shard worker inside `txn_batch` until the test lets it go, and the
//! lane counters say when the other threads' sub-batches are queued.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pangolin::{PglConfig, PglPool};
use pgl_kv::maps::splitmix64;
use pgl_kv::store::{BatchOp, KvResult, PglStore, Store, TxOps};
use pgl_nvm::{DeviceConfig, NvmDevice};
use pgl_pmemobj::{PMEMoid, TxStats};
use pgl_server::lane::LaneStats;
use pgl_server::proto::{Request, Response};
use pgl_server::service::{KvService, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PATIENCE: Duration = Duration::from_secs(20);

#[derive(Default)]
struct GateState {
    /// While set, `txn_batch` blocks unless it can take a permit.
    held: bool,
    permits: usize,
    /// Sizes of the `txn_batch` calls that reached the gate, in order.
    batches: Vec<usize>,
}

/// Test hooks of a [`Hooked`] store, shared by its clones.
#[derive(Default)]
struct Hooks {
    gate: Mutex<GateState>,
    moved: Condvar,
    panic_next: AtomicBool,
}

impl Hooks {
    fn hold(&self) {
        self.gate.lock().unwrap().held = true;
    }

    /// Lets exactly one blocked (or future) `txn_batch` through.
    fn release_one(&self) {
        self.gate.lock().unwrap().permits += 1;
        self.moved.notify_all();
    }

    fn open(&self) {
        self.gate.lock().unwrap().held = false;
        self.moved.notify_all();
    }

    /// Blocks until `n` `txn_batch` calls have reached the gate.
    fn wait_entered(&self, n: usize) {
        let gate = self.gate.lock().unwrap();
        let (_gate, timeout) =
            self.moved.wait_timeout_while(gate, PATIENCE, |g| g.batches.len() < n).unwrap();
        assert!(!timeout.timed_out(), "worker never reached txn_batch #{n}");
    }

    fn batches(&self) -> Vec<usize> {
        self.gate.lock().unwrap().batches.clone()
    }
}

/// A `PglStore` whose `txn_batch` can be held at a gate, or made to
/// panic once; everything else passes straight through.
#[derive(Clone)]
struct Hooked {
    inner: PglStore,
    hooks: Arc<Hooks>,
}

impl Store for Hooked {
    fn uuid(&self) -> u64 {
        self.inner.uuid()
    }

    fn txn_with_stats<R>(
        &self,
        f: &mut dyn FnMut(&mut dyn TxOps) -> KvResult<R>,
    ) -> KvResult<(R, TxStats)> {
        self.inner.txn_with_stats(f)
    }

    fn txn_batch(&self, ops: &mut [BatchOp<'_>]) -> Vec<KvResult<Option<u64>>> {
        if self.hooks.panic_next.swap(false, Ordering::Relaxed) {
            panic!("injected worker panic");
        }
        let mut gate = self.hooks.gate.lock().unwrap();
        gate.batches.push(ops.len());
        self.hooks.moved.notify_all();
        gate = self.hooks.moved.wait_while(gate, |g| g.held && g.permits == 0).unwrap();
        if gate.held {
            gate.permits -= 1;
        }
        drop(gate);
        self.inner.txn_batch(ops)
    }

    fn bind_shard(&self, shard: usize) {
        self.inner.bind_shard(shard);
    }

    fn read_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        self.inner.read_direct(oid, off, dst)
    }

    fn read_verified_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        self.inner.read_verified_direct(oid, off, dst)
    }

    fn last_tx_stats(&self) -> TxStats {
        self.inner.last_tx_stats()
    }

    fn root(&self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        self.inner.root(size, type_num)
    }
}

fn pgl_store() -> (PglStore, Arc<NvmDevice>) {
    let mut cfg = PglConfig::small();
    cfg.pool.size = 32 << 20;
    cfg.pool.zone_size = 16 << 20;
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    (PglStore::new(PglPool::create(dev.clone(), cfg).unwrap()), dev)
}

fn hooked_service(config: ServiceConfig) -> (KvService<Hooked>, Arc<Hooks>, Arc<NvmDevice>) {
    let (inner, dev) = pgl_store();
    let hooks = Arc::new(Hooks::default());
    let service = KvService::new(Hooked { inner, hooks: hooks.clone() }, config).unwrap();
    (service, hooks, dev)
}

/// The first `n` keys at or after `from` that route to `shard`.
fn keys_on(shard: usize, shards: usize, from: u64, n: usize) -> Vec<u64> {
    (from..).filter(|&k| (splitmix64(k) % shards as u64) as usize == shard).take(n).collect()
}

fn puts(keys: &[u64]) -> Vec<Request> {
    keys.iter().map(|&key| Request::Put { key, value: key + 1 }).collect()
}

/// Spins (yielding) until the lane counters satisfy `ready`.
fn wait_lanes<S: Store + Clone>(service: &KvService<S>, ready: impl Fn(LaneStats) -> bool) {
    let start = Instant::now();
    while !ready(service.lane_stats()) {
        assert!(start.elapsed() < PATIENCE, "lanes stuck at {:?}", service.lane_stats());
        std::thread::yield_now();
    }
}

/// Holds the single shard-0 worker inside `txn_batch` on a plug write.
/// The returned handle yields the plug's response once the gate moves.
fn plug<'s>(
    s: &'s std::thread::Scope<'s, '_>,
    service: &'s KvService<Hooked>,
    hooks: &Hooks,
    key: u64,
) -> std::thread::ScopedJoinHandle<'s, Vec<Response>> {
    hooks.hold();
    let handle = s.spawn(move || service.call(&[Request::Put { key, value: 0 }]));
    hooks.wait_entered(1);
    handle
}

#[test]
fn frames_match_the_sequential_model_for_every_shard_and_batch_shape() {
    for shards in [1usize, 2, 4] {
        for batch_max in [1usize, 4, 32] {
            let (store, _dev) = pgl_store();
            let config = ServiceConfig { shards, batch_max, ..ServiceConfig::default() };
            let service = KvService::new(store, config).unwrap();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut rng = StdRng::seed_from_u64(0x21_0000 + (shards * 100 + batch_max) as u64);
            for frame in 0..12u64 {
                // 16 hot keys: most GETs follow a PUT or DEL of their key
                // inside the same frame, and every SCAN follows writes on
                // every shard.
                let mut reqs = Vec::new();
                let mut want = Vec::new();
                for _ in 0..64 {
                    let key = rng.gen_range(0..16u64);
                    match rng.gen_range(0..10u32) {
                        0..=3 => {
                            let value = rng.gen_range(0..u64::MAX);
                            reqs.push(Request::Put { key, value });
                            want.push(Response::Value(model.insert(key, value)));
                        }
                        4..=6 => {
                            reqs.push(Request::Get { key });
                            want.push(Response::Value(model.get(&key).copied()));
                        }
                        7..=8 => {
                            reqs.push(Request::Del { key });
                            want.push(Response::Value(model.remove(&key)));
                        }
                        _ => {
                            let limit = rng.gen_range(1..=8u32);
                            reqs.push(Request::Scan { start: key, limit });
                            let pairs = model.range(key..).take(limit as usize);
                            want.push(Response::Pairs(pairs.map(|(&k, &v)| (k, v)).collect()));
                        }
                    }
                }
                let got = service.call(&reqs);
                for (slot, (got, want)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got, want,
                        "shards {shards} batch_max {batch_max} frame {frame} slot {slot}: {:?}",
                        reqs[slot]
                    );
                }
            }
            let stats = service.lane_stats();
            assert!(stats.jobs <= 12 * shards as u64, "{stats:?} on {shards} shard(s)");
            assert_eq!(stats.shed, 0);
        }
    }
}

#[test]
fn a_frame_costs_at_most_one_job_per_shard() {
    let (store, _dev) = pgl_store();
    let service =
        KvService::new(store, ServiceConfig { shards: 2, ..ServiceConfig::default() }).unwrap();
    let frame: Vec<Request> = (0..32u64)
        .map(
            |key| {
                if key % 2 == 0 {
                    Request::Put { key, value: key }
                } else {
                    Request::Get { key }
                }
            },
        )
        .collect();
    assert!(service.call(&frame).iter().all(|r| matches!(r, Response::Value(_))));
    let stats = service.lane_stats();
    assert!(stats.jobs <= 2, "32 point ops on 2 shards pushed {} jobs", stats.jobs);
    assert_eq!((stats.requests, stats.shed), (32, 0));

    let (store, _dev) = pgl_store();
    let service =
        KvService::new(store, ServiceConfig { shards: 4, ..ServiceConfig::default() }).unwrap();
    // Two point ops cannot reach four shards; the scan's parts do.
    let frame = [
        Request::Put { key: 1, value: 1 },
        Request::Scan { start: 0, limit: 8 },
        Request::Get { key: 1 },
    ];
    let resps = service.call(&frame);
    assert_eq!(resps[1], Response::Pairs(vec![(1, 1)]));
    assert_eq!(service.lane_stats(), LaneStats { jobs: 4, requests: 2 + 4, shed: 0 });
}

#[test]
fn lane_bound_counts_requests_and_sheds_the_tail() {
    let config = ServiceConfig { shards: 1, queue_depth: 4, ..ServiceConfig::default() };
    let (service, hooks, _dev) = hooked_service(config);
    let keys: Vec<u64> = (100..110).collect();
    let resps = std::thread::scope(|s| {
        let plugged = plug(s, &service, &hooks, 1);
        // The worker holds the plug, so the lane is empty: 4 of the 10
        // fit, and no later drain can make room for the other 6.
        let frame = s.spawn(|| service.call(&puts(&keys)));
        wait_lanes(&service, |l| l.shed == 6);
        assert_eq!(service.lane_stats(), LaneStats { jobs: 2, requests: 1 + 4, shed: 6 });
        assert_eq!(service.admission().inflight(), 1 + 10);
        hooks.open();
        assert_eq!(plugged.join().unwrap(), vec![Response::Value(None)]);
        frame.join().unwrap()
    });
    assert!(resps[..4].iter().all(|r| *r == Response::Value(None)), "{resps:?}");
    assert!(resps[4..].iter().all(|r| *r == Response::Busy), "{resps:?}");
    assert_eq!(service.admission().inflight(), 0, "permits leaked");
    // Acknowledged means executed; Busy means never executed.
    let gets: Vec<Request> = keys.iter().map(|&key| Request::Get { key }).collect();
    for (i, resp) in service.call(&gets[..4]).into_iter().enumerate() {
        assert_eq!(resp, Response::Value(Some(keys[i] + 1)));
    }
    for resp in service.call(&gets[4..8]) {
        assert_eq!(resp, Response::Value(None), "a shed put executed");
    }
}

#[test]
fn scan_with_one_part_shed_is_busy_as_a_whole() {
    let config = ServiceConfig { shards: 2, queue_depth: 4, ..ServiceConfig::default() };
    let (service, hooks, _dev) = hooked_service(config);
    let on0 = keys_on(0, 2, 0, 6);
    let on1 = keys_on(1, 2, 0, 2);
    std::thread::scope(|s| {
        let plugged = plug(s, &service, &hooks, on0[0]);
        let filler = s.spawn(|| service.call(&puts(&on0[1..5])));
        wait_lanes(&service, |l| l.requests == 5);
        // Shard 0's lane is full, shard 1's is idle: the scan's part and
        // the put for shard 0 are shed, shard 1 serves its three.
        let frame = [
            Request::Get { key: on1[0] },
            Request::Scan { start: 0, limit: 10 },
            Request::Put { key: on0[5], value: 9 },
            Request::Get { key: on1[1] },
        ];
        let resps = service.call(&frame);
        assert_eq!(
            resps,
            vec![Response::Value(None), Response::Busy, Response::Busy, Response::Value(None)],
            "shard 1's stray scan part must not answer the shed scan"
        );
        assert_eq!(service.lane_stats(), LaneStats { jobs: 3, requests: 5 + 3, shed: 2 });
        hooks.open();
        assert_eq!(plugged.join().unwrap(), vec![Response::Value(None)]);
        assert_eq!(filler.join().unwrap(), vec![Response::Value(None); 4]);
    });
    assert_eq!(service.admission().inflight(), 0);
}

#[test]
fn group_commit_spans_connections() {
    let config = ServiceConfig { shards: 1, batch_max: 32, ..ServiceConfig::default() };
    let (service, hooks, dev) = hooked_service(config);
    let before = dev.stats();
    let (a, b): (Vec<u64>, Vec<u64>) = ((100..108).collect(), (200..208).collect());
    std::thread::scope(|s| {
        let plugged = plug(s, &service, &hooks, 1);
        let frames = [s.spawn(|| service.call(&puts(&a))), s.spawn(|| service.call(&puts(&b)))];
        wait_lanes(&service, |l| l.jobs == 3);
        hooks.open();
        plugged.join().unwrap();
        for frame in frames {
            assert_eq!(frame.join().unwrap(), vec![Response::Value(None); 8]);
        }
    });
    // The two queued sub-batches were drained together into one commit.
    assert_eq!(hooks.batches(), vec![1, 16]);
    let d = dev.stats().delta_since(&before);
    assert!(
        d.group_commits > 0 && d.group_txns > 8 * d.group_commits,
        "{} txns in {} group commits",
        d.group_txns,
        d.group_commits
    );
}

#[test]
fn read_only_job_is_answered_before_the_group_commit() {
    let config = ServiceConfig { shards: 1, batch_max: 32, ..ServiceConfig::default() };
    let (service, hooks, _dev) = hooked_service(config);
    std::thread::scope(|s| {
        let plugged = plug(s, &service, &hooks, 1);
        let (write_done, write_rx) = mpsc::channel();
        let (read_done, read_rx) = mpsc::channel();
        let service = &service;
        s.spawn(move || write_done.send(service.call(&puts(&[100, 101, 102, 103]))));
        wait_lanes(service, |l| l.jobs == 2);
        s.spawn(move || {
            let gets: Vec<Request> = (200..204).map(|key| Request::Get { key }).collect();
            read_done.send(service.call(&gets))
        });
        wait_lanes(service, |l| l.jobs == 3);
        // The plug commits; the worker drains both jobs, and stops at the
        // gate again with the write job's group.
        hooks.release_one();
        plugged.join().unwrap();
        hooks.wait_entered(2);
        let read = read_rx.recv_timeout(PATIENCE);
        let write_pending = write_rx.try_recv().is_err();
        hooks.open(); // before asserting, so a failure cannot hang the scope
        assert_eq!(read.expect("reads waited for the commit"), vec![Response::Value(None); 4]);
        assert!(write_pending, "writes acknowledged before their commit");
        assert_eq!(write_rx.recv_timeout(PATIENCE).unwrap(), vec![Response::Value(None); 4]);
    });
    assert_eq!(hooks.batches(), vec![1, 4]);
}

#[test]
fn dead_worker_answers_a_typed_error_not_busy() {
    let config = ServiceConfig { shards: 2, ..ServiceConfig::default() };
    let (service, hooks, _dev) = hooked_service(config);
    let on0 = keys_on(0, 2, 0, 2);
    let on1 = keys_on(1, 2, 0, 2);
    let gone = Response::Error("shard worker unavailable".into());

    // The marked put takes shard 0's worker down mid-commit.
    hooks.panic_next.store(true, Ordering::Relaxed);
    assert_eq!(service.call(&[Request::Put { key: on0[0], value: 1 }]), vec![gone.clone()]);

    // From now on shard 0 refuses typed and non-retryable (a client must
    // not back off and retry a shard that will never answer); shard 1
    // keeps serving; a scan needs every shard, so it fails too.
    let frame = [
        Request::Get { key: on0[1] },
        Request::Put { key: on1[0], value: 7 },
        Request::Scan { start: 0, limit: 4 },
        Request::Get { key: on1[0] },
    ];
    for _ in 0..3 {
        let resps = service.call(&frame);
        assert_eq!(resps[0], gone);
        assert!(!resps[0].is_retryable());
        assert!(matches!(resps[1], Response::Value(_)), "{resps:?}");
        assert_eq!(resps[2], gone);
        assert_eq!(resps[3], Response::Value(Some(7)));
    }
    assert_eq!(service.lane_stats().shed, 0, "a dead worker is not overload");
    assert_eq!(service.admission().inflight(), 0);
}
