//! `svc_write` and `svc_read`: the in-process `KvServer` over real TCP on
//! `127.0.0.1:0`, driven closed-loop.
//!
//! Closed loop, because the callers are RPC clients that wait for their
//! reply: two blocking `Client` connections, each sending its next 32-op
//! frame only when the previous one is answered (64 logical clients). The
//! connections own disjoint key sets (key mod 2), so each connection's
//! shadow model is exact; the service preserves per-key program order
//! within a frame, which is all the model needs.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pangolin::{CsumPolicy, PglMode, PglPool};
use pgl_kv::maps::splitmix64 as shard_hash;
use pgl_kv::store::{BatchOp, PglStore, Store};
use pgl_kv::{BTree, PersistentMap};
use pgl_nvm::{LatencyModel, NvmDevice};
use pgl_server::proto::{Request, Response};
use pgl_server::{Client, KvServer, KvService, ServiceConfig};

use super::{pool_is_sound, run_threads, timed, Bench, Params, PassOut, Workload};
use crate::device::{create_pgl, pgl_config, Mode};
use crate::gen::{Mix, Rng, Zipf};
use crate::metrics::Values;
use crate::stats::Summary;
use crate::trace::{span, TracedStore, CLIENT_CALL};

const SHARDS: usize = 2;
const CONNS: usize = 2;
const FRAME_OPS: usize = 32;
const SCAN_LIMIT: u32 = 16;
/// Keys over both connections; every one is preloaded.
const KEYS: usize = 40_000;
/// Ops per preload and sweep frame: with both connections sending, well
/// inside a shard queue's depth of 128, so nothing is refused.
const PRELOAD_FRAME: usize = 64;

type Store2 = TracedStore<PglStore>;

struct Spec {
    /// Frames each connection sends per pass.
    frames_per_pass: usize,
    /// PUT, GET, DEL, SCAN percentages.
    mix: Mix<4>,
}

const WRITE: Spec = Spec { frames_per_pass: 512, mix: Mix::new([70, 20, 10, 0]) };
const READ: Spec = Spec { frames_per_pass: 1024, mix: Mix::new([5, 94, 0, 1]) };

fn config() -> ServiceConfig {
    ServiceConfig { shards: SHARDS, ..ServiceConfig::default() }
}

#[derive(Debug, Clone, PartialEq)]
enum Expect {
    Value(Option<u64>),
    /// The first [`SCAN_LIMIT`] keys this connection owns at or after the
    /// scan's start, and whether it owns more.
    Scan {
        own: Vec<(u64, u64)>,
        more: bool,
    },
}

struct Frame {
    reqs: Vec<Request>,
    expect: Vec<Expect>,
}

/// One connection's generator and model.
struct Conn {
    id: u64,
    model: BTreeMap<u64, u64>,
    rng: Rng,
}

impl Conn {
    fn new(seed: u64, id: u64) -> Conn {
        let mut rng = Rng::new(seed, 40 + id);
        let model = (0..(KEYS / CONNS) as u64).map(|r| (r * CONNS as u64 + id, rng.next_u64()));
        Conn { id, model: model.collect(), rng }
    }

    fn frame(&mut self, zipf: &Zipf, mix: &Mix<4>, ops: usize) -> Frame {
        let mut frame = Frame { reqs: Vec::with_capacity(ops), expect: Vec::with_capacity(ops) };
        for _ in 0..ops {
            let key = zipf.sample(&mut self.rng) as u64 * CONNS as u64 + self.id;
            let (req, expect) = match mix.pick(&mut self.rng) {
                0 => {
                    let value = self.rng.next_u64();
                    (Request::Put { key, value }, Expect::Value(self.model.insert(key, value)))
                }
                1 => (Request::Get { key }, Expect::Value(self.model.get(&key).copied())),
                2 => (Request::Del { key }, Expect::Value(self.model.remove(&key))),
                _ => {
                    let mut rest = self.model.range(key..).map(|(k, v)| (*k, *v));
                    let own: Vec<_> = rest.by_ref().take(SCAN_LIMIT as usize).collect();
                    let expect = Expect::Scan { own, more: rest.next().is_some() };
                    (Request::Scan { start: key, limit: SCAN_LIMIT }, expect)
                }
            };
            frame.reqs.push(req);
            frame.expect.push(expect);
        }
        frame
    }

    /// Whether `resp` is what the model says connection `self.id` must see.
    fn accepts(id: u64, resp: &Response, expect: &Expect) -> bool {
        match (resp, expect) {
            (Response::Value(got), Expect::Value(want)) => got == want,
            (Response::Pairs(pairs), Expect::Scan { own, more }) => {
                // A scan returns the first SCAN_LIMIT keys of *both*
                // connections; the other one's are not ours to judge.
                let mine = pairs.iter().filter(|(k, _)| k % CONNS as u64 == id);
                if pairs.len() < SCAN_LIMIT as usize {
                    !more && mine.eq(own.iter())
                } else {
                    let last = pairs[pairs.len() - 1].0;
                    mine.eq(own.iter().filter(|(k, _)| *k <= last))
                }
            }
            // Busy (refused), Error and Unrecoverable all count as failed.
            _ => false,
        }
    }
}

/// Failed ops of one answered frame.
fn judge(id: u64, frame: &Frame, resps: std::io::Result<Vec<Response>>) -> u64 {
    match resps {
        Ok(resps) if resps.len() == frame.reqs.len() => {
            resps.iter().zip(&frame.expect).filter(|(r, e)| !Conn::accepts(id, r, e)).count() as u64
        }
        _ => frame.reqs.len() as u64,
    }
}

/// Counters of the loaded passes, for the `server.*` batching metrics.
#[derive(Default)]
struct Loaded {
    ops: u64,
    writes: u64,
    failed: u64,
    fences: u64,
    group_commits: u64,
    group_txns: u64,
}

pub struct SvcBench {
    spec: &'static Spec,
    frames_per_pass: usize,
    dev: Arc<NvmDevice>,
    pool: PglPool,
    store: Store2,
    server: KvServer<Store2>,
    clients: [Mutex<Client>; CONNS],
    conns: [Conn; CONNS],
    zipf: Zipf,
    loaded: Loaded,
    seed: u64,
    corrupt: bool,
}

impl SvcBench {
    /// Sends `frames` over connection `id` and returns per-frame RTTs.
    fn timed_calls(
        &self,
        id: usize,
        frames: &[Frame],
        samples: &mut Vec<u32>,
    ) -> (Instant, Instant, u64) {
        let mut client = self.clients[id].lock().expect("client");
        let mut bad = 0u64;
        let (start, end, _) = timed(frames, 1, samples, |frame| {
            let resps = {
                let _s = span(CLIENT_CALL);
                client.call(&frame.reqs)
            };
            bad += judge(id as u64, frame, resps);
            true
        });
        (start, end, bad)
    }

    fn median_us(samples: &[u32]) -> f64 {
        Summary::of(&samples.iter().map(|&ns| f64::from(ns) / 1e3).collect::<Vec<_>>()).median
    }
}

impl Bench for SvcBench {
    const GENERATORS: usize = CONNS;

    fn setup(w: Workload, p: &Params, latency: LatencyModel, mode: Mode) -> SvcBench {
        assert_eq!(mode, Mode::MLPC, "the service runs on the full system only");
        let spec = if w == Workload::SvcRead { &READ } else { &WRITE };
        let (dev, pool) = create_pgl(latency, pgl_config(PglMode::Mlpc, CsumPolicy::Default));
        let store = TracedStore(PglStore::new(pool.clone()));
        let server = KvServer::start(store.clone(), config(), "127.0.0.1:0").expect("start server");
        let connect = || Mutex::new(Client::connect(server.local_addr()).expect("connect"));
        let clients = [connect(), connect()];
        let conns = [Conn::new(p.seed, 0), Conn::new(p.seed, 1)];
        std::thread::scope(|s| {
            for (client, conn) in clients.iter().zip(&conns) {
                s.spawn(move || {
                    let mut client = client.lock().expect("client");
                    let puts: Vec<Request> = conn
                        .model
                        .iter()
                        .map(|(&key, &value)| Request::Put { key, value })
                        .collect();
                    for chunk in puts.chunks(PRELOAD_FRAME) {
                        let resps = client.call(chunk).expect("preload frame");
                        assert!(resps.iter().all(|r| *r == Response::Value(None)), "preload");
                    }
                });
            }
        });
        SvcBench {
            spec,
            frames_per_pass: p.scaled(spec.frames_per_pass),
            dev,
            pool,
            store,
            server,
            clients,
            conns,
            zipf: Zipf::new(KEYS / CONNS, 0.99),
            loaded: Loaded::default(),
            seed: p.seed,
            corrupt: p.corrupt,
        }
    }

    /// One latency sample per frame (its round-trip time).
    fn pass(&mut self, _threads: usize, samples: &mut Vec<u32>) -> PassOut {
        let gen_start = Instant::now();
        let (zipf, mix, n) = (&self.zipf, &self.spec.mix, self.frames_per_pass);
        let mut frames: Vec<Vec<Frame>> = self
            .conns
            .iter_mut()
            .map(|c| (0..n).map(|_| c.frame(zipf, mix, FRAME_OPS)).collect())
            .collect();
        if std::mem::take(&mut self.corrupt) {
            let slot = frames[0][0].expect.iter_mut().find_map(|e| match e {
                Expect::Value(v) => Some(v),
                Expect::Scan { .. } => None,
            });
            let v = slot.expect("a frame has point ops");
            *v = Some(v.map_or(1, |x| x ^ 1));
        }
        let gen = gen_start.elapsed();
        let before = self.dev.stats();
        let this = &*self;
        let (wall, failed) =
            run_threads(CONNS, samples, |id, samples| this.timed_calls(id, &frames[id], samples));
        let d = self.dev.stats().delta_since(&before);
        let reqs = || frames.iter().flatten().flat_map(|f| &f.reqs);
        let puts = reqs().filter(|r| matches!(r, Request::Put { .. })).count() as u64;
        let dels = reqs().filter(|r| matches!(r, Request::Del { .. })).count() as u64;
        let ops = (CONNS * n * FRAME_OPS) as u64;
        self.loaded.ops += ops;
        self.loaded.writes += puts + dels;
        self.loaded.failed += failed;
        self.loaded.fences += d.fences;
        self.loaded.group_commits += d.group_commits;
        self.loaded.group_txns += d.group_txns;
        PassOut { ops, failed, user_bytes: 16 * puts, wall, gen }
    }

    fn dev(&self) -> &Arc<NvmDevice> {
        &self.dev
    }

    fn pool(&self) -> Option<PglPool> {
        Some(self.pool.clone())
    }

    /// The same kind of frames replayed three ways from one thread — over
    /// TCP, through `KvService::call` in-process, and straight into
    /// `Store::txn_batch` + `BTree::get` — so that the differences isolate
    /// the TCP layer and the admission/lane/batch layer. Aggregate
    /// differences of medians: worker-thread spans carry no request id.
    fn extras(&mut self, values: &mut Values) -> u64 {
        const REPLAY_FRAMES: usize = 256;
        const UNLOADED_FRAMES: usize = 1500;
        let l = &self.loaded;
        values.set("server.group_factor", l.group_txns as f64 / l.group_commits.max(1) as f64);
        values.set("server.fences_per_write", l.fences as f64 / l.writes.max(1) as f64);
        values.set("server.busy_frac", l.failed as f64 / l.ops.max(1) as f64);
        values.set("server.admission_peak", self.server.service().admission().peak() as f64);

        let mix = &self.spec.mix;
        let mut gen = |ops: usize, n: usize| -> Vec<Frame> {
            (0..n).map(|_| self.conns[0].frame(&self.zipf, mix, ops)).collect()
        };
        let (unloaded, tcp, inproc) =
            (gen(1, UNLOADED_FRAMES), gen(FRAME_OPS, REPLAY_FRAMES), gen(FRAME_OPS, REPLAY_FRAMES));
        let mut bad = 0;
        let mut rtt = Vec::new();
        bad += self.timed_calls(0, &unloaded, &mut rtt).2;
        values.set("server.unloaded_rtt_us", SvcBench::median_us(&rtt));
        rtt.clear();
        bad += self.timed_calls(0, &tcp, &mut rtt).2;
        let tcp_us = SvcBench::median_us(&rtt);
        rtt.clear();
        let service = self.server.service();
        timed(&inproc, 1, &mut rtt, |frame| {
            bad += judge(0, frame, Ok(service.call(&frame.reqs)));
            true
        });
        let inproc_us = SvcBench::median_us(&rtt);
        rtt.clear();
        let mut direct = Direct::preload(&self.store, self.seed);
        let frames: Vec<Frame> =
            (0..REPLAY_FRAMES).map(|_| direct.conn.frame(&self.zipf, mix, FRAME_OPS)).collect();
        timed(&frames, 1, &mut rtt, |frame| {
            bad += judge(0, frame, Ok(direct.call(&self.store, &frame.reqs)));
            true
        });
        let backend_us = SvcBench::median_us(&rtt);
        values.set("server.inproc_frame_us", inproc_us);
        values.set("server.backend_frame_us", backend_us);
        values.set("server.tcp_self_us", tcp_us - inproc_us);
        values.set("server.queue_self_us", inproc_us - backend_us);
        if bad > 0 {
            eprintln!("replays: {bad} op(s) answered differently from the model");
        }
        bad
    }

    /// Drains the server, then re-reads every key through a fresh
    /// `KvService` over the same store: every acknowledged write must be
    /// there, and nothing else.
    fn finish(self) -> u64 {
        let SvcBench { server, clients, conns, store, pool, .. } = self;
        let mut bad = 0u64;
        drop(clients);
        server.drain();
        let service = KvService::new(store, config()).expect("re-attach service");
        for conn in &conns {
            let keys: Vec<u64> =
                (0..(KEYS / CONNS) as u64).map(|r| r * CONNS as u64 + conn.id).collect();
            for chunk in keys.chunks(PRELOAD_FRAME) {
                let reqs: Vec<Request> = chunk.iter().map(|&key| Request::Get { key }).collect();
                let resps = service.call(&reqs);
                for (key, resp) in chunk.iter().zip(resps) {
                    if resp != Response::Value(conn.model.get(key).copied()) {
                        bad += 1;
                    }
                }
            }
        }
        drop(service);
        if bad > 0 {
            eprintln!("sweep: {bad} key(s) differ from the model after drain and re-attach");
        }
        bad + pool_is_sound(&pool)
    }
}

/// The service's back end without the service: the same hash-sharded
/// B-trees, driven by one thread the way a shard worker drives them
/// (writes of a frame grouped into one `txn_batch` per shard, reads served
/// in place, a read of a key the group wrote commits the group first).
struct Direct {
    maps: [BTree; SHARDS],
    conn: Conn,
}

impl Direct {
    fn preload(store: &Store2, seed: u64) -> Direct {
        let maps = [BTree::create(store).expect("btree"), BTree::create(store).expect("btree")];
        let mut direct = Direct { maps, conn: Conn::new(seed, 0) };
        let puts: Vec<Request> =
            direct.conn.model.iter().map(|(&key, &value)| Request::Put { key, value }).collect();
        for chunk in puts.chunks(FRAME_OPS) {
            direct.call(store, chunk);
        }
        direct
    }

    fn shard_of(key: u64) -> usize {
        (shard_hash(key) % SHARDS as u64) as usize
    }

    fn call(&mut self, store: &Store2, reqs: &[Request]) -> Vec<Response> {
        let mut out: Vec<Option<Response>> = vec![None; reqs.len()];
        let mut scans: Vec<(usize, Vec<(u64, u64)>)> = Vec::new();
        for (shard, map) in self.maps.iter().enumerate() {
            let mut group: Vec<(usize, Request)> = Vec::new();
            let mut written: HashSet<u64> = HashSet::new();
            let commit = |group: &mut Vec<(usize, Request)>, out: &mut Vec<Option<Response>>| {
                let mut ops: Vec<BatchOp<'_>> = group
                    .iter()
                    .map(|&(_, req)| -> BatchOp<'_> {
                        match req {
                            Request::Put { key, value } => {
                                Box::new(move |tx| map.insert_tx(tx, key, value))
                            }
                            Request::Del { key } => Box::new(move |tx| map.remove_tx(tx, key)),
                            _ => unreachable!("reads are not grouped"),
                        }
                    })
                    .collect();
                let results = store.txn_batch(&mut ops);
                for (&(slot, _), result) in group.iter().zip(results) {
                    out[slot] = result.ok().map(Response::Value);
                }
                group.clear();
            };
            for (slot, &req) in reqs.iter().enumerate() {
                match req {
                    Request::Put { key, .. } | Request::Del { key }
                        if Direct::shard_of(key) == shard =>
                    {
                        written.insert(key);
                        group.push((slot, req));
                    }
                    Request::Get { key } if Direct::shard_of(key) == shard => {
                        if written.contains(&key) {
                            commit(&mut group, &mut out);
                            written.clear();
                        }
                        out[slot] = map.get(store, key).ok().map(Response::Value);
                    }
                    Request::Scan { start, limit } => {
                        commit(&mut group, &mut out);
                        written.clear();
                        let mut pairs = Vec::new();
                        if map.scan(store, start, limit as usize, &mut pairs).is_ok() {
                            match scans.iter_mut().find(|(s, _)| *s == slot) {
                                Some((_, all)) => all.append(&mut pairs),
                                None => scans.push((slot, pairs)),
                            }
                        }
                    }
                    _ => {}
                }
            }
            commit(&mut group, &mut out);
        }
        for (slot, mut pairs) in scans {
            pairs.sort_unstable();
            pairs.truncate(SCAN_LIMIT as usize);
            out[slot] = Some(Response::Pairs(pairs));
        }
        out.into_iter().map(|r| r.unwrap_or_else(|| Response::Error("back end".into()))).collect()
    }
}

#[cfg(test)]
pub fn stream_hash(w: Workload, seed: u64, n: usize) -> u64 {
    let spec = if w == Workload::SvcRead { &READ } else { &WRITE };
    let zipf = Zipf::new(KEYS / CONNS, 0.99);
    let mut conns = [Conn::new(seed, 0), Conn::new(seed, 1)];
    let mut h = crate::gen::Fnv::default();
    for i in 0..n.div_ceil(FRAME_OPS) {
        let frame = conns[i % CONNS].frame(&zipf, &spec.mix, FRAME_OPS);
        for (req, expect) in frame.reqs.iter().zip(&frame.expect) {
            match *req {
                Request::Put { key, value } => h.eat(&[0, key, value]),
                Request::Get { key } => h.eat(&[1, key]),
                Request::Del { key } => h.eat(&[2, key]),
                Request::Scan { start, limit } => h.eat(&[3, start, limit.into()]),
            }
            match expect {
                Expect::Value(v) => h.eat(&[v.map_or(u64::MAX, |v| v)]),
                Expect::Scan { own, more } => {
                    h.eat(&[own.len() as u64, u64::from(*more)]);
                    own.iter().for_each(|&(k, v)| h.eat(&[k, v]));
                }
            }
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_answers_are_judged_on_own_keys_only() {
        let own = vec![(10, 1), (12, 2), (14, 3)];
        let expect = Expect::Scan { own: own.clone(), more: false };
        // Short answer: everything at or after the start came back.
        let short = Response::Pairs(vec![(10, 1), (11, 9), (12, 2), (13, 9), (14, 3)]);
        assert!(Conn::accepts(0, &short, &expect));
        let missing = Response::Pairs(vec![(10, 1), (11, 9), (14, 3)]);
        assert!(!Conn::accepts(0, &missing, &expect));
        // Full answer: judged up to the last key returned.
        let mut full: Vec<(u64, u64)> =
            (0..SCAN_LIMIT as u64 - 2).map(|i| (2 * i + 1, 9)).collect();
        full.extend([(10, 1), (12, 2)]);
        full.sort_unstable();
        let cut_at = full[full.len() - 1].0;
        assert!(cut_at < 14 || full.iter().any(|p| p.0 == 14) || cut_at >= 12);
        let full = Response::Pairs(full);
        let verdict = Conn::accepts(0, &full, &expect);
        assert_eq!(
            verdict,
            cut_at < 14,
            "own key 14 is beyond the cut only if the cut is below it"
        );
        assert!(!Conn::accepts(0, &Response::Busy, &Expect::Value(None)));
        assert!(Conn::accepts(1, &Response::Value(Some(3)), &Expect::Value(Some(3))));
    }

    #[test]
    fn service_smoke_checks_every_answer_and_catches_a_corrupted_expectation() {
        for (w, corrupt) in
            [(Workload::SvcWrite, false), (Workload::SvcRead, false), (Workload::SvcRead, true)]
        {
            let p = Params { seed: 11, smoke: true, corrupt };
            let mut b = SvcBench::setup(w, &p, LatencyModel::disabled(), Mode::MLPC);
            let mut samples = Vec::new();
            let out = b.pass(1, &mut samples);
            assert_eq!(samples.len(), CONNS * b.frames_per_pass);
            let swept = b.finish();
            if corrupt {
                assert_eq!(out.failed, 1, "exactly the corrupted expectation fails");
            } else {
                assert_eq!((out.failed, swept), (0, 0), "{}", w.name());
            }
        }
    }

    #[test]
    fn direct_back_end_answers_like_the_model() {
        let (_dev, pool) =
            create_pgl(LatencyModel::disabled(), pgl_config(PglMode::Mlpc, CsumPolicy::Default));
        let store = TracedStore(PglStore::new(pool));
        let mut direct = Direct::preload(&store, 3);
        let zipf = Zipf::new(KEYS / CONNS, 0.99);
        for spec in [&WRITE, &READ] {
            for _ in 0..20 {
                let frame = direct.conn.frame(&zipf, &spec.mix, FRAME_OPS);
                let resps = direct.call(&store, &frame.reqs);
                assert_eq!(judge(0, &frame, Ok(resps)), 0);
            }
        }
    }
}
