//! `svc_load`: service-level load generator for the `pgl-server` KV
//! service.
//!
//! Simulates thousands of zipfian closed-loop clients multiplexed over a
//! smaller number of real TCP connections, runs the identical load twice —
//! once against a group-committing service and once with grouping disabled
//! (`batch_max = 1`) — and reports per-request p50/p99 latency, throughput,
//! and persistence fences per write transaction from the device's own
//! counters. The fence ratio is the paper-style headline: group commit
//! amortizes one redo-log persist + one commit fence + one parity-patch
//! window across each batch.
//!
//! ```text
//! svc_load [--clients N] [--conns N] [--ops N] [--keys N] [--theta F]
//!          [--shards N] [--batch N] [--read-heavy] [--no-latency]
//!          [--seed N] [--json PATH]
//! ```

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pangolin::{PglConfig, PglMode, PglPool};
use pgl_bench::{fmt_latency, fmt_rate, print_table};
use pgl_kv::store::PglStore;
use pgl_kv::workload::{OpMix, Workload, WorkloadOp};
use pgl_nvm::{DeviceConfig, LatencyModel, NvmDevice, PersistenceMode, StatsSnapshot};
use pgl_server::lane::LaneStats;
use pgl_server::proto::{Request, Response};
use pgl_server::{Client, KvServer, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone)]
struct Opts {
    clients: usize,
    conns: usize,
    ops: usize,
    keys: usize,
    theta: f64,
    shards: usize,
    batch: usize,
    read_heavy: bool,
    latency: LatencyModel,
    seed: u64,
    json: Option<String>,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            clients: 256,
            conns: 16,
            ops: 40_000,
            keys: 10_000,
            theta: 0.99,
            shards: 4,
            batch: 64,
            read_heavy: false,
            latency: LatencyModel::optane(),
            seed: 0x5e7_10ad,
            json: None,
        }
    }
}

fn parse_opts() -> Opts {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val =
            |what: &str| args.next().unwrap_or_else(|| panic!("{flag} needs a {what} argument"));
        match flag.as_str() {
            "--clients" => opts.clients = val("count").parse().expect("--clients N"),
            "--conns" => opts.conns = val("count").parse().expect("--conns N"),
            "--ops" => opts.ops = val("count").parse().expect("--ops N"),
            "--keys" => opts.keys = val("count").parse().expect("--keys N"),
            "--theta" => opts.theta = val("skew").parse().expect("--theta F"),
            "--shards" => opts.shards = val("count").parse().expect("--shards N"),
            "--batch" => opts.batch = val("count").parse().expect("--batch N"),
            "--read-heavy" => opts.read_heavy = true,
            "--no-latency" => opts.latency = LatencyModel::disabled(),
            "--seed" => opts.seed = val("seed").parse().expect("--seed N"),
            "--json" => opts.json = Some(val("path")),
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: svc_load [--clients N] [--conns N] [--ops N] [--keys N] [--theta F] \
                     [--shards N] [--batch N] [--read-heavy] [--no-latency] [--seed N] \
                     [--json PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    opts.clients = opts.clients.max(1);
    opts.conns = opts.conns.clamp(1, opts.clients);
    opts
}

/// One pass's measurements.
struct PassResult {
    label: &'static str,
    elapsed_s: f64,
    ops_done: u64,
    write_acks: u64,
    busy: u64,
    p50_ns: u64,
    p99_ns: u64,
    stats: StatsSnapshot,
    /// Frames the clients sent, and what the service's lanes carried for
    /// them: the thread hand-offs the load cost, as counts.
    frames: u64,
    lanes: LaneStats,
}

impl PassResult {
    fn throughput(&self) -> f64 {
        self.ops_done as f64 / self.elapsed_s
    }

    fn fences_per_write(&self) -> f64 {
        self.stats.fences as f64 / (self.write_acks.max(1)) as f64
    }

    fn group_factor(&self) -> f64 {
        if self.stats.group_commits == 0 {
            1.0
        } else {
            self.stats.group_txns as f64 / self.stats.group_commits as f64
        }
    }

    /// Lane messages per client frame; at most the shard count.
    fn jobs_per_frame(&self) -> f64 {
        self.lanes.jobs as f64 / self.frames.max(1) as f64
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Runs the full client load against one service configuration.
fn run_pass(opts: &Opts, batch_max: usize, label: &'static str) -> PassResult {
    let pool_bytes = 256 << 20;
    let dev_cfg = DeviceConfig { mode: PersistenceMode::Fast, latency: opts.latency };
    let dev = Arc::new(NvmDevice::new(pool_bytes, dev_cfg).expect("device"));
    let cfg = PglConfig::bench(pool_bytes, PglMode::Mlpc);
    let store = PglStore::new(PglPool::create(dev.clone(), cfg).expect("pool"));
    let svc_cfg = ServiceConfig {
        shards: opts.shards,
        queue_depth: 4096,
        batch_max,
        max_inflight: 1 << 16,
        ..ServiceConfig::default()
    };
    let server = KvServer::start(store, svc_cfg, "127.0.0.1:0").expect("server");
    let addr = server.local_addr();

    let mix = if opts.read_heavy { OpMix::read_heavy() } else { OpMix::write_heavy() };
    let workload = Arc::new(Workload::zipfian(opts.keys, opts.theta, mix, opts.seed));

    // `clients` logical closed-loop clients multiplexed over `conns` real
    // connections: each round every logical client on a connection
    // contributes one op, forming one frame — the wire-level batching
    // that feeds the server's group-commit window.
    let per_conn = opts.clients.div_ceil(opts.conns);
    let rounds = opts.ops.div_ceil(opts.clients).max(1);
    let write_acks = AtomicU64::new(0);
    let busy = AtomicU64::new(0);
    let ops_done = AtomicU64::new(0);
    let samples: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(opts.ops));

    let before = dev.stats();
    let started = Instant::now();
    std::thread::scope(|s| {
        for conn_id in 0..opts.conns {
            let workload = Arc::clone(&workload);
            let (write_acks, busy, ops_done, samples) = (&write_acks, &busy, &ops_done, &samples);
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut rngs: Vec<StdRng> = (0..per_conn)
                    .map(|c| StdRng::seed_from_u64(opts.seed ^ (conn_id * per_conn + c) as u64))
                    .collect();
                let mut local_samples = Vec::with_capacity(rounds * per_conn);
                for _ in 0..rounds {
                    let reqs: Vec<Request> = rngs
                        .iter_mut()
                        .map(|rng| match workload.next_op(rng) {
                            WorkloadOp::Get(key) => Request::Get { key },
                            WorkloadOp::Put(key, value) => Request::Put { key, value },
                            WorkloadOp::Del(key) => Request::Del { key },
                            WorkloadOp::Scan(start, limit) => Request::Scan { start, limit },
                        })
                        .collect();
                    let t0 = Instant::now();
                    let resps = client.call(&reqs).expect("call");
                    let rtt = t0.elapsed().as_nanos() as u64;
                    let mut writes = 0u64;
                    let mut shed = 0u64;
                    for (req, resp) in reqs.iter().zip(&resps) {
                        match resp {
                            Response::Busy => shed += 1,
                            Response::Error(e) => panic!("server error: {e}"),
                            _ => {
                                if matches!(req, Request::Put { .. } | Request::Del { .. }) {
                                    writes += 1;
                                }
                            }
                        }
                    }
                    write_acks.fetch_add(writes, Ordering::Relaxed);
                    busy.fetch_add(shed, Ordering::Relaxed);
                    ops_done.fetch_add(reqs.len() as u64, Ordering::Relaxed);
                    // Closed loop: every op in the frame waited the RTT.
                    local_samples.extend(std::iter::repeat_n(rtt, reqs.len()));
                }
                samples.lock().unwrap().extend(local_samples);
            });
        }
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let stats = dev.stats().delta_since(&before);
    let lanes = server.service().lane_stats();
    server.shutdown();

    let mut samples = samples.into_inner().unwrap();
    samples.sort_unstable();
    PassResult {
        label,
        elapsed_s,
        ops_done: ops_done.into_inner(),
        write_acks: write_acks.into_inner(),
        busy: busy.into_inner(),
        p50_ns: percentile(&samples, 0.50),
        p99_ns: percentile(&samples, 0.99),
        stats,
        frames: (rounds * opts.conns) as u64,
        lanes,
    }
}

fn json_pass(p: &PassResult) -> String {
    format!(
        "{{\"throughput_ops_per_s\":{:.1},\"p50_ns\":{},\"p99_ns\":{},\"ops\":{},\
         \"write_acks\":{},\"busy\":{},\"fences\":{},\"fences_per_write\":{:.3},\
         \"group_commits\":{},\"group_txns\":{},\"group_factor\":{:.2},\
         \"frames\":{},\"lane_jobs\":{},\"lane_requests\":{},\"lane_shed\":{}}}",
        p.throughput(),
        p.p50_ns,
        p.p99_ns,
        p.ops_done,
        p.write_acks,
        p.busy,
        p.stats.fences,
        p.fences_per_write(),
        p.stats.group_commits,
        p.stats.group_txns,
        p.group_factor(),
        p.frames,
        p.lanes.jobs,
        p.lanes.requests,
        p.lanes.shed,
    )
}

fn main() {
    let opts = parse_opts();
    println!(
        "svc_load: {} clients over {} conns, {} ops, {} keys (theta {}), {} shards, batch {}",
        opts.clients, opts.conns, opts.ops, opts.keys, opts.theta, opts.shards, opts.batch
    );

    let grouped = run_pass(&opts, opts.batch, "group commit");
    let unbatched = run_pass(&opts, 1, "per-txn commit");
    let reduction = unbatched.fences_per_write() / grouped.fences_per_write().max(1e-9);

    let rows: Vec<Vec<String>> = [&grouped, &unbatched]
        .iter()
        .map(|p| {
            vec![
                p.label.to_string(),
                fmt_rate(p.throughput()),
                fmt_latency(p.p50_ns as f64),
                fmt_latency(p.p99_ns as f64),
                format!("{}", p.stats.fences),
                format!("{:.2}", p.fences_per_write()),
                format!("{:.1}", p.group_factor()),
                format!("{:.2}", p.jobs_per_frame()),
                format!("{}", p.busy),
            ]
        })
        .collect();
    print_table(
        "KV service: group commit vs per-txn commit",
        &[
            "mode",
            "throughput",
            "p50",
            "p99",
            "fences",
            "fences/write",
            "batch-factor",
            "jobs/frame",
            "busy",
        ],
        &rows,
    );
    println!("\nfence reduction (per write txn): {reduction:.2}x");

    if let Some(path) = &opts.json {
        let body = format!(
            "{{\"bench\":\"kv_service\",\"clients\":{},\"conns\":{},\"ops\":{},\"keys\":{},\
             \"theta\":{},\"shards\":{},\"batch_max\":{},\"read_heavy\":{},\
             \"grouped\":{},\"unbatched\":{},\"fence_reduction\":{:.3}}}\n",
            opts.clients,
            opts.conns,
            opts.ops,
            opts.keys,
            opts.theta,
            opts.shards,
            opts.batch,
            opts.read_heavy,
            json_pass(&grouped),
            json_pass(&unbatched),
            reduction,
        );
        let mut f = std::fs::File::create(path).expect("create json output");
        f.write_all(body.as_bytes()).expect("write json output");
        println!("wrote {path}");
    }
}
