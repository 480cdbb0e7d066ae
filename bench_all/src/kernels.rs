//! Kernel timings: single public functions of each layer, timed in a
//! loop with the latency model disabled, so that a move in a workload's
//! `host_us_per_op` can be traced to the primitive that caused it. They do
//! not depend on the workload; every traced run reports them.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pangolin::checksum::{adler32, adler32_update};
use pangolin::{PglConfig, PglPool};
use pgl_nvm::{DeviceConfig, LatencyModel, NvmDevice};
use pgl_pmemobj::{PMEMoid, PmemPool, PoolConfig};
use pgl_server::proto::{decode_requests, encode_requests, Request};

use crate::device::new_device;
use crate::gen::{Arena, Rng};
use crate::metrics::Values;
use crate::stats::Summary;

const BATCHES: usize = 5;
const BARE_DEVICE_BYTES: usize = 64 << 20;

/// Median over [`BATCHES`] batches of the mean nanoseconds per call.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let start = Instant::now();
            for i in 0..calls {
                f(b * calls + i);
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    Summary::of(&per_batch).median
}

pub fn measure(seed: u64, values: &mut Values) {
    nvm(seed, values);
    core(seed, values);
    pmemobj(values);
    server(seed, values);
    let mut last = Instant::now();
    let timer = ns_per_call(100_000, |_| last = black_box(Instant::now()));
    black_box(last);
    values.set("bench.timer_ns_per_sample", timer);
    values.set("bench.peak_rss_mb", peak_rss_mb());
}

/// The simulator's own host cost, on a bare 64 MiB device.
fn nvm(seed: u64, values: &mut Values) {
    let dev = new_device(BARE_DEVICE_BYTES, LatencyModel::disabled());
    let arena = Arena::new(seed, 64 << 10);
    let (old, new) = (arena.slice(0, 4096), arena.slice(8192, 4096));
    let pages = (BARE_DEVICE_BYTES / 4096) as u64;
    // Seeded page-aligned offsets: the device is larger than the cache, as
    // a pool is.
    let mut rng = Rng::new(seed, 60);
    let offs: Vec<u64> = (0..4096).map(|_| rng.below(pages) * 4096).collect();
    let at = |i: usize| offs[i % offs.len()];
    let mut buf = vec![0u8; 4096];

    values.set(
        "nvm.write_nt_4k_ns",
        ns_per_call(4000, |i| {
            dev.write_nt(at(i), new).expect("in bounds");
            dev.drain();
        }),
    );
    values.set(
        "nvm.write_flush_4k_ns",
        ns_per_call(4000, |i| {
            dev.write(at(i), new).expect("in bounds");
            dev.persist(at(i), 4096).expect("in bounds");
        }),
    );
    values.set(
        "nvm.read_4k_ns",
        ns_per_call(4000, |i| {
            dev.read(at(i), &mut buf).expect("in bounds");
            black_box(&buf);
        }),
    );
    values.set(
        "nvm.xor_diff_4k_ns",
        ns_per_call(4000, |i| {
            black_box(dev.xor_diff_range(at(i), old, new).expect("in bounds"));
        }),
    );
    values.set(
        "nvm.atomic_xor_span_256_ns",
        ns_per_call(20_000, |i| {
            black_box(dev.atomic_xor_patch_span(at(i), &new[..256]).expect("in bounds"));
        }),
    );
    values.set(
        "nvm.cas_u64_ns",
        ns_per_call(50_000, |i| {
            let prev = dev.atomic_cas_u64(at(i), 0, 0).expect("aligned");
            black_box(prev);
        }),
    );
}

fn core(seed: u64, values: &mut Values) {
    let arena = Arena::new(seed, 1 << 20);
    let data = arena.slice(0, 1 << 20);
    let ns = ns_per_call(20, |_| {
        black_box(adler32(black_box(data)));
    });
    values.set("core.adler32_gb_per_s", data.len() as f64 / ns);
    let (old, new) = (arena.slice(0, 64), arena.slice(4096, 64));
    let mut csum = adler32(&data[..4096]);
    values.set(
        "core.adler32_update_64b_ns",
        ns_per_call(100_000, |i| {
            csum = adler32_update(csum, 4096, (i % 63 * 64) as u64, old, new);
        }),
    );
    black_box(csum);

    // A verified read of a 1 KiB object: served by the verification cache
    // (one range read, no checksum pass), and with the cache disabled
    // (whole-object verify every time).
    let verified_read_ns = |vcache_capacity: usize| {
        let cfg = PglConfig { vcache_capacity, ..PglConfig::small() };
        let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).expect("device"));
        let pool = PglPool::create(dev, cfg).expect("create");
        let oids: Vec<PMEMoid> = (0..256)
            .map(|i| {
                pool.tx(|tx| {
                    let oid = tx.alloc(1024, 1)?;
                    tx.write(oid, 0, arena.slice(i * 1024, 1024))?;
                    Ok(oid)
                })
                .expect("alloc")
            })
            .collect();
        let mut buf = [0u8; 1024];
        ns_per_call(20_000, |i| {
            pool.read_verified_into(oids[i % oids.len()], &mut buf).expect("verified read");
            black_box(&buf);
        })
    };
    values.set("core.read_verified_hit_ns", verified_read_ns(PglConfig::small().vcache_capacity));
    values.set("core.read_verified_miss_ns", verified_read_ns(0));
}

/// One transaction that allocates a 64 B object and frees the previous
/// one, on a plain `PmemPool`.
fn pmemobj(values: &mut Values) {
    let cfg = PoolConfig::small().without_parity();
    let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).expect("device"));
    let pool = PmemPool::create(dev, cfg).expect("create");
    let mut prev: Option<PMEMoid> = None;
    let ns = ns_per_call(10_000, |_| {
        prev = Some(
            pool.tx(|tx| {
                if let Some(prev) = prev {
                    tx.free(prev)?;
                }
                tx.alloc(64, 1)
            })
            .expect("alloc/free"),
        );
    });
    values.set("pmemobj.alloc_free_us", ns / 1e3);
}

/// Codec cost per request of a 32-op frame, by direct `proto::` calls.
fn server(seed: u64, values: &mut Values) {
    let mut rng = Rng::new(seed, 61);
    let reqs: Vec<Request> = (0..32)
        .map(|i| match i % 3 {
            0 => Request::Put { key: rng.next_u64(), value: rng.next_u64() },
            1 => Request::Get { key: rng.next_u64() },
            _ => Request::Del { key: rng.next_u64() },
        })
        .collect();
    let mut frame = Vec::new();
    let encode = ns_per_call(20_000, |_| {
        encode_requests(black_box(&reqs), &mut frame).expect("small frame");
    });
    // The payload follows the 4-byte length prefix.
    let decode = ns_per_call(20_000, |_| {
        black_box(decode_requests(black_box(&frame[4..])).expect("own frame"));
    });
    values.set("server.proto_encode_ns_per_req", encode / reqs.len() as f64);
    values.set("server.proto_decode_ns_per_req", decode / reqs.len() as f64);
}

/// `VmHWM` of this process, or 0 where `/proc` is not there.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_call_runs_every_batch() {
        let mut calls = 0;
        let ns = ns_per_call(10, |_| calls += 1);
        assert_eq!(calls, 10 * BATCHES);
        assert!(ns >= 0.0);
    }
}
