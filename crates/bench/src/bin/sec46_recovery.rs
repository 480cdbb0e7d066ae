//! §4.6: error detection and correction — inject media errors and
//! scribbles, verify online repair, and measure page-repair latency
//! (the paper reports ~180 µs per page at 100 GB/1 GB-parity scale) —
//! plus **restart recovery**: crash-recovery wall time at `open` per pool
//! size (one serial pass: a lane scan that reads only as far as each log
//! reaches, replay, column recompute and the orphan-log sweep; the shard
//! count does not enter it).
//!
//! Each repair path's device traffic — bytes read and read operations per
//! repaired poisoned page, per repaired scribble and per scrubbed object —
//! is printed from `NvmDevice::stats()` deltas.
//!
//! Run: `cargo run --release -p pgl-bench --bin sec46_recovery`
//! Options: `--pool-mb N` the largest pool size, `--json PATH` writes the
//! restart table as JSON.

use std::time::Instant;

use pangolin::{inject, PglConfig, PglError, PglMode, PglPool};
use pgl_bench::{device, print_table, Args};
use pgl_nvm::PAGE_SIZE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = Args::parse_with(50_000, &[1]);
    println!("§4.6 reproduction: error injection and online recovery");
    let cfg = PglConfig::bench(args.pool_bytes, PglMode::Mlpc);
    let pool = PglPool::create(device(args.pool_bytes, args.latency), cfg).expect("create");

    // Populate with objects of assorted sizes.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut oids = Vec::new();
    for i in 0..500u64 {
        let size = [64u64, 256, 1024, 4096][i as usize % 4];
        let oid = pool
            .tx(|tx| {
                let oid = tx.alloc(size, 1)?;
                tx.write(oid, 0, &vec![(i % 251) as u8; size as usize])?;
                Ok(oid)
            })
            .expect("populate");
        oids.push((oid, size, (i % 251) as u8));
    }

    // Experiment 1: media errors (poisoned pages) repaired online.
    let trials = 100;
    let mut repair_ns = Vec::with_capacity(trials);
    let stats = || pool.io().dev().stats();
    let s0 = stats();
    for t in 0..trials {
        let (oid, size, fill) = oids[rng.gen_range(0..oids.len())];
        inject::poison_object_page(&pool, oid).expect("poison");
        let start = Instant::now();
        let data = pool.read_verified(oid).expect("online recovery");
        repair_ns.push(start.elapsed().as_nanos() as f64);
        assert_eq!(data, vec![fill; size as usize], "trial {t} content");
    }
    let poison_io = stats().delta_since(&s0);
    repair_ns.sort_by(|a, b| a.partial_cmp(b).expect("ordered"));
    let mean = repair_ns.iter().sum::<f64>() / repair_ns.len() as f64;
    let p50 = repair_ns[repair_ns.len() / 2];
    let p99 = repair_ns[repair_ns.len() * 99 / 100];

    // Experiment 2: scribbles detected by checksums and repaired.
    let mut scribble_ok = 0;
    let s0 = stats();
    for _ in 0..trials {
        let (oid, size, fill) = oids[rng.gen_range(0..oids.len())];
        let off = rng.gen_range(0..size / 2);
        let len = rng.gen_range(1..=(size - off).min(512)) as usize;
        inject::scribble_object(&pool, oid, off, len, 0xEE).expect("scribble");
        let data = pool.read_verified(oid).expect("scribble recovery");
        if data == vec![fill; size as usize] {
            scribble_ok += 1;
        }
    }
    let scribble_io = stats().delta_since(&s0);

    // A clean scrub pass: what verifying one live object costs.
    let s0 = stats();
    let clean = pool.scrub_now().expect("scrub");
    let scrub_io = stats().delta_since(&s0);

    // Experiment 3: canary catches a buffer overrun before commit.
    let (oid, size, fill) = oids[0];
    let canary_err = pool.tx(|tx| {
        tx.write(oid, 0, &vec![0u8; size as usize])?;
        tx.ubuf_mut(oid)?.smash_back_canary(); // simulated overrun
        Ok(())
    });
    let canary_caught = matches!(canary_err, Err(PglError::CanaryMismatch { .. }));
    let post = pool.read_verified(oid).expect("read after abort");
    let canary_protected = post == vec![fill; size as usize];

    // Experiment 4: metadata (chunk metadata) scribble repaired by scrub.
    let layout = *pool.layout();
    let (z, c, _) = layout.chunk_of(oids[10].0.off - 16).expect("locate chunk");
    inject::scribble_chunk_meta(&pool, z, c, 0x99).expect("cm scribble");
    let report = pool.scrub_now().expect("scrub");

    let rows = vec![
        vec![
            "media errors (poisoned pages)".into(),
            format!("{trials}/{trials} repaired"),
            format!(
                "repair: mean {:.0} us, p50 {:.0} us, p99 {:.0} us",
                mean / 1000.0,
                p50 / 1000.0,
                p99 / 1000.0
            ),
        ],
        vec![
            "software scribbles".into(),
            format!("{scribble_ok}/{trials} repaired"),
            "detected via Adler32 at open".into(),
        ],
        vec![
            "buffer overrun (canary)".into(),
            format!("caught={canary_caught}, NVMM untouched={canary_protected}"),
            "transaction aborted pre-commit".into(),
        ],
        vec![
            "chunk-metadata scribble".into(),
            format!("scrub repaired {} page(s)", report.pages_repaired),
            format!("{} objects verified", report.objects_verified),
        ],
    ];
    print_table("§4.6: detection and correction", &["fault", "outcome", "notes"], &rows);

    // Read traffic per event (each repaired fault's verified read included).
    let per = |d: &pgl_nvm::StatsSnapshot, n: u64| {
        let n = n.max(1) as f64;
        vec![format!("{:.0}", d.bytes_read as f64 / n), format!("{:.1}", d.read_ops as f64 / n)]
    };
    let io_rows = vec![
        [vec!["repaired poisoned page".into()], per(&poison_io, trials as u64)].concat(),
        [vec!["repaired scribble".into()], per(&scribble_io, trials as u64)].concat(),
        [vec!["scrub pass, per object verified".into()], per(&scrub_io, clean.objects_verified)]
            .concat(),
    ];
    print_table("Device reads per event", &["event", "bytes read", "read ops"], &io_rows);

    assert!(pool.verify_parity().expect("verify"), "parity consistent after all repairs");
    assert!(pool.find_corrupt_objects().expect("sweep").is_empty());
    println!(
        "\nAll injected faults recovered online; pool parity verified. \
         Page size {} B; paper reports ~180 us per page-column repair.",
        PAGE_SIZE
    );
    let c = pool.counters();
    println!(
        "recoveries: {} pages, {} objects, {} failed; {} full scrubs",
        c.page_recoveries, c.object_recoveries, c.repairs_failed, c.full_scrubs,
    );

    // Experiment 5: restart recovery per pool size. Each row builds a
    // pool, spreads objects over its zones (thread→shard affinity), leaves
    // the pool *dirty* (no clean shutdown, so the lanes still carry their
    // lazily-invalidated commit records), and times the crash-recovery
    // pass that `open` runs: lane replay, parity recomputation and the
    // per-zone orphan-log sweep.
    let sizes: Vec<usize> = {
        let mut v = vec![args.pool_bytes / 2, args.pool_bytes];
        // The bench geometry (64 MiB zones, 64 mirrored 512 KiB lanes)
        // needs a margin over one zone; drop half-sizes that can't host it.
        v.retain(|&s| s >= 192 << 20);
        if v.is_empty() {
            v.push(args.pool_bytes);
        }
        v.dedup();
        v
    };
    let mut rec_rows: Vec<(usize, f64)> = Vec::new();
    for &size in &sizes {
        let dev = device(size, args.latency);
        let pool =
            PglPool::create(dev.clone(), PglConfig::bench(size, PglMode::Mlpc)).expect("create");
        // One round of allocations and one of overwrites, spread over the
        // zones, so recovery finds live objects, parity state and log
        // traffic across the pool.
        let mut spread = Vec::new();
        for i in 0..256u64 {
            pool.bind_thread_to_shard(i as usize % pool.shards());
            let oid = pool
                .tx(|tx| {
                    let oid = tx.alloc(1024, 9)?;
                    tx.write(oid, 0, &[i as u8; 1024])?;
                    Ok(oid)
                })
                .expect("spread");
            spread.push(oid);
        }
        for (i, oid) in spread.iter().enumerate() {
            pool.bind_thread_to_shard(i % pool.shards());
            pool.tx(|tx| tx.write(*oid, 0, &[0xD1; 1024])).expect("dirty");
        }
        pool.unbind_thread_from_shard();
        // Crash the device mid-commit so recovery finds genuinely
        // unfinished lanes, then abandon the handle without the
        // clean-shutdown path.
        dev.arm_crash_after(150);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for oid in spread.iter().cycle() {
                pool.tx(|tx| tx.write(*oid, 0, &[0xC4; 1024])).expect("crash burst");
            }
        }));
        std::panic::set_hook(hook);
        dev.disarm_crash();
        assert!(crashed.is_err(), "armed crash must interrupt the burst");
        std::mem::forget(pool);
        let start = Instant::now();
        let pool = PglPool::options().open(dev).expect("recover");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(pool.verify_parity().expect("verify"), "parity after recovery");
        for (i, oid) in spread.iter().enumerate() {
            let data = pool.read_verified(*oid).expect("read after recovery");
            let ok = data == vec![0xD1; 1024] || data == vec![0xC4; 1024];
            assert!(ok, "object {i} torn after recovery");
        }
        rec_rows.push((size >> 20, ms));
    }
    let rows: Vec<Vec<String>> =
        rec_rows.iter().map(|(mb, ms)| vec![format!("{mb}"), format!("{ms:.1}")]).collect();
    print_table("Restart recovery", &["pool MB", "recover ms"], &rows);

    if let Some(path) = &args.json {
        let rows_json: Vec<String> = rec_rows
            .iter()
            .map(|(mb, ms)| format!("{{\"pool_mb\":{mb},\"recover_ms\":{ms:.3}}}"))
            .collect();
        let json = format!(
            "{{\"bench\":\"sec46_recovery\",\"mode\":\"pgl-MLPC\",\"unit\":\"ms\",\
             \"rows\":[{}]}}\n",
            rows_json.join(",")
        );
        std::fs::write(path, json).expect("write --json file");
        println!("\nwrote {path}");
    }
}
