//! A key-value store that heals itself: the PMDK-toolkit hashmap over
//! Pangolin, with live media errors and scribbles injected while serving
//! reads and writes.
//!
//! Run: `cargo run --example kv_store`

use std::sync::Arc;

use pangolin::{inject, PglPool};
use pgl_kv::maps::PersistentMap;
use pgl_kv::store::PglStore;
use pgl_kv::HashMap;
use pgl_nvm::{DeviceConfig, NvmDevice};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = PglPool::options().size(32 << 20).zone_size(16 << 20);
    let dev = Arc::new(NvmDevice::new(opts.config().pool.size, DeviceConfig::fast())?);
    let store = PglStore::new(opts.create(dev)?);

    let map = HashMap::create(&store)?;
    println!("inserting 5000 keys (several table rehashes, log overflow included)...");
    for k in 0..5000u64 {
        map.insert(&store, k, k * k)?;
    }
    println!("len = {}", map.len(&store)?);

    // A media error strikes a bucket entry's page: the next verified access
    // freezes the pool, reconstructs the page from parity, and carries on.
    let victims = store.pool().live_objects()?;
    let victim = victims[victims.len() / 2].0;
    let page = inject::poison_object_page(store.pool(), victim)?;
    println!("injected media error on page {page}");
    for k in 0..5000u64 {
        assert_eq!(map.get(&store, k)?, Some(k * k), "lookup {k} after poison");
    }
    println!(
        "all lookups correct; {} page(s) repaired online",
        store.pool().counters().page_recoveries
    );

    // A wild store scribbles an entry: the checksum catches it at the next
    // open and parity restores the bytes.
    inject::scribble_object(store.pool(), victim, 0, 16, 0xEE)?;
    println!("injected a 16-byte scribble");
    let report = store.pool().scrub_now()?;
    println!(
        "scrub verified {} objects and repaired {}",
        report.objects_verified, report.objects_repaired
    );
    for k in 0..5000u64 {
        assert_eq!(map.get(&store, k)?, Some(k * k), "lookup {k} after scrub");
    }
    let c = store.pool().counters();
    println!(
        "pool counters: {} page and {} object repairs, {} failed, {} faults injected, {} full scrubs",
        c.page_recoveries,
        c.object_recoveries,
        c.repairs_failed,
        c.poison_injected + c.scribbles_injected,
        c.full_scrubs
    );

    // Remove everything; storage is reclaimed.
    for k in 0..5000u64 {
        assert_eq!(map.remove(&store, k)?, Some(k * k));
    }
    assert_eq!(map.len(&store)?, 0);
    assert!(store.pool().verify_parity()?);
    println!("store drained; parity verified — done.");
    Ok(())
}
