//! A guided tour of Pangolin's fault model (paper §4.6): what each
//! protection layer catches and how recovery proceeds, printed step by
//! step — written against the typed object API.
//!
//! Run: `cargo run --example fault_injection`

use std::sync::Arc;

use pangolin::typed::PObj;
use pangolin::{impl_ptype, inject, CsumPolicy, PglError, PglPool};
use pgl_nvm::{DeviceConfig, NvmDevice, PAGE_SIZE};

/// A 300-byte payload object.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct Blob {
    bytes: [u8; 300],
}
impl_ptype!(Blob, 300, 1);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = PglPool::options().csum_policy(CsumPolicy::Default);
    let dev = Arc::new(NvmDevice::new(opts.config().pool.size, DeviceConfig::fast())?);
    let pool = opts.create(dev.clone())?;

    let h: PObj<Blob> = pool.tx(|tx| tx.alloc_obj(&Blob { bytes: [0x42; 300] }))?;
    println!("[setup] one 300-byte object, checksummed, parity-protected\n");

    // --- Layer 1: parity vs media errors -------------------------------
    println!("[1] media error: poisoning the object's page (MCE/SIGBUS analogue)");
    let page = inject::poison_object_page(&pool, h.oid())?;
    println!("    page {page} poisoned; a raw read now fails:");
    println!("    io.read -> {:?}", dev.read(h.oid().off, &mut [0u8; 8]).unwrap_err());
    println!("    a verified read triggers freeze + page-column XOR reconstruction:");
    let blob = pool.get_verified(h)?;
    assert!(blob.bytes.iter().all(|&b| b == 0x42));
    println!("    repaired online; content intact; pool never went down\n");

    // --- Layer 2: checksums vs scribbles --------------------------------
    println!("[2] scribble: 64 bytes overwritten by a wild store (invisible to ECC)");
    inject::scribble_object(&pool, h.oid(), 100, 64, 0xFF)?;
    let garbled = pool.get_obj(h)?; // unverified pgl_get
    println!(
        "    an unverified pgl_get returns garbage: {:?} (Table 4's exposure)",
        &garbled.bytes[100..108]
    );
    let blob = pool.get_verified(h)?;
    assert!(blob.bytes.iter().all(|&b| b == 0x42));
    println!(
        "    a verified open: Adler32 mismatch -> parity repair -> {:?}...\n",
        &blob.bytes[..4]
    );

    // --- Layer 3: canaries vs buffer overruns ---------------------------
    println!("[3] overrun: application writes past the object end in DRAM");
    let err = pool.tx(|tx| {
        tx.set(h, &Blob { bytes: [1; 300] })?;
        tx.ubuf_mut(h.oid())?.smash_back_canary();
        Ok(())
    });
    assert!(matches!(err, Err(PglError::CanaryMismatch { .. })));
    println!("    commit found a dead canary -> abort, NVMM untouched: {err:?}\n");

    // --- Layer 4: the guarantee's limit ---------------------------------
    println!("[4] limit: two pages lost in the same page column are unrecoverable");
    // Only rows that hold data count: a row no allocation ever reached lies
    // above the zone's reserved-chunk watermark, is zero and is never read.
    // A row-sized object fills the row below ours.
    let row = pool.layout().zone.row_size;
    pool.tx(|tx| tx.alloc(row, 2))?;
    let row_pages = row / PAGE_SIZE as u64;
    dev.poison_page(page)?;
    dev.poison_page(page + row_pages)?;
    let err = pool.get_verified(h);
    assert!(matches!(err, Err(PglError::Unrecoverable { .. })));
    println!("    {err:?}");
    println!("    (the paper: increase the chunk-row count to shrink this window)");
    dev.repair_page(page + row_pages, &vec![0u8; PAGE_SIZE])?;
    pool.scrub_now()?;

    println!("\nall four layers demonstrated; final parity check: {}", pool.verify_parity()?);
    Ok(())
}
