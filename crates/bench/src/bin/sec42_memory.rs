//! §4.2: memory requirements — pool-initialization (zeroing) time, NVMM
//! layout breakdown (metadata, logs, parity), the per-object sum tables,
//! and DRAM cost of micro-buffering.
//!
//! Run: `cargo run --release -p pgl-bench --bin sec42_memory`

use std::sync::Arc;
use std::time::Instant;

use pangolin::segment;
use pangolin::{PglConfig, PglMode, PglPool};
use pgl_bench::{print_table, Args};
use pgl_nvm::{DeviceConfig, NvmDevice};
use pgl_pmemobj::heap::classes::{class_for, CLASS_SIZES};

fn main() {
    let args = Args::parse();
    println!("§4.2 reproduction: memory requirements for a {} MiB pool", args.pool_bytes >> 20);

    // Pool creation (dominated by zeroing, the paper's 130s for 100 GB).
    let dev = Arc::new(
        NvmDevice::new(
            args.pool_bytes,
            DeviceConfig { latency: args.latency, ..DeviceConfig::fast() },
        )
        .expect("device"),
    );
    let t = Instant::now();
    let pool = PglPool::create(dev, PglConfig::bench(args.pool_bytes, PglMode::Mlpc))
        .expect("create pool");
    let create_secs = t.elapsed().as_secs_f64();

    let layout = *pool.layout();
    let lane_region = (layout.cfg.n_lanes * layout.cfg.lane_size) as u64;
    let parity_per_zone = layout.parity_bytes_per_zone();
    let parity_total = parity_per_zone * layout.n_zones;
    let cm_total = layout.zone.cm_chunks * layout.cfg.chunk_size as u64 * layout.n_zones;
    let data_total = (layout.zone.data_rows * layout.zone.row_size
        - layout.zone.cm_chunks * layout.cfg.chunk_size as u64)
        * layout.n_zones;
    let headers_total = layout.lanes_off; // two header pages

    let pct = |x: u64| format!("{:.3}%", 100.0 * x as f64 / args.pool_bytes as f64);
    let rows = vec![
        vec!["pool headers (2x)".into(), format!("{headers_total} B"), pct(headers_total)],
        vec!["lane logs (primary)".into(), format!("{} KiB", lane_region >> 10), pct(lane_region)],
        vec!["lane logs (replica)".into(), format!("{} KiB", lane_region >> 10), pct(lane_region)],
        vec!["chunk metadata".into(), format!("{} KiB", cm_total >> 10), pct(cm_total)],
        vec!["parity rows".into(), format!("{} MiB", parity_total >> 20), pct(parity_total)],
        vec!["usable object heap".into(), format!("{} MiB", data_total >> 20), pct(data_total)],
    ];
    print_table("NVMM layout breakdown", &["region", "size", "of pool"], &rows);

    println!(
        "\npool zeroing + formatting: {create_secs:.2} s \
         ({:.1} GiB/s; the paper reports 130 s for 100 GB ~ 0.77 GiB/s)",
        (args.pool_bytes as f64 / (1 << 30) as f64) / create_secs
    );
    println!(
        "parity overhead: {:.2}% of the pool ({} data rows per zone; paper: ~1%)",
        100.0 * parity_total as f64 / args.pool_bytes as f64,
        layout.zone.data_rows,
    );
    println!(
        "sum-table overhead: {} B per {}-byte segment past the first ({:.2}% of an \
         object's bytes above {} B; none at or below)",
        segment::ENTRY,
        segment::SEG,
        100.0 * segment::ENTRY as f64 / segment::SEG as f64,
        segment::SEG,
    );

    // The table at Table 3's object sizes: bytes, and the allocation block
    // with and without it (header 16 B included).
    let block = |stored: u64| {
        class_for(stored + 16, layout.cfg.chunk_size)
            .map_or_else(|| "chunks".to_string(), |c| format!("{} B", CLASS_SIZES[c]))
    };
    let rows: Vec<Vec<String>> = [64u64, 256, 304, 408, 4136, 65536]
        .iter()
        .map(|&s| {
            let table = segment::footprint(s) - s;
            vec![
                format!("{s} B object"),
                format!("{table} B"),
                format!("{:.2}%", 100.0 * table as f64 / s as f64),
                block(s),
                block(segment::footprint(s)),
            ]
        })
        .collect();
    print_table(
        "Sum tables at Table 3's object sizes",
        &["object", "table", "overhead", "block without", "block with"],
        &rows,
    );

    // DRAM cost of micro-buffering: proportional to in-flight transaction
    // sizes; measure the shadow-copy bytes for representative transactions.
    let obj_sizes = [56u64, 304, 408, 4136, 65536];
    let rows: Vec<Vec<String>> = obj_sizes
        .iter()
        .map(|&s| {
            // frame = canary(8) + header(16) + data + table + canary(8)
            let frame = 8 + 16 + segment::footprint(s) + 8;
            vec![
                format!("{s} B object"),
                format!("{frame} B"),
                format!("{:.1}x", frame as f64 / s as f64),
            ]
        })
        .collect();
    print_table(
        "DRAM per micro-buffered object (freed at commit)",
        &["object", "micro-buffer frame", "overhead"],
        &rows,
    );
    println!(
        "\nMicro-buffers live only for the duration of a transaction (the \
         paper saw <50 MB under its heaviest workloads); the hashmap rehash \
         is the worst case, shadowing every relinked 40 B entry once."
    );
}
