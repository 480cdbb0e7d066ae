//! Table 3: data structure and transaction sizes — average allocated
//! ("New") and modified ("Mod") bytes per insert/remove, with the average
//! number of objects involved in parentheses, and beside "Mod" the bytes
//! one copy of the redo log took ("Log": entry headers, payloads,
//! allocation intents and the commit).
//!
//! Run: `cargo run --release -p pgl-bench --bin table3_txsizes`

use pangolin::{CsumPolicy, PglMode};
use pgl_bench::{each_structure, fmt_device, print_table, run_pgl, Args, Phase, Structures};
use pgl_kv::maps::PersistentMap;
use pgl_kv::workload::{insert_phase, random_keys, remove_phase, PhaseStats};

struct Table3 {
    args: Args,
    keys: Vec<u64>,
    sizes: Vec<Vec<String>>,
    device: Vec<Vec<String>>,
}

impl Structures for Table3 {
    fn visit<M: PersistentMap>(&mut self, pool_bytes: usize) {
        let (keys, n) = (&self.keys, self.keys.len());
        let policy = CsumPolicy::Default;
        let [ins, rem] =
            run_pgl(PglMode::Mlpc, policy, pool_bytes, self.args.latency, |store, devs| {
                let map = M::create(store).expect("create");
                [
                    Phase::measure(devs, n, || insert_phase(&map, store, keys).expect("insert")),
                    Phase::measure(devs, n, || remove_phase(&map, store, keys).expect("remove")),
                ]
            });
        let cols = |p: &PhaseStats| {
            [
                format!("{:.1} ({:.2})", p.avg_new_bytes(), p.avg_new_objects()),
                format!("{:.1} ({:.2})", p.avg_mod_bytes(), p.avg_mod_objects()),
                format!("{:.1}", p.avg_log_bytes()),
            ]
        };
        let name = [M::NAME, object_size(M::NAME)].map(String::from);
        self.sizes.push(name.into_iter().chain(cols(&ins.0)).chain(cols(&rem.0)).collect());
        self.device.push(vec![M::NAME.to_string(), fmt_device(&ins.1), fmt_device(&rem.1)]);
    }
}

/// The object each structure's nodes occupy, in bytes.
fn object_size(name: &str) -> &'static str {
    match name {
        "ctree" => "56",
        "rbtree" => "80",
        "btree" => "304",
        "skiplist" => "408",
        "rtree" => "4136",
        "hashmap" => "40 (entry), table grows",
        _ => "?",
    }
}

fn main() {
    let args = Args::parse_with(50_000, &[1]);
    println!(
        "Table 3 reproduction: transaction sizes over {} inserts + removes \
         (measured on pgl-MLPC; 'Mod' = redo-logged bytes, 'Log' = one log copy)",
        args.ops
    );
    let keys = random_keys(args.ops, args.seed);
    let mut table = Table3 { args, keys, sizes: Vec::new(), device: Vec::new() };
    each_structure(table.args.pool_bytes, &mut table);

    print_table(
        "Table 3: avg bytes (objects) per transaction",
        &[
            "structure",
            "obj size",
            "Insert New",
            "Insert Mod",
            "Insert Log",
            "Remove New",
            "Remove Mod",
            "Remove Log",
        ],
        &table.sizes,
    );
    print_table("Table 3: device_us/op", &["structure", "insert", "remove"], &table.device);
    println!(
        "\nPaper values for comparison (1M ops):\n\
         ctree    Insert New 56 (1.00)   Mod 127.6 (3.28)   Remove New 0      Mod 28.0 (0.50)\n\
         rbtree   Insert New 80 (1.00)   Mod 330.2 (5.13)   Remove New 0      Mod 202.8 (2.65)\n\
         btree    Insert New 65.9 (0.22) Mod 381.2 (1.47)   Remove New 0      Mod 268.3 (0.90)\n\
         skiplist Insert New 408 (1.00)  Mod 33.9 (2.50)    Remove New 0      Mod 16.9 (0.75)\n\
         rtree    Insert New 4502 (1.09) Mod 200.0 (5.05)   Remove New 184.1 (0.05) Mod 98.6 (2.52)\n\
         hashmap  Insert New 60.9 (1.00) Mod 331.1 (4.21)   Remove New 10.5 (1e-5)  Mod 254.3 (2.16)"
    );
}
