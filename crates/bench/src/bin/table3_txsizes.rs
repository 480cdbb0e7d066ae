//! Table 3: data structure and transaction sizes — average allocated
//! ("New") and modified ("Mod") bytes per insert/remove, with the average
//! number of objects involved in parentheses, and beside "Mod" the bytes
//! one copy of the redo log took ("Log": entry headers, payloads,
//! allocation intents and the commit).
//!
//! Run: `cargo run --release -p pgl-bench --bin table3_txsizes`

use pgl_bench::{make_store, print_table, AnyStore, Args, Mode};
use pgl_kv::maps::PersistentMap;
use pgl_kv::workload::{insert_phase, random_keys, remove_phase, PhaseStats};
use pgl_kv::{BTree, CTree, HashMap, RTree, RbTree, SkipList};

struct Row {
    name: &'static str,
    object_size: &'static str,
    insert: PhaseStats,
    remove: PhaseStats,
}

fn measure<M: PersistentMap>(store: &AnyStore, keys: &[u64], object_size: &'static str) -> Row {
    let map = M::create(store).expect("create");
    let insert = insert_phase(&map, store, keys).expect("insert");
    let remove = remove_phase(&map, store, keys).expect("remove");
    Row { name: M::NAME, object_size, insert, remove }
}

fn main() {
    let args = Args::parse();
    println!(
        "Table 3 reproduction: transaction sizes over {} inserts + removes \
         (measured on pgl-MLPC; 'Mod' = redo-logged bytes, 'Log' = one log copy)",
        args.ops
    );
    let keys = random_keys(args.ops, args.seed);

    let mut rows: Vec<Row> = Vec::new();
    {
        let store = make_store(Mode::PglMlpc, args.pool_bytes, args.latency);
        rows.push(measure::<CTree>(&store, &keys, "56"));
    }
    {
        let store = make_store(Mode::PglMlpc, args.pool_bytes, args.latency);
        rows.push(measure::<RbTree>(&store, &keys, "80"));
    }
    {
        let store = make_store(Mode::PglMlpc, args.pool_bytes, args.latency);
        rows.push(measure::<BTree>(&store, &keys, "304"));
    }
    {
        let store = make_store(Mode::PglMlpc, args.pool_bytes, args.latency);
        rows.push(measure::<SkipList>(&store, &keys, "408"));
    }
    {
        let store = make_store(Mode::PglMlpc, args.pool_bytes * 2, args.latency);
        rows.push(measure::<RTree>(&store, &keys, "4136"));
    }
    {
        let store = make_store(Mode::PglMlpc, args.pool_bytes, args.latency);
        rows.push(measure::<HashMap>(&store, &keys, "40 (entry), table grows"));
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.object_size.to_string(),
                format!("{:.1} ({:.2})", r.insert.avg_new_bytes(), r.insert.avg_new_objects()),
                format!("{:.1} ({:.2})", r.insert.avg_mod_bytes(), r.insert.avg_mod_objects()),
                format!("{:.1}", r.insert.avg_log_bytes()),
                format!("{:.1} ({:.2})", r.remove.avg_new_bytes(), r.remove.avg_new_objects()),
                format!("{:.1} ({:.2})", r.remove.avg_mod_bytes(), r.remove.avg_mod_objects()),
                format!("{:.1}", r.remove.avg_log_bytes()),
            ]
        })
        .collect();

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
        &table,
    );
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
