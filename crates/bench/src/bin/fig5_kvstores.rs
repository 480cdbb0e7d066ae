//! Figure 5: key-value store throughput — inserts then removes on the six
//! PMDK-toolkit data structures, across all six library modes.
//!
//! Run: `cargo run --release -p pgl-bench --bin fig5_kvstores`
//! (`--ops N` keys per phase; the paper uses 1M, default 50k.) Each
//! throughput table is followed by the cells' modelled device time per
//! operation.

use std::marker::PhantomData;
use std::sync::Arc;

use pgl_bench::{
    each_structure, fmt_device, fmt_rate, print_table, run_cell, Args, Cell, Mode, Phase,
    Structures,
};
use pgl_kv::maps::PersistentMap;
use pgl_kv::store::Store;
use pgl_kv::workload::{insert_phase, lookup_phase, random_keys, remove_phase};
use pgl_nvm::NvmDevice;

/// Inserts, lookups and removes of every key on a fresh map `M`.
struct InsertLookupRemove<'a, M>(&'a [u64], PhantomData<M>);

impl<M: PersistentMap> Cell<[Phase; 3]> for InsertLookupRemove<'_, M> {
    fn run<S: Store>(self, store: &S, devs: &[Arc<NvmDevice>]) -> [Phase; 3] {
        let (keys, n) = (self.0, self.0.len());
        let map = M::create(store).expect("create map");
        let (_, ins) = Phase::measure(devs, n, || insert_phase(&map, store, keys).expect("insert"));
        assert_eq!(map.len(store).unwrap(), n as u64);
        let (_, get) = Phase::measure(devs, n, || lookup_phase(&map, store, keys).expect("lookup"));
        let (_, rem) = Phase::measure(devs, n, || remove_phase(&map, store, keys).expect("remove"));
        assert_eq!(map.len(store).unwrap(), 0);
        [ins, get, rem]
    }
}

/// Rows of the insert, lookup and remove tables: throughput and device time.
struct Fig5 {
    args: Args,
    keys: Vec<u64>,
    rates: [Vec<Vec<String>>; 3],
    device: [Vec<Vec<String>>; 3],
}

impl Structures for Fig5 {
    fn visit<M: PersistentMap>(&mut self, pool_bytes: usize) {
        for rows in self.rates.iter_mut().chain(&mut self.device) {
            rows.push(vec![M::NAME.to_string()]);
        }
        for mode in Mode::all() {
            let cell = InsertLookupRemove::<M>(&self.keys, PhantomData);
            let phases = run_cell(mode, pool_bytes, self.args.latency, cell);
            for (i, p) in phases.iter().enumerate() {
                self.rates[i].last_mut().expect("row").push(fmt_rate(p.ops_per_sec()));
                self.device[i].last_mut().expect("row").push(fmt_device(p));
            }
        }
    }
}

fn main() {
    let args = Args::parse_with(50_000, &[1]);
    println!("Figure 5 reproduction: {} inserts + removes per structure", args.ops);
    let keys = random_keys(args.ops, args.seed);
    let mut fig = Fig5 { args, keys, rates: Default::default(), device: Default::default() };
    each_structure(fig.args.pool_bytes, &mut fig);

    let headers: Vec<&str> =
        std::iter::once("structure").chain(Mode::all().iter().map(|m| m.label())).collect();
    // The paper's two panels, then the lookups it does not plot.
    let titles = [(0, "Figure 5a: inserts"), (2, "Figure 5b: removes"), (1, "Figure 5 lookups")];
    for (i, title) in titles {
        print_table(&format!("{title} (throughput)"), &headers, &fig.rates[i]);
        print_table(&format!("{title} (device_us/op)"), &headers, &fig.device[i]);
    }
    println!(
        "\nExpected shape (paper): pgl close to pmemobj (faster for ctree/btree \
         inserts, slower where modified size << object size, e.g. skiplist, \
         rtree); pgl-MLP ~95% of pmemobj-R on average; MLPC costs 1.5-15% over \
         MLP, worst for rtree (large objects to checksum); lookups are \
         identical across modes (direct reads, no verification)."
    );
}
