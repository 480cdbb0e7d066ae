//! Figure 6: the cost of checksum-verification policies — default
//! (verify-at-open), scrub every N transactions, and conservative
//! (verify every access) — on the insert workload of each structure.
//!
//! Run: `cargo run --release -p pgl-bench --bin fig6_checksum_policy`
//! The throughput table is followed by the inserts' modelled device time
//! per operation, which repeats run to run, and its conservative / default
//! ratio.

use pangolin::{CsumPolicy, PglMode};
use pgl_bench::{
    each_structure, fmt_device, fmt_rate, print_table, run_pgl, Args, Phase, Structures,
};
use pgl_kv::maps::PersistentMap;
use pgl_kv::workload::{insert_phase, random_keys};

struct Fig6 {
    args: Args,
    keys: Vec<u64>,
    policies: Vec<(String, CsumPolicy)>,
    rates: Vec<Vec<String>>,
    device: Vec<Vec<String>>,
}

impl Structures for Fig6 {
    fn visit<M: PersistentMap>(&mut self, pool_bytes: usize) {
        let mut rates = vec![M::NAME.to_string()];
        let mut device = rates.clone();
        let mut us = Vec::new();
        for &(_, policy) in &self.policies {
            let p = run_pgl(PglMode::Mlpc, policy, pool_bytes, self.args.latency, |store, devs| {
                let (map, keys) = (M::create(store).expect("create"), &self.keys);
                let (ins, p) = Phase::measure(devs, keys.len(), || insert_phase(&map, store, keys));
                ins.expect("insert");
                p
            });
            rates.push(fmt_rate(p.ops_per_sec()));
            device.push(fmt_device(&p));
            us.push(p.device_us_per_op());
        }
        device.push(format!("{:.2}", us[us.len() - 1] / us[0]));
        self.rates.push(rates);
        self.device.push(device);
    }
}

fn main() {
    let args = Args::parse_with(50_000, &[1]);
    // Scale the paper's "Scrub 100K"/"Scrub 50K" intervals to the op count
    // (at 1M ops they are exactly the paper's).
    let scrub_hi = (args.ops / 10).max(1) as u64;
    let scrub_lo = (args.ops / 20).max(1) as u64;
    let policies: Vec<(String, CsumPolicy)> = vec![
        ("default".into(), CsumPolicy::Default),
        (format!("scrub-{scrub_hi}"), CsumPolicy::ScrubEvery(scrub_hi)),
        (format!("scrub-{scrub_lo}"), CsumPolicy::ScrubEvery(scrub_lo)),
        ("conservative".into(), CsumPolicy::Conservative),
    ];
    println!("Figure 6 reproduction: {} inserts under pgl-MLPC checksum policies", args.ops);

    let keys = random_keys(args.ops, args.seed);
    let mut fig = Fig6 { args, keys, policies, rates: Vec::new(), device: Vec::new() };
    each_structure(fig.args.pool_bytes, &mut fig);

    let mut headers: Vec<&str> =
        std::iter::once("structure").chain(fig.policies.iter().map(|(n, _)| n.as_str())).collect();
    print_table("Figure 6: insert throughput by verification policy", &headers, &fig.rates);
    headers.push("conservative/default");
    print_table("Figure 6: insert device_us/op by verification policy", &headers, &fig.device);
    println!(
        "\nExpected shape (paper): conservative mode is cheap for small-object \
         structures (ctree, rbtree, hashmap) and expensive for large-object \
         ones (btree, skiplist, rtree); scrubbing sits between, trading \
         throughput for a bounded vulnerability window (Table 4)."
    );
}
