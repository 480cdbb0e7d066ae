//! The metric tables: every name the benchmark emits, with its unit and
//! better-direction. `BENCHMARK.json` lists exactly these (a unit test
//! compares the two), and the result printer walks these tables, so a
//! metric cannot be emitted without being declared or the other way round.

use std::collections::BTreeMap;

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// The share of the parent's median by which an end-to-end metric may get
/// worse before a change counts as a regression: for every one of them the
/// widest the driver's contract allows. On the builder's 2-vCPU sandbox
/// the spread of ten runs reaches 8-10 % on the service workloads, and the
/// contract wants the spread below a third of the bound (README,
/// "Steadiness").
pub const BOUND: f64 = 0.25;
const _: () = assert!(BOUND > 0.0 && BOUND <= 0.25, "the contract's limit");

/// What a user of the system sees; every workload reports every one, from
/// the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    hi("ops_per_s", "1/s"),
    lo("p50_us", "us"),
    lo("host_us_per_op", "us"),
    lo("device_us_per_op", "us"),
];

/// Single-layer numbers from the traced run. A workload that bypasses a
/// layer reports 0 for that layer's workload-specific metrics.
pub const PER_LAYER: &[MetricDef] = &[
    // nvm: device operations per workload op (exact at one thread) ...
    lo("nvm.fences_per_op", "count"),
    lo("nvm.lines_flushed_per_op", "count"),
    lo("nvm.bytes_written_per_op", "B"),
    lo("nvm.bytes_nt_per_op", "B"),
    lo("nvm.bytes_read_per_op", "B"),
    lo("nvm.read_ops_per_op", "count"),
    lo("nvm.xor_bytes_per_op", "B"),
    lo("nvm.atomic_rmw_per_op", "count"),
    lo("nvm.write_amp", "x"),
    // ... how the latency model's stalls compare with the time it models ...
    lo("nvm.stall_measured_us_per_op", "us"),
    lo("nvm.stall_overshoot_x", "x"),
    // ... and the simulator's own host cost, latency disabled.
    lo("nvm.write_nt_4k_ns", "ns"),
    lo("nvm.write_flush_4k_ns", "ns"),
    lo("nvm.read_4k_ns", "ns"),
    lo("nvm.xor_diff_4k_ns", "ns"),
    lo("nvm.atomic_xor_span_256_ns", "ns"),
    lo("nvm.cas_u64_ns", "ns"),
    // pmemobj: the identical op stream on a plain PmemPool.
    lo("pmemobj.us_per_op", "us"),
    lo("pmemobj.host_us_per_op", "us"),
    lo("pmemobj.fences_per_op", "count"),
    lo("pmemobj.lines_flushed_per_op", "count"),
    lo("pmemobj.alloc_free_us", "us"),
    lo("pmemobj.replica_us_per_op", "us"),
    // core: the Table 2 ladder by subtraction ...
    lo("core.ubuf_us_per_op", "us"),
    lo("core.logrep_us_per_op", "us"),
    lo("core.parity_us_per_op", "us"),
    lo("core.csum_us_per_op", "us"),
    lo("core.vs_pmemobj_x", "x"),
    lo("core.vs_replica_x", "x"),
    // ... spans ...
    lo("core.tx_body_us_per_op", "us"),
    lo("core.commit_us_per_op", "us"),
    // ... counts ...
    lo("core.commit_old_reads_per_op", "count"),
    lo("core.commit_old_bytes_per_op", "B"),
    lo("core.csum_passes_per_op", "count"),
    lo("core.csum_bytes_per_op", "B"),
    hi("core.vcache_hit_ratio", "frac"),
    lo("core.atomic_parity_patches_per_op", "count"),
    // ... kernels ...
    hi("core.adler32_gb_per_s", "GB/s"),
    lo("core.adler32_update_64b_ns", "ns"),
    lo("core.read_verified_hit_ns", "ns"),
    lo("core.read_verified_miss_ns", "ns"),
    // ... two generator threads on disjoint objects ...
    hi("core.ops_per_s_2t", "1/s"),
    hi("core.scale_2t_x", "x"),
    // ... restart, scrub, repair and space.
    lo("core.reopen_ms", "ms"),
    lo("core.reopen_ms_1shard", "ms"),
    hi("core.reopen_shard_speedup_x", "x"),
    hi("core.scrub_mb_per_s", "MB/s"),
    hi("core.scrub_objs_per_s", "1/s"),
    lo("core.repair_poison_us", "us"),
    lo("core.repair_scribble_us", "us"),
    lo("core.cas_recoveries", "count"),
    lo("core.space_overhead_frac", "frac"),
    // kv: per structure and op, structure self time, transaction shape.
    lo("kv.btree.put_us", "us"),
    lo("kv.btree.get_us", "us"),
    lo("kv.btree.del_us", "us"),
    lo("kv.ctree.put_us", "us"),
    lo("kv.ctree.get_us", "us"),
    lo("kv.ctree.del_us", "us"),
    lo("kv.rtree.put_us", "us"),
    lo("kv.rtree.get_us", "us"),
    lo("kv.rtree.del_us", "us"),
    lo("kv.self_us_per_op", "us"),
    lo("kv.objs_per_put", "count"),
    lo("kv.mod_bytes_per_put", "B"),
    lo("kv.lf.queue_us", "us"),
    lo("kv.lf.stack_us", "us"),
    lo("kv.lf.hash_us", "us"),
    // server: codec, the same frames three ways, batching, shedding.
    lo("server.proto_encode_ns_per_req", "ns"),
    lo("server.proto_decode_ns_per_req", "ns"),
    lo("server.unloaded_rtt_us", "us"),
    lo("server.inproc_frame_us", "us"),
    lo("server.backend_frame_us", "us"),
    lo("server.tcp_self_us", "us"),
    lo("server.queue_self_us", "us"),
    hi("server.group_factor", "x"),
    lo("server.fences_per_write", "count"),
    lo("server.busy_frac", "frac"),
    lo("server.admission_peak", "count"),
    // bench: the latency tail (no bound: its run-to-run spread reached a
    // quarter on `svc_read`), and that the generator and timers are not
    // the bottleneck.
    lo("bench.p99_us", "us"),
    lo("bench.trace_overhead_frac", "frac"),
    lo("bench.gen_ns_per_op", "ns"),
    lo("bench.timer_ns_per_sample", "ns"),
    lo("bench.peak_rss_mb", "MB"),
];

/// Metrics computed from device counters of one single-thread pass (or
/// from the pool layout): two runs with one seed must agree bit for bit.
pub const EXACT: &[&str] = &[
    "device_us_per_op",
    "nvm.fences_per_op",
    "nvm.lines_flushed_per_op",
    "nvm.bytes_written_per_op",
    "nvm.bytes_nt_per_op",
    "nvm.bytes_read_per_op",
    "nvm.read_ops_per_op",
    "nvm.xor_bytes_per_op",
    "nvm.atomic_rmw_per_op",
    "nvm.write_amp",
    "pmemobj.fences_per_op",
    "pmemobj.lines_flushed_per_op",
    "core.commit_old_reads_per_op",
    "core.commit_old_bytes_per_op",
    "core.csum_passes_per_op",
    "core.csum_bytes_per_op",
    "core.vcache_hit_ratio",
    "core.atomic_parity_patches_per_op",
    "core.space_overhead_frac",
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, Summary>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, Summary::exact(value));
    }

    pub fn put(&mut self, name: &'static str, summary: Summary) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, summary);
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.0.get(name).copied()
    }

    /// The values of `defs`, in table order. A per-layer metric nobody set
    /// is the 0 of a bypassed layer; a missing end-to-end metric is a bug.
    pub fn in_order(
        &self,
        defs: &'static [MetricDef],
        default_zero: bool,
    ) -> Vec<(MetricDef, Summary)> {
        defs.iter()
            .map(|d| {
                let s = match self.get(d.name) {
                    Some(s) => s,
                    None if default_zero => Summary::exact(0.0),
                    None => panic!("workload did not measure {}", d.name),
                };
                (*d, s)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name, 64), "bad metric name {}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {} of {}",
                d.unit,
                d.name
            );
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
        for name in EXACT {
            assert!(seen.contains(name), "EXACT names undeclared metric {name}");
        }
    }

    #[test]
    #[should_panic(expected = "did not measure ops_per_s")]
    fn a_missing_end_to_end_metric_is_a_bug() {
        let mut v = Values::default();
        v.set("setup_s", 1.0);
        v.in_order(END_TO_END, false);
    }
}
