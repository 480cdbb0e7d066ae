//! What a run prints: every metric as `name value unit` with quartiles and
//! sample count, the per-layer table of a traced run, and the one-line
//! JSON result the driver reads.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::run::Outcome;
use crate::stats::Summary;
use crate::trace::{self, Collected};
use crate::workloads::Workload;

pub fn metrics_of(out: &Outcome) -> Vec<(MetricDef, Summary)> {
    if out.trace {
        out.values.in_order(PER_LAYER, true)
    } else {
        out.values.in_order(END_TO_END, false)
    }
}

pub fn print_metrics(out: &Outcome) {
    println!("# {} (trace {})", out.workload.name(), u8::from(out.trace));
    for (def, s) in metrics_of(out) {
        println!("{} {} {} q1={} q3={} n={}", def.name, s.median, def.unit, s.q1, s.q3, s.n);
    }
}

/// `{"correct", "attempted", "failed", "metrics"}`, values with all their
/// digits.
pub fn result_json(out: &Outcome) -> Json {
    let metrics = metrics_of(out).into_iter().map(|(def, s)| {
        (def.name, Json::obj([("value", Json::Num(s.median)), ("unit", Json::str(def.unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The inputs of the per-layer table, all in µs per op.
pub struct LayerTimes {
    /// Generator threads whose timelines the spans lie on.
    pub threads: f64,
    /// Wall time of the untraced and of the traced passes (medians), and
    /// the traced passes' mean.
    pub wall_us: f64,
    pub spanned_us: f64,
    pub timeline_us: f64,
    /// Wall time with the latency model disabled, and modelled device time.
    pub host_us: f64,
    pub device_us: f64,
}

/// `layer · busy µs/op · device µs/op · share of wall`, in generator-thread
/// time per op (wall time × generator threads ÷ ops). Each layer's time is
/// the compensated self time of its spans. The stall the latency model
/// added (wall − host) is taken out of `core`, the only layer that issues
/// device operations, and shown as `nvm`. `bench` is the remainder — the
/// generator loop, its timers and the recording of the spans — so the rows
/// sum to the traced wall time, and the rows above `bench` to the untraced
/// wall time within the tracing overhead.
pub fn layer_table(w: Workload, c: &Collected, ops: u64, t: &LayerTimes) {
    use crate::trace::*;
    let per_op = |ns: u64| ns as f64 / 1e3 / ops.max(1) as f64;
    // No span boundary separates the lock-free structures from the ploc
    // calls under them: their whole span counts as core.
    let device_side = c.sum([TX_WRITE, TX_ALLOC, TX_FREE, TX_READ, STORE_READ]).total_ns
        + c.sum([POOL_TX, STORE_TXN, STORE_TXN_BATCH]).self_ns
        + c.sum([REOPEN, SCRUB, REPAIR, LF_QUEUE, LF_STACK, LF_HASH]).total_ns;
    let kv = per_op(c.sum(MAP_OP..MAP_OP + 9).self_ns + c.of(TX_BODY).self_ns);
    let calls = c.of(CLIENT_CALL).total_ns;
    let stall = ((t.wall_us - t.host_us) * t.threads).clamp(0.0, per_op(device_side));
    let core = per_op(device_side) - stall;
    // On the service, core and kv spans lie on worker threads, inside the
    // round trips the client spans cover: an aggregate difference.
    let server = if calls > 0 { (per_op(calls) - per_op(device_side) - kv).max(0.0) } else { 0.0 };
    let timeline = t.timeline_us * t.threads;
    let bench = (timeline - server - kv - core - stall).max(0.0);
    println!("\n== {}: generator-thread time per op, by layer ==", w.name());
    println!("{:<8} {:>12} {:>14} {:>8}", "layer", "busy µs/op", "device µs/op", "share");
    let rows = [
        ("nvm", stall, t.device_us * t.threads),
        ("core", core, 0.0),
        ("kv", kv, 0.0),
        ("server", server, 0.0),
        ("bench", bench, 0.0),
    ];
    for (layer, busy, device) in rows {
        println!("{layer:<8} {busy:>12.3} {device:>14.3} {:>7.1}%", 100.0 * busy / timeline);
    }
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    println!(
        "sum {sum:.3} = traced wall {timeline:.3}; without bench {:.3} vs untraced wall {:.3}; \
         tracing overhead {:.1}%",
        sum - bench,
        t.wall_us * t.threads,
        100.0 * (t.spanned_us - t.wall_us) / t.wall_us
    );
}

/// Writes the raw spans beside the executable (inside the build directory,
/// which `.gitignore` names), as `trace-<workload>.jsonl`.
pub fn write_trace(w: Workload, c: &Collected) -> std::io::Result<()> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().ok_or_else(|| std::io::Error::other("executable has no directory"))?;
    let path = dir.join(format!("trace-{}.jsonl", w.name()));
    trace::write_jsonl(&path, &c.raw)?;
    println!(
        "{} spans written to {} ({} more only counted)",
        c.raw.len(),
        path.display(),
        c.dropped_raw
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Values;

    fn outcome(trace: bool, failed: u64) -> Outcome {
        let mut values = Values::default();
        for d in END_TO_END {
            values.set(d.name, 1.25);
        }
        values.set("nvm.fences_per_op", 4.0);
        Outcome { workload: Workload::TxSmall, trace, attempted: 1000, failed, values }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_metrics() {
        let line = result_json(&outcome(false, 0)).to_string();
        let v = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &v else { panic!("not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = v.get("metrics") else { panic!("no metrics") };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        assert_eq!(metrics[0].1.get("unit").and_then(Json::as_str), Some("s"));

        let traced = result_json(&outcome(true, 0));
        let Some(Json::Obj(metrics)) = traced.get("metrics") else { panic!("no metrics") };
        assert_eq!(metrics.len(), PER_LAYER.len(), "bypassed layers report 0");
        assert_eq!(
            traced
                .get("metrics")
                .and_then(|m| m.get("kv.self_us_per_op"))
                .and_then(|m| m.get("value")),
            Some(&Json::Num(0.0))
        );
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let bad = outcome(false, 1);
        assert!(!bad.correct());
        assert_eq!(result_json(&bad).get("correct"), Some(&Json::Bool(false)));
        assert_eq!(crate::exit_code(&[bad]), 1);
        assert_eq!(crate::exit_code(&[outcome(false, 0)]), 0);
    }
}
