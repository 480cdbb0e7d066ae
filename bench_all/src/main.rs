//! `bench_all`: the repo's one benchmark. Eight named workloads over
//! `nvm → pmemobj → core → kv → server`, three cost axes (wall clock under
//! the `optane` latency model, host time with the model disabled, modelled
//! device time from counters) and a layer trace taken from outside the
//! layers. See `README.md` beside this package and `BENCHMARK.json` at the
//! root of the repo.

mod device;
mod gen;
mod json;
mod kernels;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Json;
use run::{Outcome, RunCfg};
use workloads::{Params, Workload};

/// What the driver runs, from the root of a checkout.
const COMMAND: [&str; 7] =
    ["cargo", "run", "--release", "--quiet", "--manifest-path", "bench_all/Cargo.toml", "--"];
/// How long one run measures; also the default of `--seconds`.
const RUN_SECONDS: u32 = 8;

const USAGE: &str = "\
usage: bench_all --workload <name> | --all
                 [--seed N]       generator seed (default 11)
                 [--seconds S]    how long one run measures (default 8)
                 [--trace [0|1]]  1: per-layer metrics from the traced run
                 [--json PATH]    also write results and host fingerprint
                 [--commit HASH] [--rustc VERSION]   recorded in --json
                 [--smoke]        ops / 50, minimum passes; numbers are not reported
                 [--selfcheck]    run twice per workload and compare
       bench_all --emit-benchmark-json    print the content of BENCHMARK.json
workloads: tx_small tx_large kv_write kv_read cas_lockfree svc_write svc_read recover_scrub";

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    json: Option<String>,
    commit: String,
    rustc: String,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 11,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        selfcheck: false,
        json: None,
        commit: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?;
                cli.workloads.push(w);
            }
            "--all" => cli.workloads = Workload::ALL.to_vec(),
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                cli.seconds = s;
            }
            "--trace" => {
                // `--trace 0|1` for the driver, a bare `--trace` by hand.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            "--selfcheck" => cli.selfcheck = true,
            "--json" => cli.json = Some(value("a path")?),
            "--commit" => cli.commit = value("a hash")?,
            "--rustc" => cli.rustc = value("a version")?,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if cli.workloads.is_empty() {
        return Err("name a workload with --workload, or --all".into());
    }
    Ok(cli)
}

impl Cli {
    fn cfg(&self, workload: Workload, trace: bool) -> RunCfg {
        let params = Params { seed: self.seed, smoke: self.smoke, corrupt: false };
        RunCfg { workload, params, seconds: self.seconds, trace }
    }
}

/// Non-zero as soon as one op of one run failed or one sweep disagreed.
pub fn exit_code(outcomes: &[Outcome]) -> u8 {
    u8::from(outcomes.iter().any(|o| !o.correct()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--emit-benchmark-json"] {
        let mut text = String::new();
        benchmark_json().pretty(0, &mut text);
        println!("{text}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("bench_all: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.selfcheck {
        return ExitCode::from(selfcheck(&cli));
    }
    let mut outcomes = Vec::new();
    let mut lines = Vec::new();
    for &w in &cli.workloads {
        let out = run::run(&cli.cfg(w, cli.trace));
        report::print_metrics(&out);
        lines.push(report::result_json(&out).to_string());
        outcomes.push(out);
    }
    if let Some(path) = &cli.json {
        let mut text = String::new();
        baseline_json(&cli, &outcomes).pretty(0, &mut text);
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("bench_all: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    // The result line is the last line of standard output (one per
    // workload under --all).
    for line in lines {
        println!("{line}");
    }
    ExitCode::from(exit_code(&outcomes))
}

/// The content of `BENCHMARK.json`, from the tables the benchmark prints
/// from.
fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let workloads = Workload::ALL
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]));
    let metric = |d: &metrics::MetricDef, bounded: bool| {
        let mut pairs = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ];
        if bounded {
            pairs.push(("bound", Json::Num(metrics::BOUND)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["bench_all"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        ("workloads", Json::Arr(workloads.to_vec())),
        ("end_to_end", Json::Arr(metrics::END_TO_END.iter().map(|d| metric(d, true)).collect())),
        ("per_layer", Json::Arr(metrics::PER_LAYER.iter().map(|d| metric(d, false)).collect())),
    ])
}

/// Results with quartiles and sample counts, and the host they came from.
fn baseline_json(cli: &Cli, outcomes: &[Outcome]) -> Json {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let field = |text: &str, key: &str| {
        let line = text.lines().find(|l| l.starts_with(key)).unwrap_or_default();
        line.split(':').nth(1).unwrap_or_default().trim().to_string()
    };
    let mem_kb: f64 = field(&read("/proc/meminfo"), "MemTotal")
        .trim_end_matches("kB")
        .trim()
        .parse()
        .unwrap_or(0.0);
    let host = Json::obj([
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        ("cpu", Json::str(field(&read("/proc/cpuinfo"), "model name"))),
        ("ram_gib", Json::Num((mem_kb / 1048576.0 * 10.0).round() / 10.0)),
        ("rustc", Json::str(cli.rustc.as_str())),
        ("commit", Json::str(cli.commit.as_str())),
    ]);
    let workloads = outcomes.iter().map(|out| {
        let metrics = report::metrics_of(out).into_iter().map(|(def, s)| {
            let entry = Json::obj([
                ("median", Json::Num(s.median)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("n", Json::Num(s.n as f64)),
                ("unit", Json::str(def.unit)),
            ]);
            (def.name, entry)
        });
        let entry = Json::obj([
            ("attempted", Json::Num(out.attempted as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]);
        (out.workload.name(), entry)
    });
    Json::obj([
        ("bench", Json::str("bench_all")),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("trace", Json::Bool(cli.trace)),
        ("host", host),
        ("workloads", Json::obj(workloads)),
    ])
}

/// Runs each workload twice with the same seed, untraced and traced, and
/// asserts (a) every single-thread per-op count, `device_us_per_op` and
/// `core.space_overhead_frac` bit-identical, (b) the two medians of each
/// timed end-to-end metric within the metric's bound (the one in
/// `BENCHMARK.json`; a unit test keeps file and table equal).
fn selfcheck(cli: &Cli) -> u8 {
    let mut violations = 0u32;
    println!(
        "{:<14} {:<34} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for &w in &cli.workloads {
        // Counts depend on how the service's threads interleave.
        let counts_repeat = !matches!(w, Workload::SvcWrite | Workload::SvcRead);
        for trace in [false, true] {
            let (a, b) = (run::run(&cli.cfg(w, trace)), run::run(&cli.cfg(w, trace)));
            if !(a.correct() && b.correct()) {
                println!("{:<14} failed ops: {} and {}", w.name(), a.failed, b.failed);
                violations += 1;
            }
            for ((def, x), (_, y)) in report::metrics_of(&a).into_iter().zip(report::metrics_of(&b))
            {
                let (x, y) = (x.median, y.median);
                let diff = if x == y { 0.0 } else { (x - y).abs() / x.abs().max(y.abs()) };
                let (bound, ok) = if metrics::EXACT.contains(&def.name) {
                    if !counts_repeat {
                        continue;
                    }
                    (0.0, x.to_bits() == y.to_bits())
                } else if trace {
                    continue; // per-layer timings carry no bound
                } else {
                    (metrics::BOUND, diff <= metrics::BOUND)
                };
                violations += u32::from(!ok);
                let verdict = if ok { "ok" } else { "VIOLATION" };
                println!(
                    "{:<14} {:<34} {x:>16.6} {y:>16.6} {:>7.2}% {:>5.0}%  {verdict}",
                    w.name(),
                    def.name,
                    100.0 * diff,
                    100.0 * bound
                );
            }
        }
    }
    println!("selfcheck: {violations} violation(s)");
    u8::from(violations > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_hand_typed_command_lines_parse() {
        let cli = parse(&args("--workload kv_read --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (cli.workloads.as_slice(), cli.seed, cli.seconds, cli.trace),
            (&[Workload::KvRead][..], 7, 10.0, true)
        );
        assert!(!parse(&args("--workload kv_read --trace 0")).unwrap().trace);
        let cli = parse(&args("--all --trace --smoke")).unwrap();
        assert!(cli.trace && cli.smoke && cli.workloads.len() == 8);
        assert_eq!(parse(&args("--all")).unwrap().seconds, f64::from(RUN_SECONDS));
        for bad in [
            "",
            "--workload nope",
            "--all --seconds 0",
            "--all --seed x",
            "--all --bogus",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    /// `BENCHMARK.json` at the root of the repo is exactly what the tables
    /// say (`bench_all --emit-benchmark-json`), so every name in it is
    /// emitted by its workloads and the other way round — the printer walks
    /// the same tables — and it stays inside the contract's limits.
    #[test]
    fn benchmark_json_matches_the_tables_and_the_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the root of the repo");
        assert!(text.len() <= 64 << 10);
        let file = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(file, benchmark_json(), "regenerate with --emit-benchmark-json");

        let Json::Obj(pairs) = &file else { panic!("not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let command = file.get("command").unwrap().as_arr();
        assert!(command.len() <= 32 && command.iter().all(|c| c.as_str().unwrap().len() <= 200));
        assert!(command.iter().all(|c| {
            let c = c.as_str().unwrap();
            !c.starts_with('/') && !c.contains("..")
        }));
        assert_eq!(file.get("paths").unwrap().as_arr(), [Json::str("bench_all")]);
        assert!((1..=60).contains(&RUN_SECONDS));
        // 4 + 22 x workloads runs, two builds: inside 3420 s at the ~11 s
        // an untraced run takes on the builder's host (README, "Time").
        let runs = 4 + 22 * Workload::ALL.len() as u32;
        assert!(runs * (RUN_SECONDS + 6) + 2 * 120 <= 3420);
        assert_eq!(file.get("run_seconds").and_then(Json::as_f64), Some(f64::from(RUN_SECONDS)));
    }
}
