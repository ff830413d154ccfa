//! `qr3d-benchmark`: the standing end-to-end + per-layer benchmark of
//! the qr3d workspace. See `README.md` beside this package for the
//! workloads, the metrics and how they interact, and `BENCHMARK.json` at
//! the repository root for the contract every result is checked against.
//!
//! ```text
//! qr3d-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--out-dir <dir>]
//! qr3d-benchmark list
//! qr3d-benchmark layers
//! qr3d-benchmark smoke
//! qr3d-benchmark compare <A> <B>
//! ```

mod compare;
mod contract;
mod json;
mod layers;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use contract::{contract, MetricSet};
use json::Value;
use workloads::{Outcome, Spec};

const USAGE: &str = "usage:
  qr3d-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--out-dir <dir>]
  qr3d-benchmark list
  qr3d-benchmark layers
  qr3d-benchmark smoke
  qr3d-benchmark compare <A> <B>      (A, B: a result file or a directory of them)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("list") => cmd_list(),
        Some("layers") => cmd_layers(&args[1..]),
        Some("smoke") => cmd_smoke(),
        Some("compare") => compare::run(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // The command ran and found a correctness failure.
        Ok(false) => ExitCode::from(2),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(1)
        }
    }
}

/// `--key value` pairs of a subcommand.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unknown argument `{key}`\n{USAGE}"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("`{key}` needs a value\n{USAGE}"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// The package directory: where `out/` lives.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Create `dir` and point the process's temporary directory into it, so
/// the out-of-core probe's spill file stays inside the checkout. Must
/// run before any thread is spawned.
fn prepare_out_dir(dir: &Path) -> Result<(), String> {
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(())
}

fn warn_about_environment() {
    for (k, v) in sys::qr3d_env() {
        eprintln!(
            "warning: {k}={v} is set; the workloads are defined with every QR3D_* variable \
             unset, so this result is not comparable with the baseline"
        );
    }
}

struct RunArgs {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let f = flags(args, &["workload", "seed", "seconds", "trace", "out-dir"])?;
    let name = flag(&f, "workload").ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let spec = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload `{name}` (have: {})", names.join(", "))
    })?;
    let seed = flag(&f, "seed")
        .ok_or_else(|| format!("--seed is required\n{USAGE}"))?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = match flag(&f, "seconds") {
        Some(s) => s.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?,
        None => contract().run_seconds,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match flag(&f, "trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    Ok(RunArgs {
        spec,
        seed,
        seconds,
        trace,
        out_dir: flag(&f, "out-dir").map_or_else(|| package_dir().join("out"), PathBuf::from),
    })
}

/// The traced window is a quarter of `--seconds` (6 s at the contract's
/// 24): the traced run exists for attribution, not for tight medians,
/// and it also has to fit the layer probes.
fn traced_seconds(seconds: f64) -> f64 {
    (seconds / 4.0).max(0.5)
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let a = parse_run_args(args)?;
    prepare_out_dir(&a.out_dir)?;
    warn_about_environment();
    let outcome = if a.trace {
        let mut outcome = workloads::run(a.spec, a.seed, traced_seconds(a.seconds), true);
        outcome
            .metrics
            .extend(layers::run(layers::Budget { quick: false }));
        outcome
    } else {
        workloads::run(a.spec, a.seed, a.seconds, false)
    };
    let errors = outcome.metrics.schema_errors(a.trace);
    if !errors.is_empty() {
        return Err(errors.join("\n"));
    }
    let tally = outcome.tally;
    let correct = tally.failed == 0;

    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        a.spec.name,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("  {}", a.spec.what);
    print_metrics(&outcome.metrics);
    println!(
        "  attempted {}  failed {}  failed_frac {}",
        tally.attempted,
        tally.failed,
        tally.failed_frac()
    );

    let stem = format!("{}.seed{}.trace{}", a.spec.name, a.seed, u8::from(a.trace));
    let report = report_json(&a, &outcome, correct);
    write_file(&a.out_dir.join(format!("{stem}.json")), &report.to_json())?;
    if a.trace {
        let path = a.out_dir.join(format!("{stem}.chrome.json"));
        write_file(&path, &trace::chrome_trace(&outcome.spans).to_json())?;
        println!("  {} spans -> {}", outcome.spans.len(), path.display());
    }

    // The contract's result line: last on standard output.
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(tally.attempted as f64)),
            ("failed", Value::Num(tally.failed as f64)),
            ("metrics", outcome.metrics.to_json(a.trace)),
        ])
        .to_json()
    );
    Ok(correct)
}

fn print_metrics(set: &MetricSet) {
    for r in &set.items {
        let unit = contract().find(&r.name).map_or("?", |d| d.unit.as_str());
        let n = r.samples.map_or(String::new(), |n| format!("n={n}"));
        let value = contract::display(r.value);
        println!(
            "  {:<34} {:>16} {:<8} {:<10} {}",
            r.name,
            value,
            unit,
            n,
            r.note.as_deref().unwrap_or("")
        );
    }
}

/// The full result file `compare` reads: the contract line's content
/// plus sample counts, notes and the machine fingerprint.
fn report_json(a: &RunArgs, outcome: &Outcome, correct: bool) -> Value {
    let metrics = outcome.metrics.items.iter().map(|r| {
        let mut m = vec![
            ("value".to_string(), Value::Num(r.value)),
            (
                "unit".to_string(),
                Value::str(contract().find(&r.name).map_or("?", |d| d.unit.as_str())),
            ),
        ];
        if let Some(n) = r.samples {
            m.push(("samples".into(), Value::Num(n as f64)));
        }
        if let Some(note) = &r.note {
            m.push(("note".into(), Value::str(note.as_str())));
        }
        (r.name.clone(), Value::Obj(m))
    });
    Value::obj([
        ("workload", Value::str(a.spec.name)),
        ("seed", Value::Num(a.seed as f64)),
        ("seconds", Value::Num(a.seconds)),
        ("trace", Value::Bool(a.trace)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(outcome.tally.attempted as f64)),
        ("failed", Value::Num(outcome.tally.failed as f64)),
        ("failed_frac", Value::Num(outcome.tally.failed_frac())),
        ("fingerprint", sys::fingerprint()),
        ("metrics", Value::obj(metrics)),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn cmd_list() -> Result<bool, String> {
    let c = contract();
    println!(
        "workloads (closed loop; --seconds defaults to {}):",
        c.run_seconds
    );
    for (name, why) in &c.workloads {
        let spec = workloads::find(name)
            .ok_or_else(|| format!("BENCHMARK.json names workload `{name}`, the code does not"))?;
        println!("  {name}\n      runs: {}\n      why:  {why}", spec.what);
        println!("      latency_ms_tail is p{}", spec.tail_pct);
    }
    for (title, defs) in [("end-to-end", &c.end_to_end), ("per-layer", &c.per_layer)] {
        println!("{title} metrics:");
        for d in defs {
            let bound = d.bound.map_or(String::new(), |b| format!("bound {b}"));
            let better = match d.better {
                contract::Better::Lower => "lower",
                contract::Better::Higher => "higher",
            };
            println!("  {:<34} {:<8} {better:<6} {bound}", d.name, d.unit);
        }
    }
    Ok(true)
}

fn cmd_layers(args: &[String]) -> Result<bool, String> {
    if !args.is_empty() {
        return Err(USAGE.to_string());
    }
    prepare_out_dir(&package_dir().join("out"))?;
    warn_about_environment();
    println!("fingerprint {}", sys::fingerprint().to_json());
    print_metrics(&layers::run(layers::Budget { quick: false }));
    Ok(true)
}

/// Every workload for one second with tracing off and once traced with
/// token-length probes, and the emitted metric names checked against
/// `BENCHMARK.json` both ways.
fn cmd_smoke() -> Result<bool, String> {
    prepare_out_dir(&package_dir().join("out"))?;
    let c = contract();
    let mut problems = Vec::new();
    for (name, _) in &c.workloads {
        if workloads::find(name).is_none() {
            problems.push(format!(
                "BENCHMARK.json names workload `{name}`, the code does not"
            ));
        }
    }
    // The probes do not depend on the workload: run them once and check
    // their union with every workload's traced metrics.
    let probes = layers::run(layers::Budget { quick: true });
    for spec in &workloads::SPECS {
        if !c.workloads.iter().any(|(n, _)| n == spec.name) {
            problems.push(format!("workload `{}` is not in BENCHMARK.json", spec.name));
        }
        for trace in [false, true] {
            let t = std::time::Instant::now();
            let mut outcome = workloads::run(spec, 1, if trace { 0.5 } else { 1.0 }, trace);
            if trace {
                outcome.metrics.extend(probes.clone());
            }
            let errors = outcome.metrics.schema_errors(trace);
            println!(
                "smoke {:<10} trace {}  {} metrics  attempted {}  failed {}  {:.1}s  {}",
                spec.name,
                u8::from(trace),
                outcome.metrics.items.len(),
                outcome.tally.attempted,
                outcome.tally.failed,
                t.elapsed().as_secs_f64(),
                if errors.is_empty() {
                    "ok"
                } else {
                    "SCHEMA MISMATCH"
                }
            );
            problems.extend(errors.into_iter().map(|e| format!("{}: {e}", spec.name)));
            if outcome.tally.failed > 0 {
                problems.push(format!(
                    "{}: {} ops failed",
                    spec.name, outcome.tally.failed
                ));
            }
        }
    }
    if problems.is_empty() {
        println!("smoke ok");
        Ok(true)
    } else {
        Err(problems.join("\n"))
    }
}
