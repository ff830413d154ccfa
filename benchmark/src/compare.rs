//! `compare A B`: two sets of result files, one row per (metric,
//! workload), judged by the bounds `BENCHMARK.json` fixes.
//!
//! A set is a result file or a directory of them (as `run --out-dir`
//! writes). With several runs of a workload on a side, the row compares
//! medians and the run-to-run spread decides whether the comparison can
//! be resolved at all.

use std::collections::BTreeMap;
use std::path::Path;

use crate::contract::{contract, display, Better, Contract, MetricDef};
use crate::json::{self, Value};
use crate::stats::{median, quartile_spread};

/// How one (metric, workload) pair came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread on a side is wider than the bound, and the
    /// sides' runs overlap: the data cannot say.
    Unresolved,
    /// A count off the library's logical clocks, identical bit for bit
    /// in every run of both sides.
    Same,
    /// A per-layer count that is not: with no bound to judge the change
    /// by, `compare` refuses it and the reader decides.
    Differs,
    /// A per-layer measurement: it has no bound, the row is for reading.
    Info,
    /// The pair was measured on one side only.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "DIFFERS",
            Verdict::Info => "-",
            Verdict::Missing => "MISSING",
        }
    }

    fn passes(self) -> bool {
        matches!(self, Verdict::Ok | Verdict::Same | Verdict::Info)
    }
}

/// Counts the library computes on logical clocks; they repeat exactly.
fn is_exact_count(def: &MetricDef) -> bool {
    matches!(def.unit.as_str(), "flops" | "words" | "msgs")
}

/// The wider of the two sides' interquartile spreads, as a share of the
/// median; `None` with a single run per side.
fn wider_spread(a: &[f64], b: &[f64]) -> Option<f64> {
    [a, b]
        .iter()
        .filter_map(|xs| quartile_spread(xs))
        .reduce(f64::max)
}

/// Judge metric `def` given every run's value on each side (at least
/// one each). An end-to-end metric is held to its bound in its
/// direction, the modelled counts included: fewer words is a gain, not a
/// difference. A per-layer metric has no bound; its counts must repeat.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    if is_exact_count(def) {
        let first = a[0].to_bits();
        if a.iter().chain(b).all(|x| x.to_bits() == first) {
            return Verdict::Same;
        }
        if def.bound.is_none() {
            return Verdict::Differs;
        }
    }
    let Some(bound) = def.bound else {
        return Verdict::Info;
    };
    let (ma, mb) = (median(a), median(b));
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if wider_spread(a, b).is_some_and(|s| s > bound) {
        // Too noisy to resolve — unless B wins every single pairing.
        let b_always_better = a.iter().all(|&x| {
            b.iter().all(|&y| match def.better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One result file, reduced to what `compare` needs.
struct Report {
    workload: String,
    trace: bool,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn load_report(path: &Path) -> Result<Report, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: not a result file (no `{what}`)", path.display());
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| bad("metrics"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(Report {
        workload: doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("workload"))?
            .to_string(),
        trace: matches!(doc.get("trace"), Some(Value::Bool(true))),
        failed: doc
            .get("failed")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("failed"))?,
        metrics,
    })
}

/// Every result file of a set: all `*.json` of the directory except the
/// chrome traces a traced run writes beside its result. A file that does
/// not load is an error, not a smaller set.
fn load_set(path: &Path) -> Result<Vec<Report>, String> {
    if !path.is_dir() {
        return Ok(vec![load_report(path)?]);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("reading {}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && !p.to_string_lossy().ends_with(".chrome.json")
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    files.iter().map(|p| load_report(p)).collect()
}

/// `(workload, trace) → metric → values`, one value per run.
type Grouped = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

fn group(reports: &[Report]) -> Grouped {
    let mut out = Grouped::new();
    for r in reports {
        let slot = out.entry((r.workload.clone(), r.trace)).or_default();
        for (name, value) in &r.metrics {
            slot.entry(name.clone()).or_default().push(*value);
        }
    }
    out
}

/// One (metric, workload) pair of the comparison.
struct Row<'a> {
    workload: &'a str,
    def: &'a MetricDef,
    a: &'a [f64],
    b: &'a [f64],
    verdict: Verdict,
}

/// Every pair of the contract that either side measured, in contract
/// order. A kind of run (workload, traced or not) that neither side holds
/// is not part of the comparison; one that a single side holds is, and
/// every metric of it is `Missing`.
fn rows<'a>(c: &'a Contract, a: &'a Grouped, b: &'a Grouped) -> Vec<Row<'a>> {
    let mut out = Vec::new();
    for trace in [false, true] {
        for (workload, _) in &c.workloads {
            let key = (workload.clone(), trace);
            let (ma, mb) = (a.get(&key), b.get(&key));
            if ma.is_none() && mb.is_none() {
                continue;
            }
            for def in c.metrics(trace) {
                let side = |m: Option<&'a BTreeMap<String, Vec<f64>>>| {
                    m.and_then(|m| m.get(&def.name))
                        .map_or(&[][..], Vec::as_slice)
                };
                let (va, vb) = (side(ma), side(mb));
                let verdict = if va.is_empty() || vb.is_empty() {
                    Verdict::Missing
                } else {
                    judge(def, va, vb)
                };
                out.push(Row {
                    workload,
                    def,
                    a: va,
                    b: vb,
                    verdict,
                });
            }
        }
    }
    out
}

/// The comparison passes when it judged something and every judged pair
/// passes.
fn all_pass(rows: &[Row]) -> bool {
    !rows.is_empty() && rows.iter().all(|r| r.verdict.passes())
}

fn print_row(r: &Row) {
    let cell = |xs: &[f64]| {
        if xs.is_empty() {
            "-".to_string()
        } else {
            display(median(xs))
        }
    };
    let (ratio, base) = match (r.a.is_empty(), r.b.is_empty()) {
        (false, false) if median(r.a) != 0.0 => (
            format!("{:.4}", median(r.b) / median(r.a)),
            format!("A = {} {}", display(median(r.a)), r.def.unit),
        ),
        _ => ("-".into(), "-".into()),
    };
    println!(
        "{:<10} {:<32} {:>14} {:>3} {:>14} {:>3} {:>9}  {:<26} {:>7} {:>6}  {}",
        r.workload,
        r.def.name,
        cell(r.a),
        r.a.len(),
        cell(r.b),
        r.b.len(),
        ratio,
        base,
        wider_spread(r.a, r.b).map_or("-".into(), |s| format!("{:.1}%", s * 100.0)),
        r.def.bound.map_or("-".into(), |b| if b >= 1e-3 {
            format!("{b}")
        } else {
            format!("{b:e}")
        }),
        r.verdict.label()
    );
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: qr3d-benchmark compare <A> <B>".into());
    };
    let (a_reports, b_reports) = (load_set(Path::new(a_path))?, load_set(Path::new(b_path))?);
    let (a, b) = (group(&a_reports), group(&b_reports));
    let mut pass = true;

    for (side, reports) in [("A", &a_reports), ("B", &b_reports)] {
        let failed: f64 = reports.iter().map(|r| r.failed).sum();
        if failed > 0.0 {
            println!("{side}: {failed} ops FAILED their correctness check");
            pass = false;
        }
    }
    println!(
        "{:<10} {:<32} {:>14} {:>3} {:>14} {:>3} {:>9}  {:<26} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "A (median)",
        "n",
        "B (median)",
        "n",
        "B/A",
        "base",
        "spread",
        "bound"
    );
    let rows = rows(contract(), &a, &b);
    rows.iter().for_each(print_row);
    if rows.is_empty() {
        println!("compare: the two sets have no workload of BENCHMARK.json in them");
    }
    pass &= all_pass(&rows);
    println!(
        "{}",
        if pass {
            "compare: every pair agrees"
        } else {
            "compare: NOT all pairs agree"
        }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        contract().find(name).unwrap()
    }

    #[test]
    fn bounds_are_applied_in_the_metric_s_direction() {
        let lat = def("latency_ms_p50"); // lower is better
        let pct = lat.bound.unwrap() * 100.0;
        assert_eq!(judge(lat, &[100.0], &[100.0 + pct - 1.0]), Verdict::Ok);
        assert_eq!(judge(lat, &[100.0], &[100.0 + pct + 1.0]), Verdict::Worse);
        assert_eq!(judge(lat, &[100.0], &[50.0]), Verdict::Ok);
        let thr = def("throughput_ops_s"); // higher is better
        let pct = thr.bound.unwrap() * 100.0;
        assert_eq!(judge(thr, &[100.0], &[100.0 - pct + 1.0]), Verdict::Ok);
        assert_eq!(judge(thr, &[100.0], &[100.0 - pct - 1.0]), Verdict::Worse);
        assert_eq!(judge(thr, &[100.0], &[200.0]), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let lat = def("latency_ms_p50");
        assert!(lat.bound.unwrap() < 0.3);
        // Interquartile spread 35 % of the median.
        let noisy = [70.0, 85.0, 100.0, 115.0, 130.0];
        assert_eq!(
            judge(lat, &noisy, &[95.0, 100.0, 105.0]),
            Verdict::Unresolved
        );
        assert_eq!(judge(lat, &noisy, &[50.0, 60.0, 69.0]), Verdict::Ok);
        let steady = [99.0, 100.0, 100.5, 101.0];
        assert_eq!(judge(lat, &steady, &[140.0, 141.0, 142.0]), Verdict::Worse);
    }

    #[test]
    fn modelled_counts_are_held_to_their_bound_in_their_direction() {
        let words = def("model_words"); // lower is better, bound 1e-9
        assert_eq!(judge(words, &[4096.0, 4096.0], &[4096.0]), Verdict::Same);
        assert_eq!(judge(words, &[4096.0], &[4097.0]), Verdict::Worse);
        // A change that moves fewer words is a gain, not a difference.
        assert_eq!(judge(words, &[4096.0], &[2048.0]), Verdict::Ok);
    }

    #[test]
    fn per_layer_counts_must_repeat_bit_for_bit() {
        let msgs = def("machine.msgs_per_op");
        assert_eq!(judge(msgs, &[5.0, 5.0], &[5.0]), Verdict::Same);
        assert_eq!(judge(msgs, &[5.0], &[6.0]), Verdict::Differs);
        assert_eq!(judge(msgs, &[5.0], &[4.0]), Verdict::Differs);
        assert_eq!(
            judge(def("matrix.gemm_gflops"), &[30.0], &[10.0]),
            Verdict::Info
        );
    }

    /// A set holding one untraced run of `workload` in which every
    /// end-to-end metric but those in `without` reads `value`.
    fn set_of(workload: &str, value: f64, without: &[&str]) -> Grouped {
        let metrics = contract()
            .end_to_end
            .iter()
            .filter(|d| !without.contains(&d.name.as_str()))
            .map(|d| (d.name.clone(), value))
            .collect();
        group(&[Report {
            workload: workload.into(),
            trace: false,
            failed: 0.0,
            metrics,
        }])
    }

    #[test]
    fn a_pair_measured_on_one_side_only_fails_the_comparison() {
        let c = contract();
        let full = set_of("ts_house", 1.0, &[]);
        let judged = rows(c, &full, &full);
        assert_eq!(judged.len(), c.end_to_end.len());
        assert!(all_pass(&judged));

        // A metric one side lacks.
        let partial = set_of("ts_house", 1.0, &["cpu_s_per_op"]);
        for (a, b) in [(&full, &partial), (&partial, &full)] {
            let judged = rows(c, a, b);
            let missing: Vec<_> = judged
                .iter()
                .filter(|r| r.verdict == Verdict::Missing)
                .map(|r| r.def.name.as_str())
                .collect();
            assert_eq!(missing, ["cpu_s_per_op"]);
            assert!(!all_pass(&judged));
        }

        // A workload one side lacks: every metric of it is missing.
        let mut two = set_of("ts_house", 1.0, &[]);
        two.extend(set_of("sq_3d", 1.0, &[]));
        let judged = rows(c, &two, &full);
        assert_eq!(judged.len(), 2 * c.end_to_end.len());
        assert!(judged
            .iter()
            .all(|r| (r.workload == "sq_3d") == (r.verdict == Verdict::Missing)));
        assert!(!all_pass(&judged));

        // Nothing in common: every row is missing.
        let other = set_of("sq_3d", 1.0, &[]);
        assert!(!all_pass(&rows(c, &full, &other)));
        // Nothing the contract knows: no row is judged, and that is not
        // agreement either.
        let unknown = set_of("no_such_workload", 1.0, &[]);
        assert!(rows(c, &unknown, &unknown).is_empty());
        assert!(!all_pass(&rows(c, &unknown, &unknown)));
    }

    #[test]
    fn a_result_file_that_does_not_load_fails_the_set() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/compare-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = r#"{"workload": "ts_house", "trace": false, "failed": 0,
                       "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}"#;
        std::fs::write(dir.join("a.json"), good).unwrap();
        std::fs::write(dir.join("a.chrome.json"), "[]").unwrap();
        assert_eq!(load_set(&dir).unwrap().len(), 1);
        std::fs::write(dir.join("b.json"), "{\"workload\": \"ts_house\"").unwrap();
        assert!(load_set(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
