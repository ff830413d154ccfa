//! `BENCHMARK.json`, the one place where workloads, metric names, units,
//! directions and regression bounds are written down. It is compiled
//! into the binary; every result is checked against it before it is
//! printed, so a renamed or forgotten metric fails at once.

use std::sync::OnceLock;

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric of the contract.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug)]
pub struct Contract {
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub run_seconds: f64,
}

impl Contract {
    /// The metric list a run with `--trace <trace>` must emit.
    pub fn metrics(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Look a metric up in both lists.
    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn parse_metrics(doc: &Value, key: &str) -> Vec<MetricDef> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` must be an array"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks `{f}`"))
            };
            MetricDef {
                name: field("name").to_string(),
                unit: field("unit").to_string(),
                better: match field("better") {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => panic!("BENCHMARK.json: better = `{other}`"),
                },
                bound: m.get("bound").and_then(Value::as_f64),
            }
        })
        .collect()
}

/// The contract compiled into this binary.
///
/// # Panics
/// If `BENCHMARK.json` is malformed — a build-time artefact, so a bug.
pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json: `workloads` must be an array")
            .iter()
            .map(|w| {
                let field = |f: &str| {
                    w.get(f)
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("BENCHMARK.json: workload lacks `{f}`"))
                        .to_string()
                };
                (field("name"), field("why"))
            })
            .collect();
        Contract {
            workloads,
            end_to_end: parse_metrics(&doc, "end_to_end"),
            per_layer: parse_metrics(&doc, "per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json: `run_seconds` must be a number"),
        }
    })
}

/// A value for a table: six decimals for everyday magnitudes, exponent
/// form for the rest (residuals near 1e-16, flop counts near 1e9).
pub fn display(value: f64) -> String {
    if value == 0.0 || (1e-3..1e7).contains(&value.abs()) {
        format!("{value:.6}")
    } else {
        format!("{value:.6e}")
    }
}

/// A measured metric on its way to the result line.
#[derive(Debug, Clone)]
pub struct Reported {
    pub name: String,
    pub value: f64,
    /// How many samples the value summarises, where that means something.
    pub samples: Option<usize>,
    /// Why the metric reads 0 (not applicable, refused) or any other
    /// remark a reader needs beside the number.
    pub note: Option<String>,
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Default, Clone)]
pub struct MetricSet {
    pub items: Vec<Reported>,
}

impl MetricSet {
    pub fn put(&mut self, name: &str, value: f64) {
        self.push(name, value, None, None);
    }

    pub fn put_n(&mut self, name: &str, value: f64, samples: usize) {
        self.push(name, value, Some(samples), None);
    }

    pub fn put_note(&mut self, name: &str, value: f64, note: impl Into<String>) {
        self.push(name, value, None, Some(note.into()));
    }

    /// A metric this run cannot or must not measure: it reads 0 and the
    /// reason travels with it.
    pub fn omit(&mut self, name: &str, reason: impl Into<String>) {
        self.push(name, 0.0, None, Some(format!("omitted: {}", reason.into())));
    }

    pub fn push(&mut self, name: &str, value: f64, samples: Option<usize>, note: Option<String>) {
        assert!(
            !self.items.iter().any(|r| r.name == name),
            "metric `{name}` reported twice"
        );
        self.items.push(Reported {
            name: name.to_string(),
            value,
            samples,
            note,
        });
    }

    pub fn extend(&mut self, other: MetricSet) {
        for r in other.items {
            self.push(&r.name, r.value, r.samples, r.note);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// Names the contract lists for this kind of run but the set lacks,
    /// and names the set holds that the contract does not list.
    pub fn schema_errors(&self, trace: bool) -> Vec<String> {
        let defs = contract().metrics(trace);
        let mut errors = Vec::new();
        for d in defs {
            if !self.items.iter().any(|r| r.name == d.name) {
                errors.push(format!(
                    "metric `{}` of BENCHMARK.json was not emitted",
                    d.name
                ));
            }
        }
        for r in &self.items {
            if !defs.iter().any(|d| d.name == r.name) {
                errors.push(format!("metric `{}` is not in BENCHMARK.json", r.name));
            }
            if !r.value.is_finite() {
                errors.push(format!("metric `{}` is not finite", r.name));
            }
        }
        errors
    }

    /// The `metrics` object of the result line, in contract order.
    pub fn to_json(&self, trace: bool) -> Value {
        Value::obj(contract().metrics(trace).iter().filter_map(|d| {
            self.get(&d.name).map(|v| {
                (
                    d.name.clone(),
                    Value::obj([("value", Value::Num(v)), ("unit", Value::str(&*d.unit))]),
                )
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_meets_the_limits_of_the_builders_contract() {
        let c = contract();
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
        let setup = c.find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let mut names: Vec<&str> = c
            .workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(
                c.end_to_end
                    .iter()
                    .chain(&c.per_layer)
                    .map(|m| m.name.as_str()),
            )
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a name is used twice");
        for m in &c.end_to_end {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || "_/%.-".contains(ch)));
        }
        for m in &c.per_layer {
            assert!(
                m.bound.is_none(),
                "{}: per-layer metrics carry no bound",
                m.name
            );
        }
        for (_, why) in &c.workloads {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn a_renamed_metric_fails_the_schema_check() {
        let mut set = MetricSet::default();
        for d in &contract().end_to_end {
            set.put(&d.name, 1.0);
        }
        assert!(set.schema_errors(false).is_empty());
        set.items[0].name = "latency_millis".into();
        let errors = set.schema_errors(false);
        assert_eq!(errors.len(), 2, "{errors:?}");
    }
}
