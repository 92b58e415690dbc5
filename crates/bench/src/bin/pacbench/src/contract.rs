//! The benchmark's contract: `BENCHMARK.json` at the root of the
//! repository, compiled in. It names the workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metrics;
//! nothing here repeats them.

use std::sync::OnceLock;

use crate::common::Metric;
use crate::json::{self, Value};

const TEXT: &str = include_str!("../../../../../../BENCHMARK.json");

/// A metric the contract lists. `bound` is the share of the parent's
/// median by which an end-to-end metric may get worse; per-layer
/// metrics have none.
pub struct Listed {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Listed>,
    pub per_layer: Vec<Listed>,
}

fn listed(doc: &Value, key: &str) -> Vec<Listed> {
    let items = doc.get(key).and_then(Value::as_arr).unwrap_or_default();
    items
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or_default();
            Listed {
                name: text("name").to_string(),
                unit: text("unit").to_string(),
                lower_is_better: text("better") == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            }
        })
        .collect()
}

pub fn get() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        let doc = json::parse(TEXT).expect("BENCHMARK.json parses");
        let workloads = doc.get("workloads").and_then(Value::as_arr);
        Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .unwrap_or(0.0) as u64,
            workloads: workloads
                .unwrap_or_default()
                .iter()
                .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
                .collect(),
            end_to_end: listed(&doc, "end_to_end"),
            per_layer: listed(&doc, "per_layer"),
        }
    })
}

/// The unit the contract gives per-layer metric `name`.
///
/// # Panics
///
/// Panics on a name the contract does not list: a bug in the benchmark.
pub fn unit_of(name: &str) -> &'static str {
    let c = get();
    match c.per_layer.iter().find(|m| m.name == name) {
        Some(m) => &m.unit,
        None => panic!("metric {name} is not in BENCHMARK.json"),
    }
}

/// A run's metrics in the order `list` gives them. The run must have
/// reported exactly the metrics listed, with the units listed: a
/// missing, extra, doubled or mislabelled metric is an error, never a
/// silent 0.
pub fn in_order(metrics: &[Metric], list: &[Listed]) -> Result<Vec<Metric>, String> {
    for m in metrics {
        match list.iter().find(|l| l.name == m.name) {
            None => return Err(format!("metric {} is not in BENCHMARK.json", m.name)),
            Some(l) if l.unit != m.unit => {
                return Err(format!(
                    "metric {} is reported in {}, BENCHMARK.json says {}",
                    m.name, m.unit, l.unit
                ))
            }
            Some(_) => {}
        }
    }
    list.iter()
        .map(|l| {
            let mut found = metrics.iter().filter(|m| m.name == l.name);
            match (found.next(), found.next()) {
                (Some(m), None) => Ok(m.clone()),
                (None, _) => Err(format!("metric {} was not reported", l.name)),
                (Some(_), Some(_)) => Err(format!("metric {} was reported twice", l.name)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        name.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_meets_the_drivers_limits() {
        assert!(TEXT.len() < 64 * 1024);
        let doc = json::parse(TEXT).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for w in doc.get("workloads").unwrap().as_arr().unwrap() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let c = get();
        assert!((1..=60).contains(&c.run_seconds));
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        let mut seen = std::collections::BTreeSet::new();
        for name in &c.workloads {
            assert!(name_ok(name) && seen.insert(name), "{name}");
        }
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(name_ok(&m.name) && seen.insert(&m.name), "{}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
        }
        let setup = &c.end_to_end[0];
        assert_eq!((setup.name.as_str(), setup.unit.as_str()), ("setup_s", "s"));
        assert!(setup.lower_is_better);
        for m in &c.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn a_run_reports_exactly_what_is_listed() {
        let list = &get().per_layer[..2];
        let metric = |l: &Listed, value| Metric {
            name: Box::leak(l.name.clone().into_boxed_str()),
            value,
            unit: Box::leak(l.unit.clone().into_boxed_str()),
        };
        let (a, b) = (metric(&list[0], 1.0), metric(&list[1], 2.0));
        let ordered = in_order(&[b.clone(), a.clone()], list).unwrap();
        assert_eq!((ordered[0].value, ordered[1].value), (1.0, 2.0));
        assert!(in_order(std::slice::from_ref(&a), list)
            .unwrap_err()
            .contains("not reported"));
        assert!(in_order(&[a.clone(), a.clone(), b.clone()], list)
            .unwrap_err()
            .contains("twice"));
        let stranger = Metric {
            name: "nope",
            ..a.clone()
        };
        assert!(in_order(&[stranger], list).is_err());
        let mislabelled = Metric {
            unit: "furlongs",
            ..a
        };
        assert!(in_order(&[mislabelled, b], list)
            .unwrap_err()
            .contains("furlongs"));
    }
}
