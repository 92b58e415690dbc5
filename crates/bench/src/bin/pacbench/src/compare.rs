//! `--repeat k` (run a set, k process launches per workload, order
//! alternating) and `compare a.json b.json` (set against set, every
//! workload × end-to-end metric against its bound).

use std::collections::BTreeMap;
use std::path::Path;

use crate::contract;
use crate::json::{self, Value};
use crate::measure::median;
use crate::Args;

/// Quartiles of `xs` by the "exclusive" method, which is what Python's
/// `statistics.quantiles(values, n=4)` computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Runs the chosen workloads `k` times each, one process launch per
/// run, reversing the workload order on odd repetitions, each run with
/// its own seed (`--seed` + repetition). Writes every run's record to
/// `--out` and prints median and quartiles per metric.
pub fn repeat(args: &Args, k: usize) -> Result<bool, String> {
    let out_path = args.out.as_ref().ok_or("--repeat needs --out <file>")?;
    let exe = std::env::current_exe().map_err(|e| format!("locate the pacbench binary: {e}"))?;
    let chosen: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => contract::get()
            .workloads
            .iter()
            .map(String::as_str)
            .collect(),
    };
    let scratch = crate::scratch_root();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for rep in 0..k {
        let mut order = chosen.clone();
        if rep % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            let record = scratch.join(format!(
                "repeat-{}-{workload}-{rep}.json",
                std::process::id()
            ));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args([
                "--workload",
                workload,
                "--seed",
                &(args.seed + rep as u64).to_string(),
            ]);
            cmd.args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            cmd.arg("--out")
                .arg(&record)
                .stdout(std::process::Stdio::null());
            let status = cmd
                .status()
                .map_err(|e| format!("launch {workload}: {e}"))?;
            let text = std::fs::read_to_string(&record)
                .map_err(|e| format!("{workload} run {rep} left no record: {e}"))?;
            let _ = std::fs::remove_file(&record);
            all_correct &= status.success();
            runs.push(json::parse(&text)?);
            eprintln!(
                "run {}/{}: {workload} (seed {}) {}",
                runs.len(),
                k * chosen.len(),
                args.seed + rep as u64,
                if status.success() { "ok" } else { "FAILED" }
            );
        }
    }
    let set = Value::Obj(vec![("runs".to_string(), Value::Arr(runs))]);
    std::fs::write(out_path, set.render() + "\n")
        .map_err(|e| format!("write {}: {e}", out_path.display()))?;

    let set = ResultSet::from_value(&set)?;
    println!(
        "{:<14} {:<20} {:>3} {:>16} {:>16} {:>16} {:>8}",
        "workload", "metric", "n", "q1", "median", "q3", "spread"
    );
    for ((workload, metric), values) in &set.values {
        let (q1, med, q3) = quartiles(values);
        println!(
            "{workload:<14} {metric:<20} {:>3} {q1:>16.4} {med:>16.4} {q3:>16.4} {:>7.2}%",
            values.len(),
            (q3 - q1) / med * 100.0
        );
    }
    Ok(all_correct)
}

/// A results file: every value of every workload × metric, and the
/// fingerprint the runs share.
struct ResultSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    fingerprints: BTreeMap<String, Vec<(String, Value)>>,
}

impl ResultSet {
    fn load(path: &Path) -> Result<ResultSet, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        ResultSet::from_value(&json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
    }

    fn from_value(doc: &Value) -> Result<ResultSet, String> {
        // A set written by `--repeat`, or one run's `--out` record.
        let runs: Vec<&Value> = match doc.get("runs").and_then(Value::as_arr) {
            Some(runs) => runs.iter().collect(),
            None => vec![doc],
        };
        let mut set = ResultSet {
            values: BTreeMap::new(),
            fingerprints: BTreeMap::new(),
        };
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("a run has no workload")?;
            let metrics = run
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(Value::as_obj)
                .ok_or("a run has no metrics")?;
            for (name, cell) in metrics {
                let value = cell
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{workload}.{name} has no value"))?;
                set.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
            // What must agree between comparable results: everything
            // but the commit, and the seed-dependent op-stream hash.
            let fp: Vec<(String, Value)> = run
                .get("fingerprint")
                .and_then(Value::as_obj)
                .ok_or("a run has no fingerprint")?
                .iter()
                .filter(|(k, _)| k != "commit")
                .cloned()
                .collect();
            let seen = set
                .fingerprints
                .entry(workload.to_string())
                .or_insert_with(|| fp.clone());
            if *seen != fp {
                return Err(format!(
                    "runs of {workload} within one file have different fingerprints"
                ));
            }
        }
        Ok(set)
    }
}

/// Prints, per workload × end-to-end metric, both medians, how much
/// worse `b` is than `a` as a share of `a`, and the bound; labels each
/// row `within`, `outside` (worse by more than the bound) or
/// `unresolved` (either side's quartile spread is wider than the
/// bound). `Ok(false)` when any row is `outside`.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (sa, sb) = (ResultSet::load(a)?, ResultSet::load(b)?);
    for (workload, fa) in &sa.fingerprints {
        if let Some(fb) = sb.fingerprints.get(workload) {
            if fa != fb {
                let differing: Vec<&str> = fa
                    .iter()
                    .zip(fb)
                    .filter(|(x, y)| x != y)
                    .map(|(x, _)| x.0.as_str())
                    .collect();
                return Err(format!(
                    "refusing to compare: {workload} fingerprints differ in {differing:?} (only the commit may differ)"
                ));
            }
        }
    }
    println!(
        "{:<14} {:<20} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "bound"
    );
    let mut any_outside = false;
    for workload in &contract::get().workloads {
        for listed in &contract::get().end_to_end {
            let (metric, bound) = (&listed.name, listed.bound.unwrap_or(0.0));
            let key = (workload.clone(), metric.clone());
            let (Some(va), Some(vb)) = (sa.values.get(&key), sb.values.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
            let worse = if listed.lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let spread = |v: &[f64]| {
                let (q1, med, q3) = quartiles(v);
                (q3 - q1) / med
            };
            let verdict = if worse > bound {
                any_outside = true;
                "outside"
            } else if spread(va) > bound || spread(vb) > bound {
                "unresolved"
            } else {
                "within"
            };
            println!(
                "{workload:<14} {metric:<20} {ma:>16.4} {mb:>16.4} {:>8.2}% {:>6.0}%  {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(!any_outside)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
    }

    fn set(workload: &str, metric: &str, values: &[f64], nproc: f64) -> Value {
        let runs = values
            .iter()
            .map(|v| {
                let cell = Value::Obj(vec![("value".to_string(), Value::Num(*v))]);
                Value::Obj(vec![
                    ("workload".to_string(), Value::Str(workload.to_string())),
                    (
                        "fingerprint".to_string(),
                        Value::Obj(vec![
                            ("nproc".to_string(), Value::Num(nproc)),
                            ("commit".to_string(), Value::Num(*v)),
                        ]),
                    ),
                    (
                        "result".to_string(),
                        Value::Obj(vec![(
                            "metrics".to_string(),
                            Value::Obj(vec![(metric.to_string(), cell)]),
                        )]),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![("runs".to_string(), Value::Arr(runs))])
    }

    fn verdict(a: &[f64], b: &[f64], nproc_b: f64) -> Result<bool, String> {
        let dir = crate::scratch_root().join(format!(
            "compare-test-{}-{}",
            std::process::id(),
            a.len() + b.len() + nproc_b as usize + b[0] as usize
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (pa, pb) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&pa, set("tree_inmem", "get_ops_per_s", a, 2.0).render()).unwrap();
        std::fs::write(&pb, set("tree_inmem", "get_ops_per_s", b, nproc_b).render()).unwrap();
        let r = compare(&pa, &pb);
        std::fs::remove_dir_all(&dir).unwrap();
        r
    }

    #[test]
    fn compare_flags_regressions_and_refuses_other_boxes() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 5 % slower on a higher-is-better metric: inside any bound.
        assert_eq!(
            verdict(&base, &[95.0, 96.0, 94.0, 95.5, 94.5], 2.0),
            Ok(true)
        );
        // 30 % slower: outside the widest bound the contract allows.
        assert_eq!(
            verdict(&base, &[70.0, 71.0, 69.0, 70.5, 69.5], 2.0),
            Ok(false)
        );
        // Same numbers from a box with another core count: refused.
        assert!(verdict(&base, &base, 4.0).unwrap_err().contains("nproc"));
    }
}
