//! `pacbench`: one end-to-end + per-layer benchmark of the PaC-tree
//! stack (`codecs → cpam → store → server`, `parlay` under, `obs`
//! beside). See `README.md` in this directory.
//!
//! ```text
//! pacbench --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke] [--out <file>]
//! pacbench --repeat <k> [--workload <name>] [--seed <u64>] [--seconds <n>] [--smoke] --out <file>
//! pacbench compare <a.json> <b.json>
//! ```
//!
//! `--seconds` is the driver's: it passes `run_seconds` of
//! `BENCHMARK.json` on every run, and that is also the default.

mod common;
mod compare;
mod contract;
mod gen;
mod json;
mod kv;
mod measure;
mod probes;
mod serve_mixed;
mod store_durable;
mod store_paged;
mod trace;
mod tree_inmem;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Ctx, Metric, Outcome, Scale};
use trace::Recorder;

/// Environment variables the program reads behind the benchmark's back
/// (`StoreOptions::default()`, the bench crate, the `parlay` pool).
const REFUSED_ENV: [&str; 3] = ["PAC_POOL_PAGES", "REPRO_N", "PARLAY_NUM_THREADS"];

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: Option<usize>,
    pub out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: pacbench --workload <{}> --seed <u64> [--seconds <1..60>] [--trace [0|1]] [--smoke] [--out <file>]\n       \
         pacbench --repeat <k> [--workload <name>] [--seed <u64>] [--seconds <n>] [--smoke] --out <file>\n       \
         pacbench compare <a.json> <b.json>",
        contract::get().workloads.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: contract::get().run_seconds,
        trace: false,
        smoke: false,
        repeat: None,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !contract::get().workloads.contains(&w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the driver's
                // form is `--trace 0` / `--trace 1`.
                args.trace = match it.peek().map(|s| s.as_str()) {
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
            "--smoke" => args.smoke = true,
            "--repeat" => {
                let k: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if k == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
                args.repeat = Some(k);
            }
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The build's target directory as seen from the working directory:
/// everything the benchmark writes goes under `<target>/pacbench/`,
/// which is inside the checkout and ignored by git.
pub fn scratch_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("pacbench")
}

/// Removes the run's data directory when the run ends, however it ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything a result depends on besides the program: two results are
/// comparable only if these agree in all but `commit`. `--seconds` is
/// in here through the op counts it scales.
fn fingerprint(args: &Args, scratch: &Path, out: &Outcome) -> json::Value {
    use json::Value;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("nproc".to_string(), Value::Num(nproc as f64)),
        (
            "parlay_threads".to_string(),
            Value::Num(parlay::num_threads() as f64),
        ),
        ("clients".to_string(), Value::Num(out.clients as f64)),
        ("transport".to_string(), Value::Str("pipe".to_string())),
        ("smoke".to_string(), Value::Bool(args.smoke)),
        // Asked of git only in a repository's root: the driver's
        // checkout is not one, and git would search its parents.
        (
            "commit".to_string(),
            Value::Str(if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_string()
            }),
        ),
        (
            "rustc".to_string(),
            Value::Str(command_line("rustc", &["-V"])),
        ),
        ("data_fs".to_string(), Value::Str(measure::fs_type(scratch))),
    ];
    let counts = out
        .counts
        .iter()
        .map(|&(k, v)| (k.to_string(), Value::Num(v as f64)))
        .collect();
    fields.push(("op_counts".to_string(), Value::Obj(counts)));
    Value::Obj(fields)
}

fn metrics_value(metrics: &[Metric]) -> json::Value {
    json::Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let cell = vec![
                    ("value".to_string(), json::Value::Num(m.value)),
                    ("unit".to_string(), json::Value::Str(m.unit.to_string())),
                ];
                (m.name.to_string(), json::Value::Obj(cell))
            })
            .collect(),
    )
}

/// One finished run: the workload's outcome and the metrics this kind
/// of run (`--trace 0` or `1`) reports.
struct Finished {
    out: Outcome,
    metrics: Vec<Metric>,
    trace_note: Option<String>,
}

/// Runs one workload in this process.
fn measure(args: &Args, workload: &str) -> Result<Finished, String> {
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set: the program reads it behind the benchmark's back, so results would not be comparable; unset it"
            ));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    parlay::set_num_threads(nproc);

    static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let scratch = scratch_root();
    let data = DataDir(scratch.join(format!("run-{}-{run}", std::process::id())));
    let _ = std::fs::remove_dir_all(&data.0);
    std::fs::create_dir_all(&data.0).map_err(|e| format!("create {}: {e}", data.0.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        scale: Scale {
            seconds: args.seconds,
            smoke: args.smoke,
            trace: args.trace,
        },
        data_dir: data.0.clone(),
    };

    let mut recorder = args.trace.then(Recorder::new);
    let sched_before = parlay::scheduler_stats();
    let started = std::time::Instant::now();
    let rec = recorder.as_mut();
    let mut out = match workload {
        "tree_inmem" => tree_inmem::run(&ctx, rec),
        "store_durable" => store_durable::run(&ctx, rec),
        "store_paged" => store_paged::run(&ctx, rec),
        "serve_mixed" => serve_mixed::run(&ctx, rec),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let Some(rec) = recorder else {
        let metrics = contract::in_order(&out.end_to_end, &contract::get().end_to_end)?;
        return Ok(Finished {
            out,
            metrics,
            trace_note: None,
        });
    };

    // The scheduler over the whole traced workload: how much of the
    // pool's work was stolen, and how often workers went to sleep.
    let sched = parlay::scheduler_stats().delta(&sched_before);
    let jobs = (sched.exec_local + sched.exec_stolen).max(1) as f64;
    out.layer(
        "parlay.steals_per_kjoin",
        sched.steals as f64 * 1e3 / jobs,
        "count",
    );
    out.layer(
        "parlay.parks_per_s",
        sched.parks as f64 / started.elapsed().as_secs_f64(),
        "1/s",
    );
    let path = scratch.join(format!("trace-{workload}.jsonl"));
    let written = rec
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let mut trace_note = format!(
        "trace: {} spans recorded, {written} (the replayed requests') written to {}",
        rec.len(),
        path.display()
    );
    ledger_metrics(&rec, &mut out, &mut trace_note);
    probes::run(&ctx, &mut out);
    let metrics = contract::in_order(&out.per_layer, &contract::get().per_layer)?;
    Ok(Finished {
        out,
        metrics,
        trace_note: Some(trace_note),
    })
}

/// Runs one workload and prints its result; the driver reads the last
/// line of standard output.
fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let Finished {
        out,
        metrics,
        trace_note,
    } = measure(args, workload)?;
    println!(
        "pacbench {workload}: seed {}, {} s, trace {}, smoke {}",
        args.seed, args.seconds, args.trace, args.smoke
    );
    println!("op stream hash {:016x}", out.op_hash);
    if let Some(note) = trace_note {
        println!("{note}");
    }
    for m in &metrics {
        println!("  {:<44} {:>18.4} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        // The phases' latency percentiles are per-layer metrics: a
        // traced run reports them, an untraced run only shows them.
        for m in &out.per_layer {
            println!(
                "  {:<44} {:>18.4} {} (not reported)",
                m.name, m.value, m.unit
            );
        }
    }
    for (name, calls, secs, steady) in &out.phases {
        println!(
            "  phase {name}: {calls} calls in {secs:.3} s ({steady:.3} s at its median slice)"
        );
    }
    for (name, n) in &out.samples {
        println!("  samples behind {name}: {n}");
    }
    let fp = fingerprint(args, &scratch_root(), &out);
    println!("fingerprint {}", fp.render());

    let correct = out.check.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let result = json::Value::Obj(vec![
        ("correct".to_string(), json::Value::Bool(correct)),
        (
            "attempted".to_string(),
            json::Value::Num(out.check.attempted as f64),
        ),
        (
            "failed".to_string(),
            json::Value::Num(out.check.failed as f64),
        ),
        ("metrics".to_string(), metrics_value(&metrics)),
    ]);
    if let Some(path) = &args.out {
        let record = json::Value::Obj(vec![
            (
                "workload".to_string(),
                json::Value::Str(workload.to_string()),
            ),
            ("seed".to_string(), json::Value::Num(args.seed as f64)),
            ("trace".to_string(), json::Value::Bool(args.trace)),
            (
                "op_hash".to_string(),
                json::Value::Str(format!("{:016x}", out.op_hash)),
            ),
            ("fingerprint".to_string(), fp),
            ("result".to_string(), result.clone()),
        ]);
        std::fs::write(path, record.render() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", result.render());
    Ok(correct)
}

/// Per-request ledgers of the traced run, appended to `note`, and what
/// share of a request's client-side time no layer below accounts for.
fn ledger_metrics(rec: &Recorder, out: &mut Outcome, note: &mut String) {
    use trace::SpanName;
    for (root, label) in [(SpanName::Get, "get"), (SpanName::Put, "put")] {
        let rows = rec.ledger(root);
        if rows.is_empty() {
            continue;
        }
        note.push_str(&format!(
            "\nledger of request.{label} (replayed requests only):"
        ));
        for r in &rows {
            note.push_str(&format!(
                "\n  {:<24} n={:<8} mean {:>12.1} ns   self {:>12.1} ns",
                r.name.as_str(),
                r.count,
                r.mean_ns,
                r.self_ns
            ));
        }
    }
    out.layer(
        "ledger.get_unattributed_pct",
        rec.unattributed_pct(SpanName::Get),
        "%",
    );
    out.layer(
        "ledger.put_unattributed_pct",
        rec.unattributed_pct(SpanName::Put),
        "%",
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = argv.iter().map(String::as_str).collect();
    let outcome = match words.as_slice() {
        ["compare", a, b] => compare::compare(Path::new(a), Path::new(b)),
        // The one-thread half of `parlay.bulk_speedup`, run as a child
        // of a traced run: the pool's size is fixed per process.
        ["bulk-rate", seed, n] => match (seed.parse(), n.parse()) {
            (Ok(seed), Ok(n)) => {
                parlay::set_num_threads(1);
                println!("{}", probes::bulk_rate(seed, n));
                Ok(true)
            }
            _ => Err(usage()),
        },
        ["compare", ..] | ["bulk-rate", ..] => Err(usage()),
        _ => parse_args(&argv).and_then(|args| match (&args.repeat, &args.workload) {
            (Some(k), _) => compare::repeat(&args, *k),
            (None, Some(w)) => run_one(&args, &w.clone()),
            (None, None) => Err(usage()),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("pacbench: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod smoke {
    //! Every workload at smoke scale (op counts and data ÷ 100), both
    //! kinds of run, in one test: the workloads share the process-wide
    //! `obs` registry and `parlay` pool, so they run one after another.

    use super::*;

    fn args(trace: bool) -> Args {
        Args {
            workload: None,
            seed: 7,
            seconds: contract::get().run_seconds,
            trace,
            smoke: true,
            repeat: None,
            out: None,
        }
    }

    #[test]
    fn every_workload_emits_every_metric_and_fails_nothing() {
        let contract = contract::get();
        for workload in &contract.workloads {
            // `measure` fails on a metric that is missing, unlisted,
            // doubled or in another unit than `BENCHMARK.json` says.
            let plain = measure(&args(false), workload).expect("untraced run");
            assert_eq!(plain.out.check.failed, 0, "{workload}: wrong answers");
            assert!(plain.out.check.attempted > 0);
            assert_eq!(plain.metrics.len(), contract.end_to_end.len());
            for m in &plain.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{workload}.{} = {}",
                    m.name,
                    m.value
                );
            }

            let traced = measure(&args(true), workload).expect("traced run");
            assert_eq!(
                traced.out.check.failed, 0,
                "{workload}: wrong answers when traced"
            );
            assert_eq!(traced.metrics.len(), contract.per_layer.len());
            assert!(
                traced.metrics.iter().all(|m| m.value.is_finite()),
                "{workload}: a per-layer metric is not a number"
            );
            // The probes are the same everywhere, so none may read 0.
            for m in traced.metrics.iter().filter(|m| {
                ["codecs.", "cpam.", "obs."]
                    .iter()
                    .any(|p| m.name.starts_with(p))
            }) {
                assert!(
                    m.value != 0.0 || m.name == "cpam.block_decodes_per_find",
                    "{workload}.{} is 0",
                    m.name
                );
            }
            assert!(traced.trace_note.is_some());
            let trace =
                std::fs::read_to_string(scratch_root().join(format!("trace-{workload}.jsonl")))
                    .expect("trace file");
            assert!(
                trace.lines().count() > 0 && trace.lines().all(|l| json::parse(l).is_ok()),
                "{workload}: trace lines parse"
            );

            // Same seed, same op stream, whatever the timing was.
            let again = measure(&args(false), workload).expect("second untraced run");
            assert_eq!(
                again.out.op_hash, plain.out.op_hash,
                "{workload}: op stream differs between runs of one seed"
            );
        }
    }

    #[test]
    fn refuses_arguments_it_does_not_know() {
        let parse =
            |words: &[&str]| parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        // The driver's form.
        let a = parse(&[
            "--workload",
            "tree_inmem",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("tree_inmem"), 9, 3, false)
        );
        assert!(
            parse(&["--workload", "tree_inmem", "--trace"])
                .unwrap()
                .trace
        );
        assert!(
            parse(&["--trace", "1", "--workload", "serve_mixed"])
                .unwrap()
                .trace
        );
    }
}
