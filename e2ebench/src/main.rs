//! Command line of the end-to-end session benchmark.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! e2ebench steady [--workload W]...
//! ```
//!
//! The first form runs one workload and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The second form is the steadiness mode: it runs each
//! workload (all of them, or the ones named) once per seed 1 to
//! [`STEADY_RUNS`] in child processes, each for `BENCHMARK.json`'s
//! `run_seconds`, and prints, per end-to-end metric, the median, the
//! quartiles and their spread against the bound that `BENCHMARK.json`
//! fixes.

use e2ebench::stats::{median, quartiles};
use e2ebench::{run, work_dir, RunConfig, Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use wf_platform::store::JsonValue;

const USAGE: &str = "usage:\n  e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>\n  e2ebench steady [--workload W]...";

/// Runs per workload in the steadiness mode, on seeds `1..=STEADY_RUNS`.
const STEADY_RUNS: u64 = 10;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("steady") => steady(&args[1..]),
        _ => run_once(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs; every flag may repeat.
fn flags(args: &[String]) -> Result<BTreeMap<String, Vec<String>>, String> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.entry(name.to_string()).or_default().push(value.clone());
    }
    Ok(out)
}

fn one<'a>(flags: &'a BTreeMap<String, Vec<String>>, name: &str) -> Option<&'a str> {
    flags.get(name).and_then(|v| v.last()).map(String::as_str)
}

fn number<T: std::str::FromStr>(
    flags: &BTreeMap<String, Vec<String>>,
    name: &str,
) -> Result<T, String> {
    let v = one(flags, name).ok_or_else(|| format!("--{name} is required"))?;
    v.parse()
        .map_err(|_| format!("--{name}: not a number: {v:?}"))
}

fn trace_flag(flags: &BTreeMap<String, Vec<String>>) -> Result<bool, String> {
    match one(flags, "trace") {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(v) => Err(format!("--trace must be 0 or 1, not {v:?}")),
    }
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })
}

fn run_once(args: &[String]) -> Result<(), String> {
    let flags = flags(args)?;
    for name in flags.keys() {
        if !["workload", "seed", "seconds", "trace"].contains(&name.as_str()) {
            return Err(format!("unknown flag --{name}"));
        }
    }
    let config = RunConfig {
        workload: workload(one(&flags, "workload").ok_or("--workload is required")?)?,
        seed: number(&flags, "seed")?,
        seconds: number(&flags, "seconds")?,
        trace: trace_flag(&flags)?,
        work_dir: work_dir(),
        fault: None,
    };
    let report = run(&config);
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{} = {} {} ({})", m.name, m.value, m.unit, m.basis);
    }
    println!("{}", report.json());
    Ok(())
}

/// `run_seconds` and the `end_to_end` bounds of `BENCHMARK.json`.
fn benchmark() -> Result<(u64, BTreeMap<String, f64>), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let seconds = doc
        .get("run_seconds")
        .and_then(JsonValue::as_f64)
        .ok_or("BENCHMARK.json: no run_seconds")?;
    let bounds = doc
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    Ok((seconds as u64, bounds))
}

fn steady(args: &[String]) -> Result<(), String> {
    let flags = flags(args)?;
    if let Some(name) = flags.keys().find(|n| n.as_str() != "workload") {
        return Err(format!("unknown flag --{name}"));
    }
    let (seconds, bounds) = benchmark()?;
    let chosen: Vec<Workload> = match flags.get("workload") {
        Some(names) => names
            .iter()
            .map(|n| workload(n))
            .collect::<Result<_, _>>()?,
        None => WORKLOADS.to_vec(),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    println!(
        "steadiness: {STEADY_RUNS} runs per workload, seeds 1..={STEADY_RUNS}, --seconds {seconds}"
    );
    for w in chosen {
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let mut failed = 0;
        for seed in 1..=STEADY_RUNS {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w.name,
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    "0",
                ])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let doc = stdout
                .lines()
                .last()
                .and_then(|l| JsonValue::parse(l).ok())
                .ok_or_else(|| {
                    format!(
                        "{} seed {seed}: no result line (exit {:?})",
                        w.name,
                        out.status.code()
                    )
                })?;
            if doc.get("correct").and_then(JsonValue::as_bool) != Some(true) {
                failed += 1;
                eprintln!("{} seed {seed}: not correct\n{stdout}", w.name);
            }
            if let Some(JsonValue::Obj(metrics)) = doc.get("metrics") {
                for (name, m) in metrics {
                    let unit = m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string();
                    if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                        values
                            .entry(name.clone())
                            .or_insert_with(|| (unit, Vec::new()))
                            .1
                            .push(v);
                    }
                }
            }
        }
        println!("\n### {} ({failed} incorrect runs)\n", w.name);
        println!("| metric | unit | median | q1 | q3 | spread | bound | spread/bound |");
        println!("|---|---|---|---|---|---|---|---|");
        for (name, (unit, v)) in &values {
            let med = median(v);
            let (q1, q3) = quartiles(v).unwrap_or((med, med));
            let spread = (q3 - q1) / med.abs();
            let (bound, ratio) = match bounds.get(name) {
                Some(b) => (format!("{b}"), format!("{:.2}", spread / b)),
                None => ("-".into(), "-".into()),
            };
            println!("| {name} | {unit} | {med:.6} | {q1:.6} | {q3:.6} | {spread:.4} | {bound} | {ratio} |");
        }
    }
    Ok(())
}
