//! One benchmark run: repeat the workload's cycle until the time is up,
//! check every output, and reduce the cycles to medians.
//!
//! A cycle is what a user does with one campaign: build the session from
//! the generated job (`SessionBuilder::build`, repeated
//! [`BUILDS_PER_CYCLE`] times for the set-up median), run it to budget
//! into a store's `JsonlSink`, verify the ledger's hash chain, render the
//! report, and resume the store with a larger budget.
//!
//! Cycles come in pairs that run the same job twice, so every run checks
//! that a seed's ledger repeats exactly. Each pair takes its own job seed
//! from `--seed` ([`job_seed`]): how long a search takes depends on its
//! seed (crashes, what the model learns), and a run's medians over several
//! seeds move far less from one `--seed` to the next than one seed's
//! timings do. With tracing on, the second cycle of each pair is traced;
//! the untraced ones give `trace.overhead_s` and prove that tracing does
//! not steer the session.

use crate::clock::{fastest, Stamp};
use crate::probe::{probed_registry, thread_index, Probe};
use crate::stats::{median, percentile};
use crate::trace::{Moments, SessionTrace, Span, TracedSink};
use crate::workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wayfinder_core::{store_report, SessionBuilder, SpecializationSession, TargetRegistry};
use wf_jobfile::Job;
use wf_ossim::MetricDirection;
use wf_platform::store::{line_hash, JsonValue};
use wf_platform::{derive_seed, JsonlSink, SessionStore};

/// Session builds timed per cycle; the first one runs the session.
const BUILDS_PER_CYCLE: usize = 3;

/// Reports rendered per cycle at most, and the time after which no
/// further one starts. A report of a small store takes a few
/// milliseconds, and single timings of it swing with the allocator's
/// state and the host; a report of a large store runs once.
const REPORTS_MAX: usize = 9;
const REPORT_BUDGET_S: f64 = 0.1;

/// Benchmark repetitions of the default configuration that
/// `search.best_gain_pct` compares the best configuration against.
const DEFAULT_REPETITIONS: u64 = 8;

/// A fault the benchmark's own tests inject to prove the checks can fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Overwrite one byte in the middle of the ledger after the run.
    CorruptLedger,
}

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Pairs of cycles start only while they are expected to end within
    /// this.
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the run's stores and its span file.
    pub work_dir: PathBuf,
    pub fault: Option<Fault>,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was formed, for the human-readable lines.
    pub basis: String,
}

pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines: failures, sample counts, the trace accounting.
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Num(m.value)),
                        ("unit".into(), JsonValue::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        JsonValue::Obj(vec![
            ("correct".into(), JsonValue::Bool(self.correct())),
            ("attempted".into(), JsonValue::Int(self.attempted as i64)),
            ("failed".into(), JsonValue::Int(self.failed as i64)),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ])
        .encode()
    }
}

/// Phases attempted and output checks made, and which of them failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED check: {}", what()));
        }
    }

    fn phase<T>(&mut self, name: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.notes.push(format!("FAILED phase {name}: {e}"));
                None
            }
        }
    }
}

struct Ctx {
    workload: Workload,
    registry: TargetRegistry,
    probe: Arc<Probe>,
    dir: PathBuf,
    fault: Option<Fault>,
    /// The objective at the default configuration, and its direction.
    default: Option<(f64, MetricDirection)>,
}

/// What one cycle measured: wall time with the host's steal taken out
/// (see the `clock` module), and the steal taken out, for the notes.
struct Cycle {
    traced: bool,
    /// The fastest of the cycle's builds (see [`fastest`]).
    setup_s: f64,
    session_s: f64,
    wave_ms: Vec<f64>,
    /// The fastest of the cycle's reports (see [`fastest`]).
    report_s: f64,
    resume_s: f64,
    /// Steal during the session, the reports and the resume.
    stolen_s: f64,
    ledger: u64,
    resumed_ledger: u64,
    /// Per-layer figures (most only in traced cycles).
    layers: BTreeMap<&'static str, f64>,
    spans: Vec<Span>,
}

fn build(job: &Job, registry: &TargetRegistry) -> Result<SpecializationSession, String> {
    SessionBuilder::from_job(job)
        .and_then(|b| b.registry(registry.clone()).build())
        .map_err(|e| e.to_string())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Whether a `run_with_until` into `sink` reached its budget with every
/// event written.
fn completed(sink: &JsonlSink, finished: bool) -> Result<(), String> {
    match sink.error() {
        Some(e) => Err(format!("event log incomplete: {e}")),
        None if !finished => Err("the run stopped before its budget".into()),
        None => Ok(()),
    }
}

/// Digest of a ledger with the host-measured `algo_seconds` and the
/// chain field `prev` (which hashes them) cut out of every line: equal
/// digests mean the same session behaviour, event for event. The cut is
/// textual, on the encoder's fixed field order; a line it does not match
/// keeps those fields, and its digest then differs run to run.
fn ledger_digest(path: &Path) -> Result<u64, String> {
    fn cut<'a>(line: &'a str, key: &str, end: char) -> (&'a str, &'a str) {
        match line.find(key) {
            Some(at) => match line[at + key.len()..].find(end) {
                Some(len) => (&line[..at], &line[at + key.len() + len + 1..]),
                None => (line, ""),
            },
            None => (line, ""),
        }
    }
    let text = fs::read_to_string(path).map_err(err)?;
    let mut stripped = String::with_capacity(text.len());
    for line in text.lines() {
        let (head, tail) = cut(line, "\"prev\":\"", '"');
        stripped.push_str(head);
        let (head, tail) = cut(
            tail.strip_prefix(',').unwrap_or(tail),
            "\"algo_seconds\":",
            ',',
        );
        stripped.push_str(head);
        stripped.push_str(tail);
        stripped.push('\n');
    }
    Ok(line_hash(&stripped))
}

fn corrupt(path: &Path) -> Result<(), String> {
    let mut bytes = fs::read(path).map_err(err)?;
    let mid = bytes.len() / 2;
    bytes[mid] = if bytes[mid] == b'7' { b'8' } else { b'7' };
    fs::write(path, bytes).map_err(err)
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The session's objective at the target's default configuration — the
/// primary metric, or boot memory for `metric: memory` jobs — as the mean
/// of [`DEFAULT_REPETITIONS`] benchmark draws on one build and boot, each
/// draw from its own seeded stream. Returns it with its direction.
fn default_objective(ctx: &Ctx, job: &Job, seed: u64) -> Result<(f64, MetricDirection), String> {
    let session = build(job, &ctx.registry)?;
    let target = session.platform().target();
    let memory = ctx.workload.metric == Some("memory");
    let config = target.space().default_config();
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0));
    let crashed =
        |c: wf_ossim::CrashReport| format!("the default configuration crashed: {}", c.rule);
    let image = target
        .build(&config, None, None, &mut rng)
        .0
        .map_err(crashed)?;
    target.boot(&image, &config, &mut rng).0.map_err(crashed)?;
    let mut sum = 0.0;
    for rep in 0..DEFAULT_REPETITIONS {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, rep + 1));
        let result = target.bench(&image, &config, &mut rng).0.map_err(crashed)?;
        sum += if memory {
            result.memory_mb
        } else {
            result.metric
        };
    }
    let direction = if memory {
        MetricDirection::LowerBetter
    } else {
        target.descriptor().direction
    };
    Ok((sum / DEFAULT_REPETITIONS as f64, direction))
}

/// A top-level span of a traced cycle.
fn phase_span(name: &'static str, start: f64, end: f64) -> Span {
    Span {
        name,
        start,
        end,
        parent: None,
        wave: None,
        thread: thread_index(),
    }
}

/// The job seed of the `pair`-th pair of cycles of a run with `seed`:
/// well mixed, so runs with neighbouring seeds share no job, and below
/// 2³¹ so it survives the job file's integer.
fn job_seed(seed: u64, pair: usize) -> u64 {
    derive_seed(seed, pair as u64) >> 33
}

fn run_cycle(
    ctx: &Ctx,
    job: &Job,
    index: usize,
    traced: bool,
    checks: &mut Checks,
) -> Option<Cycle> {
    let probe = &ctx.probe;
    let w = ctx.workload;
    let mut spans: Vec<Span> = Vec::new();
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Set-up: registry lookup, target instantiation, backend start.
    let mut builds = Vec::with_capacity(BUILDS_PER_CYCLE);
    let mut setup_wall_s = Vec::with_capacity(BUILDS_PER_CYCLE);
    let mut session = None;
    for _ in 0..BUILDS_PER_CYCLE {
        let s0 = Stamp::start(|| probe.now());
        let built = build(job, &ctx.registry);
        let s1 = Stamp::end(|| probe.now());
        let built = checks.phase("setup", built)?;
        builds.push((s0, s1));
        setup_wall_s.push(s1.wall - s0.wall);
        spans.push(phase_span("core.build", s0.wall, s1.wall));
        // Extra sessions are dropped here, after their build was timed.
        session.get_or_insert(built);
    }
    let mut session = session?;
    let setup_s = fastest(&builds);
    layers.insert("core.build_s", median(&setup_wall_s));

    // Run to budget into the store's sink.
    let dir = ctx.dir.join(format!("cycle-{index}"));
    let _ = fs::remove_dir_all(&dir);
    let store = checks.phase(
        "store create",
        SessionStore::create(&dir, session.resolved_job()).map_err(err),
    )?;
    let mut jsonl = checks.phase("sink open", store.sink().map_err(err))?;
    let mut stops: Vec<Stamp> = Vec::with_capacity(w.iterations);
    let mut stop = || {
        stops.push(Stamp::end(|| probe.now()));
        false
    };
    let before = probe.counts();
    probe.take_spans();
    probe.set_recording(traced);
    let run_start = Stamp::start(|| probe.now());
    let (outcome, finished, sink_calls, hits, misses) = if traced {
        let mut sink = TracedSink::new(&mut jsonl, probe);
        let (outcome, finished) = session.run_with_until(&mut sink, &mut stop);
        (
            outcome,
            finished,
            sink.calls,
            sink.cache_hits,
            sink.cache_misses,
        )
    } else {
        let (outcome, finished) = session.run_with_until(&mut jsonl, &mut stop);
        (outcome, finished, Vec::new(), 0, 0)
    };
    let run_end = Stamp::end(|| probe.now());
    probe.set_recording(false);
    let run_counts = probe.counts() - before;
    let summary = outcome.summary;
    checks.phase("run", completed(&jsonl, finished))?;
    checks.check(summary.iterations == w.iterations, || {
        format!(
            "run evaluated {} of {} iterations",
            summary.iterations, w.iterations
        )
    });
    let session_s = run_start.until(run_end);
    let mut stolen_s = run_start.stolen_until(run_end);
    let mut wave_ms: Vec<f64> = stops.windows(2).map(|p| p[0].until(p[1]) * 1e3).collect();
    if let Some(&last) = stops.last() {
        wave_ms.push(last.until(run_end) * 1e3);
    }
    if traced {
        let calls = probe.take_spans();
        let checks_at: Vec<f64> = stops.iter().map(|s| s.wall).collect();
        let moments = Moments {
            start: run_start.wall,
            end: run_end.wall,
            checks: &checks_at,
            sink: &sink_calls,
            calls: &calls,
            thread: thread_index(),
            workers: w.workers,
        };
        let trace = checks.phase("trace", SessionTrace::derive(&moments))?;
        let remainder = trace.layers["trace.remainder_s"];
        checks.check(remainder.abs() < 1e-6, || {
            format!("layer self times leave {remainder} s of the traced run unaccounted")
        });
        layers.extend(trace.layers);
        let offset = spans.len();
        spans.extend(trace.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        layers.insert("ossim.build_calls", run_counts.builds as f64);
        layers.insert("ossim.build_reused", run_counts.reused as f64);
        layers.insert("ossim.bench_calls", run_counts.benches as f64);
        layers.insert("ossim.crashes", run_counts.crashes as f64);
        layers.insert(
            "platform.cache_hit_ratio",
            hits as f64 / ((hits + misses) as f64).max(1.0),
        );
    }
    let events = store.events_path();
    let ledger_bytes = fs::metadata(&events).map(|m| m.len()).unwrap_or(0);
    layers.insert("store.sink_bytes", ledger_bytes as f64);
    drop(session);

    if ctx.fault == Some(Fault::CorruptLedger) {
        checks.phase("inject fault", corrupt(&events))?;
    }

    // Verify the hash chain: every line must verify.
    let t0 = probe.now();
    let verified = checks.phase("verify", store.verify_chain().map_err(err))?;
    let t1 = probe.now();
    spans.push(phase_span("store.verify", t0, t1));
    layers.insert("store.verify_s", t1 - t0);
    let text = checks.phase("read ledger", fs::read_to_string(&events).map_err(err))?;
    let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
    checks.check(verified == lines, || {
        format!("{verified} of {lines} ledger lines verified")
    });
    let ledger = checks.phase("ledger digest", ledger_digest(&events))?;

    // Report: load, rebuild the space through the session builder, render.
    // A cheap report repeats (see REPORT_BUDGET_S) and the cycle keeps the
    // fastest.
    let mut reports = Vec::with_capacity(REPORTS_MAX);
    let mut load_s = Vec::with_capacity(REPORTS_MAX + 1);
    let first = probe.now();
    let (loaded, report) = loop {
        let s0 = Stamp::start(|| probe.now());
        let t0 = s0.wall;
        let loaded = checks.phase(
            "report load",
            SessionStore::open(&dir).and_then(|s| s.load()).map_err(err),
        )?;
        let t1 = probe.now();
        let space_session = checks.phase("report space", build(&loaded.job, &ctx.registry))?;
        let space = space_session.platform().space().clone();
        drop(space_session);
        let t2 = probe.now();
        let report = store_report(&loaded, Some(&space));
        let s3 = Stamp::end(|| probe.now());
        let t3 = s3.wall;
        reports.push((s0, s3));
        stolen_s += s0.stolen_until(s3);
        load_s.push(t1 - t0);
        spans.push(phase_span("store.load", t0, t1));
        spans.push(phase_span("core.report_space", t1, t2));
        spans.push(phase_span("core.report_render", t2, t3));
        layers.insert("core.report_space_s", t2 - t1);
        layers.insert("core.report_render_s", t3 - t2);
        if reports.len() == REPORTS_MAX || t3 - first >= REPORT_BUDGET_S {
            break (loaded, report);
        }
    };
    let report_s = fastest(&reports);
    layers.insert("store.load_records", loaded.records.len() as f64);
    checks.check(
        loaded.finished && loaded.records.len() == w.iterations,
        || {
            format!(
                "store holds {} records (finished: {}), expected {}",
                loaded.records.len(),
                loaded.finished,
                w.iterations
            )
        },
    );
    let best = loaded
        .history()
        .best(loaded.job.direction)
        .map(|r| (r.iteration, r.objective));
    let expected = format!(
        ": {:.2} at iteration ",
        summary.best_objective.unwrap_or(f64::NAN)
    );
    checks.check(
        best.is_some_and(|(i, o)| {
            o == summary.best_objective && report.contains(&format!("{expected}{i} ("))
        }),
        || {
            format!(
                "report's best ({best:?}) differs from the session's ({:?})",
                summary.best_objective
            )
        },
    );
    drop(loaded);

    // Resume with a larger budget: open, load, build, replay, continue.
    let prefix = text.into_bytes();
    let extended = w.iterations + w.resume_extra;
    let s0 = Stamp::start(|| probe.now());
    let t0 = s0.wall;
    let store = checks.phase("resume open", SessionStore::open(&dir).map_err(err))?;
    let loaded = checks.phase("resume load", store.load().map_err(err))?;
    let t1 = probe.now();
    let mut job = loaded.job.clone();
    job.budget.iterations = Some(extended);
    let mut resumed = checks.phase("resume build", build(&job, &ctx.registry))?;
    let t2 = probe.now();
    let before = probe.counts();
    checks.phase("replay", resumed.replay(&loaded).map_err(err))?;
    let replay_counts = probe.counts() - before;
    let t3 = probe.now();
    checks.phase(
        "rewrite manifest",
        store.rewrite_manifest(resumed.resolved_job()).map_err(err),
    )?;
    let mut jsonl = checks.phase("resume sink", store.sink().map_err(err))?;
    let (outcome, finished) = resumed.run_with_until(&mut jsonl, &mut || false);
    let s4 = Stamp::end(|| probe.now());
    let t4 = s4.wall;
    let resume_s = s0.until(s4);
    stolen_s += s0.stolen_until(s4);
    load_s.push(t1 - t0);
    spans.push(phase_span("store.load", t0, t1));
    spans.push(phase_span("core.build", t1, t2));
    spans.push(phase_span("core.replay", t2, t3));
    spans.push(phase_span("core.session", t3, t4));
    layers.insert("store.load_s", median(&load_s));
    layers.insert("core.replay_s", t3 - t2);
    layers.insert("core.replay_records", loaded.records.len() as f64);
    checks.check(
        replay_counts.boots == 0 && replay_counts.benches == 0,
        || format!("replay re-evaluated candidates: {replay_counts:?}"),
    );
    checks.phase("resume run", completed(&jsonl, finished))?;
    checks.check(outcome.summary.iterations == extended, || {
        format!(
            "resume ended at {} of {extended} iterations",
            outcome.summary.iterations
        )
    });
    drop(resumed);
    let after = checks.phase("read resumed ledger", fs::read(&events).map_err(err))?;
    checks.check(after.starts_with(&prefix), || {
        "resume changed the stored prefix of the ledger".to_string()
    });
    let resumed_ledger = checks.phase("resumed ledger digest", ledger_digest(&events))?;
    let _ = fs::remove_dir_all(&dir);

    if let (Some((default, direction)), Some(best)) = (ctx.default, summary.best_objective) {
        let gain = match direction {
            MetricDirection::HigherBetter => best / default - 1.0,
            MetricDirection::LowerBetter => 1.0 - best / default,
        };
        layers.insert("search.best_gain_pct", gain * 100.0);
    }
    layers.insert("platform.virtual_h", summary.elapsed_s / 3600.0);

    Some(Cycle {
        traced,
        setup_s,
        session_s,
        wave_ms,
        report_s,
        resume_s,
        stolen_s,
        ledger,
        resumed_ledger,
        layers,
        spans,
    })
}

fn write_spans(path: &Path, cycles: &[(usize, &Cycle)]) -> Result<(), String> {
    let mut out = std::io::BufWriter::new(fs::File::create(path).map_err(err)?);
    for (index, cycle) in cycles {
        for (id, s) in cycle.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or(JsonValue::Null, |v| JsonValue::Int(v as i64));
            let line = JsonValue::Obj(vec![
                ("cycle".into(), JsonValue::Int(*index as i64)),
                ("id".into(), JsonValue::Int(id as i64)),
                ("name".into(), JsonValue::Str(s.name.into())),
                ("start".into(), JsonValue::Num(s.start)),
                ("end".into(), JsonValue::Num(s.end)),
                ("parent".into(), opt(s.parent)),
                ("wave".into(), opt(s.wave)),
                ("thread".into(), JsonValue::Int(s.thread as i64)),
            ]);
            writeln!(out, "{}", line.encode()).map_err(err)?;
        }
    }
    out.flush().map_err(err)
}

/// Per-layer metrics, in the order they are reported, with their units.
pub const LAYER_METRICS: [(&str, &str); 33] = [
    ("core.build_s", "s"),
    ("core.loop_s", "s"),
    ("core.replay_s", "s"),
    ("core.replay_records", "count"),
    ("core.report_space_s", "s"),
    ("core.report_render_s", "s"),
    ("search.propose_s", "s"),
    ("search.propose_p90_ms", "ms"),
    ("search.observe_s", "s"),
    ("search.observe_p90_ms", "ms"),
    ("platform.dispatch_s", "s"),
    ("platform.dispatch_self_s", "s"),
    ("platform.dispatch_overhead_s", "s"),
    ("platform.lane_busy_ratio", "ratio"),
    ("platform.cache_hit_ratio", "ratio"),
    ("ossim.wall_s", "s"),
    ("ossim.build_s", "s"),
    ("ossim.build_calls", "count"),
    ("ossim.build_reused", "count"),
    ("ossim.boot_s", "s"),
    ("ossim.bench_s", "s"),
    ("ossim.bench_calls", "count"),
    ("ossim.crashes", "count"),
    ("store.sink_s", "s"),
    ("store.sink_events", "count"),
    ("store.sink_bytes", "B"),
    ("store.load_s", "s"),
    ("store.load_records", "count"),
    ("store.verify_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.remainder_s", "s"),
    ("search.best_gain_pct", "%"),
    ("platform.virtual_h", "h"),
];

/// Runs pairs of cycles for about `config.seconds` (at least one pair)
/// and reports medians.
pub fn run(config: &RunConfig) -> RunReport {
    let probe = Probe::new();
    let mut checks = Checks::default();
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let w = config.workload;
    let dir = config.work_dir.join(format!(
        "{}-seed{}-{}",
        w.name,
        config.seed,
        std::process::id()
    ));
    let job = |pair: usize| Job::parse(&w.job_yaml(job_seed(config.seed, pair))).map_err(err);
    let mut ctx = Ctx {
        workload: w,
        registry: probed_registry(&probe),
        probe: Arc::clone(&probe),
        dir: dir.clone(),
        fault: config.fault,
        default: None,
    };

    let mut cycles: Vec<Cycle> = Vec::new();
    let started = probe.now();
    for pair in 0.. {
        let Some(job) = checks.phase("job", job(pair)) else {
            break;
        };
        if pair == 0 {
            ctx.default = checks.phase(
                "default configuration",
                default_objective(&ctx, &job, config.seed),
            );
        }
        let t0 = probe.now();
        let Some(first) = run_cycle(&ctx, &job, cycles.len(), false, &mut checks) else {
            break;
        };
        let Some(second) = run_cycle(&ctx, &job, cycles.len() + 1, config.trace, &mut checks)
        else {
            break;
        };
        // The same job twice: the ledgers must agree, traced or not.
        checks.check(first.ledger == second.ledger, || {
            format!("job seed {}: the ledger differs between two runs", job.seed)
        });
        checks.check(first.resumed_ledger == second.resumed_ledger, || {
            format!(
                "job seed {}: the resumed ledger differs between two runs",
                job.seed
            )
        });
        for (c, cycle) in [&first, &second].into_iter().enumerate() {
            notes.push(format!(
                "cycle {}: job seed {}, traced {}, s: session {:.4}, resume {:.4}, report {:.4}; {:.2} s of steal taken out",
                2 * pair + c,
                job.seed,
                cycle.traced,
                cycle.session_s,
                cycle.resume_s,
                cycle.report_s,
                cycle.stolen_s
            ));
        }
        cycles.push(first);
        cycles.push(second);
        let took = probe.now() - t0;
        if probe.now() - started + took > config.seconds {
            break;
        }
    }
    let _ = fs::remove_dir_all(&dir);

    let plain: Vec<&Cycle> = cycles.iter().filter(|c| !c.traced).collect();
    let traced: Vec<&Cycle> = cycles.iter().filter(|c| c.traced).collect();
    let mut push = |name: &'static str, value: f64, unit: &'static str, basis: String| {
        if value.is_finite() {
            metrics.push(Metric {
                name,
                value,
                unit,
                basis,
            });
        }
    };
    if !config.trace && !cycles.is_empty() {
        // Both cycles of a pair ran the same job, so they differ only in
        // how much the host's other tenants slowed them down (the shared
        // host switched between a fast and a ~35% slower speed within
        // seconds). Each pair keeps, per metric, its faster cycle, and the
        // run reports the median over its pairs. Set-up and report are
        // short and do not depend on the job seed, so for them the run
        // reports its fastest repeat.
        let pairs: Vec<&[Cycle]> = cycles.chunks(2).collect();
        let n = pairs.len();
        let faster = |f: &dyn Fn(&Cycle) -> f64| {
            let best: Vec<f64> = pairs
                .iter()
                .map(|p| p.iter().map(f).fold(f64::INFINITY, f64::min))
                .collect();
            median(&best)
        };
        let waves: Vec<f64> = pairs
            .iter()
            .filter_map(|p| p.iter().min_by(|a, b| a.session_s.total_cmp(&b.session_s)))
            .flat_map(|c| c.wave_ms.iter().copied())
            .collect();
        let fastest = |f: fn(&Cycle) -> f64| cycles.iter().map(f).fold(f64::INFINITY, f64::min);
        push(
            "setup_s",
            fastest(|c| c.setup_s),
            "s",
            format!("fastest of {} builds", cycles.len() * BUILDS_PER_CYCLE),
        );
        push(
            "session_s",
            faster(&|c| c.session_s),
            "s",
            format!("median over {n} pairs of the faster cycle"),
        );
        push(
            "wave_p50_ms",
            percentile(&waves, 0.5),
            "ms",
            format!("of {} waves, the faster session of each pair", waves.len()),
        );
        push(
            "wave_p90_ms",
            percentile(&waves, 0.9),
            "ms",
            format!("of {} waves, the faster session of each pair", waves.len()),
        );
        push(
            "resume_s",
            faster(&|c| c.resume_s),
            "s",
            format!("median over {n} pairs of the faster cycle"),
        );
        push(
            "report_s",
            fastest(|c| c.report_s),
            "s",
            format!(
                "fastest of the reports of {} cycles (up to {REPORTS_MAX} each)",
                cycles.len()
            ),
        );
        if let Some(rss) = checks.phase("peak rss", peak_rss_mb()) {
            push("peak_rss_mb", rss, "MB", "VmHWM of the process".into());
        }
        let stolen: Vec<f64> = cycles.iter().map(|c| c.stolen_s).collect();
        notes.push(format!(
            "timings are wall time minus host steal; steal taken out per cycle: median {:.3} s",
            median(&stolen)
        ));
    }
    if config.trace && !traced.is_empty() {
        let n = traced.len();
        for (name, unit) in LAYER_METRICS {
            let session =
                |cs: &[&Cycle]| median(&cs.iter().map(|c| c.session_s).collect::<Vec<_>>());
            let value = match name {
                "trace.overhead_s" => session(&traced) - session(&plain),
                _ => {
                    let values: Vec<f64> = traced
                        .iter()
                        .filter_map(|c| c.layers.get(name).copied())
                        .collect();
                    if values.len() == n {
                        median(&values)
                    } else {
                        f64::NAN
                    }
                }
            };
            push(name, value, unit, format!("median of {n} traced cycles"));
        }
        let path = config
            .work_dir
            .join(format!("spans-{}-seed{}.jsonl", w.name, config.seed));
        let indexed: Vec<(usize, &Cycle)> = cycles
            .iter()
            .enumerate()
            .filter(|(_, c)| c.traced)
            .collect();
        if checks
            .phase("write spans", write_spans(&path, &indexed))
            .is_some()
        {
            notes.push(format!("spans: {}", path.display()));
        }
        let last = &traced[traced.len() - 1].layers;
        let get = |k: &str| last.get(k).copied().unwrap_or(f64::NAN);
        notes.push(format!(
            "accounting (last traced run, s): session {:.6} = core.loop {:.6} + search.propose {:.6} + search.observe {:.6} + store.sink {:.6} + platform.dispatch self {:.6} + ossim wall {:.6} + remainder {:.3e}",
            get("session_s"),
            get("core.loop_s"),
            get("search.propose_s"),
            get("search.observe_s"),
            get("store.sink_s"),
            get("platform.dispatch_self_s"),
            get("ossim.wall_s"),
            get("trace.remainder_s"),
        ));
    }
    notes.extend(checks.notes);
    notes.push(format!(
        "cycles: {} untraced, {} traced; error_rate = {}/{} = {}",
        plain.len(),
        traced.len(),
        checks.failed,
        checks.attempted,
        checks.failed as f64 / checks.attempted.max(1) as f64
    ));
    RunReport {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        notes,
    }
}
