//! The job-file schema (§3.1, §3.4, §3.5).
//!
//! A job file tells the platform what to specialize and how:
//!
//! ```yaml
//! name: nginx-linux419-throughput
//! os: linux-4.19
//! app: nginx
//! metric: throughput
//! direction: maximize
//! algorithm: deeptune
//! seed: 42
//! repetitions: 1
//! workers: 4                # VM workers evaluating candidates in parallel
//! runtime_params: 200       # probed runtime-space size (§3.4)
//! out: runs/nginx-tuning    # session-store directory (events + resume)
//! focus: runtime            # §3.5: favor one parameter stage
//! budget:
//!   iterations: 250
//!   time_seconds: 18000
//! pinned:                   # §3.5: fixed security-critical options
//!   - name: RANDOMIZE_BASE
//!     value: y
//! params:                   # optional explicit space (else the OS's own)
//!   - name: net.core.somaxconn
//!     type: int
//!     min: 16
//!     max: 65535
//!     log: true
//!     default: 128
//!     stage: runtime
//! ```

use crate::yaml::{self, Yaml, YamlError};
use std::fmt;
use wf_configspace::{ConfigSpace, ParamKind, ParamSpec, Stage, Tristate, Value};

/// Whether higher or lower metric values are better.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (throughput, ops/s).
    #[default]
    Maximize,
    /// Smaller is better (latency, memory footprint).
    Minimize,
}

impl Direction {
    /// Returns `true` if `a` is strictly better than `b` under this
    /// direction.
    pub fn better(self, a: f64, b: f64) -> bool {
        match self {
            Direction::Maximize => a > b,
            Direction::Minimize => a < b,
        }
    }

    /// The job-file keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            Direction::Maximize => "maximize",
            Direction::Minimize => "minimize",
        }
    }
}

/// Which parameter stage the search should favor (§3.5).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Focus {
    /// Vary every stage.
    #[default]
    All,
    /// Favor compile-time options (the Fig. 10 footprint experiments).
    CompileTime,
    /// Favor boot-time options.
    BootTime,
    /// Favor runtime options (the §4.1 performance experiments).
    Runtime,
}

impl Focus {
    /// The stage this focus restricts to, if any.
    pub fn stage(self) -> Option<Stage> {
        match self {
            Focus::All => None,
            Focus::CompileTime => Some(Stage::CompileTime),
            Focus::BootTime => Some(Stage::BootTime),
            Focus::Runtime => Some(Stage::Runtime),
        }
    }

    /// The job-file keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            Focus::All => "all",
            Focus::CompileTime => "compile",
            Focus::BootTime => "boot",
            Focus::Runtime => "runtime",
        }
    }
}

/// Where candidate evaluations execute (the platform's `EvalBackend`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Persistent in-process worker threads with channel-fed queues.
    #[default]
    InProcess,
    /// Worker processes behind a Unix-socket protocol (`wf-evald`).
    Remote,
}

impl BackendChoice {
    /// The job-file keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            BackendChoice::InProcess => "in-process",
            BackendChoice::Remote => "remote",
        }
    }

    /// Parses a job-file keyword (used by both the schema and CLI flags).
    pub fn parse_keyword(s: &str) -> Option<BackendChoice> {
        match s {
            "in-process" | "inprocess" | "in_process" => Some(BackendChoice::InProcess),
            "remote" => Some(BackendChoice::Remote),
            _ => None,
        }
    }
}

/// How the platform's router assigns candidates to evaluator lanes
/// (the four wayfinder-core gateway strategies).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RoutingStrategy {
    /// Draw lanes from a dedicated RNG stream per wave.
    Random,
    /// Prefer the lanes with the lowest latency EWMA.
    Fastest,
    /// Cycle through healthy lanes with a persistent cursor. The default:
    /// under full-width waves it reduces to the identity assignment, so
    /// sessions behave exactly as they did before routing existed.
    #[default]
    RoundRobin,
    /// Always the lowest-numbered healthy lanes (lane 0 is "preferred"),
    /// falling back to the others only when lanes are unhealthy.
    Preferred,
}

impl RoutingStrategy {
    /// The job-file keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            RoutingStrategy::Random => "random",
            RoutingStrategy::Fastest => "fastest",
            RoutingStrategy::RoundRobin => "round-robin",
            RoutingStrategy::Preferred => "preferred",
        }
    }

    /// Parses a job-file keyword (used by both the schema and CLI flags).
    pub fn parse_keyword(s: &str) -> Option<RoutingStrategy> {
        match s {
            "random" => Some(RoutingStrategy::Random),
            "fastest" => Some(RoutingStrategy::Fastest),
            "round-robin" | "roundrobin" | "round_robin" => Some(RoutingStrategy::RoundRobin),
            "preferred" => Some(RoutingStrategy::Preferred),
            _ => None,
        }
    }
}

/// Session mode: specialize once, or keep adapting to a drifting
/// workload (continuous specialization).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mode {
    /// Optimize a fixed workload and stop at the budget (the paper's
    /// experiments).
    #[default]
    OneShot,
    /// Watch deployed-reference telemetry for drift and re-specialize
    /// epoch by epoch; requires a `drift:` section.
    Continuous,
}

impl Mode {
    /// The job-file keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            Mode::OneShot => "one-shot",
            Mode::Continuous => "continuous",
        }
    }

    /// Parses a job-file keyword.
    pub fn parse_keyword(s: &str) -> Option<Mode> {
        match s {
            "one-shot" | "oneshot" | "one_shot" => Some(Mode::OneShot),
            "continuous" => Some(Mode::Continuous),
            _ => None,
        }
    }
}

/// Drifting-workload scenario family (mirrors `wf-ossim`'s scenarios).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DriftScenarioId {
    /// One permanent workload shift.
    #[default]
    Step,
    /// A repeating base → busy → peak traffic cycle.
    Diurnal,
    /// A transient overload: steady → flash → steady.
    FlashCrowd,
}

impl DriftScenarioId {
    /// The job-file keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            DriftScenarioId::Step => "step",
            DriftScenarioId::Diurnal => "diurnal",
            DriftScenarioId::FlashCrowd => "flash-crowd",
        }
    }

    /// Parses a job-file keyword.
    pub fn parse_keyword(s: &str) -> Option<DriftScenarioId> {
        match s {
            "step" => Some(DriftScenarioId::Step),
            "diurnal" => Some(DriftScenarioId::Diurnal),
            "flash-crowd" | "flash_crowd" | "flashcrowd" => Some(DriftScenarioId::FlashCrowd),
            _ => None,
        }
    }
}

/// Change-detector selection for continuous mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DetectorId {
    /// Sliding-window mean-shift detector.
    #[default]
    MeanShift,
    /// Page–Hinkley two-sided CUSUM detector.
    PageHinkley,
}

impl DetectorId {
    /// The job-file keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            DetectorId::MeanShift => "mean-shift",
            DetectorId::PageHinkley => "page-hinkley",
        }
    }

    /// Parses a job-file keyword.
    pub fn parse_keyword(s: &str) -> Option<DetectorId> {
        match s {
            "mean-shift" | "mean_shift" | "meanshift" => Some(DetectorId::MeanShift),
            "page-hinkley" | "page_hinkley" | "pagehinkley" => Some(DetectorId::PageHinkley),
            _ => None,
        }
    }
}

/// The `drift:` section of a continuous job: what drifts and how change
/// is confirmed.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftSpec {
    /// Scenario family the simulated workload follows.
    pub scenario: DriftScenarioId,
    /// Change detector watching the deployed reference's telemetry.
    pub detector: DetectorId,
    /// Virtual seconds until the first workload shift (scenario phase
    /// length).
    pub shift_at_s: f64,
    /// Detector window (mean-shift) or warm-up length (page-hinkley),
    /// in samples.
    pub window: usize,
    /// Relative change magnitude that confirms a drift.
    pub threshold: f64,
    /// Minimum candidates an epoch runs before a verdict may close it.
    pub min_epoch: usize,
    /// Seed each new epoch's search from the closed epoch's model
    /// instead of restarting cold.
    pub transfer: bool,
}

impl Default for DriftSpec {
    fn default() -> Self {
        Self {
            scenario: DriftScenarioId::Step,
            detector: DetectorId::MeanShift,
            shift_at_s: 900.0,
            window: 6,
            threshold: 0.15,
            min_epoch: 8,
            transfer: true,
        }
    }
}

/// Search algorithm selection (§3.1 lists the supported plug-ins).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AlgorithmId {
    /// Random search baseline.
    Random,
    /// Exhaustive grid search.
    Grid,
    /// Gaussian-process Bayesian optimization.
    Bayesian,
    /// Unicorn-style causal search.
    Causal,
    /// The paper's DeepTune.
    #[default]
    DeepTune,
}

impl AlgorithmId {
    /// The job-file keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            AlgorithmId::Random => "random",
            AlgorithmId::Grid => "grid",
            AlgorithmId::Bayesian => "bayesian",
            AlgorithmId::Causal => "causal",
            AlgorithmId::DeepTune => "deeptune",
        }
    }
}

/// Exploration budget: iterations, virtual time, or both (§3.1).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Budget {
    /// Maximum number of configurations to evaluate.
    pub iterations: Option<usize>,
    /// Maximum virtual time in seconds.
    pub time_seconds: Option<f64>,
}

/// A pinned parameter (§3.5): fixed to `value`, never varied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pin {
    /// Parameter name.
    pub name: String,
    /// Raw value text, interpreted against the parameter's kind.
    pub value: String,
}

/// An explicit parameter declaration in the job file.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamDecl {
    /// The resulting spec.
    pub spec: ParamSpec,
}

/// A fully parsed job.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Job name (used in reports).
    pub name: String,
    /// Target OS keyword, resolved against the session's target registry
    /// (the five paper targets plus anything registered downstream).
    pub os: String,
    /// Target application keyword; the target's factory resolves it.
    /// `None` runs the target's default application.
    pub app: Option<String>,
    /// Metric name (e.g. `throughput`, `memory`); `None` optimizes the
    /// target's primary metric.
    pub metric: Option<String>,
    /// Optimization direction.
    pub direction: Direction,
    /// Stage focus.
    pub focus: Focus,
    /// Search algorithm.
    pub algorithm: AlgorithmId,
    /// RNG seed for the whole session.
    pub seed: u64,
    /// Benchmark repetitions per configuration.
    pub repetitions: usize,
    /// VM workers evaluating candidates in parallel (`None` = the
    /// platform default: `WF_WORKERS` from the environment, else 1).
    pub workers: Option<usize>,
    /// Evaluation backend: persistent in-process threads (default) or
    /// remote `wf-evald` workers.
    pub backend: BackendChoice,
    /// Lane-routing strategy for the platform's router.
    pub routing: RoutingStrategy,
    /// Size of the probed runtime space for Linux-style targets (§3.4);
    /// `None` = the session default. Session-store manifests record it so
    /// a resumed session rebuilds the exact same space.
    pub runtime_params: Option<usize>,
    /// Session-store directory: when set, `wfctl run` persists the
    /// manifest and event log here (`None` = in-memory only).
    pub out: Option<String>,
    /// Daemon state root: `wfctl submit` sends this job to the `wfd`
    /// daemon serving this directory when no `--daemon` flag or
    /// `WF_DAEMON` variable overrides it (`None` = no default daemon).
    pub daemon: Option<String>,
    /// Budget.
    pub budget: Budget,
    /// Session mode: one-shot (default) or continuous re-specialization.
    pub mode: Mode,
    /// Continuous-mode drift section; present iff `mode: continuous`.
    pub drift: Option<DriftSpec>,
    /// Pinned parameters.
    pub pinned: Vec<Pin>,
    /// Explicit parameter declarations (empty = use the OS's own space).
    pub params: Vec<ParamDecl>,
}

impl Default for Job {
    fn default() -> Self {
        Self {
            name: "job".into(),
            os: "linux-4.19".into(),
            app: None,
            metric: None,
            direction: Direction::Maximize,
            focus: Focus::All,
            algorithm: AlgorithmId::DeepTune,
            seed: 1,
            repetitions: 1,
            workers: None,
            backend: BackendChoice::InProcess,
            routing: RoutingStrategy::RoundRobin,
            runtime_params: None,
            out: None,
            daemon: None,
            budget: Budget {
                iterations: Some(250),
                time_seconds: None,
            },
            mode: Mode::OneShot,
            drift: None,
            pinned: Vec::new(),
            params: Vec::new(),
        }
    }
}

/// A schema error: which field, what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobError {
    /// Field path, e.g. `params[2].min`.
    pub field: String,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for JobError {}

impl From<YamlError> for JobError {
    fn from(e: YamlError) -> Self {
        JobError {
            field: format!("(yaml line {})", e.line),
            message: e.message,
        }
    }
}

fn err(field: impl Into<String>, message: impl Into<String>) -> JobError {
    JobError {
        field: field.into(),
        message: message.into(),
    }
}

fn req_str(value: &Yaml, field: &str) -> Result<String, JobError> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| err(field, "must be a string"))
}

impl Job {
    /// Parses a job from YAML text.
    ///
    /// # Examples
    ///
    /// ```
    /// use wf_jobfile::Job;
    ///
    /// let job = Job::parse("name: demo\nos: linux-4.19\napp: redis\nmetric: throughput\n").unwrap();
    /// assert_eq!(job.app.as_deref(), Some("redis"));
    /// assert_eq!(job.budget.iterations, Some(250)); // default
    /// ```
    pub fn parse(text: &str) -> Result<Job, JobError> {
        let doc = yaml::parse(text)?;
        Self::from_yaml(&doc)
    }

    /// Builds a job from a parsed YAML document.
    pub fn from_yaml(doc: &Yaml) -> Result<Job, JobError> {
        let mut job = Job::default();
        let map = doc
            .as_map()
            .ok_or_else(|| err("(root)", "job file must be a mapping"))?;
        for (key, value) in map {
            match key.as_str() {
                "name" => job.name = req_str(value, "name")?,
                "os" => job.os = req_str(value, "os")?,
                "app" => job.app = Some(req_str(value, "app")?),
                "metric" => job.metric = Some(req_str(value, "metric")?),
                "direction" => {
                    job.direction = match req_str(value, "direction")?.as_str() {
                        "maximize" | "max" => Direction::Maximize,
                        "minimize" | "min" => Direction::Minimize,
                        other => return Err(err("direction", format!("unknown {other:?}"))),
                    }
                }
                "focus" => {
                    job.focus = match req_str(value, "focus")?.as_str() {
                        "all" => Focus::All,
                        "compile" | "compile-time" => Focus::CompileTime,
                        "boot" | "boot-time" => Focus::BootTime,
                        "runtime" | "run-time" => Focus::Runtime,
                        other => return Err(err("focus", format!("unknown {other:?}"))),
                    }
                }
                "algorithm" => {
                    job.algorithm = match req_str(value, "algorithm")?.as_str() {
                        "random" => AlgorithmId::Random,
                        "grid" => AlgorithmId::Grid,
                        "bayesian" | "bayes" => AlgorithmId::Bayesian,
                        "causal" | "unicorn" => AlgorithmId::Causal,
                        "deeptune" => AlgorithmId::DeepTune,
                        other => return Err(err("algorithm", format!("unknown {other:?}"))),
                    }
                }
                "seed" => {
                    job.seed = value
                        .as_int()
                        .filter(|v| *v >= 0)
                        .ok_or_else(|| err("seed", "must be a non-negative integer"))?
                        as u64
                }
                "repetitions" => {
                    job.repetitions = value
                        .as_int()
                        .filter(|v| *v >= 1)
                        .ok_or_else(|| err("repetitions", "must be a positive integer"))?
                        as usize
                }
                "workers" => {
                    job.workers = Some(
                        value
                            .as_int()
                            .filter(|v| (1..=64).contains(v))
                            .ok_or_else(|| err("workers", "must be an integer in 1..=64"))?
                            as usize,
                    )
                }
                "backend" => {
                    let raw = req_str(value, "backend")?;
                    job.backend = BackendChoice::parse_keyword(&raw).ok_or_else(|| {
                        err(
                            "backend",
                            format!("unknown {raw:?} (expected in-process | remote)"),
                        )
                    })?
                }
                "routing" => {
                    let raw = req_str(value, "routing")?;
                    job.routing = RoutingStrategy::parse_keyword(&raw).ok_or_else(|| {
                        err(
                            "routing",
                            format!(
                                "unknown {raw:?} (expected random | fastest | round-robin | preferred)"
                            ),
                        )
                    })?
                }
                "runtime_params" => {
                    job.runtime_params =
                        Some(
                            value.as_int().filter(|v| *v >= 1).ok_or_else(|| {
                                err("runtime_params", "must be a positive integer")
                            })? as usize,
                        )
                }
                "out" => job.out = Some(req_str(value, "out")?),
                "daemon" => job.daemon = Some(req_str(value, "daemon")?),
                "budget" => {
                    let mut b = Budget::default();
                    for (bk, bv) in value
                        .as_map()
                        .ok_or_else(|| err("budget", "must be a mapping"))?
                    {
                        match bk.as_str() {
                            "iterations" => {
                                b.iterations =
                                    Some(bv.as_int().filter(|v| *v > 0).ok_or_else(|| {
                                        err("budget.iterations", "must be a positive integer")
                                    })? as usize)
                            }
                            "time_seconds" => {
                                b.time_seconds =
                                    Some(bv.as_float().filter(|v| *v > 0.0).ok_or_else(|| {
                                        err("budget.time_seconds", "must be a positive number")
                                    })?)
                            }
                            other => return Err(err("budget", format!("unknown key {other:?}"))),
                        }
                    }
                    job.budget = b;
                }
                "mode" => {
                    let raw = req_str(value, "mode")?;
                    job.mode = Mode::parse_keyword(&raw).ok_or_else(|| {
                        err(
                            "mode",
                            format!("unknown {raw:?} (expected one-shot | continuous)"),
                        )
                    })?
                }
                "drift" => {
                    let mut d = DriftSpec::default();
                    for (dk, dv) in value
                        .as_map()
                        .ok_or_else(|| err("drift", "must be a mapping"))?
                    {
                        match dk.as_str() {
                            "scenario" => {
                                let raw = req_str(dv, "drift.scenario")?;
                                d.scenario =
                                    DriftScenarioId::parse_keyword(&raw).ok_or_else(|| {
                                        err(
                                            "drift.scenario",
                                            format!(
                                                "unknown {raw:?} (expected step | diurnal | flash-crowd)"
                                            ),
                                        )
                                    })?
                            }
                            "detector" => {
                                let raw = req_str(dv, "drift.detector")?;
                                d.detector = DetectorId::parse_keyword(&raw).ok_or_else(|| {
                                    err(
                                        "drift.detector",
                                        format!(
                                            "unknown {raw:?} (expected mean-shift | page-hinkley)"
                                        ),
                                    )
                                })?
                            }
                            "shift_at_s" => {
                                d.shift_at_s =
                                    dv.as_float().filter(|v| *v > 0.0).ok_or_else(|| {
                                        err("drift.shift_at_s", "must be a positive number")
                                    })?
                            }
                            "window" => {
                                d.window = dv.as_int().filter(|v| *v >= 1).ok_or_else(|| {
                                    err("drift.window", "must be a positive integer")
                                })? as usize
                            }
                            "threshold" => {
                                d.threshold =
                                    dv.as_float().filter(|v| *v > 0.0).ok_or_else(|| {
                                        err("drift.threshold", "must be a positive number")
                                    })?
                            }
                            "min_epoch" => {
                                d.min_epoch = dv.as_int().filter(|v| *v >= 1).ok_or_else(|| {
                                    err("drift.min_epoch", "must be a positive integer")
                                })? as usize
                            }
                            "transfer" => {
                                d.transfer = dv
                                    .as_bool()
                                    .ok_or_else(|| err("drift.transfer", "must be a boolean"))?
                            }
                            other => return Err(err("drift", format!("unknown key {other:?}"))),
                        }
                    }
                    job.drift = Some(d);
                }
                "pinned" => {
                    let seq = value
                        .as_seq()
                        .ok_or_else(|| err("pinned", "must be a sequence"))?;
                    for (i, item) in seq.iter().enumerate() {
                        let name = item
                            .get("name")
                            .and_then(Yaml::as_str)
                            .ok_or_else(|| err(format!("pinned[{i}].name"), "missing"))?;
                        let value_text = item
                            .get("value")
                            .and_then(Yaml::scalar_text_ref)
                            .ok_or_else(|| err(format!("pinned[{i}].value"), "missing"))?;
                        job.pinned.push(Pin {
                            name: name.to_string(),
                            value: value_text,
                        });
                    }
                }
                "params" => {
                    let seq = value
                        .as_seq()
                        .ok_or_else(|| err("params", "must be a sequence"))?;
                    for (i, item) in seq.iter().enumerate() {
                        job.params.push(parse_param(item, i)?);
                    }
                }
                other => return Err(err("(root)", format!("unknown key {other:?}"))),
            }
        }
        match (job.mode, &job.drift) {
            (Mode::Continuous, None) => {
                return Err(err("mode", "continuous mode requires a drift: section"))
            }
            (Mode::OneShot, Some(_)) => {
                return Err(err("drift", "drift: requires mode: continuous"))
            }
            _ => {}
        }
        Ok(job)
    }

    /// Serializes the job back to YAML text (round-trip tested).
    pub fn to_yaml(&self) -> String {
        let mut root: Vec<(String, Yaml)> = vec![
            ("name".into(), Yaml::Str(self.name.clone())),
            ("os".into(), Yaml::Str(self.os.clone())),
            (
                "direction".into(),
                Yaml::Str(self.direction.keyword().into()),
            ),
            ("focus".into(), Yaml::Str(self.focus.keyword().into())),
            (
                "algorithm".into(),
                Yaml::Str(self.algorithm.keyword().into()),
            ),
            ("seed".into(), Yaml::Int(self.seed as i64)),
            ("repetitions".into(), Yaml::Int(self.repetitions as i64)),
        ];
        if let Some(app) = &self.app {
            root.insert(2, ("app".into(), Yaml::Str(app.clone())));
        }
        if let Some(metric) = &self.metric {
            let at = if self.app.is_some() { 3 } else { 2 };
            root.insert(at, ("metric".into(), Yaml::Str(metric.clone())));
        }
        if let Some(w) = self.workers {
            root.push(("workers".into(), Yaml::Int(w as i64)));
        }
        root.push(("backend".into(), Yaml::Str(self.backend.keyword().into())));
        root.push(("routing".into(), Yaml::Str(self.routing.keyword().into())));
        if let Some(n) = self.runtime_params {
            root.push(("runtime_params".into(), Yaml::Int(n as i64)));
        }
        if let Some(out) = &self.out {
            root.push(("out".into(), Yaml::Str(out.clone())));
        }
        if let Some(daemon) = &self.daemon {
            root.push(("daemon".into(), Yaml::Str(daemon.clone())));
        }
        let mut budget = Vec::new();
        if let Some(it) = self.budget.iterations {
            budget.push(("iterations".into(), Yaml::Int(it as i64)));
        }
        if let Some(t) = self.budget.time_seconds {
            budget.push(("time_seconds".into(), Yaml::Float(t)));
        }
        if !budget.is_empty() {
            root.push(("budget".into(), Yaml::Map(budget)));
        }
        if self.mode != Mode::OneShot {
            root.push(("mode".into(), Yaml::Str(self.mode.keyword().into())));
        }
        if let Some(d) = &self.drift {
            root.push((
                "drift".into(),
                Yaml::Map(vec![
                    ("scenario".into(), Yaml::Str(d.scenario.keyword().into())),
                    ("detector".into(), Yaml::Str(d.detector.keyword().into())),
                    ("shift_at_s".into(), Yaml::Float(d.shift_at_s)),
                    ("window".into(), Yaml::Int(d.window as i64)),
                    ("threshold".into(), Yaml::Float(d.threshold)),
                    ("min_epoch".into(), Yaml::Int(d.min_epoch as i64)),
                    ("transfer".into(), Yaml::Bool(d.transfer)),
                ]),
            ));
        }
        if !self.pinned.is_empty() {
            root.push((
                "pinned".into(),
                Yaml::Seq(
                    self.pinned
                        .iter()
                        .map(|p| {
                            Yaml::Map(vec![
                                ("name".into(), Yaml::Str(p.name.clone())),
                                ("value".into(), Yaml::Str(p.value.clone())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !self.params.is_empty() {
            root.push((
                "params".into(),
                Yaml::Seq(self.params.iter().map(emit_param).collect()),
            ));
        }
        yaml::emit(&Yaml::Map(root))
    }

    /// Builds a configuration space from the explicit `params` section.
    ///
    /// Returns `None` when the job declares no explicit parameters (the
    /// platform then uses the OS's own space).
    pub fn param_space(&self) -> Option<ConfigSpace> {
        if self.params.is_empty() {
            return None;
        }
        let mut space = ConfigSpace::new();
        for p in &self.params {
            space.add(p.spec.clone());
        }
        Some(space)
    }

    /// Applies the `pinned` section to a space (§3.5 constrained search).
    ///
    /// Unknown names and uninterpretable values are errors: a pin the
    /// search silently ignored could ship an insecure configuration.
    pub fn apply_pins(&self, space: &mut ConfigSpace) -> Result<(), JobError> {
        for (i, pin) in self.pinned.iter().enumerate() {
            let idx = space.index_of(&pin.name).ok_or_else(|| {
                err(
                    format!("pinned[{i}].name"),
                    format!("unknown parameter {:?}", pin.name),
                )
            })?;
            let value = interpret_pin(&space.spec(idx).kind, &pin.value).ok_or_else(|| {
                err(
                    format!("pinned[{i}].value"),
                    format!(
                        "cannot interpret {:?} for {:?}",
                        pin.value,
                        space.spec(idx).kind
                    ),
                )
            })?;
            let ok = space.pin(&pin.name, value);
            debug_assert!(ok, "pin() cannot fail after the checks above");
        }
        Ok(())
    }
}

/// Interprets a pin's raw text against a parameter kind.
fn interpret_pin(kind: &ParamKind, raw: &str) -> Option<Value> {
    match kind {
        ParamKind::Bool => match raw {
            "true" | "1" | "y" | "on" => Some(Value::Bool(true)),
            "false" | "0" | "n" | "off" => Some(Value::Bool(false)),
            _ => None,
        },
        ParamKind::Tristate => Tristate::parse(raw).map(Value::Tristate),
        ParamKind::Int { min, max, .. } | ParamKind::Hex { min, max } => {
            let v = parse_int(raw)?;
            (v >= *min && v <= *max).then_some(Value::Int(v))
        }
        ParamKind::Enum { choices } => choices.iter().position(|c| c == raw).map(Value::Choice),
    }
}

fn parse_int(s: &str) -> Option<i64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_param(item: &Yaml, i: usize) -> Result<ParamDecl, JobError> {
    let field = |suffix: &str| format!("params[{i}].{suffix}");
    let name = item
        .get("name")
        .and_then(Yaml::as_str)
        .ok_or_else(|| err(field("name"), "missing"))?;
    let ptype = item
        .get("type")
        .and_then(Yaml::as_str)
        .ok_or_else(|| err(field("type"), "missing"))?;
    let stage = match item
        .get("stage")
        .and_then(Yaml::as_str)
        .unwrap_or("runtime")
    {
        "compile" | "compile-time" => Stage::CompileTime,
        "boot" | "boot-time" => Stage::BootTime,
        "runtime" | "run-time" => Stage::Runtime,
        other => return Err(err(field("stage"), format!("unknown {other:?}"))),
    };
    let kind = match ptype {
        "bool" => ParamKind::Bool,
        "tristate" => ParamKind::Tristate,
        "int" | "hex" => {
            let min = item
                .get("min")
                .and_then(Yaml::as_int)
                .ok_or_else(|| err(field("min"), "missing for int/hex"))?;
            let max = item
                .get("max")
                .and_then(Yaml::as_int)
                .ok_or_else(|| err(field("max"), "missing for int/hex"))?;
            if min > max {
                return Err(err(field("min"), "min exceeds max"));
            }
            if ptype == "hex" {
                ParamKind::Hex { min, max }
            } else {
                let log = item.get("log").and_then(Yaml::as_bool).unwrap_or(false);
                if log {
                    if min < 0 {
                        return Err(err(field("log"), "log scale requires min >= 0"));
                    }
                    ParamKind::log_int(min, max)
                } else {
                    ParamKind::int(min, max)
                }
            }
        }
        "enum" => {
            let choices = item
                .get("choices")
                .and_then(Yaml::as_seq)
                .ok_or_else(|| err(field("choices"), "missing for enum"))?;
            if choices.is_empty() {
                return Err(err(field("choices"), "must not be empty"));
            }
            let strs: Vec<String> = choices
                .iter()
                .map(|c| c.scalar_text_ref().unwrap_or_default())
                .collect();
            ParamKind::choices(strs)
        }
        other => return Err(err(field("type"), format!("unknown {other:?}"))),
    };
    let mut spec = ParamSpec::new(name, kind.clone(), stage);
    if let Some(d) = item.get("default") {
        let raw = d
            .scalar_text_ref()
            .ok_or_else(|| err(field("default"), "must be a scalar"))?;
        let v = interpret_pin(&kind, &raw)
            .ok_or_else(|| err(field("default"), format!("cannot interpret {raw:?}")))?;
        spec = spec.with_default(v);
    }
    if let Some(doc) = item.get("doc").and_then(Yaml::as_str) {
        spec = spec.with_doc(doc);
    }
    Ok(ParamDecl { spec })
}

fn emit_param(p: &ParamDecl) -> Yaml {
    let spec = &p.spec;
    let mut pairs: Vec<(String, Yaml)> = vec![("name".into(), Yaml::Str(spec.name.clone()))];
    match &spec.kind {
        ParamKind::Bool => pairs.push(("type".into(), Yaml::Str("bool".into()))),
        ParamKind::Tristate => pairs.push(("type".into(), Yaml::Str("tristate".into()))),
        ParamKind::Int {
            min,
            max,
            log_scale,
        } => {
            pairs.push(("type".into(), Yaml::Str("int".into())));
            pairs.push(("min".into(), Yaml::Int(*min)));
            pairs.push(("max".into(), Yaml::Int(*max)));
            if *log_scale {
                pairs.push(("log".into(), Yaml::Bool(true)));
            }
        }
        ParamKind::Hex { min, max } => {
            pairs.push(("type".into(), Yaml::Str("hex".into())));
            pairs.push(("min".into(), Yaml::Int(*min)));
            pairs.push(("max".into(), Yaml::Int(*max)));
        }
        ParamKind::Enum { choices } => {
            pairs.push(("type".into(), Yaml::Str("enum".into())));
            pairs.push((
                "choices".into(),
                Yaml::Seq(choices.iter().map(|c| Yaml::Str(c.clone())).collect()),
            ));
        }
    }
    let default_text = match (&spec.kind, spec.default) {
        (_, Value::Bool(b)) => if b { "1" } else { "0" }.to_string(),
        (_, Value::Tristate(t)) => t.to_string(),
        (_, Value::Int(v)) => v.to_string(),
        (ParamKind::Enum { choices }, Value::Choice(c)) => choices[c].clone(),
        (_, Value::Choice(c)) => c.to_string(),
    };
    pairs.push(("default".into(), Yaml::Str(default_text)));
    pairs.push((
        "stage".into(),
        Yaml::Str(
            match spec.stage {
                Stage::CompileTime => "compile",
                Stage::BootTime => "boot",
                Stage::Runtime => "runtime",
            }
            .into(),
        ),
    ));
    if !spec.doc.is_empty() {
        pairs.push(("doc".into(), Yaml::Str(spec.doc.clone())));
    }
    Yaml::Map(pairs)
}

impl Yaml {
    /// Scalar text of a value, owned — helper for schema fields that accept
    /// any scalar (pin values may be `y`, `128`, `true`, ...).
    pub fn scalar_text_ref(&self) -> Option<String> {
        match self {
            Yaml::Str(s) => Some(s.clone()),
            Yaml::Bool(b) => Some(b.to_string()),
            Yaml::Int(v) => Some(v.to_string()),
            Yaml::Float(v) => Some(v.to_string()),
            Yaml::Null => None,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
name: nginx-tuning
os: linux-4.19
app: nginx
metric: throughput
direction: maximize
focus: runtime
algorithm: deeptune
seed: 7
repetitions: 3
workers: 4
runtime_params: 120
out: runs/nginx-tuning
daemon: runs/wfd
budget:
  iterations: 250
  time_seconds: 18000
pinned:
  - name: aslr
    value: 1
params:
  - name: net.core.somaxconn
    type: int
    min: 16
    max: 65535
    log: true
    default: 128
    stage: runtime
  - name: qdisc
    type: enum
    choices: [pfifo, bfifo, fq_codel]
    default: bfifo
  - name: aslr
    type: bool
    default: 1
"#;

    #[test]
    fn parses_full_job() {
        let job = Job::parse(FULL).unwrap();
        assert_eq!(job.name, "nginx-tuning");
        assert_eq!(job.direction, Direction::Maximize);
        assert_eq!(job.focus, Focus::Runtime);
        assert_eq!(job.algorithm, AlgorithmId::DeepTune);
        assert_eq!(job.seed, 7);
        assert_eq!(job.repetitions, 3);
        assert_eq!(job.workers, Some(4));
        assert_eq!(job.runtime_params, Some(120));
        assert_eq!(job.out.as_deref(), Some("runs/nginx-tuning"));
        assert_eq!(job.daemon.as_deref(), Some("runs/wfd"));
        assert_eq!(job.budget.iterations, Some(250));
        assert_eq!(job.budget.time_seconds, Some(18000.0));
        assert_eq!(job.params.len(), 3);
        assert_eq!(job.pinned.len(), 1);
    }

    #[test]
    fn param_space_and_pins() {
        let job = Job::parse(FULL).unwrap();
        let mut space = job.param_space().expect("explicit params");
        assert_eq!(space.len(), 3);
        let qdisc = space.index_of("qdisc").unwrap();
        assert_eq!(space.spec(qdisc).default, Value::Choice(1));
        job.apply_pins(&mut space).unwrap();
        assert!(space.spec(space.index_of("aslr").unwrap()).fixed);
    }

    #[test]
    fn unknown_pin_is_an_error() {
        let mut job = Job::parse(FULL).unwrap();
        job.pinned.push(Pin {
            name: "nope".into(),
            value: "1".into(),
        });
        let mut space = job.param_space().unwrap();
        let e = job.apply_pins(&mut space).unwrap_err();
        assert!(e.message.contains("unknown parameter"));
    }

    #[test]
    fn bad_pin_value_is_an_error() {
        let job = Job::parse(
            "name: x\nparams:\n  - name: a\n    type: bool\npinned:\n  - name: a\n    value: maybe\n",
        )
        .unwrap();
        let mut space = job.param_space().unwrap();
        assert!(job.apply_pins(&mut space).is_err());
    }

    #[test]
    fn defaults_fill_in() {
        let job = Job::parse("name: x\n").unwrap();
        assert_eq!(job.algorithm, AlgorithmId::DeepTune);
        assert_eq!(job.budget.iterations, Some(250));
        assert_eq!(job.workers, None, "workers defaults to the platform's");
        assert!(job.param_space().is_none());
    }

    #[test]
    fn causal_algorithm_parses_under_both_keywords() {
        for kw in ["causal", "unicorn"] {
            let job = Job::parse(&format!("name: x\nalgorithm: {kw}\n")).unwrap();
            assert_eq!(job.algorithm, AlgorithmId::Causal);
        }
        assert_eq!(AlgorithmId::Causal.keyword(), "causal");
    }

    #[test]
    fn runtime_params_must_be_positive() {
        assert!(Job::parse("name: x\nruntime_params: 0\n").is_err());
        assert_eq!(
            Job::parse("name: x\nruntime_params: 64\n")
                .unwrap()
                .runtime_params,
            Some(64)
        );
    }

    #[test]
    fn workers_must_be_a_sane_count() {
        assert!(Job::parse("name: x\nworkers: 0\n").is_err());
        assert!(Job::parse("name: x\nworkers: 65\n").is_err());
        assert!(Job::parse("name: x\nworkers: many\n").is_err());
        assert_eq!(
            Job::parse("name: x\nworkers: 8\n").unwrap().workers,
            Some(8)
        );
    }

    #[test]
    fn backend_and_routing_parse_with_defaults() {
        let job = Job::parse("name: x\n").unwrap();
        assert_eq!(job.backend, BackendChoice::InProcess);
        assert_eq!(job.routing, RoutingStrategy::RoundRobin);

        let job = Job::parse("name: x\nbackend: remote\nrouting: fastest\n").unwrap();
        assert_eq!(job.backend, BackendChoice::Remote);
        assert_eq!(job.routing, RoutingStrategy::Fastest);

        let job = Job::parse("name: x\nbackend: in-process\nrouting: preferred\n").unwrap();
        assert_eq!(job.backend, BackendChoice::InProcess);
        assert_eq!(job.routing, RoutingStrategy::Preferred);

        // `spawn` is not a backend; the error names the field.
        let e = Job::parse("name: x\nbackend: spawn\n").unwrap_err();
        assert_eq!(e.field, "backend");

        assert!(Job::parse("name: x\nbackend: cloud\n").is_err());
        assert!(Job::parse("name: x\nrouting: slowest\n").is_err());
    }

    #[test]
    fn backend_and_routing_round_trip() {
        let mut job = Job::parse(FULL).unwrap();
        job.backend = BackendChoice::Remote;
        job.routing = RoutingStrategy::Preferred;
        let back = Job::parse(&job.to_yaml()).unwrap();
        assert_eq!(back.backend, BackendChoice::Remote);
        assert_eq!(back.routing, RoutingStrategy::Preferred);
    }

    #[test]
    fn unknown_root_key_is_rejected() {
        let e = Job::parse("name: x\nbanana: 1\n").unwrap_err();
        assert!(e.message.contains("banana"));
    }

    #[test]
    fn int_param_requires_bounds() {
        let e = Job::parse("params:\n  - name: a\n    type: int\n").unwrap_err();
        assert!(e.field.contains("min"));
    }

    #[test]
    fn enum_default_must_be_a_choice() {
        let e = Job::parse(
            "params:\n  - name: q\n    type: enum\n    choices: [a, b]\n    default: c\n",
        )
        .unwrap_err();
        assert!(e.field.contains("default"));
    }

    #[test]
    fn yaml_round_trip() {
        let job = Job::parse(FULL).unwrap();
        let text = job.to_yaml();
        let back = Job::parse(&text).expect("emitted job parses");
        assert_eq!(job, back, "emitted:\n{text}");
    }

    #[test]
    fn continuous_mode_parses_with_drift_section() {
        let job = Job::parse(
            "name: x\nmode: continuous\ndrift:\n  scenario: diurnal\n  detector: page-hinkley\n  shift_at_s: 600\n  window: 10\n  threshold: 0.2\n  min_epoch: 12\n  transfer: false\n",
        )
        .unwrap();
        assert_eq!(job.mode, Mode::Continuous);
        let d = job.drift.expect("drift section");
        assert_eq!(d.scenario, DriftScenarioId::Diurnal);
        assert_eq!(d.detector, DetectorId::PageHinkley);
        assert_eq!(d.shift_at_s, 600.0);
        assert_eq!(d.window, 10);
        assert_eq!(d.threshold, 0.2);
        assert_eq!(d.min_epoch, 12);
        assert!(!d.transfer);
    }

    #[test]
    fn drift_defaults_fill_in() {
        let job = Job::parse("name: x\nmode: continuous\ndrift:\n  scenario: step\n").unwrap();
        let d = job.drift.unwrap();
        assert_eq!(d, DriftSpec::default());
    }

    #[test]
    fn mode_and_drift_must_agree() {
        let e = Job::parse("name: x\nmode: continuous\n").unwrap_err();
        assert!(e.message.contains("drift"));
        let e = Job::parse("name: x\ndrift:\n  scenario: step\n").unwrap_err();
        assert!(e.message.contains("continuous"));
    }

    #[test]
    fn bad_drift_values_are_rejected() {
        assert!(Job::parse("name: x\nmode: continuous\ndrift:\n  scenario: tide\n").is_err());
        assert!(
            Job::parse("name: x\nmode: continuous\ndrift:\n  scenario: step\n  window: 0\n")
                .is_err()
        );
        assert!(Job::parse(
            "name: x\nmode: continuous\ndrift:\n  scenario: step\n  threshold: -1\n"
        )
        .is_err());
        assert!(Job::parse("name: x\nmode: frozen\n").is_err());
    }

    #[test]
    fn continuous_job_round_trips() {
        let mut job = Job::parse(FULL).unwrap();
        job.mode = Mode::Continuous;
        job.drift = Some(DriftSpec {
            scenario: DriftScenarioId::FlashCrowd,
            detector: DetectorId::PageHinkley,
            shift_at_s: 450.0,
            window: 9,
            threshold: 0.3,
            min_epoch: 6,
            transfer: false,
        });
        let text = job.to_yaml();
        let back = Job::parse(&text).expect("emitted job parses");
        assert_eq!(job, back, "emitted:\n{text}");
    }

    #[test]
    fn direction_better() {
        assert!(Direction::Maximize.better(2.0, 1.0));
        assert!(!Direction::Maximize.better(1.0, 1.0));
        assert!(Direction::Minimize.better(1.0, 2.0));
    }
}
