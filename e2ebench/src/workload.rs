//! The benchmark's workloads: one generated job each, run the way a user
//! runs it (`wfctl run`, then `verify`, `report` and `resume`).

/// One workload: the job it generates and how far its resume extends it.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Registry keyword (`os:`).
    pub os: &'static str,
    /// Application keyword; `None` runs the target's default app.
    pub app: Option<&'static str>,
    /// `metric:` of the job file; `None` optimizes the target's primary
    /// metric.
    pub metric: Option<&'static str>,
    /// Algorithm keyword of the job file.
    pub algorithm: &'static str,
    /// Iteration budget of the first run.
    pub iterations: usize,
    /// Iterations a resume adds on top of `iterations`.
    pub resume_extra: usize,
    /// Evaluation lanes (`workers:`), on the in-process backend.
    pub workers: usize,
}

/// Sizes are set so that several whole cycles (setup, run, verify,
/// report, resume) fit in one run and their medians are steady.
pub const WORKLOADS: [Workload; 4] = [
    // DeepTune, the paper's algorithm, on a runtime sysctl space. The
    // evaluation is nearly free (image-cache hits), so replay-buffer
    // training dominates both the run and the resume, which re-runs it.
    Workload {
        name: "deeptune-nginx",
        os: "linux-6.0",
        app: Some("nginx"),
        metric: None,
        algorithm: "deeptune",
        iterations: 60,
        resume_extra: 6,
        workers: 2,
    },
    // GP Bayesian optimisation on the 33-parameter compile space: the
    // wave-boundary O(n³) refit and the pool EI dominate; no DeepTune. One
    // lane, for the reason given at `store-riscv`.
    Workload {
        name: "bayes-unikraft",
        os: "unikraft",
        app: None,
        metric: None,
        algorithm: "bayesian",
        iterations: 250,
        resume_extra: 25,
        workers: 1,
    },
    // Causal search on the 477-parameter compile space (boot memory,
    // minimized): the level-0 sweep is quadratic in the parameter count,
    // and the target carries the one heavy setup (Kconfig model).
    Workload {
        name: "causal-riscv",
        os: "linux-riscv",
        app: None,
        metric: Some("memory"),
        algorithm: "causal",
        iterations: 60,
        resume_extra: 6,
        workers: 2,
    },
    // Random search, which has no model: time goes to evaluation, sink
    // writes, ledger load and parse, replay and report. Every search-layer
    // optimisation predicts no change here. One lane: its waves last well
    // under a millisecond, and with two lanes each wave waits on, and
    // spins for, a thread wake-up on the other CPU, whose cost swung two-
    // to threefold from one minute to the next on a shared two-vCPU host.
    Workload {
        name: "store-riscv",
        os: "linux-riscv",
        app: None,
        metric: Some("memory"),
        algorithm: "random",
        iterations: 2000,
        resume_extra: 200,
        workers: 1,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at a size small enough for tests.
    pub fn tiny(self) -> Workload {
        Workload {
            iterations: 8,
            resume_extra: 2,
            ..self
        }
    }

    /// The job file this workload runs with `seed`.
    pub fn job_yaml(&self, seed: u64) -> String {
        let app = self.app.map_or(String::new(), |a| format!("app: {a}\n"));
        let metric = self
            .metric
            .map_or(String::new(), |m| format!("metric: {m}\n"));
        format!(
            "name: {name}\nos: {os}\n{app}{metric}algorithm: {algorithm}\nseed: {seed}\nworkers: {workers}\nbackend: in-process\nbudget:\n  iterations: {iterations}\n",
            name = self.name,
            os = self.os,
            algorithm = self.algorithm,
            iterations = self.iterations,
            workers = self.workers,
        )
    }
}
