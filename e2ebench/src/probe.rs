//! Outside-in probes on the evaluation layer.
//!
//! [`ProbedFactory`] delegates to a built-in [`TargetFactory`] and wraps
//! every target it materializes in a [`ProbedTarget`], which counts each
//! `build`/`boot`/`bench` call and, while recording, keeps one
//! [`CallSpan`] per call. The calls run on the backend's worker threads,
//! so spans carry the index of the thread that made them. The program
//! itself is unchanged: the probed registry answers to the same keywords
//! as [`TargetRegistry::builtin`].

use rand::RngCore;
use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wayfinder_core::{BuildError, TargetFactory, TargetInstance, TargetRegistry, TargetRequest};
use wf_configspace::{ConfigSpace, Configuration};
use wf_ossim::{BenchResult, CrashReport, KernelImage};
use wf_platform::{EvalTarget, TargetDescriptor};

/// Which pipeline phase a target call ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    Build,
    Boot,
    Bench,
}

impl CallKind {
    /// The span name of this call kind.
    pub fn span_name(self) -> &'static str {
        match self {
            CallKind::Build => "ossim.build",
            CallKind::Boot => "ossim.boot",
            CallKind::Bench => "ossim.bench",
        }
    }
}

/// One target call, timed in seconds since the probe's epoch.
#[derive(Clone, Copy, Debug)]
pub struct CallSpan {
    pub kind: CallKind,
    pub start: f64,
    pub end: f64,
    pub thread: usize,
}

/// Call counters, as read by [`Probe::counts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub builds: u64,
    pub reused: u64,
    pub boots: u64,
    pub benches: u64,
    pub crashes: u64,
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, rhs: Counts) -> Counts {
        Counts {
            builds: self.builds - rhs.builds,
            reused: self.reused - rhs.reused,
            boots: self.boots - rhs.boots,
            benches: self.benches - rhs.benches,
            crashes: self.crashes - rhs.crashes,
        }
    }
}

/// Shared state of every probed target of one benchmark run.
///
/// The counters are statistics that publish no other data, so they use
/// `Relaxed`; they are read after `run_with_until` returns, which joins
/// the wave's work through the backend's channels.
pub struct Probe {
    epoch: Instant,
    recording: AtomicBool,
    builds: AtomicU64,
    reused: AtomicU64,
    boots: AtomicU64,
    benches: AtomicU64,
    crashes: AtomicU64,
    spans: Mutex<Vec<CallSpan>>,
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A small, stable index for the calling thread (0 for the first thread
/// that asks, usually the benchmark's main thread).
pub fn thread_index() -> usize {
    THREAD_INDEX.with(|cell| match cell.get() {
        Some(i) => i,
        None => {
            let i = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            cell.set(Some(i));
            i
        }
    })
}

impl Probe {
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
            builds: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            boots: AtomicU64::new(0),
            benches: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Seconds since this probe was created; every span of a run shares
    /// this clock.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Starts or stops keeping a span per target call.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// Takes the call spans recorded so far.
    pub fn take_spans(&self) -> Vec<CallSpan> {
        std::mem::take(&mut *self.spans.lock().expect("probe span list poisoned"))
    }

    pub fn counts(&self) -> Counts {
        Counts {
            builds: self.builds.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            boots: self.boots.load(Ordering::Relaxed),
            benches: self.benches.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
        }
    }

    fn call<T>(
        &self,
        kind: CallKind,
        f: impl FnOnce() -> (Result<T, CrashReport>, f64),
    ) -> (Result<T, CrashReport>, f64) {
        let recording = self.recording.load(Ordering::SeqCst);
        let start = if recording { self.now() } else { 0.0 };
        let out = f();
        if recording {
            let span = CallSpan {
                kind,
                start,
                end: self.now(),
                thread: thread_index(),
            };
            self.spans
                .lock()
                .expect("probe span list poisoned")
                .push(span);
        }
        let counter = match kind {
            CallKind::Build => &self.builds,
            CallKind::Boot => &self.boots,
            CallKind::Bench => &self.benches,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if out.0.is_err() {
            self.crashes.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// A target that forwards every call to the target it wraps.
pub struct ProbedTarget {
    inner: Box<dyn EvalTarget>,
    probe: Arc<Probe>,
}

impl EvalTarget for ProbedTarget {
    fn descriptor(&self) -> &TargetDescriptor {
        self.inner.descriptor()
    }

    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn space_mut(&mut self) -> &mut ConfigSpace {
        self.inner.space_mut()
    }

    fn install_space(&mut self, space: ConfigSpace) {
        self.inner.install_space(space)
    }

    fn image_fingerprint(&self, config: &Configuration) -> u64 {
        self.inner.image_fingerprint(config)
    }

    fn build(
        &self,
        config: &Configuration,
        reuse: Option<&KernelImage>,
        prev: Option<&Configuration>,
        rng: &mut dyn RngCore,
    ) -> (Result<KernelImage, CrashReport>, f64) {
        if reuse.is_some() {
            self.probe.reused.fetch_add(1, Ordering::Relaxed);
        }
        self.probe.call(CallKind::Build, || {
            self.inner.build(config, reuse, prev, rng)
        })
    }

    fn boot(
        &self,
        image: &KernelImage,
        config: &Configuration,
        rng: &mut dyn RngCore,
    ) -> (Result<(), CrashReport>, f64) {
        self.probe
            .call(CallKind::Boot, || self.inner.boot(image, config, rng))
    }

    fn bench(
        &self,
        image: &KernelImage,
        config: &Configuration,
        rng: &mut dyn RngCore,
    ) -> (Result<BenchResult, CrashReport>, f64) {
        self.probe
            .call(CallKind::Bench, || self.inner.bench(image, config, rng))
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// A factory that delegates to a built-in one and probes its targets.
pub struct ProbedFactory {
    inner: Arc<dyn TargetFactory>,
    probe: Arc<Probe>,
}

impl TargetFactory for ProbedFactory {
    fn keyword(&self) -> &str {
        self.inner.keyword()
    }

    fn summary(&self) -> &str {
        self.inner.summary()
    }

    fn apps(&self) -> Vec<String> {
        self.inner.apps()
    }

    fn default_app(&self) -> &str {
        self.inner.default_app()
    }

    fn instantiate(&self, request: &TargetRequest) -> Result<TargetInstance, BuildError> {
        let TargetInstance { target, policy } = self.inner.instantiate(request)?;
        Ok(TargetInstance {
            target: Box::new(ProbedTarget {
                inner: target,
                probe: Arc::clone(&self.probe),
            }),
            policy,
        })
    }
}

/// The built-in targets, each behind a [`ProbedFactory`] sharing `probe`,
/// registered under their own keywords in an empty registry.
pub fn probed_registry(probe: &Arc<Probe>) -> TargetRegistry {
    let mut registry = TargetRegistry::empty();
    for factory in TargetRegistry::builtin().factories() {
        registry
            .register(Arc::new(ProbedFactory {
                inner: Arc::clone(factory),
                probe: Arc::clone(probe),
            }))
            .expect("built-in keywords are unique");
    }
    registry
}
