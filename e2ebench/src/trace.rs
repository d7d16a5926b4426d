//! Spans of a traced session run, built from outside the program.
//!
//! The main thread sees three kinds of moments: each call of the
//! `run_with_until` stop check (one per wave boundary), each call into
//! the store's sink (wrapped by [`TracedSink`]), and the start and end of
//! the run. The worker threads add one [`CallSpan`] per target call. From
//! these, [`SessionTrace::derive`] builds the span tree
//!
//! ```text
//! core.session
//! ├── store.sink                      (SessionStarted, SessionFinished)
//! └── core.wave                       (stop check → next stop check)
//!     ├── search.propose              (wave start → WaveDispatched)
//!     ├── store.sink                  (every event of the wave)
//!     ├── platform.dispatch           (WaveDispatched → last target return)
//!     │   └── ossim.build | ossim.boot | ossim.bench   (worker threads)
//!     └── search.observe              (last target return → first CandidateEvaluated)
//! ```
//!
//! A span's self time is its duration minus the part of it that its
//! children cover. Worker spans overlap one another, so the evaluation
//! layer is reported twice: as busy time summed over threads, and as the
//! wall time its spans cover inside `platform.dispatch`.

use crate::probe::{CallSpan, Probe};
use std::collections::BTreeMap;
use wf_platform::{EventSink, SessionEvent};

/// One call into the wrapped sink.
#[derive(Clone, Copy, Debug)]
pub struct SinkCall {
    pub kind: &'static str,
    pub start: f64,
    pub end: f64,
}

/// An [`EventSink`] that times every call into the sink it wraps.
pub struct TracedSink<'a> {
    inner: &'a mut dyn EventSink,
    probe: &'a Probe,
    pub calls: Vec<SinkCall>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl<'a> TracedSink<'a> {
    pub fn new(inner: &'a mut dyn EventSink, probe: &'a Probe) -> TracedSink<'a> {
        TracedSink {
            inner,
            probe,
            calls: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }
}

fn event_kind(event: &SessionEvent) -> &'static str {
    match event {
        SessionEvent::SessionStarted { .. } => "session_started",
        SessionEvent::WaveDispatched { .. } => "wave_dispatched",
        SessionEvent::CandidateEvaluated(_) => "candidate",
        SessionEvent::NewBest { .. } => "new_best",
        SessionEvent::DriftDetected { .. } => "drift_detected",
        SessionEvent::EpochStarted { .. } => "epoch_started",
        SessionEvent::WaveCompleted(_) => "wave_completed",
        SessionEvent::CheckpointWritten { .. } => "checkpoint",
        SessionEvent::SessionFinished(_) => "session_finished",
    }
}

impl EventSink for TracedSink<'_> {
    fn on_event(&mut self, event: &SessionEvent) {
        let start = self.probe.now();
        self.inner.on_event(event);
        let end = self.probe.now();
        if let SessionEvent::WaveCompleted(stats) = event {
            self.cache_hits += stats.cache_hits;
            self.cache_misses += stats.cache_misses;
        }
        self.calls.push(SinkCall {
            kind: event_kind(event),
            start,
            end,
        });
    }
}

/// One span: seconds since the probe epoch, the index of its parent in
/// the same list, the wave it belongs to, and the thread that ran it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub wave: Option<usize>,
    pub thread: usize,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The span tree of one traced `run_with_until` call plus the per-layer
/// figures derived from it.
pub struct SessionTrace {
    pub spans: Vec<Span>,
    /// Per-layer figures of this run, keyed by metric name.
    pub layers: BTreeMap<&'static str, f64>,
}

/// What the main thread saw of one traced session run.
pub struct Moments<'a> {
    pub start: f64,
    pub end: f64,
    /// Times of the stop-check calls: one at the start of every wave.
    pub checks: &'a [f64],
    pub sink: &'a [SinkCall],
    /// Target calls made while the run was recorded.
    pub calls: &'a [CallSpan],
    pub thread: usize,
    pub workers: usize,
}

impl SessionTrace {
    /// Builds the span tree and the layer figures. Fails if a wave is
    /// missing one of the moments its spans are cut at.
    pub fn derive(m: &Moments<'_>) -> Result<SessionTrace, String> {
        let mut spans = vec![Span {
            name: "core.session",
            start: m.start,
            end: m.end,
            parent: None,
            wave: None,
            thread: m.thread,
        }];
        let finished_at = m
            .sink
            .iter()
            .find(|c| c.kind == "session_finished")
            .map_or(m.end, |c| c.start);
        let bounds: Vec<(f64, f64)> = m
            .checks
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, m.checks.get(i + 1).copied().unwrap_or(finished_at)))
            .collect();
        let wave_of = |t: f64| bounds.iter().position(|&(s, e)| s <= t && t < e);

        let mut sink_by_wave: Vec<Vec<SinkCall>> = vec![Vec::new(); bounds.len()];
        for call in m.sink {
            match wave_of(call.start) {
                Some(w) => sink_by_wave[w].push(*call),
                None => spans.push(Span {
                    name: "store.sink",
                    start: call.start,
                    end: call.end,
                    parent: Some(0),
                    wave: None,
                    thread: m.thread,
                }),
            }
        }
        let mut calls_by_wave: Vec<Vec<CallSpan>> = vec![Vec::new(); bounds.len()];
        for call in m.calls {
            if let Some(w) = wave_of(call.start) {
                calls_by_wave[w].push(*call);
            }
        }

        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut propose_ms = Vec::new();
        let mut observe_ms = Vec::new();
        let mut overhead_s = 0.0;
        let mut busy_s = 0.0;
        let mut dispatch_s = 0.0;
        for (w, &(start, end)) in bounds.iter().enumerate() {
            let wave_idx = spans.len();
            spans.push(Span {
                name: "core.wave",
                start,
                end,
                parent: Some(0),
                wave: Some(w),
                thread: m.thread,
            });
            let sink = &sink_by_wave[w];
            let dispatched = sink
                .iter()
                .find(|c| c.kind == "wave_dispatched")
                .ok_or_else(|| format!("wave {w}: no WaveDispatched event"))?;
            let evaluated = sink
                .iter()
                .find(|c| c.kind == "candidate")
                .ok_or_else(|| format!("wave {w}: no CandidateEvaluated event"))?;
            let calls: Vec<CallSpan> = calls_by_wave[w]
                .iter()
                .filter(|c| c.start >= dispatched.end && c.end <= evaluated.start)
                .copied()
                .collect();
            if calls.len() != calls_by_wave[w].len() {
                return Err(format!(
                    "wave {w}: a target call ran outside WaveDispatched → CandidateEvaluated"
                ));
            }
            let last_return = calls.iter().map(|c| c.end).fold(dispatched.end, f64::max);
            let mut child = |name, start, end| {
                spans.push(Span {
                    name,
                    start,
                    end,
                    parent: Some(wave_idx),
                    wave: Some(w),
                    thread: m.thread,
                });
                spans.len() - 1
            };
            child("search.propose", start, dispatched.start);
            let dispatch_idx = child("platform.dispatch", dispatched.end, last_return);
            child("search.observe", last_return, evaluated.start);
            for call in sink {
                child("store.sink", call.start, call.end);
            }
            propose_ms.push((dispatched.start - start) * 1e3);
            observe_ms.push((evaluated.start - last_return) * 1e3);

            let mut lane_busy: BTreeMap<usize, f64> = BTreeMap::new();
            for call in &calls {
                *lane_busy.entry(call.thread).or_default() += call.end - call.start;
                spans.push(Span {
                    name: call.kind.span_name(),
                    start: call.start,
                    end: call.end,
                    parent: Some(dispatch_idx),
                    wave: Some(w),
                    thread: call.thread,
                });
            }
            let wall = last_return - dispatched.end;
            let busiest = lane_busy.values().copied().fold(0.0, f64::max);
            overhead_s += wall - busiest;
            busy_s += lane_busy.values().sum::<f64>();
            dispatch_s += wall;
        }

        let own = self_times(&spans);
        let mut add = |key: &'static str, v: f64| *layers.entry(key).or_default() += v;
        for (span, &(self_s, covered_s)) in spans.iter().zip(&own) {
            match span.name {
                "core.session" | "core.wave" => add("core.loop_s", self_s),
                "search.propose" => add("search.propose_s", self_s),
                "search.observe" => add("search.observe_s", self_s),
                "store.sink" => {
                    add("store.sink_s", self_s);
                    add("store.sink_events", 1.0);
                }
                "platform.dispatch" => {
                    add("platform.dispatch_self_s", self_s);
                    add("ossim.wall_s", covered_s);
                }
                "ossim.build" => add("ossim.build_s", span.duration()),
                "ossim.boot" => add("ossim.boot_s", span.duration()),
                "ossim.bench" => add("ossim.bench_s", span.duration()),
                _ => {}
            }
        }
        let session_s = m.end - m.start;
        let attributed: f64 = [
            "core.loop_s",
            "search.propose_s",
            "search.observe_s",
            "store.sink_s",
            "platform.dispatch_self_s",
            "ossim.wall_s",
        ]
        .iter()
        .map(|k| layers.get(k).copied().unwrap_or(0.0))
        .sum();
        layers.insert("session_s", session_s);
        layers.insert("trace.remainder_s", session_s - attributed);
        layers.insert(
            "search.propose_p90_ms",
            crate::stats::percentile(&propose_ms, 0.9),
        );
        layers.insert(
            "search.observe_p90_ms",
            crate::stats::percentile(&observe_ms, 0.9),
        );
        layers.insert("platform.dispatch_s", dispatch_s);
        layers.insert("platform.dispatch_overhead_s", overhead_s);
        layers.insert(
            "platform.lane_busy_ratio",
            busy_s / (m.workers as f64 * dispatch_s).max(f64::MIN_POSITIVE),
        );
        Ok(SessionTrace { spans, layers })
    }
}

/// Per span: (self time, time its children cover). Children are clipped
/// to their parent and overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<(f64, f64)> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (s, e) = (span.start.max(parent.start), span.end.min(parent.end));
            if e > s {
                children[p].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut current: Option<(f64, f64)> = None;
            for &(s, e) in kids.iter() {
                match current {
                    Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        covered += ce - cs;
                        current = Some((s, e));
                    }
                    None => current = Some((s, e)),
                }
            }
            if let Some((cs, ce)) = current {
                covered += ce - cs;
            }
            (span.duration() - covered, covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            wave: None,
            thread: 0,
        }
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("p", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 2.0, 5.0, Some(0)),
            span("c", 7.0, 12.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert!((own[0].1 - 7.0).abs() < 1e-12, "covered {}", own[0].1);
        assert!((own[0].0 - 3.0).abs() < 1e-12, "self {}", own[0].0);
        assert_eq!(own[1], (3.0, 0.0));
    }
}
