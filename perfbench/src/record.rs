//! What a pass records while its operations run.
//!
//! Untraced passes attach a [`Log`] that keeps two facts per operation:
//! the start of the first FI trial (which ends the operation's set-up)
//! and the GA's fitness-cache hits. Traced passes also keep every event
//! with its arrival time, which [`split`] uses to cut one call into the
//! layers it spans. Nothing is written until the run ends.

use peppa_x::obs::{Event, Observer};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Observer of one operation's event stream.
pub struct Log {
    full: bool,
    inner: Mutex<Seen>,
}

/// What a [`Log`] saw since it was last drained.
#[derive(Default)]
pub struct Seen {
    /// Start of the first trial: arrival of the first `TrialFinished`
    /// minus that trial's own latency.
    pub first_trial: Option<Instant>,
    /// Fitness-cache hits reported by the last `GenerationFinished`.
    pub cache_hits: u64,
    /// Every event with its arrival time (traced passes only).
    pub events: Vec<(Instant, Event)>,
}

impl Log {
    pub fn new(traced: bool) -> Log {
        Log {
            full: traced,
            inner: Mutex::new(Seen::default()),
        }
    }

    /// Returns what was seen and starts over.
    pub fn drain(&self) -> Seen {
        std::mem::take(&mut *self.inner.lock().expect("log lock poisoned"))
    }
}

impl Observer for Log {
    fn on_event(&self, event: &Event) {
        let now = Instant::now();
        let mut seen = self.inner.lock().expect("log lock poisoned");
        match event {
            Event::TrialFinished { latency_ns, .. } if seen.first_trial.is_none() => {
                seen.first_trial = Some(now - Duration::from_nanos(*latency_ns));
            }
            Event::GenerationFinished { cache_hits, .. } => seen.cache_hits = *cache_hits,
            _ => {}
        }
        if self.full {
            seen.events.push((now, event.clone()));
        }
    }
}

/// A call from the benchmark into one layer of the program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Call {
    /// MiniC source to PIR (`lang`).
    Compile,
    /// `-O2` rewrite pipeline (`analysis`).
    Optimize,
    /// `FaultReach::analyze` (`analysis`).
    Reach,
    /// Deviation analysis of the campaign's input, unioned with reach
    /// (`analysis`).
    Deviation,
    /// A campaign call: golden run, optional snapshot capture, trials.
    Campaign { snapshots: bool },
    /// Small-input fuzzing (`core`).
    SmallInput,
    /// SDC-sensitivity distribution FI (`core`).
    Distribution,
    /// `PeppaX::search_observed`: GA, then the final FI campaign.
    Search,
}

/// One timed call of an operation.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub call: Call,
    pub start: Instant,
    pub end: Instant,
}

/// Times `f` as one call.
pub fn timed<T>(calls: &mut Vec<Timed>, call: Call, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    calls.push(Timed {
        call,
        start,
        end: Instant::now(),
    });
    out
}

/// Cuts a call into layer segments `(span name, start, end)`. Calls
/// that span several layers are split at the arrival of the public
/// events that mark the boundaries: `GoldenRun` and the first trial's
/// start for campaigns, `SearchFinished` for searches. The segments of
/// one call tile its interval exactly.
pub fn split(t: &Timed, seen: &Seen) -> Vec<(&'static str, Instant, Instant)> {
    let within = |at: Instant| at.clamp(t.start, t.end);
    let first = |pred: &dyn Fn(&Event) -> bool| {
        seen.events
            .iter()
            .find(|(at, e)| *at >= t.start && *at <= t.end && pred(e))
            .map(|(at, _)| within(*at))
    };
    match t.call {
        Call::Compile => vec![("lang.compile", t.start, t.end)],
        Call::Optimize => vec![("analysis.opt", t.start, t.end)],
        Call::Reach => vec![("analysis.reach", t.start, t.end)],
        Call::Deviation => vec![("analysis.deviation", t.start, t.end)],
        Call::SmallInput => vec![("core.small_input", t.start, t.end)],
        Call::Distribution => vec![("core.distribution", t.start, t.end)],
        Call::Campaign { snapshots } => {
            let golden = first(&|e| matches!(e, Event::GoldenRun { .. })).unwrap_or(t.start);
            let trials = seen.first_trial.map(within).unwrap_or(t.end).max(golden);
            // Between the golden run and the first trial a snapshotted
            // campaign plans fork points, captures and computes its
            // convergence masks; a plain one only sets up its trial loop.
            let gap = if snapshots {
                "vm.capture"
            } else {
                "inject.trials"
            };
            vec![
                ("vm.golden", t.start, golden),
                (gap, golden, trials),
                ("inject.trials", trials, t.end),
            ]
        }
        Call::Search => {
            let done = first(&|e| matches!(e, Event::SearchFinished { .. })).unwrap_or(t.end);
            vec![
                ("ga.search", t.start, done),
                ("inject.final_fi", done, t.end),
            ]
        }
    }
}
