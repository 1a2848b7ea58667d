//! `acme-obs`: the sim-time flight recorder and the harness's one side
//! channel.
//!
//! Every simulation in this workspace runs end-to-end and emits only final
//! tables; the only debugging tool has been diffing stdout. This crate adds
//! structured, machine-readable telemetry *in simulated time*: spans
//! (enter/exit at simulated seconds), instant events, and counters,
//! recorded into per-site buffers and exported as Chrome trace-event JSON
//! (viewable in Perfetto / `chrome://tracing`) plus a compact
//! line-oriented journal.
//!
//! # The overhead contract
//!
//! Recording sits behind [`Rec`], a `Copy`-free wrapper around
//! `Option<&mut Recorder>`. Every recording method is `#[inline]` and
//! begins with a `None` check, so the disabled path compiles down to a
//! branch on a register — no allocation, no formatting, no thread-local
//! access. Callers pass argument lists as stack slices (`&[(&str,
//! ArgValue)]`); they are copied into owned storage only when recording is
//! actually on. `repro all` without `--trace` must produce byte-identical
//! stdout and indistinguishable wall time — CI's bench gate pins this.
//!
//! A recording is an export only: no experiment reads its numbers back
//! out of one. What a report prints comes from the simulation's own
//! outcome types, which carry their accounting whether or not a recorder
//! is attached, so an untraced run builds no [`Recorder`] at all.
//!
//! # The tally
//!
//! Everything an experiment reports beside its text — trace chunks
//! ([`deposit`]), shard wall times, and the event-queue and flow counters
//! that code below this crate deposits in `acme_sim_core::stats` —
//! accumulates on the thread that produced it. [`take`] drains all of it
//! as one [`Tally`] and [`absorb`] deposits a tally on the calling thread.
//! The worker pool takes each task's tally on its worker and absorbs them
//! on the caller **in task order**, and the runner takes one tally per
//! experiment.
//!
//! # Determinism
//!
//! Events carry simulated timestamps, never wall-clock ones, so a recording
//! is a pure function of the experiment seed. Sharded experiments record
//! through [`recorded`], one [`Recorder`] per shard deposited as a
//! [`TraceChunk`]; because tallies travel in task order, the exported files are
//! byte-identical across reruns and any `--jobs` value, like stdout.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::time::Duration;

use acme_sim_core::stats::{self, Counters};

/// One argument value attached to a trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Floating-point argument (rendered with fixed precision).
    F64(f64),
    /// Static string argument.
    Str(&'static str),
}

/// Chrome trace-event phase of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span enter (`ph: "B"`).
    Begin,
    /// Span exit (`ph: "E"`).
    End,
    /// Instant event (`ph: "i"`).
    Instant,
    /// Counter sample (`ph: "C"`).
    Counter,
}

impl Phase {
    fn ph(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Instant => 'i',
            Phase::Counter => 'C',
        }
    }
}

/// One recorded event, timestamped in simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event, seconds.
    pub ts_secs: f64,
    /// Event phase.
    pub phase: Phase,
    /// Event name (span name, instant name, or counter name).
    pub name: String,
    /// Category tag (e.g. a `FailureCategory` label).
    pub cat: &'static str,
    /// Key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// An in-memory event buffer — the recording side of the flight recorder.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Vec<TraceEvent>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder { events: Vec::new() }
    }

    /// The recorded events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Convert into a labelled chunk for [`deposit`].
    pub fn into_chunk(self, label: impl Into<String>) -> TraceChunk {
        TraceChunk {
            label: label.into(),
            events: self.events,
        }
    }
}

/// The zero-overhead handle instrumented code records through.
///
/// `Rec(None)` is "tracing off": every method is `#[inline]` and returns
/// immediately, so instrumentation costs one predictable branch. Borrow it
/// down call chains with [`Rec::borrow`].
#[derive(Debug, Default)]
pub struct Rec<'a>(pub Option<&'a mut Recorder>);

impl<'a> Rec<'a> {
    /// A disabled handle: every recording call is a no-op.
    pub fn off() -> Rec<'static> {
        Rec(None)
    }

    /// A handle recording into `r`.
    pub fn on(r: &'a mut Recorder) -> Rec<'a> {
        Rec(Some(r))
    }

    /// Reborrow for a sub-call without giving the handle up.
    #[inline]
    pub fn borrow(&mut self) -> Rec<'_> {
        Rec(self.0.as_deref_mut())
    }

    /// True when events are actually being recorded — guard any expensive
    /// argument preparation with this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    #[inline]
    fn push(
        &mut self,
        ts_secs: f64,
        phase: Phase,
        name: &str,
        cat: &'static str,
        args: &[(&'static str, ArgValue)],
    ) {
        if let Some(r) = self.0.as_deref_mut() {
            r.events.push(TraceEvent {
                ts_secs,
                phase,
                name: name.to_owned(),
                cat,
                args: args.to_vec(),
            });
        }
    }

    /// Enter a span at `ts_secs` simulated seconds.
    #[inline]
    pub fn begin(
        &mut self,
        ts_secs: f64,
        name: &str,
        cat: &'static str,
        args: &[(&'static str, ArgValue)],
    ) {
        self.push(ts_secs, Phase::Begin, name, cat, args);
    }

    /// Exit the innermost open span at `ts_secs`.
    #[inline]
    pub fn end(&mut self, ts_secs: f64, name: &str) {
        self.push(ts_secs, Phase::End, name, "", &[]);
    }

    /// Record an instant event.
    #[inline]
    pub fn instant(
        &mut self,
        ts_secs: f64,
        name: &str,
        cat: &'static str,
        args: &[(&'static str, ArgValue)],
    ) {
        self.push(ts_secs, Phase::Instant, name, cat, args);
    }

    /// Record a counter sample.
    #[inline]
    pub fn counter(&mut self, ts_secs: f64, name: &str, value: u64) {
        self.push(
            ts_secs,
            Phase::Counter,
            name,
            "",
            &[("value", ArgValue::U64(value))],
        );
    }
}

/// A finished, labelled event buffer: one per instrumented shard or arm.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceChunk {
    /// Chunk label, unique within its experiment (`arm/naive-restart`,
    /// `fleet/0..15625`, …). Becomes the Perfetto thread name.
    pub label: String,
    /// The recorded events.
    pub events: Vec<TraceEvent>,
}

/// Wall time of one named shard, for `--timings-json`.
#[derive(Debug, Clone)]
pub struct ShardTiming {
    /// Shard label, unique within its experiment (`arm/naive-restart`,
    /// `cdf/duration/Seren`, …).
    pub label: String,
    /// Wall-clock time the shard spent on its worker.
    pub wall: Duration,
}

/// Everything deposited on one thread since the last [`take`], in deposit
/// order.
#[derive(Debug, Default)]
pub struct Tally {
    /// Trace chunks.
    pub chunks: Vec<TraceChunk>,
    /// Shard wall times.
    pub shards: Vec<ShardTiming>,
    /// Event-queue and flow counters.
    pub counters: Counters,
}

thread_local! {
    /// Chunks and shard timings deposited on this thread since the last
    /// [`take`]; the counters live in sim-core's cell. Keyed per thread so
    /// concurrent experiments on different workers never mix their
    /// deposits up.
    static PENDING: RefCell<(Vec<TraceChunk>, Vec<ShardTiming>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Deposit a finished chunk on the calling thread.
pub fn deposit(chunk: TraceChunk) {
    PENDING.with_borrow_mut(|(chunks, _)| chunks.push(chunk));
}

/// Run `f` with a recording handle. With `trace` on, `f` records into a
/// fresh [`Recorder`] that is then [`deposit`]ed as the chunk `label`;
/// with it off, `f` gets [`Rec::off`] and nothing is recorded or
/// deposited. Either way `f`'s result is returned as is.
pub fn recorded<T>(trace: bool, label: impl Into<String>, f: impl FnOnce(&mut Rec<'_>) -> T) -> T {
    if !trace {
        return f(&mut Rec::off());
    }
    let mut r = Recorder::new();
    let out = f(&mut Rec::on(&mut r));
    deposit(r.into_chunk(label));
    out
}

/// Drain everything deposited on the calling thread.
pub fn take() -> Tally {
    let (chunks, shards) = PENDING.take();
    Tally {
        chunks,
        shards,
        counters: stats::take(),
    }
}

/// Deposit `tally` on the calling thread, after what is already there.
pub fn absorb(tally: Tally) {
    PENDING.with_borrow_mut(|(chunks, shards)| {
        chunks.extend(tally.chunks);
        shards.extend(tally.shards);
    });
    stats::absorb(tally.counters);
}

/// One Perfetto "process": an experiment and its chunks (one "thread" per
/// chunk).
#[derive(Debug, Clone)]
pub struct TraceProcess {
    /// Process name — the experiment id.
    pub name: String,
    /// The experiment's chunks, in shard order.
    pub chunks: Vec<TraceChunk>,
}

fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn render_args(args: &[(&'static str, ArgValue)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        escape_json(k, out);
        out.push_str("\": ");
        match v {
            ArgValue::U64(n) => out.push_str(&n.to_string()),
            ArgValue::F64(x) => out.push_str(&format!("{x:.3}")),
            ArgValue::Str(s) => {
                out.push('"');
                escape_json(s, out);
                out.push('"');
            }
        }
    }
    out.push('}');
}

/// Render processes as Chrome trace-event JSON (the "JSON Array Format"
/// wrapped in an object, as Perfetto and `chrome://tracing` both accept).
/// Timestamps are microseconds with fixed 3-decimal precision, so the
/// output is byte-deterministic.
pub fn chrome_trace_json(procs: &[TraceProcess]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut push_line = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    for (pid, p) in procs.iter().enumerate() {
        let mut meta = format!(
            "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {{\"name\": \""
        );
        escape_json(&p.name, &mut meta);
        meta.push_str("\"}}");
        push_line(meta, &mut out);
        for (tid, chunk) in p.chunks.iter().enumerate() {
            let mut meta = format!(
                "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
                 \"name\": \"thread_name\", \"args\": {{\"name\": \""
            );
            escape_json(&chunk.label, &mut meta);
            meta.push_str("\"}}");
            push_line(meta, &mut out);
            for ev in &chunk.events {
                let mut line = format!(
                    "{{\"ph\": \"{}\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {:.3}, \
                     \"name\": \"",
                    ev.phase.ph(),
                    ev.ts_secs * 1e6,
                );
                escape_json(&ev.name, &mut line);
                line.push('"');
                if !ev.cat.is_empty() {
                    line.push_str(", \"cat\": \"");
                    escape_json(ev.cat, &mut line);
                    line.push('"');
                }
                if ev.phase == Phase::Instant {
                    line.push_str(", \"s\": \"t\"");
                }
                if !ev.args.is_empty() {
                    line.push_str(", \"args\": ");
                    render_args(&ev.args, &mut line);
                }
                line.push('}');
                push_line(line, &mut out);
            }
        }
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// Render processes as the compact journal: one line per event,
/// `<process>/<chunk> <ts-secs> <phase> <name> [cat] [k=v ...]`, in the
/// same deterministic order as the Chrome export. This is the replayable
/// record the campaign-server roadmap item wants: trivially diffable and
/// greppable.
pub fn journal(procs: &[TraceProcess]) -> String {
    let mut out = String::new();
    for p in procs {
        for chunk in &p.chunks {
            for ev in &chunk.events {
                out.push_str(&format!(
                    "{}/{} {:.6} {} {}",
                    p.name,
                    chunk.label,
                    ev.ts_secs,
                    ev.phase.ph(),
                    ev.name
                ));
                if !ev.cat.is_empty() {
                    out.push_str(&format!(" [{}]", ev.cat));
                }
                for (k, v) in &ev.args {
                    match v {
                        ArgValue::U64(n) => out.push_str(&format!(" {k}={n}")),
                        ArgValue::F64(x) => out.push_str(&format!(" {k}={x:.3}")),
                        ArgValue::Str(s) => out.push_str(&format!(" {k}={s}")),
                    }
                }
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceProcess> {
        let mut r = Recorder::new();
        let mut rec = Rec::on(&mut r);
        rec.begin(
            1.0,
            "incident",
            "Infrastructure",
            &[("node", ArgValue::U64(3))],
        );
        rec.instant(
            1.5,
            "detect",
            "Infrastructure",
            &[("lost_secs", ArgValue::F64(120.0))],
        );
        rec.counter(2.0, "queue_depth", 17);
        rec.end(2.5, "incident");
        vec![TraceProcess {
            name: "storm".to_owned(),
            chunks: vec![r.into_chunk("arm/full")],
        }]
    }

    #[test]
    fn disabled_rec_records_nothing() {
        let mut rec = Rec::off();
        rec.begin(1.0, "x", "c", &[]);
        rec.instant(2.0, "y", "c", &[("k", ArgValue::U64(1))]);
        rec.counter(3.0, "z", 9);
        rec.end(4.0, "x");
        assert!(!rec.enabled());
    }

    #[test]
    fn recorder_keeps_order_and_reborrows() {
        let mut r = Recorder::new();
        let mut rec = Rec::on(&mut r);
        rec.begin(0.5, "a", "c", &[]);
        {
            let mut sub = rec.borrow();
            sub.instant(0.75, "b", "c", &[]);
        }
        rec.end(1.0, "a");
        assert!(rec.enabled());
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.events()[0].phase, Phase::Begin);
        assert_eq!(r.events()[1].name, "b");
        assert_eq!(r.events()[2].phase, Phase::End);
    }

    #[test]
    fn recorded_deposits_only_when_tracing() {
        take(); // isolate from deposits earlier on this thread
        let run = |rec: &mut Rec<'_>| {
            rec.instant(1.0, "x", "c", &[]);
            rec.enabled()
        };
        assert!(!recorded(false, "off", run));
        assert!(take().chunks.is_empty(), "tracing off deposits nothing");
        assert!(recorded(true, "on", run));
        let chunks = take().chunks;
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].label, "on");
        assert_eq!(chunks[0].events[0].name, "x");
    }

    #[test]
    fn take_and_absorb_keep_deposit_order() {
        take(); // isolate from deposits earlier on this thread
        let timing = |label: &str| ShardTiming {
            label: label.to_owned(),
            wall: Duration::from_millis(1),
        };
        deposit(Recorder::new().into_chunk("c0"));
        absorb(Tally {
            chunks: vec![Recorder::new().into_chunk("c1")],
            shards: vec![timing("s0")],
            counters: Counters {
                queue: stats::QueueStats {
                    schedules: 3,
                    pops: 2,
                    max_depth: 1,
                },
                ..Counters::ZERO
            },
        });
        deposit(Recorder::new().into_chunk("c2"));
        absorb(Tally {
            shards: vec![timing("s1")],
            ..Tally::default()
        });
        let got = take();
        let chunks: Vec<&str> = got.chunks.iter().map(|c| c.label.as_str()).collect();
        let shards: Vec<&str> = got.shards.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(chunks, ["c0", "c1", "c2"]);
        assert_eq!(shards, ["s0", "s1"]);
        assert_eq!(got.counters.queue.pops, 2);
        let empty = take();
        assert!(
            empty.chunks.is_empty() && empty.shards.is_empty(),
            "take drains"
        );
        assert_eq!(empty.counters, Counters::ZERO);
    }

    #[test]
    fn chrome_export_is_valid_and_deterministic() {
        let procs = sample();
        let a = chrome_trace_json(&procs);
        let b = chrome_trace_json(&procs);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\": [\n"));
        assert!(a.ends_with("], \"displayTimeUnit\": \"ms\"}\n"));
        // Metadata rows name the process and thread tracks.
        assert!(a.contains("\"process_name\", \"args\": {\"name\": \"storm\"}"));
        assert!(a.contains("\"thread_name\", \"args\": {\"name\": \"arm/full\"}"));
        // Timestamps are microseconds.
        assert!(a.contains("\"ts\": 1000000.000"));
        assert!(a.contains("\"ph\": \"B\""));
        assert!(a.contains("\"ph\": \"E\""));
        assert!(a.contains("\"ph\": \"i\""));
        assert!(a.contains("\"ph\": \"C\""));
        // Balanced structure (crude but effective for hand-rolled JSON).
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn journal_is_one_line_per_event() {
        let procs = sample();
        let j = journal(&procs);
        assert_eq!(j.lines().count(), 4);
        assert!(j.starts_with("storm/arm/full 1.000000 B incident [Infrastructure] node=3\n"));
        assert!(j.contains("storm/arm/full 1.500000 i detect [Infrastructure] lost_secs=120.000\n"));
        assert!(j.contains("storm/arm/full 2.000000 C queue_depth value=17\n"));
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut r = Recorder::new();
        Rec::on(&mut r).instant(0.0, "we\"ird\\name", "", &[]);
        let procs = vec![TraceProcess {
            name: "p".to_owned(),
            chunks: vec![r.into_chunk("l")],
        }];
        let out = chrome_trace_json(&procs);
        assert!(out.contains("we\\\"ird\\\\name"));
    }
}
