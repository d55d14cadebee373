//! Hierarchical trace timelines: nested spans, per-thread tracks,
//! counter tracks, and flow events, exported as Chrome trace-event JSON
//! (loadable at `ui.perfetto.dev`).
//!
//! The tracer is the workspace's one span mechanism: it answers "how
//! much time went to phase X?", "where *inside* an epoch did the time
//! go, on which worker?", and "which warning caused which throttle?":
//!
//! * a [`Tracer`] owns the shared clock and collects everything the
//!   per-thread [`TraceTrack`] handles record;
//! * spans nest through an explicit per-track stack —
//!   [`TraceTrack::begin`] returns a [`SpanToken`] that
//!   [`TraceTrack::end`] checks, so unbalanced instrumentation panics
//!   instead of silently producing a garbage timeline;
//! * [`TraceTrack::counter`] samples numeric series (peak DRAM
//!   temperature, PIM token pool, warp cap) as Chrome `C` events;
//! * [`TraceTrack::flow_start`] / [`TraceTrack::flow_finish`] link a
//!   `ThermalWarningRaised` `warning_id` to its downstream throttle
//!   spans as Chrome `s`/`f` flow arrows;
//! * [`Tracer::to_chrome_json`] exports the whole run,
//!   [`validate_trace_json`] checks an exported file in-tree, and
//!   [`Tracer::profile`] folds the span forest into a hierarchical
//!   self/total-time tree ([`TraceProfile`]) with critical-path
//!   extraction.
//!
//! Every tracer operation measures its own wall cost; the accumulated
//! self time ([`Tracer::self_s`], [`TraceTrack::self_s`]) feeds the
//! run's `telemetry_overhead_pct` budget so the instrument can never
//! silently become the bottleneck it is looking for.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::escape;
pub use crate::json::{parse_json, JsonValue};

/// The single Chrome trace "process" id all tracks live under.
const PID: u64 = 1;

/// Slack (µs) allowed when re-checking slice containment from exported
/// timestamps: internal nanosecond times are exact, but µs floats sum
/// with rounding.
const NEST_EPS_US: f64 = 0.005;

#[derive(Debug, Clone)]
enum Ev {
    /// A completed span (Chrome `X`): `[ts_ns, ts_ns + dur_ns)`.
    Span {
        name: &'static str,
        tid: u64,
        ts_ns: u64,
        dur_ns: u64,
    },
    /// A counter sample (Chrome `C`).
    Counter {
        name: &'static str,
        tid: u64,
        ts_ns: u64,
        value: f64,
    },
    /// A flow endpoint (Chrome `s` when `start`, else `f` with
    /// `"bp":"e"` so the arrow binds to the enclosing slice).
    Flow {
        name: &'static str,
        tid: u64,
        ts_ns: u64,
        id: u64,
        start: bool,
    },
}

#[derive(Default)]
struct Flushed {
    /// `(tid, name)` in registration order.
    tracks: Vec<(u64, String)>,
    events: Vec<Ev>,
}

struct Shared {
    /// Wall-clock zero of the trace.
    start: Instant,
    /// Deterministic test clock (ns); `None` means wall time.
    manual_ns: Option<AtomicU64>,
    next_tid: AtomicU64,
    /// Accumulated tracer self-cost (ns) flushed from finished tracks.
    self_ns: AtomicU64,
    flushed: Mutex<Flushed>,
}

/// Owner of one run's trace: hands out per-thread [`TraceTrack`]s and
/// exports/analyzes what they recorded. Cheap to clone (an `Arc`).
#[derive(Clone)]
pub struct Tracer {
    shared: Arc<Shared>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A wall-clock tracer; time zero is now.
    pub fn new() -> Self {
        Self::with_clock(None)
    }

    /// A tracer on a deterministic manual clock starting at 0 ns —
    /// golden-file tests advance it explicitly via
    /// [`Self::advance_manual_ns`] so exported timestamps are stable.
    pub fn manual() -> Self {
        Self::with_clock(Some(AtomicU64::new(0)))
    }

    fn with_clock(manual_ns: Option<AtomicU64>) -> Self {
        Self {
            shared: Arc::new(Shared {
                start: Instant::now(),
                manual_ns,
                next_tid: AtomicU64::new(1),
                self_ns: AtomicU64::new(0),
                flushed: Mutex::new(Flushed::default()),
            }),
        }
    }

    /// Advances the manual clock (no-op on a wall-clock tracer).
    pub fn advance_manual_ns(&self, ns: u64) {
        if let Some(c) = &self.shared.manual_ns {
            c.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Opens a new named track (one Perfetto "thread" row). Tracks are
    /// usually one per OS thread, but any sequential event source (the
    /// GPU engine, the cube) can own one.
    pub fn track(&self, name: &str) -> TraceTrack {
        let tid = self.shared.next_tid.fetch_add(1, Ordering::Relaxed);
        self.shared
            .flushed
            .lock()
            .expect("tracer poisoned")
            .tracks
            .push((tid, name.to_string()));
        TraceTrack {
            shared: Arc::clone(&self.shared),
            tid,
            local: Vec::new(),
            stack: Vec::new(),
            self_ns: 0,
            flushed_self_ns: 0,
        }
    }

    /// Total tracer self-cost (s) flushed so far.
    pub fn self_s(&self) -> f64 {
        self.shared.self_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Number of events flushed so far.
    pub fn event_count(&self) -> usize {
        self.shared
            .flushed
            .lock()
            .expect("tracer poisoned")
            .events
            .len()
    }

    /// Exports every flushed track as one Chrome trace-event JSON
    /// document (`{"traceEvents":[...]}`); timestamps are µs from the
    /// trace start. Drop or [`TraceTrack::flush`] the tracks first.
    pub fn to_chrome_json(&self) -> String {
        let g = self.shared.flushed.lock().expect("tracer poisoned");
        let mut out = String::with_capacity(64 + g.events.len() * 96);
        out.push_str("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"name\":\"process_name\",\"args\":{{\"name\":\"coolpim\"}}}}"
        ));
        for (tid, name) in &g.tracks {
            out.push_str(&format!(
                ",\n{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            ));
            out.push_str(&format!(
                ",\n{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{tid}}}}}"
            ));
        }
        for ev in &g.events {
            out.push_str(",\n");
            match *ev {
                Ev::Span {
                    name,
                    tid,
                    ts_ns,
                    dur_ns,
                } => out.push_str(&format!(
                    "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"sim\"}}",
                    us(ts_ns),
                    us(dur_ns),
                    escape(name)
                )),
                Ev::Counter {
                    name,
                    tid,
                    ts_ns,
                    value,
                } => out.push_str(&format!(
                    "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{tid},\"ts\":{},\"name\":\"{}\",\"args\":{{\"value\":{}}}}}",
                    us(ts_ns),
                    escape(name),
                    if value.is_finite() { format!("{value}") } else { "null".into() }
                )),
                Ev::Flow {
                    name,
                    tid,
                    ts_ns,
                    id,
                    start,
                } => {
                    let (ph, bp) = if start { ("s", "") } else { ("f", ",\"bp\":\"e\"") };
                    out.push_str(&format!(
                        "{{\"ph\":\"{ph}\"{bp},\"pid\":{PID},\"tid\":{tid},\"ts\":{},\"id\":{id},\"name\":\"{}\",\"cat\":\"flow\"}}",
                        us(ts_ns),
                        escape(name)
                    ));
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Folds the flushed span forest into a hierarchical self/total-time
    /// tree aggregated by span path across all tracks.
    pub fn profile(&self) -> TraceProfile {
        let g = self.shared.flushed.lock().expect("tracer poisoned");
        build_profile(&g.events)
    }
}

/// A ns timestamp as a µs JSON number.
fn us(ns: u64) -> String {
    format!("{}", ns as f64 / 1000.0)
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
}

/// Proof that a span is open; consumed by [`TraceTrack::end`]. The
/// token is deliberately not `Clone`/`Copy` — one `begin`, one `end`.
#[derive(Debug)]
#[must_use = "an unconsumed span token means a span is never closed"]
pub struct SpanToken {
    depth: usize,
    name: &'static str,
}

/// One track of the timeline (a Perfetto "thread" row): spans recorded
/// here nest through this track's own stack, independent of every other
/// track. Created by [`Tracer::track`]; buffered events reach the
/// tracer on [`Self::flush`] or drop.
pub struct TraceTrack {
    shared: Arc<Shared>,
    tid: u64,
    local: Vec<Ev>,
    stack: Vec<Open>,
    /// This track's own tracer cost over its lifetime (ns).
    self_ns: u64,
    /// The part of `self_ns` already added to the tracer-wide total.
    flushed_self_ns: u64,
}

impl TraceTrack {
    /// Opens a nested span; close it with [`Self::end`] (innermost
    /// first — closing out of order panics).
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanToken {
        let t0 = Instant::now();
        let ts = self.now_at(t0);
        self.stack.push(Open { name, start_ns: ts });
        let tok = SpanToken {
            depth: self.stack.len(),
            name,
        };
        self.self_ns += t0.elapsed().as_nanos() as u64;
        tok
    }

    /// Closes the innermost open span, which must be the one `token`
    /// came from.
    ///
    /// # Panics
    /// If no span is open, or `token` is not the innermost open span —
    /// a mismatch means the instrumentation around some phase is
    /// unbalanced and the whole timeline would be garbage.
    #[inline]
    pub fn end(&mut self, token: SpanToken) {
        let t0 = Instant::now();
        let ts = self.now_at(t0);
        let open = self.stack.pop().unwrap_or_else(|| {
            panic!(
                "trace track {}: end({:?}) with no span open",
                self.tid, token.name
            )
        });
        assert!(
            token.depth == self.stack.len() + 1 && open.name == token.name,
            "trace track {}: unbalanced span end — token for {:?} (depth {}) but innermost open span is {:?} (depth {})",
            self.tid,
            token.name,
            token.depth,
            open.name,
            self.stack.len() + 1
        );
        self.local.push(Ev::Span {
            name: open.name,
            tid: self.tid,
            ts_ns: open.start_ns,
            dur_ns: ts.saturating_sub(open.start_ns),
        });
        self.self_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Times a closure as one nested span.
    pub fn scoped<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let tok = self.begin(name);
        let r = f(self);
        self.end(tok);
        r
    }

    /// Records a counter sample (one point of a Perfetto counter track).
    #[inline]
    pub fn counter(&mut self, name: &'static str, value: f64) {
        let t0 = Instant::now();
        let ts = self.now_at(t0);
        self.local.push(Ev::Counter {
            name,
            tid: self.tid,
            ts_ns: ts,
            value,
        });
        self.self_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Starts flow `id` here (inside the currently open span).
    #[inline]
    pub fn flow_start(&mut self, name: &'static str, id: u64) {
        self.flow(name, id, true);
    }

    /// Finishes flow `id` here, drawing the arrow from wherever
    /// [`Self::flow_start`] ran with the same id.
    #[inline]
    pub fn flow_finish(&mut self, name: &'static str, id: u64) {
        self.flow(name, id, false);
    }

    fn flow(&mut self, name: &'static str, id: u64, start: bool) {
        let t0 = Instant::now();
        let ts = self.now_at(t0);
        self.local.push(Ev::Flow {
            name,
            tid: self.tid,
            ts_ns: ts,
            id,
            start,
        });
        self.self_ns += t0.elapsed().as_nanos() as u64;
    }

    fn now_at(&self, wall: Instant) -> u64 {
        match &self.shared.manual_ns {
            Some(c) => c.load(Ordering::Relaxed),
            None => wall.duration_since(self.shared.start).as_nanos() as u64,
        }
    }

    /// This track's own tracer cost so far (s), flushed or not — other
    /// tracks on the same tracer are not included. Feeds
    /// `telemetry_overhead_pct`.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }

    /// The span tree of the events buffered on this track since its last
    /// flush (see [`Tracer::profile`] for the tracer-wide tree).
    pub fn profile(&self) -> TraceProfile {
        build_profile(&self.local)
    }

    /// Pushes buffered events to the tracer (also happens on drop).
    ///
    /// # Panics
    /// If spans are still open — flushing mid-span would tear slices.
    pub fn flush(&mut self) {
        assert!(
            self.stack.is_empty(),
            "trace track {}: flush with {} span(s) still open (innermost {:?})",
            self.tid,
            self.stack.len(),
            self.stack.last().map(|o| o.name)
        );
        let unflushed_ns = self.self_ns - self.flushed_self_ns;
        if self.local.is_empty() && unflushed_ns == 0 {
            return;
        }
        let mut g = self.shared.flushed.lock().expect("tracer poisoned");
        g.events.append(&mut self.local);
        self.shared
            .self_ns
            .fetch_add(unflushed_ns, Ordering::Relaxed);
        self.flushed_self_ns = self.self_ns;
    }
}

impl Drop for TraceTrack {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Don't turn an unwinding test into a double panic; salvage
            // what was recorded.
            self.stack.clear();
        }
        self.flush();
    }
}

// ---------------------------------------------------------------------
// Hierarchical profile (self/total tree + critical path)
// ---------------------------------------------------------------------

/// One node of the aggregated span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Span name (one path segment).
    pub name: String,
    /// Accumulated wall time including children (s).
    pub total_s: f64,
    /// Accumulated wall time excluding children (s).
    pub self_s: f64,
    /// Number of slices aggregated into this node.
    pub calls: u64,
    /// Child nodes, sorted by name (deterministic output).
    pub children: Vec<ProfileNode>,
}

/// Hierarchical self/total-time view of a trace, aggregated by span
/// path across all tracks. Built by [`Tracer::profile`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceProfile {
    /// Top-level spans, sorted by name.
    pub roots: Vec<ProfileNode>,
    /// Trace extent: latest span end minus earliest span start (s).
    pub span_s: f64,
    /// Total slices aggregated.
    pub slices: u64,
}

impl TraceProfile {
    /// The heaviest root-to-leaf chain by total time: each step descends
    /// into the child with the largest total. Returns `(name, total_s)`
    /// per level.
    pub fn critical_path(&self) -> Vec<(String, f64)> {
        let mut path = Vec::new();
        let mut level = &self.roots;
        while let Some(n) = level.iter().max_by(|a, b| a.total_s.total_cmp(&b.total_s)) {
            path.push((n.name.clone(), n.total_s));
            level = &n.children;
        }
        path
    }

    /// Flattens the tree to `(path, total_s, self_s, calls)` rows in
    /// depth-first name order; paths join segments with `/`.
    pub fn flatten(&self) -> Vec<(String, f64, f64, u64)> {
        fn walk(prefix: &str, nodes: &[ProfileNode], out: &mut Vec<(String, f64, f64, u64)>) {
            for n in nodes {
                let path = if prefix.is_empty() {
                    n.name.clone()
                } else {
                    format!("{prefix}/{}", n.name)
                };
                out.push((path.clone(), n.total_s, n.self_s, n.calls));
                walk(&path, &n.children, out);
            }
        }
        let mut out = Vec::new();
        walk("", &self.roots, &mut out);
        out
    }

    /// Self time (s) summed over every node named `name`, at any depth.
    pub fn self_s_named(&self, name: &str) -> f64 {
        fn walk(nodes: &[ProfileNode], name: &str) -> f64 {
            nodes
                .iter()
                .map(|n| {
                    let own = if n.name == name { n.self_s } else { 0.0 };
                    own + walk(&n.children, name)
                })
                .sum()
        }
        walk(&self.roots, name)
    }

    /// Total time (s) of the node at `path` (`/`-joined), 0 if absent.
    pub fn total_s(&self, path: &str) -> f64 {
        self.flatten()
            .iter()
            .find(|(p, ..)| p == path)
            .map_or(0.0, |&(_, t, ..)| t)
    }

    /// Renders the tree (indented, largest-total first within each
    /// level) plus the critical path.
    pub fn render(&self) -> String {
        fn walk(out: &mut String, nodes: &[ProfileNode], depth: usize) {
            let mut order: Vec<&ProfileNode> = nodes.iter().collect();
            order.sort_by(|a, b| b.total_s.total_cmp(&a.total_s));
            for n in order {
                out.push_str(&format!(
                    "{:indent$}{:<width$} {:>9.4} s total  {:>9.4} s self  {:>8} calls\n",
                    "",
                    n.name,
                    n.total_s,
                    n.self_s,
                    n.calls,
                    indent = depth * 2,
                    width = 24usize.saturating_sub(depth * 2),
                ));
                walk(out, &n.children, depth + 1);
            }
        }
        let mut out = format!(
            "== trace profile ==  {:.4} s spanned, {} slices\n",
            self.span_s, self.slices
        );
        walk(&mut out, &self.roots, 0);
        let cp = self.critical_path();
        if !cp.is_empty() {
            out.push_str("critical path: ");
            for (i, (name, total)) in cp.iter().enumerate() {
                if i > 0 {
                    out.push_str(" > ");
                }
                out.push_str(&format!("{name} ({total:.4} s)"));
            }
            out.push('\n');
        }
        out
    }
}

#[derive(Default)]
struct Agg {
    total_ns: u64,
    calls: u64,
    children: BTreeMap<&'static str, Agg>,
}

fn build_profile(events: &[Ev]) -> TraceProfile {
    // Group slices per track, then replay each track's slices in start
    // order through a stack — tracks are well-nested by construction,
    // so the open stack at insertion time is the slice's path.
    let mut per_track: BTreeMap<u64, Vec<(u64, u64, &'static str)>> = BTreeMap::new();
    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    let mut slices = 0u64;
    for ev in events {
        if let Ev::Span {
            name,
            tid,
            ts_ns,
            dur_ns,
        } = *ev
        {
            per_track
                .entry(tid)
                .or_default()
                .push((ts_ns, dur_ns, name));
            t_min = t_min.min(ts_ns);
            t_max = t_max.max(ts_ns + dur_ns);
            slices += 1;
        }
    }
    let mut root = Agg::default();
    for track_slices in per_track.values_mut() {
        // Parents first on ties: same start, longer duration wins.
        track_slices.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        // The open stack holds `(name, end_ns)`; the names are the
        // slice's path, re-walked from the root per insertion (depth is
        // small, BTreeMap lookups are cheap, and this stays safe-Rust).
        let mut stack: Vec<(&'static str, u64)> = Vec::new();
        for &(ts, dur, name) in track_slices.iter() {
            while let Some(&(_, end)) = stack.last() {
                if end <= ts {
                    stack.pop();
                } else {
                    break;
                }
            }
            let mut cur = &mut root;
            for &(seg, _) in &stack {
                cur = cur.children.entry(seg).or_default();
            }
            let node = cur.children.entry(name).or_default();
            node.total_ns += dur;
            node.calls += 1;
            stack.push((name, ts + dur));
        }
    }
    let roots = to_nodes(&root.children);
    TraceProfile {
        roots,
        span_s: if t_max > t_min {
            (t_max - t_min) as f64 * 1e-9
        } else {
            0.0
        },
        slices,
    }
}

fn to_nodes(children: &BTreeMap<&'static str, Agg>) -> Vec<ProfileNode> {
    children
        .iter()
        .map(|(&name, agg)| {
            let kids = to_nodes(&agg.children);
            let child_total: f64 = kids.iter().map(|k| k.total_s).sum();
            let total_s = agg.total_ns as f64 * 1e-9;
            ProfileNode {
                name: name.to_string(),
                total_s,
                self_s: (total_s - child_total).max(0.0),
                calls: agg.calls,
                children: kids,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Trace-file validation
// ---------------------------------------------------------------------

/// What [`validate_trace_json`] learned about a trace file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Trace events in the file (excluding metadata).
    pub events: usize,
    /// Distinct tracks carrying at least one span slice.
    pub tracks: usize,
    /// Track names declared via `thread_name` metadata, sorted.
    pub track_names: Vec<String>,
    /// Deepest span nesting observed on any track.
    pub max_depth: usize,
    /// Distinct counter names, sorted.
    pub counters: Vec<String>,
    /// Flow-start (`s`) events.
    pub flow_starts: usize,
    /// Flow-finish (`f`) events.
    pub flow_finishes: usize,
    /// Distinct flow ids with at least one start *and* one finish.
    pub flow_matched: usize,
}

/// Validates a Chrome trace-event JSON document: structural parse,
/// required fields per phase (`X`/`C`/`s`/`f`/`M`), per-track slice
/// containment (spans must strictly nest), flow endpoints inside a
/// slice on their track, and start/finish pairing.
/// Returns a [`TraceSummary`] on success.
pub fn validate_trace_json(text: &str) -> Result<TraceSummary, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing \"traceEvents\" field")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;

    let mut summary = TraceSummary::default();
    // (pid, tid) → span slices (ts_us, dur_us).
    let mut slices: BTreeMap<(u64, u64), Vec<(f64, f64)>> = BTreeMap::new();
    let mut flows: Vec<(u64, u64, u64, f64, bool)> = Vec::new(); // pid, tid, id, ts, start
    let mut counter_names: Vec<String> = Vec::new();
    let mut track_names: Vec<String> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let at = |msg: &str| format!("event {i}: {msg}");
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| at("missing \"ph\""))?;
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| at("missing \"name\""))?;
        let pid = ev
            .get("pid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| at("missing \"pid\""))?;
        match ph {
            "M" => {
                if name == "thread_name" {
                    let tname = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| at("thread_name metadata without args.name"))?;
                    track_names.push(tname.to_string());
                }
                continue; // metadata doesn't count as a trace event
            }
            "X" => {
                let tid = ev
                    .get("tid")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| at("span without \"tid\""))?;
                let ts = ev
                    .get("ts")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| at("span without numeric \"ts\""))?;
                let dur = ev
                    .get("dur")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| at("span without numeric \"dur\""))?;
                if !(ts.is_finite() && dur.is_finite()) || ts < 0.0 || dur < 0.0 {
                    return Err(at("span ts/dur must be finite and non-negative"));
                }
                slices.entry((pid, tid)).or_default().push((ts, dur));
            }
            "C" => {
                let v = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .ok_or_else(|| at("counter without args.value"))?;
                if !matches!(v, JsonValue::Num(_) | JsonValue::Null) {
                    return Err(at("counter args.value must be a number or null"));
                }
                if ev.get("ts").and_then(JsonValue::as_f64).is_none() {
                    return Err(at("counter without numeric \"ts\""));
                }
                if !counter_names.iter().any(|n| n == name) {
                    counter_names.push(name.to_string());
                }
            }
            "s" | "f" => {
                let tid = ev
                    .get("tid")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| at("flow event without \"tid\""))?;
                let ts = ev
                    .get("ts")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| at("flow event without numeric \"ts\""))?;
                let id = ev
                    .get("id")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| at("flow event without \"id\""))?;
                if ph == "f" && ev.get("bp").and_then(JsonValue::as_str) != Some("e") {
                    return Err(at(
                        "flow finish must carry \"bp\":\"e\" to bind to its slice",
                    ));
                }
                flows.push((pid, tid, id, ts, ph == "s"));
            }
            other => return Err(at(&format!("unknown event phase {other:?}"))),
        }
        summary.events += 1;
    }

    // Per-track structural check: slices must strictly nest.
    for ((pid, tid), track) in slices.iter_mut() {
        track.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut stack: Vec<f64> = Vec::new();
        for &(ts, dur) in track.iter() {
            while let Some(&end) = stack.last() {
                if ts >= end - NEST_EPS_US {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&end) = stack.last() {
                if ts + dur > end + NEST_EPS_US {
                    return Err(format!(
                        "track {pid}/{tid}: slice at ts={ts} dur={dur} overlaps its parent \
                         (parent ends at {end}) — spans must nest"
                    ));
                }
            }
            stack.push(ts + dur);
            summary.max_depth = summary.max_depth.max(stack.len());
        }
    }
    summary.tracks = slices.len();

    // Flow endpoints must land inside a slice on their own track.
    let mut ids: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    for &(pid, tid, id, ts, start) in &flows {
        let track = slices.get(&(pid, tid)).map(Vec::as_slice).unwrap_or(&[]);
        let enclosed = track
            .iter()
            .any(|&(s, d)| ts >= s - NEST_EPS_US && ts <= s + d + NEST_EPS_US);
        if !enclosed {
            return Err(format!(
                "flow id {id} at ts={ts} on track {pid}/{tid} is not inside any slice"
            ));
        }
        let e = ids.entry(id).or_default();
        if start {
            e.0 += 1;
            summary.flow_starts += 1;
        } else {
            e.1 += 1;
            summary.flow_finishes += 1;
        }
    }
    summary.flow_matched = ids.values().filter(|(s, f)| *s > 0 && *f > 0).count();

    counter_names.sort();
    track_names.sort();
    summary.counters = counter_names;
    summary.track_names = track_names;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic two-track trace with 3-deep nesting, a counter,
    /// and one matched flow.
    fn sample_trace() -> Tracer {
        let tracer = Tracer::manual();
        let mut main = tracer.track("sim");
        let mut gpu = tracer.track("gpu");

        let epoch = main.begin("epoch");
        tracer.advance_manual_ns(1_000);
        let g = gpu.begin("warp_scheduling");
        tracer.advance_manual_ns(500);
        gpu.scoped("dispatch", |_| {});
        tracer.advance_manual_ns(500);
        gpu.end(g);
        let solve = main.begin("thermal_solve");
        tracer.advance_manual_ns(200);
        let sub = main.begin("sor_substep");
        main.flow_start("thermal_warning", 7);
        tracer.advance_manual_ns(300);
        main.end(sub);
        main.end(solve);
        let th = main.begin("throttle");
        main.flow_finish("thermal_warning", 7);
        tracer.advance_manual_ns(100);
        main.end(th);
        main.counter("peak_dram_c", 85.5);
        main.end(epoch);
        main.flush();
        gpu.flush();
        drop(main);
        drop(gpu);
        tracer
    }

    #[test]
    fn nested_spans_round_trip_through_validation() {
        let tracer = sample_trace();
        let json = tracer.to_chrome_json();
        let s = validate_trace_json(&json).expect("trace validates");
        assert_eq!(s.tracks, 2);
        assert_eq!(s.max_depth, 3, "epoch > thermal_solve > sor_substep");
        assert_eq!(s.counters, vec!["peak_dram_c".to_string()]);
        assert_eq!(s.flow_starts, 1);
        assert_eq!(s.flow_finishes, 1);
        assert_eq!(s.flow_matched, 1);
        assert!(s.track_names.contains(&"gpu".to_string()));
        assert!(s.track_names.contains(&"sim".to_string()));
        assert!(s.events >= 7);
    }

    #[test]
    fn profile_tree_aggregates_by_path() {
        let tracer = sample_trace();
        let p = tracer.profile();
        // Roots sorted by name: epoch on one track, warp_scheduling on
        // the other.
        let names: Vec<&str> = p.roots.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["epoch", "warp_scheduling"]);
        let epoch = &p.roots[0];
        assert_eq!(epoch.calls, 1);
        assert!((epoch.total_s - 2.6e-6).abs() < 1e-12, "{}", epoch.total_s);
        assert!((p.total_s("epoch/thermal_solve/sor_substep") - 3e-7).abs() < 1e-15);
        // Self time of thermal_solve excludes its substep child.
        let solve = epoch
            .children
            .iter()
            .find(|c| c.name == "thermal_solve")
            .unwrap();
        assert!((solve.self_s - 2e-7).abs() < 1e-15);
        assert!((p.self_s_named("thermal_solve") - 2e-7).abs() < 1e-15);
        assert!((p.self_s_named("sor_substep") - 3e-7).abs() < 1e-15);
        assert_eq!(p.self_s_named("absent"), 0.0);
        let cp = tracer.profile().critical_path();
        assert_eq!(cp[0].0, "epoch");
        assert_eq!(cp[1].0, "thermal_solve");
        assert_eq!(cp[2].0, "sor_substep");
        let text = p.render();
        assert!(text.contains("critical path: epoch"));
        assert!(text.contains("sor_substep"));
    }

    #[test]
    fn flatten_paths_are_deterministic_and_name_sorted() {
        let p1 = sample_trace().profile();
        let p2 = sample_trace().profile();
        assert_eq!(p1.flatten(), p2.flatten());
        let paths: Vec<String> = p1.flatten().into_iter().map(|(p, ..)| p).collect();
        assert_eq!(
            paths,
            vec![
                "epoch",
                "epoch/thermal_solve",
                "epoch/thermal_solve/sor_substep",
                "epoch/throttle",
                "warp_scheduling",
                "warp_scheduling/dispatch",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "unbalanced span end")]
    fn ending_parent_before_child_panics() {
        let tracer = Tracer::manual();
        let mut t = tracer.track("t");
        let outer = t.begin("outer");
        let _inner = t.begin("inner");
        t.end(outer); // inner is still open
    }

    #[test]
    #[should_panic(expected = "no span open")]
    fn end_without_begin_panics() {
        let tracer = Tracer::manual();
        let mut t = tracer.track("t");
        let tok = t.begin("only");
        t.end(tok);
        t.end(SpanToken {
            depth: 1,
            name: "only",
        });
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn flushing_with_open_span_panics() {
        let tracer = Tracer::manual();
        let mut t = tracer.track("t");
        let _tok = t.begin("open");
        t.flush();
    }

    #[test]
    fn tracks_are_independent_and_threads_can_race() {
        let tracer = Tracer::new();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    let mut t = tracer.track(&format!("worker-{w}"));
                    for _ in 0..10 {
                        t.scoped("cell", |t| t.scoped("inner", |_| {}));
                    }
                });
            }
        });
        let json = tracer.to_chrome_json();
        let s = validate_trace_json(&json).expect("parallel trace validates");
        assert_eq!(s.tracks, 4);
        assert_eq!(s.track_names.len(), 4);
        assert_eq!(s.max_depth, 2);
        assert!(tracer.self_s() >= 0.0);
        assert_eq!(tracer.event_count(), 80);
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(validate_trace_json("not json").is_err());
        assert!(validate_trace_json("{}")
            .unwrap_err()
            .contains("traceEvents"));
        assert!(validate_trace_json(r#"{"traceEvents":7}"#).is_err());
        // Missing ph.
        assert!(validate_trace_json(r#"{"traceEvents":[{"name":"x","pid":1}]}"#).is_err());
        // Overlapping (non-nesting) slices on one track.
        let overlap = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":1,"ts":0,"dur":10,"name":"a"},
            {"ph":"X","pid":1,"tid":1,"ts":5,"dur":10,"name":"b"}
        ]}"#;
        assert!(validate_trace_json(overlap).unwrap_err().contains("nest"));
        // Flow outside any slice.
        let stray = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":1,"ts":0,"dur":10,"name":"a"},
            {"ph":"s","pid":1,"tid":1,"ts":50,"id":3,"name":"w"}
        ]}"#;
        assert!(validate_trace_json(stray)
            .unwrap_err()
            .contains("not inside"));
        // Flow finish without binding point.
        let nobp = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":1,"ts":0,"dur":10,"name":"a"},
            {"ph":"f","pid":1,"tid":1,"ts":5,"id":3,"name":"w"}
        ]}"#;
        assert!(validate_trace_json(nobp).unwrap_err().contains("bp"));
    }

    #[test]
    fn self_cost_accumulates_and_flushes() {
        let tracer = Tracer::new();
        let mut t = tracer.track("t");
        for _ in 0..100 {
            t.scoped("s", |_| {});
        }
        let own = t.self_s();
        assert!(own > 0.0, "begin/end must measure own cost");
        assert_eq!(tracer.self_s(), 0.0, "nothing flushed yet");
        // The track's buffered tree is this track's alone.
        assert_eq!(t.profile().roots[0].calls, 100);
        t.flush();
        assert!((tracer.self_s() - own).abs() < 1e-12);
        // A second flush adds nothing twice; the track keeps its total.
        t.flush();
        assert!((tracer.self_s() - own).abs() < 1e-12);
        assert_eq!(t.self_s(), own);
        assert!(
            t.profile().roots.is_empty(),
            "flushed events left the track"
        );
    }
}
