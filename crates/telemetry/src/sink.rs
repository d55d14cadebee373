//! Pluggable event sinks.
//!
//! The co-simulator emits [`TelemetryEvent`]s into a `Box<dyn Sink>`
//! (or nowhere, without one: [`crate::Telemetry::disabled`]); what
//! happens next is the sink's business: keep them in memory for
//! assertions ([`RecordingSink`]), or stream them to disk as JSONL
//! ([`JsonlSink`], [`RotatingJsonlSink`]).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::TelemetryEvent;

/// Receives the event stream of one run.
pub trait Sink: Send {
    /// Records one event. Called in non-decreasing `t_ps` order within a
    /// run.
    fn record(&mut self, ev: &TelemetryEvent);

    /// Flushes buffered output (file sinks); default no-op.
    fn flush(&mut self) {}

    /// Number of events lost to write or flush failures so far. File
    /// sinks count every lost event instead of silently dropping it;
    /// in-memory sinks never lose anything and report 0.
    fn dropped_writes(&self) -> u64 {
        0
    }
}

/// Shared handle onto the events captured by a [`RecordingSink`].
///
/// The sink is moved into the co-simulator; the log stays with the test
/// or tool that wants to inspect the stream afterwards.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Arc<Mutex<Vec<TelemetryEvent>>>,
}

impl EventLog {
    /// A snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Vec<TelemetryEvent> {
        self.events.lock().expect("event log poisoned").clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("event log poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events matching `pred`, in recording order.
    pub fn filtered(&self, pred: impl Fn(&TelemetryEvent) -> bool) -> Vec<TelemetryEvent> {
        self.events
            .lock()
            .expect("event log poisoned")
            .iter()
            .filter(|e| pred(e))
            .cloned()
            .collect()
    }

    /// How many events of the given kind were recorded.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events
            .lock()
            .expect("event log poisoned")
            .iter()
            .filter(|e| e.kind() == kind)
            .count()
    }
}

/// Captures every event into a shared in-memory log.
#[derive(Debug, Default)]
pub struct RecordingSink {
    log: EventLog,
}

impl RecordingSink {
    /// Creates the sink and the log handle that outlives it.
    pub fn new() -> (RecordingSink, EventLog) {
        let log = EventLog::default();
        (RecordingSink { log: log.clone() }, log)
    }
}

impl Sink for RecordingSink {
    fn record(&mut self, ev: &TelemetryEvent) {
        self.log
            .events
            .lock()
            .expect("event log poisoned")
            .push(ev.clone());
    }
}

/// Tracks write/flush failures for a file sink: every lost event is
/// counted, and the first failure is reported to stderr (once, not per
/// event — a dead disk would otherwise flood the console). A buffered
/// writer reports a failure late, at a write that spills its buffer or
/// at a flush, so a failure counts every event recorded since the last
/// successful flush as lost.
#[derive(Debug, Default)]
struct WriteFailures {
    dropped: u64,
    unflushed: u64,
    reported: bool,
}

impl WriteFailures {
    /// Notes the outcome of writing `events` more events, or of a flush
    /// (`events` 0), which, when it succeeds, secures every event so far.
    fn note(&mut self, what: &str, events: u64, res: std::io::Result<()>) {
        self.unflushed += events;
        match res {
            Ok(()) if events == 0 => self.unflushed = 0,
            Ok(()) => {}
            Err(e) => {
                self.dropped += std::mem::take(&mut self.unflushed);
                if !self.reported {
                    self.reported = true;
                    eprintln!("telemetry: {what} failed, counting lost events from here: {e}");
                }
            }
        }
    }
}

/// Streams every event as one JSON object per line.
pub struct JsonlSink<W: Write + Send> {
    w: BufWriter<W>,
    failures: WriteFailures,
}

impl JsonlSink<File> {
    /// Creates (truncates) `path` and streams events into it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::new(File::create(path)?))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(w: W) -> Self {
        Self {
            w: BufWriter::new(w),
            failures: WriteFailures::default(),
        }
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&mut self, ev: &TelemetryEvent) {
        let res = writeln!(self.w, "{}", ev.to_jsonl());
        self.failures.note("JSONL write", 1, res);
    }

    fn flush(&mut self) {
        let res = self.w.flush();
        self.failures.note("JSONL flush", 0, res);
    }

    fn dropped_writes(&self) -> u64 {
        self.failures.dropped
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Streams events as JSONL into size-capped part files so long
/// simulations cannot fill the disk.
///
/// Output goes to numbered parts `<path>.0`, `<path>.1`, …; before a
/// write that would push the current part past the byte cap, the sink
/// rotates to the next number and deletes the oldest parts so at most
/// `keep` files remain — no part ever exceeds the cap (a single line
/// larger than the cap still goes out whole, into a part of its own).
/// The newest history is always on disk; the truncated prefix is the
/// price of the bound (the flight recorder's post-mortem bundles cover
/// the anomaly windows).
pub struct RotatingJsonlSink {
    base: std::path::PathBuf,
    max_bytes: u64,
    keep: usize,
    w: Option<BufWriter<File>>,
    cur_bytes: u64,
    next_part: u64,
    parts: std::collections::VecDeque<u64>,
    failures: WriteFailures,
}

impl RotatingJsonlSink {
    /// Starts writing `<path>.0`, rotating past `max_bytes` and keeping
    /// at most `keep` part files (both floored at 1).
    pub fn create(path: impl AsRef<Path>, max_bytes: u64, keep: usize) -> std::io::Result<Self> {
        let base = path.as_ref().to_path_buf();
        let mut sink = Self {
            base,
            max_bytes: max_bytes.max(1),
            keep: keep.max(1),
            w: None,
            cur_bytes: 0,
            next_part: 0,
            parts: std::collections::VecDeque::new(),
            failures: WriteFailures::default(),
        };
        sink.w = Some(BufWriter::new(File::create(sink.part_path(0))?));
        sink.parts.push_back(0);
        Ok(sink)
    }

    fn part_path(&self, part: u64) -> std::path::PathBuf {
        std::path::PathBuf::from(format!("{}.{part}", self.base.display()))
    }

    /// Paths of the part files currently on disk, oldest first.
    pub fn part_paths(&self) -> Vec<std::path::PathBuf> {
        self.parts.iter().map(|&p| self.part_path(p)).collect()
    }

    fn rotate(&mut self) {
        if let Some(mut w) = self.w.take() {
            self.failures.note("rotating JSONL flush", 0, w.flush());
        }
        self.next_part += 1;
        match File::create(self.part_path(self.next_part)) {
            Ok(f) => {
                self.w = Some(BufWriter::new(f));
                self.cur_bytes = 0;
                self.parts.push_back(self.next_part);
            }
            Err(e) => self.failures.note("rotating JSONL rotate", 0, Err(e)),
        }
        while self.parts.len() > self.keep {
            if let Some(old) = self.parts.pop_front() {
                // Best effort: a part that refuses to die only wastes
                // disk, it cannot corrupt the stream.
                let _ = std::fs::remove_file(self.part_path(old));
            }
        }
    }
}

impl Sink for RotatingJsonlSink {
    fn record(&mut self, ev: &TelemetryEvent) {
        let line = ev.to_jsonl();
        let line_bytes = line.len() as u64 + 1; // +1 for the newline
                                                // Rotate *before* a write that would exceed the cap, so no part
                                                // ever overshoots it. A non-empty check keeps an oversized
                                                // single line from producing an empty part in front of it.
        if self.cur_bytes > 0 && self.cur_bytes + line_bytes > self.max_bytes {
            self.rotate();
        }
        match &mut self.w {
            Some(w) => {
                let res = writeln!(w, "{line}");
                self.failures.note("rotating JSONL write", 1, res);
                self.cur_bytes += line_bytes;
            }
            None => self.failures.note(
                "rotating JSONL write",
                1,
                Err(std::io::Error::other("no active part file")),
            ),
        }
    }

    fn flush(&mut self) {
        if let Some(w) = &mut self.w {
            let res = w.flush();
            self.failures.note("rotating JSONL flush", 0, res);
        }
    }

    fn dropped_writes(&self) -> u64 {
        self.failures.dropped
    }
}

impl Drop for RotatingJsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EpochRecord;

    fn sample(t_ps: u64) -> TelemetryEvent {
        TelemetryEvent::EpochSample(EpochRecord {
            t_ps,
            pim_rate_op_ns: 1.0,
            data_bw: 2.0e9,
            peak_dram_c: 80.0,
            phase: "Normal",
            ..EpochRecord::default()
        })
    }

    #[test]
    fn recording_sink_shares_its_log() {
        let (mut sink, log) = RecordingSink::new();
        sink.record(&sample(1));
        sink.record(&TelemetryEvent::KernelLaunch { t_ps: 2, launch: 1 });
        drop(sink);
        assert_eq!(log.len(), 2);
        assert_eq!(log.count_kind("EpochSample"), 1);
        assert_eq!(
            log.snapshot()[1],
            TelemetryEvent::KernelLaunch { t_ps: 2, launch: 1 }
        );
        assert!(!log.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.record(&sample(5));
            sink.record(&TelemetryEvent::Shutdown {
                t_ps: 9,
                peak_dram_c: 106.0,
            });
        }
        let text = String::from_utf8(buf).unwrap();
        let events: Vec<_> = text
            .lines()
            .map(|l| TelemetryEvent::from_jsonl(l).expect("parse"))
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], sample(5));
    }

    /// A writer whose every operation fails (disk-full stand-in).
    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk on fire"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk on fire"))
        }
    }

    #[test]
    fn failed_writes_are_counted_not_swallowed() {
        // BufWriter defers failures to flush time: every event recorded
        // since the last successful flush is lost, and counted, there.
        let mut sink = JsonlSink::new(FailingWriter);
        for t in 0..5 {
            sink.record(&sample(t));
        }
        sink.flush();
        assert_eq!(sink.dropped_writes(), 5, "every lost event is counted");
        sink.record(&sample(5));
        sink.flush();
        sink.flush();
        assert_eq!(sink.dropped_writes(), 6, "and counted once");

        // Healthy sinks report zero.
        let mut ok = JsonlSink::new(Vec::new());
        ok.record(&sample(1));
        ok.flush();
        assert_eq!(ok.dropped_writes(), 0);
        let (rec, _) = RecordingSink::new();
        assert_eq!(rec.dropped_writes(), 0);
    }

    #[test]
    fn events_that_outgrow_the_buffer_are_counted_when_it_spills() {
        // Enough events to spill BufWriter's 8 KiB buffer several times:
        // each spill fails, and the total lost is every event recorded.
        let mut sink = JsonlSink::new(FailingWriter);
        let n = 9 * 8192 / sample(0).to_jsonl().len() as u64;
        for t in 0..n {
            sink.record(&sample(t));
        }
        sink.flush();
        assert_eq!(sink.dropped_writes(), n);
    }

    #[test]
    fn rotating_sink_caps_disk_and_keeps_newest_parts() {
        let dir = std::env::temp_dir().join(format!("coolpim_rotate_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("trace.jsonl");
        {
            // ~90-byte lines against a 128-byte cap: each part holds one
            // line (a 2nd would exceed the cap); keep the newest 2 parts.
            let mut sink = RotatingJsonlSink::create(&base, 128, 2).unwrap();
            for t in 0..10 {
                sink.record(&sample(t));
            }
            sink.flush();
            assert_eq!(sink.dropped_writes(), 0);
            let parts = sink.part_paths();
            assert_eq!(parts.len(), 2, "keeps exactly 2 parts: {parts:?}");
            // Only the live parts remain on disk, and each parses back.
            let mut newest_t = 0;
            for p in &parts {
                let text = std::fs::read_to_string(p).unwrap();
                for line in text.lines() {
                    let ev = TelemetryEvent::from_jsonl(line).expect("parseable part line");
                    newest_t = newest_t.max(ev.t_ps());
                }
            }
            assert_eq!(newest_t, 9, "newest history survives rotation");
            assert!(
                !std::path::PathBuf::from(format!("{}.0", base.display())).exists(),
                "oldest part was deleted"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotating_sink_never_exceeds_the_byte_cap() {
        let dir = std::env::temp_dir().join(format!("coolpim_rotate_cap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("trace.jsonl");
        {
            // A cap sized to exactly two lines plus slack: rotation must
            // trigger *before* the third write, never after it. Using
            // same-width timestamps keeps every line the same length.
            let line_bytes = sample(10).to_jsonl().len() as u64 + 1;
            let cap = 2 * line_bytes + 4;
            let mut sink = RotatingJsonlSink::create(&base, cap, 4).unwrap();
            for t in 10..34 {
                sink.record(&sample(t));
            }
            sink.flush();
            assert_eq!(sink.dropped_writes(), 0);
            let parts = sink.part_paths();
            assert!(parts.len() > 1, "cap must force rotation");
            for p in &parts {
                let len = std::fs::metadata(p).unwrap().len();
                assert!(
                    len <= cap,
                    "part {} is {len} bytes, over the {cap}-byte cap",
                    p.display()
                );
                // Two lines per part at this cap — rotation is not
                // firing early either.
                let text = std::fs::read_to_string(p).unwrap();
                assert_eq!(text.lines().count(), 2, "part {}", p.display());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
