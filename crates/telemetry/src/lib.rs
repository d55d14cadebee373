//! # coolpim-telemetry
//!
//! Observability for the CoolPIM co-simulation loop: a typed event bus,
//! a metrics registry, and hierarchical span timelines. Zero
//! third-party dependencies.
//!
//! The whole point of CoolPIM is a closed feedback loop — PIM traffic →
//! power → temperature → thermal warning → throttle — and this crate is
//! the window into it:
//!
//! * [`event`] — the [`TelemetryEvent`] vocabulary: thermal warnings
//!   raised/delivered, phase transitions, frequency derates, shutdowns,
//!   token-pool resizes, PCU warp-cap updates, epoch samples, kernel
//!   launch/retire — all stamped with simulation time — and the
//!   [`EpochRecord`], the one description of a thermal epoch;
//! * [`sink`] — where events go: [`RecordingSink`] (in-memory, for
//!   tests), [`JsonlSink`] and [`RotatingJsonlSink`] (file streams);
//!   without a sink an emit costs one branch;
//! * [`metrics`] — named counters/gauges and log2-bucketed latency
//!   [`Histogram`]s, drained per run into a [`MetricsSnapshot`] — the
//!   co-simulator folds the control loop's KPIs (warning→action
//!   latency, overshoot, derated time, headroom) into it, so a run
//!   record is also the loop's report;
//! * [`json`] — the flat-JSON writer behind the JSONL stream, the
//!   metrics serializer and run records, and the one JSON reader
//!   ([`json::parse_json`], with [`json::parse_flat_object`] on top);
//! * [`flight`] — the spatial flight recorder: a no-alloc ring of epoch
//!   records with their per-vault samples ([`FlightRecorder`]), dumped
//!   on thermal anomalies as versioned post-mortem bundles
//!   ([`PostmortemBundle`]) with SM → vault PIM attribution;
//! * [`stats`] — robust cross-run statistics for replicated runs:
//!   median/MAD summaries with bootstrap CIs ([`summarize`]), two-sample
//!   permutation tests and effect sizes ([`drift`]), and change-point
//!   detection over a metric history ([`change_points`]) — the engine
//!   of the `obs` observatory and its noise-aware gate;
//! * [`tolerance`] — the shared [`Tolerance`] band (`abs + rel·|base|`)
//!   used by the run-record regression gates and the lockstep oracle;
//! * [`tracer`] — hierarchical trace timelines: nested spans on
//!   per-thread [`TraceTrack`]s, counter tracks, warning→throttle flow
//!   events, Chrome trace-event JSON export for Perfetto
//!   ([`Tracer::to_chrome_json`], checked in-tree by
//!   [`validate_trace_json`]), and the aggregated self/total-time
//!   [`TraceProfile`] tree with critical-path extraction.
//!
//! ## Example
//!
//! ```
//! use coolpim_telemetry::{RecordingSink, Telemetry, TelemetryEvent};
//!
//! let (sink, log) = RecordingSink::new();
//! let mut t = Telemetry::with_sink(Box::new(sink));
//! t.emit(TelemetryEvent::KernelLaunch { t_ps: 0, launch: 1 });
//! t.metrics.count("epochs", 1);
//! assert_eq!(log.count_kind("KernelLaunch"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod stats;
pub mod tolerance;
pub mod tracer;

pub use event::{EpochRecord, TelemetryEvent};
pub use flight::{FlightFrame, FlightRecorder, PostmortemBundle, VaultSample};
pub use metrics::{Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use sink::{EventLog, JsonlSink, RecordingSink, RotatingJsonlSink, Sink};
pub use stats::{
    bootstrap_ci, change_points, drift, effect_size, median, noise_sigma, permutation_p, summarize,
    Drift, StatsRng, Summary,
};
pub use tolerance::Tolerance;
pub use tracer::{
    validate_trace_json, ProfileNode, SpanToken, TraceProfile, TraceSummary, TraceTrack, Tracer,
};

/// The per-run telemetry bundle the co-simulator carries: an optional
/// event sink and the metrics registry.
///
/// The default ([`Telemetry::disabled`]) costs one branch per emit —
/// cheap enough to leave compiled into the hot loop.
#[derive(Default)]
pub struct Telemetry {
    sink: Option<Box<dyn Sink>>,
    /// Named counters, gauges, and histograms for this run.
    pub metrics: MetricsRegistry,
}

impl Telemetry {
    /// No sink — the default for production runs.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Streams events into `sink`.
    pub fn with_sink(sink: Box<dyn Sink>) -> Self {
        Self {
            sink: Some(sink),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Emits one event (no-op without a sink).
    #[inline]
    pub fn emit(&mut self, ev: TelemetryEvent) {
        if let Some(sink) = &mut self.sink {
            sink.record(&ev);
        }
    }

    /// Emits a batch after sorting it by simulation time — event
    /// producers drained at epoch boundaries (cube, GPU engine,
    /// controllers) interleave here so the stream stays monotonic.
    pub fn emit_epoch_batch(&mut self, batch: &mut Vec<TelemetryEvent>) {
        if self.sink.is_some() && !batch.is_empty() {
            batch.sort_by_key(|e| e.t_ps());
            if let Some(sink) = &mut self.sink {
                for ev in batch.iter() {
                    sink.record(ev);
                }
            }
        }
        batch.clear();
    }

    /// Flushes the sink (file sinks buffer).
    pub fn flush(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.flush();
        }
    }

    /// Events lost to sink write/flush failures (0 without a sink).
    pub fn dropped_writes(&self) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.dropped_writes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_swallows_events() {
        let mut t = Telemetry::disabled();
        t.emit(TelemetryEvent::KernelLaunch { t_ps: 1, launch: 1 });
        let mut batch = vec![TelemetryEvent::KernelRetire { t_ps: 2, launch: 1 }];
        t.emit_epoch_batch(&mut batch);
        assert!(batch.is_empty(), "batch is consumed even without a sink");
    }

    #[test]
    fn epoch_batches_are_sorted_by_sim_time() {
        let (sink, log) = RecordingSink::new();
        let mut t = Telemetry::with_sink(Box::new(sink));
        let mut batch = vec![
            TelemetryEvent::KernelRetire {
                t_ps: 30,
                launch: 1,
            },
            TelemetryEvent::KernelLaunch {
                t_ps: 10,
                launch: 1,
            },
            TelemetryEvent::ThermalWarningDelivered {
                t_ps: 20,
                warning_id: 1,
            },
        ];
        t.emit_epoch_batch(&mut batch);
        let times: Vec<u64> = log.snapshot().iter().map(|e| e.t_ps()).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }
}
