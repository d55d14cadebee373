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
//!   launch/retire — all stamped with simulation time;
//! * [`sink`] — where events go: [`NullSink`] (default, one branch on
//!   the emit path), [`RecordingSink`] (in-memory, for tests),
//!   [`JsonlSink`] and [`CsvSink`] (file streams);
//! * [`metrics`] — named counters/gauges and log2-bucketed latency
//!   [`Histogram`]s, drained per run into a [`MetricsSnapshot`];
//! * [`json`] — the shared flat-JSON writer/parser behind the JSONL
//!   stream, the metrics serializer, and the run-record store;
//! * [`analysis`] — control-loop KPIs derived from an event stream:
//!   warning→action latency, overshoot °C·s, derated time, token-pool
//!   oscillation, thermal-headroom utilization;
//! * [`flight`] — the spatial flight recorder: a no-alloc ring of
//!   per-vault samples ([`FlightRecorder`]) dumped on thermal anomalies
//!   as versioned post-mortem bundles ([`PostmortemBundle`]) with
//!   SM → vault PIM attribution;
//! * [`timeseries`] — in-run history at bounded memory: fixed-capacity
//!   ring tiers, 2x-decimated per tier ([`TimeSeries`], [`SeriesSet`]),
//!   no allocation on the per-epoch push path;
//! * [`expo`] — the monitor wire formats: Prometheus text exposition
//!   ([`PromWriter`], [`validate_exposition`]) and the flat-JSON
//!   `/status` payload ([`StatusSnapshot`]);
//! * [`monitor`] — the live monitor itself: the [`MonitorHub`] snapshot
//!   bridge and the one-thread in-tree HTTP [`MonitorServer`]
//!   (`/metrics`, `/status`, `/series`, `/healthz`);
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

pub mod analysis;
pub mod event;
pub mod expo;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod sink;
pub mod stats;
pub mod timeseries;
pub mod tolerance;
pub mod tracer;

pub use analysis::{ControlLoopReport, LatencyStats};
pub use event::TelemetryEvent;
pub use expo::{validate_exposition, ExpoSummary, PromWriter, StatusSnapshot};
pub use flight::{FlightFrame, FlightRecorder, PostmortemBundle, VaultSample};
pub use metrics::{Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use monitor::{EpochObservation, MonitorHub, MonitorServer};
pub use sink::{
    CsvSink, EventLog, JsonlSink, MultiSink, NullSink, RecordingSink, RotatingJsonlSink, Sink,
    CSV_TIMELINE_HEADER,
};
pub use stats::{
    bootstrap_ci, change_points, drift, effect_size, median, noise_sigma, permutation_p, summarize,
    Drift, StatsRng, Summary,
};
pub use timeseries::{Agg, SeriesSet, TimeSeries};
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

    /// Whether an event sink is attached.
    pub fn is_tracing(&self) -> bool {
        self.sink.is_some()
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
        assert!(!t.is_tracing());
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
