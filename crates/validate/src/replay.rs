//! Record→replay equivalence oracle (ROADMAP item 2).
//!
//! Proves the whole trace pipeline — live kernel → [`RecordingSource`]
//! tee → binary encode → decode → replay — *bit*-identical: the live
//! run and both replay paths ([`TraceReplaySource`], the eagerly
//! decoded production source, and [`ReferenceReplay`], the streaming
//! byte-walking twin) must produce run records whose every metric is
//! exactly equal, down to the last f64 bit. Temperature trajectories,
//! token-pool dynamics, vault queues — all of it folds into those
//! metrics, so exact agreement is an end-to-end proof, not a spot
//! check. The metrics compared are [`CoSimResult::named_metrics`], the
//! same list a run record persists.

use coolpim_core::cosim::{CoSim, CoSimConfig, CoSimResult};
use coolpim_core::policy::Policy;
use coolpim_gpu::isa::WarpOp;
use coolpim_graph::generate::GraphSpec;
use coolpim_graph::workloads::{make_kernel, Workload};
use coolpim_trace::{RecordingSource, ReferenceReplay, TraceReplaySource, WorkloadTrace};

use std::sync::Arc;

/// A live-vs-replay metric mismatch.
#[derive(Debug, Clone)]
pub struct ReplayDivergence {
    /// Which replay path disagreed (`"eager"` or `"streaming"`).
    pub path: &'static str,
    /// Name of the first differing metric.
    pub metric: String,
    /// The live run's value.
    pub live: f64,
    /// The replayed run's value.
    pub replayed: f64,
}

impl std::fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} replay diverged on `{}`: live {:?} (bits {:016x}) vs replayed {:?} (bits {:016x})",
            self.path,
            self.metric,
            self.live,
            self.live.to_bits(),
            self.replayed,
            self.replayed.to_bits()
        )
    }
}

/// Compares two fingerprints bit-exactly; `Ok` carries the number of
/// metrics checked, `Err` the first mismatch (a missing metric counts).
pub fn compare_fingerprints(
    path: &'static str,
    live: &[(String, f64)],
    replayed: &[(String, f64)],
) -> Result<usize, Box<ReplayDivergence>> {
    for (name, lv) in live {
        let rv = replayed
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        if lv.to_bits() != rv.to_bits() {
            return Err(Box::new(ReplayDivergence {
                path,
                metric: name.clone(),
                live: *lv,
                replayed: rv,
            }));
        }
    }
    if replayed.len() != live.len() {
        return Err(Box::new(ReplayDivergence {
            path,
            metric: "metric count".into(),
            live: live.len() as f64,
            replayed: replayed.len() as f64,
        }));
    }
    Ok(live.len())
}

/// Trace corruptions for the oracle's self-test: each must make the
/// replayed run diverge from the live one, proving the comparison has
/// teeth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePerturbation {
    /// Add one cycle to every compute burst (a single off-path warp's
    /// burst can hide in the slack; shifting all of them cannot).
    BumpCompute,
    /// Relocate one lane of the first memory access to a distant region
    /// (a one-line shift can preserve coalescing and hit rates; a far
    /// relocation forces an extra transaction and a cold miss).
    ShiftAddress,
    /// Drop the final launch entirely.
    DropLastLaunch,
}

impl TracePerturbation {
    /// Parses the CLI spelling (`bump-compute`, `shift-address`,
    /// `drop-last-launch`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "bump-compute" => Some(Self::BumpCompute),
            "shift-address" => Some(Self::ShiftAddress),
            "drop-last-launch" => Some(Self::DropLastLaunch),
            _ => None,
        }
    }

    /// Applies the corruption in place.
    pub fn apply(self, trace: &mut WorkloadTrace) {
        match self {
            Self::BumpCompute => {
                for op in ops_mut(trace) {
                    if let WarpOp::Compute(c) = op {
                        *c = c.saturating_add(1);
                    }
                }
            }
            Self::ShiftAddress => {
                for block in trace.launches.iter_mut().flatten() {
                    let first = block
                        .warps
                        .iter()
                        .flat_map(|w| &w.ops)
                        .find_map(|op| op.lanes().filter(|l| !l.is_empty()));
                    if let Some(lanes) = first {
                        let a = &mut block.addrs[lanes.range().start];
                        *a = a.wrapping_add(1 << 30);
                        return;
                    }
                }
            }
            Self::DropLastLaunch => {
                if trace.launches.len() > 1 {
                    trace.launches.pop();
                }
            }
        }
    }
}

fn ops_mut(trace: &mut WorkloadTrace) -> impl Iterator<Item = &mut WarpOp> {
    trace
        .launches
        .iter_mut()
        .flatten()
        .flat_map(|b| b.warps.iter_mut())
        .flat_map(|w| w.ops.iter_mut())
}

/// The outcome of one record→replay lockstep: the live result, the
/// recorded trace, and how many metrics each replay path matched.
pub struct ReplayReport {
    /// The live (recording) run's result.
    pub live: CoSimResult,
    /// The captured trace (post encode→decode round trip).
    pub trace: WorkloadTrace,
    /// Metrics checked against the eager replay.
    pub eager_metrics: usize,
    /// Metrics checked against the streaming replay.
    pub streaming_metrics: usize,
}

/// Records one live run and replays it through both replay paths,
/// requiring bit-identical metrics. `perturb` corrupts the trace
/// between record and replay (the self-test: it must make this fail).
pub fn lockstep_replay(
    spec: GraphSpec,
    workload: Workload,
    policy: Policy,
    cfg: CoSimConfig,
    perturb: Option<TracePerturbation>,
) -> Result<ReplayReport, Box<ReplayDivergence>> {
    let graph = spec.build();
    let mut kernel = make_kernel(workload, &graph);
    let mut recorder = RecordingSource::new(kernel.as_mut());
    let live = CoSim::new(policy, cfg.clone()).run(&mut recorder);
    let mut trace = recorder.finish(spec.config_hash(), "oracle");
    if let Some(p) = perturb {
        p.apply(&mut trace);
    }

    // Round-trip through the binary format so the oracle covers
    // encode/decode, not just the in-memory tee.
    let bytes = trace.encode();
    let decoded = WorkloadTrace::decode(&bytes, "oracle.cptr").map_err(|e| {
        Box::new(ReplayDivergence {
            path: "eager",
            metric: format!("decode: {e}"),
            live: 0.0,
            replayed: f64::NAN,
        })
    })?;

    let live_fp = live.named_metrics();

    let mut eager = TraceReplaySource::new(Arc::new(decoded));
    let eager_result = CoSim::new(policy, cfg.clone()).run(&mut eager);
    let eager_metrics = compare_fingerprints("eager", &live_fp, &eager_result.named_metrics())?;

    let mut streaming = ReferenceReplay::from_bytes(bytes, "oracle.cptr").map_err(|e| {
        Box::new(ReplayDivergence {
            path: "streaming",
            metric: format!("decode: {e}"),
            live: 0.0,
            replayed: f64::NAN,
        })
    })?;
    let streaming_result = CoSim::new(policy, cfg).run(&mut streaming);
    let streaming_metrics =
        compare_fingerprints("streaming", &live_fp, &streaming_result.named_metrics())?;

    Ok(ReplayReport {
        live,
        trace,
        eager_metrics,
        streaming_metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> CoSimConfig {
        CoSimConfig::default()
    }

    #[test]
    fn record_then_replay_is_bit_identical_on_tiny_dc() {
        let report = lockstep_replay(
            GraphSpec::tiny(),
            Workload::Dc,
            Policy::CoolPimSw,
            quick_cfg(),
            None,
        )
        .expect("replay must be bit-identical");
        assert!(report.eager_metrics > 10);
        assert!(report.streaming_metrics > 10);
        assert!(report.trace.total_ops() > 0);
    }

    #[test]
    fn every_perturbation_is_caught() {
        for p in [
            TracePerturbation::BumpCompute,
            TracePerturbation::ShiftAddress,
            TracePerturbation::DropLastLaunch,
        ] {
            // KCore has multiple launches, so DropLastLaunch has teeth.
            let out = lockstep_replay(
                GraphSpec::tiny(),
                Workload::KCore,
                Policy::CoolPimSw,
                quick_cfg(),
                Some(p),
            );
            assert!(out.is_err(), "perturbation {p:?} slipped through");
        }
    }

    #[test]
    fn compare_reports_first_mismatch_by_name() {
        let live = vec![("a".to_string(), 1.0), ("b".to_string(), 2.0)];
        let mut replayed = live.clone();
        replayed[1].1 = 2.0000000000000004;
        let d = compare_fingerprints("eager", &live, &replayed).unwrap_err();
        assert_eq!(d.metric, "b");
        // A difference below any display precision still counts.
        assert_ne!(d.live.to_bits(), d.replayed.to_bits());
    }
}
