//! The typed event vocabulary of the co-simulation loop.
//!
//! Every event carries its **simulation** timestamp in integer
//! picoseconds (`t_ps`), matching the `Ps` time base of the timing
//! models. Events are produced by the cube (warnings, phase moves,
//! derating, shutdown), the GPU engine (kernel launch/retire), the
//! throttling controllers (pool resizes, PCU warp-cap updates), and the
//! co-simulation driver (run info, epoch samples), and flow to a
//! [`crate::Sink`].
//!
//! ## Causal correlation
//!
//! Every [`TelemetryEvent::ThermalWarningRaised`] carries a
//! monotonically assigned `warning_id` (per cube, starting at 1), and
//! the downstream events that warning triggers — delivery, token-pool
//! resize, PCU warp-cap update, frequency derate, recovery
//! ([`TelemetryEvent::ThermalWarningCleared`]) — carry the same id, so
//! the whole warning → action → effect chain is reconstructible from a
//! JSONL timeline alone.
//!
//! The JSONL encoding is a flat object per line —
//! `{"kind":"TokenPoolResize","t_ps":1200,...}` — via [`crate::json`] so
//! the crate stays dependency-free; [`TelemetryEvent::from_jsonl`]
//! parses it back for round-trip tooling.
//!
//! One thermal epoch is described once, by an [`EpochRecord`]: the run's
//! timeline holds them, [`TelemetryEvent::EpochSample`] carries one, the
//! heartbeat is built from one, and a flight-recorder frame is one plus
//! its per-vault samples.

use crate::json::{parse_flat_object, FlatObject, JsonBuilder};

/// One thermal epoch as the control loop closes it: the traffic it saw,
/// the temperature it reached, the phase it left the cube in, and the
/// throttle state after its events. Holds no wall-clock value, so two
/// runs of one configuration produce equal records.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochRecord {
    /// End-of-epoch simulation time (ps).
    pub t_ps: u64,
    /// 1-based epoch ordinal within the run.
    pub epoch: u64,
    /// Average PIM rate over the epoch (op/ns).
    pub pim_rate_op_ns: f64,
    /// Average external data bandwidth over the epoch (bytes/s).
    pub data_bw: f64,
    /// Peak DRAM temperature at the end of the epoch (°C).
    pub peak_dram_c: f64,
    /// Peak logic-layer temperature at the end of the epoch (°C).
    pub logic_c: f64,
    /// Operating phase after the thermal update.
    pub phase: &'static str,
    /// SW-DynT token-pool size, when that controller is active.
    pub pool_size: Option<u64>,
    /// HW-DynT per-SM warp cap, when that controller is active.
    pub warp_cap: Option<u64>,
}

impl EpochRecord {
    /// End-of-epoch simulation time (s).
    pub fn t_s(&self) -> f64 {
        self.t_ps as f64 * 1e-12
    }

    /// Appends every field to `b`, in declaration order (absent pool
    /// and cap are left out).
    pub fn write_json(&self, b: &mut JsonBuilder) {
        b.u64("t_ps", self.t_ps)
            .u64("epoch", self.epoch)
            .f64("pim_rate_op_ns", self.pim_rate_op_ns)
            .f64("data_bw", self.data_bw)
            .f64("peak_dram_c", self.peak_dram_c)
            .f64("logic_c", self.logic_c)
            .str("phase", self.phase)
            .opt_u64("pool_size", self.pool_size)
            .opt_u64("warp_cap", self.warp_cap);
    }

    /// Reads the fields [`Self::write_json`] wrote. Only `t_ps` is
    /// required, so lines written before a field existed still load: a
    /// missing epoch reads 0, a missing temperature or rate NaN, and a
    /// missing phase `"?"`.
    pub fn from_json(o: &FlatObject) -> Option<Self> {
        Some(Self {
            t_ps: o.u64_field("t_ps")?,
            epoch: o.u64_field("epoch").unwrap_or(0),
            pim_rate_op_ns: o.f64_field("pim_rate_op_ns").unwrap_or(f64::NAN),
            data_bw: o.f64_field("data_bw").unwrap_or(f64::NAN),
            peak_dram_c: o.f64_field("peak_dram_c").unwrap_or(f64::NAN),
            logic_c: o.f64_field("logic_c").unwrap_or(f64::NAN),
            phase: intern(o.str_field("phase").unwrap_or("?")),
            pool_size: o.u64_field("pool_size"),
            warp_cap: o.u64_field("warp_cap"),
        })
    }
}

/// One structured, simulation-time-stamped event.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// Identifies the run a timeline belongs to; emitted once at `t_ps`
    /// 0 by the co-simulation driver so a trace is self-describing.
    RunInfo {
        /// Simulation time (ps) — always 0.
        t_ps: u64,
        /// Offloading policy label (e.g. `"CoolPIM(SW)"`).
        policy: &'static str,
        /// Workload name (e.g. `"pagerank"`).
        workload: &'static str,
        /// ERRSTAT warning threshold (°C).
        threshold_c: f64,
        /// Thermal epoch length (ps).
        epoch_ps: u64,
    },
    /// The cube's peak DRAM temperature crossed the warning threshold
    /// upward: response tails start carrying ERRSTAT = 0x01.
    ThermalWarningRaised {
        /// Simulation time (ps).
        t_ps: u64,
        /// Peak DRAM temperature at the crossing (°C).
        peak_dram_c: f64,
        /// Monotonic warning ordinal (1-based within the run).
        warning_id: u64,
    },
    /// The cube's peak DRAM temperature dropped back below the warning
    /// threshold: the warning episode `warning_id` recovered.
    ThermalWarningCleared {
        /// Simulation time (ps).
        t_ps: u64,
        /// Peak DRAM temperature at the downward crossing (°C).
        peak_dram_c: f64,
        /// Id of the warning episode that just ended.
        warning_id: u64,
    },
    /// A throttling controller accepted a delivered warning for action
    /// (debounced duplicates within a control window are not recorded).
    ThermalWarningDelivered {
        /// Simulation time (ps).
        t_ps: u64,
        /// Id of the accepted warning (0 when the transport carried no
        /// id, e.g. hand-driven controller tests).
        warning_id: u64,
    },
    /// The cube moved between operating phases (normal / extended /
    /// critical / shutdown).
    PhaseTransition {
        /// Simulation time (ps).
        t_ps: u64,
        /// Phase before the move.
        from: &'static str,
        /// Phase after the move.
        to: &'static str,
    },
    /// The DRAM-domain frequency stretch changed with the phase.
    FrequencyDerate {
        /// Simulation time (ps).
        t_ps: u64,
        /// Timing stretch numerator (e.g. 5 for the 5/4 extended-range
        /// stretch).
        stretch_num: u64,
        /// Timing stretch denominator.
        stretch_den: u64,
        /// Warning episode active when the derate landed, if any.
        warning_id: Option<u64>,
    },
    /// The cube exceeded 105 °C and stopped serving requests.
    Shutdown {
        /// Simulation time (ps).
        t_ps: u64,
        /// Peak DRAM temperature that triggered the shutdown (°C).
        peak_dram_c: f64,
    },
    /// SW-DynT resized the PIM token pool.
    TokenPoolResize {
        /// Simulation time (ps) at which the resize took effect.
        t_ps: u64,
        /// Pool size before.
        old: u64,
        /// Pool size after.
        new: u64,
        /// What caused the resize (e.g. `"thermal_warning"`).
        trigger: &'static str,
        /// The warning this resize responds to (None for the Eq. 1 init
        /// sizing).
        warning_id: Option<u64>,
    },
    /// HW-DynT's PCU changed the per-SM PIM-enabled warp cap.
    WarpCapUpdate {
        /// Simulation time (ps) at which the update took effect.
        t_ps: u64,
        /// Enabled warp slots before (SM 0; the cap is cube-global).
        old_slots: u64,
        /// Enabled warp slots after.
        new_slots: u64,
        /// The warning this update responds to, if known.
        warning_id: Option<u64>,
    },
    /// One thermal epoch's record, the same value the run's timeline
    /// holds; streamed last in its epoch's batch.
    EpochSample(EpochRecord),
    /// A kernel grid was launched on the GPU.
    KernelLaunch {
        /// Simulation time (ps).
        t_ps: u64,
        /// 1-based launch ordinal within the run.
        launch: u64,
    },
    /// The workload's final grid retired (the run completed).
    KernelRetire {
        /// Simulation time (ps).
        t_ps: u64,
        /// 1-based ordinal of the retiring launch.
        launch: u64,
    },
    /// A periodic liveness beat from the co-simulation driver
    /// (`sim --heartbeat`): one line of progress for headless runs, built
    /// from the epoch's record by [`TelemetryEvent::heartbeat`].
    Heartbeat {
        /// Simulation time (ps).
        t_ps: u64,
        /// Thermal epochs completed so far.
        epoch: u64,
        /// Peak DRAM temperature at the beat (°C).
        peak_dram_c: f64,
        /// Operating phase at the beat.
        phase: &'static str,
        /// Observed simulation throughput (epochs per wall second).
        epochs_per_s: f64,
    },
    /// The flight recorder snapshotted its ring into a post-mortem
    /// bundle (see [`crate::flight`]).
    FlightDump {
        /// Simulation time of the triggering anomaly (ps).
        t_ps: u64,
        /// What triggered the dump (`"warning"`, `"phase"`,
        /// `"overshoot"`).
        trigger: &'static str,
        /// Frames captured in the bundle.
        frames: u64,
        /// Hottest vault in the newest frame at dump time.
        hottest_vault: u64,
    },
}

impl TelemetryEvent {
    /// The heartbeat for the epoch `rec` closed, at `epochs_per_s`
    /// observed throughput.
    pub fn heartbeat(rec: &EpochRecord, epochs_per_s: f64) -> Self {
        TelemetryEvent::Heartbeat {
            t_ps: rec.t_ps,
            epoch: rec.epoch,
            peak_dram_c: rec.peak_dram_c,
            phase: rec.phase,
            epochs_per_s,
        }
    }

    /// The event's simulation timestamp (ps).
    pub fn t_ps(&self) -> u64 {
        match *self {
            TelemetryEvent::RunInfo { t_ps, .. }
            | TelemetryEvent::ThermalWarningRaised { t_ps, .. }
            | TelemetryEvent::ThermalWarningCleared { t_ps, .. }
            | TelemetryEvent::ThermalWarningDelivered { t_ps, .. }
            | TelemetryEvent::PhaseTransition { t_ps, .. }
            | TelemetryEvent::FrequencyDerate { t_ps, .. }
            | TelemetryEvent::Shutdown { t_ps, .. }
            | TelemetryEvent::TokenPoolResize { t_ps, .. }
            | TelemetryEvent::WarpCapUpdate { t_ps, .. }
            | TelemetryEvent::EpochSample(EpochRecord { t_ps, .. })
            | TelemetryEvent::KernelLaunch { t_ps, .. }
            | TelemetryEvent::KernelRetire { t_ps, .. }
            | TelemetryEvent::Heartbeat { t_ps, .. }
            | TelemetryEvent::FlightDump { t_ps, .. } => t_ps,
        }
    }

    /// The warning episode this event belongs to, if any — the causal
    /// thread through a trace.
    pub fn warning_id(&self) -> Option<u64> {
        match *self {
            TelemetryEvent::ThermalWarningRaised { warning_id, .. }
            | TelemetryEvent::ThermalWarningCleared { warning_id, .. }
            | TelemetryEvent::ThermalWarningDelivered { warning_id, .. } => Some(warning_id),
            TelemetryEvent::FrequencyDerate { warning_id, .. }
            | TelemetryEvent::TokenPoolResize { warning_id, .. }
            | TelemetryEvent::WarpCapUpdate { warning_id, .. } => warning_id,
            _ => None,
        }
    }

    /// `(t_ps, warning_id)` when the event is a throttle action: a
    /// warning-triggered token-pool shrink (SW-DynT) or a warp-cap update
    /// (HW-DynT). Neither the `init` sizing nor a `stale_cancelled`
    /// resize (which leaves the pool unchanged) is an action. The co-sim
    /// loop's `throttle_steps` and `warning_to_action_ps` count by this
    /// rule.
    pub fn throttle_action(&self) -> Option<(u64, Option<u64>)> {
        match *self {
            TelemetryEvent::TokenPoolResize {
                t_ps,
                trigger: "thermal_warning",
                warning_id,
                ..
            }
            | TelemetryEvent::WarpCapUpdate {
                t_ps, warning_id, ..
            } => Some((t_ps, warning_id)),
            _ => None,
        }
    }

    /// The event kind as it appears in the JSONL `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::RunInfo { .. } => "RunInfo",
            TelemetryEvent::ThermalWarningRaised { .. } => "ThermalWarningRaised",
            TelemetryEvent::ThermalWarningCleared { .. } => "ThermalWarningCleared",
            TelemetryEvent::ThermalWarningDelivered { .. } => "ThermalWarningDelivered",
            TelemetryEvent::PhaseTransition { .. } => "PhaseTransition",
            TelemetryEvent::FrequencyDerate { .. } => "FrequencyDerate",
            TelemetryEvent::Shutdown { .. } => "Shutdown",
            TelemetryEvent::TokenPoolResize { .. } => "TokenPoolResize",
            TelemetryEvent::WarpCapUpdate { .. } => "WarpCapUpdate",
            TelemetryEvent::EpochSample(_) => "EpochSample",
            TelemetryEvent::KernelLaunch { .. } => "KernelLaunch",
            TelemetryEvent::KernelRetire { .. } => "KernelRetire",
            TelemetryEvent::Heartbeat { .. } => "Heartbeat",
            TelemetryEvent::FlightDump { .. } => "FlightDump",
        }
    }

    /// Encodes the event as one JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut b = JsonBuilder::new();
        b.str("kind", self.kind());
        if let TelemetryEvent::EpochSample(rec) = self {
            rec.write_json(&mut b);
            return b.finish();
        }
        b.u64("t_ps", self.t_ps());
        match self {
            TelemetryEvent::RunInfo {
                policy,
                workload,
                threshold_c,
                epoch_ps,
                ..
            } => {
                b.str("policy", policy)
                    .str("workload", workload)
                    .f64("threshold_c", *threshold_c)
                    .u64("epoch_ps", *epoch_ps);
            }
            TelemetryEvent::ThermalWarningRaised {
                peak_dram_c,
                warning_id,
                ..
            }
            | TelemetryEvent::ThermalWarningCleared {
                peak_dram_c,
                warning_id,
                ..
            } => {
                b.f64("peak_dram_c", *peak_dram_c)
                    .u64("warning_id", *warning_id);
            }
            TelemetryEvent::Shutdown { peak_dram_c, .. } => {
                b.f64("peak_dram_c", *peak_dram_c);
            }
            TelemetryEvent::ThermalWarningDelivered { warning_id, .. } => {
                b.u64("warning_id", *warning_id);
            }
            TelemetryEvent::PhaseTransition { from, to, .. } => {
                b.str("from", from).str("to", to);
            }
            TelemetryEvent::FrequencyDerate {
                stretch_num,
                stretch_den,
                warning_id,
                ..
            } => {
                b.u64("stretch_num", *stretch_num)
                    .u64("stretch_den", *stretch_den)
                    .opt_u64("warning_id", *warning_id);
            }
            TelemetryEvent::TokenPoolResize {
                old,
                new,
                trigger,
                warning_id,
                ..
            } => {
                b.u64("old", *old)
                    .u64("new", *new)
                    .str("trigger", trigger)
                    .opt_u64("warning_id", *warning_id);
            }
            TelemetryEvent::WarpCapUpdate {
                old_slots,
                new_slots,
                warning_id,
                ..
            } => {
                b.u64("old_slots", *old_slots)
                    .u64("new_slots", *new_slots)
                    .opt_u64("warning_id", *warning_id);
            }
            // The record wrote its own `t_ps` above.
            TelemetryEvent::EpochSample(_) => {}
            TelemetryEvent::KernelLaunch { launch, .. }
            | TelemetryEvent::KernelRetire { launch, .. } => {
                b.u64("launch", *launch);
            }
            TelemetryEvent::Heartbeat {
                epoch,
                peak_dram_c,
                phase,
                epochs_per_s,
                ..
            } => {
                b.u64("epoch", *epoch)
                    .f64("peak_dram_c", *peak_dram_c)
                    .str("phase", phase)
                    .f64("epochs_per_s", *epochs_per_s);
            }
            TelemetryEvent::FlightDump {
                trigger,
                frames,
                hottest_vault,
                ..
            } => {
                b.str("trigger", trigger)
                    .u64("frames", *frames)
                    .u64("hottest_vault", *hottest_vault);
            }
        }
        b.finish()
    }

    /// Parses one JSONL line produced by [`Self::to_jsonl`].
    ///
    /// Returns `None` for malformed lines, unknown kinds, or missing
    /// fields. String payloads are interned against the vocabulary this
    /// simulator emits (phase names, resize triggers, policy and
    /// workload labels); unrecognised strings map to `"?"`.
    pub fn from_jsonl(line: &str) -> Option<TelemetryEvent> {
        let fields = parse_flat_object(line)?;
        let kind = fields.str_field("kind")?;
        let t_ps = fields.u64_field("t_ps")?;
        Some(match kind {
            "RunInfo" => TelemetryEvent::RunInfo {
                t_ps,
                policy: intern(fields.str_field("policy")?),
                workload: intern(fields.str_field("workload")?),
                threshold_c: fields.f64_field("threshold_c")?,
                epoch_ps: fields.u64_field("epoch_ps")?,
            },
            "ThermalWarningRaised" => TelemetryEvent::ThermalWarningRaised {
                t_ps,
                peak_dram_c: fields.f64_field("peak_dram_c")?,
                warning_id: fields.u64_field("warning_id").unwrap_or(0),
            },
            "ThermalWarningCleared" => TelemetryEvent::ThermalWarningCleared {
                t_ps,
                peak_dram_c: fields.f64_field("peak_dram_c")?,
                warning_id: fields.u64_field("warning_id").unwrap_or(0),
            },
            "ThermalWarningDelivered" => TelemetryEvent::ThermalWarningDelivered {
                t_ps,
                warning_id: fields.u64_field("warning_id").unwrap_or(0),
            },
            "PhaseTransition" => TelemetryEvent::PhaseTransition {
                t_ps,
                from: intern(fields.str_field("from")?),
                to: intern(fields.str_field("to")?),
            },
            "FrequencyDerate" => TelemetryEvent::FrequencyDerate {
                t_ps,
                stretch_num: fields.u64_field("stretch_num")?,
                stretch_den: fields.u64_field("stretch_den")?,
                warning_id: fields.u64_field("warning_id"),
            },
            "Shutdown" => TelemetryEvent::Shutdown {
                t_ps,
                peak_dram_c: fields.f64_field("peak_dram_c")?,
            },
            "TokenPoolResize" => TelemetryEvent::TokenPoolResize {
                t_ps,
                old: fields.u64_field("old")?,
                new: fields.u64_field("new")?,
                trigger: intern(fields.str_field("trigger")?),
                warning_id: fields.u64_field("warning_id"),
            },
            "WarpCapUpdate" => TelemetryEvent::WarpCapUpdate {
                t_ps,
                old_slots: fields.u64_field("old_slots")?,
                new_slots: fields.u64_field("new_slots")?,
                warning_id: fields.u64_field("warning_id"),
            },
            "EpochSample" => TelemetryEvent::EpochSample(EpochRecord::from_json(&fields)?),
            "KernelLaunch" => TelemetryEvent::KernelLaunch {
                t_ps,
                launch: fields.u64_field("launch")?,
            },
            "KernelRetire" => TelemetryEvent::KernelRetire {
                t_ps,
                launch: fields.u64_field("launch")?,
            },
            "Heartbeat" => TelemetryEvent::Heartbeat {
                t_ps,
                epoch: fields.u64_field("epoch")?,
                peak_dram_c: fields.f64_field("peak_dram_c")?,
                phase: intern(fields.str_field("phase")?),
                epochs_per_s: fields.f64_field("epochs_per_s")?,
            },
            "FlightDump" => TelemetryEvent::FlightDump {
                t_ps,
                trigger: intern(fields.str_field("trigger")?),
                frames: fields.u64_field("frames")?,
                hottest_vault: fields.u64_field("hottest_vault")?,
            },
            _ => return None,
        })
    }
}

/// Maps a parsed string back to the static vocabulary the simulator
/// emits. Unknown strings become `"?"` (the crate never leaks). Public
/// so event producers can stamp run-scoped labels (policy, workload)
/// without carrying lifetimes.
pub fn intern(s: &str) -> &'static str {
    const VOCAB: &[&str] = &[
        // Phases.
        "Normal",
        "Extended",
        "Critical",
        "Shutdown",
        // Resize triggers.
        "thermal_warning",
        "init",
        "stale_cancelled",
        // Flight-recorder dump triggers.
        "warning",
        "phase",
        "overshoot",
        "lockstep_divergence",
        // Policy labels (paper figure names).
        "Non-Offloading",
        "Naive-Offloading",
        "CoolPIM(SW)",
        "CoolPIM(HW)",
        "IdealThermal",
        // Workload names.
        "dc",
        "bfs-ta",
        "bfs-dwc",
        "bfs-twc",
        "bfs-ttc",
        "kcore",
        "pagerank",
        "sssp-dtc",
        "sssp-dwc",
        "sssp-twc",
        "?",
    ];
    VOCAB.iter().find(|&&v| v == s).copied().unwrap_or("?")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: TelemetryEvent) {
        let line = ev.to_jsonl();
        let back =
            TelemetryEvent::from_jsonl(&line).unwrap_or_else(|| panic!("failed to parse {line:?}"));
        assert_eq!(ev, back, "round trip through {line:?}");
    }

    #[test]
    fn every_variant_round_trips() {
        roundtrip(TelemetryEvent::RunInfo {
            t_ps: 0,
            policy: "CoolPIM(SW)",
            workload: "pagerank",
            threshold_c: 84.0,
            epoch_ps: 100_000_000,
        });
        roundtrip(TelemetryEvent::ThermalWarningRaised {
            t_ps: 12,
            peak_dram_c: 84.25,
            warning_id: 1,
        });
        roundtrip(TelemetryEvent::ThermalWarningCleared {
            t_ps: 80,
            peak_dram_c: 83.5,
            warning_id: 1,
        });
        roundtrip(TelemetryEvent::ThermalWarningDelivered {
            t_ps: 99,
            warning_id: 2,
        });
        roundtrip(TelemetryEvent::PhaseTransition {
            t_ps: 1,
            from: "Normal",
            to: "Extended",
        });
        roundtrip(TelemetryEvent::FrequencyDerate {
            t_ps: 2,
            stretch_num: 5,
            stretch_den: 4,
            warning_id: Some(3),
        });
        roundtrip(TelemetryEvent::FrequencyDerate {
            t_ps: 2,
            stretch_num: 1,
            stretch_den: 1,
            warning_id: None,
        });
        roundtrip(TelemetryEvent::Shutdown {
            t_ps: 3,
            peak_dram_c: 105.5,
        });
        roundtrip(TelemetryEvent::TokenPoolResize {
            t_ps: 4,
            old: 96,
            new: 92,
            trigger: "thermal_warning",
            warning_id: Some(1),
        });
        roundtrip(TelemetryEvent::TokenPoolResize {
            t_ps: 0,
            old: 96,
            new: 96,
            trigger: "init",
            warning_id: None,
        });
        roundtrip(TelemetryEvent::WarpCapUpdate {
            t_ps: 5,
            old_slots: 8,
            new_slots: 6,
            warning_id: Some(7),
        });
        roundtrip(TelemetryEvent::EpochSample(EpochRecord {
            t_ps: 6,
            epoch: 3,
            pim_rate_op_ns: 1.375,
            data_bw: 1.5e11,
            peak_dram_c: 83.0,
            logic_c: 81.5,
            phase: "Normal",
            pool_size: Some(92),
            warp_cap: None,
        }));
        roundtrip(TelemetryEvent::KernelLaunch { t_ps: 7, launch: 1 });
        roundtrip(TelemetryEvent::KernelRetire { t_ps: 8, launch: 3 });
        roundtrip(TelemetryEvent::Heartbeat {
            t_ps: 10,
            epoch: 250,
            peak_dram_c: 84.5,
            phase: "Extended",
            epochs_per_s: 1234.5,
        });
        roundtrip(TelemetryEvent::FlightDump {
            t_ps: 9,
            trigger: "warning",
            frames: 64,
            hottest_vault: 13,
        });
    }

    #[test]
    fn malformed_lines_return_none() {
        assert!(TelemetryEvent::from_jsonl("").is_none());
        assert!(TelemetryEvent::from_jsonl("{}").is_none());
        assert!(TelemetryEvent::from_jsonl("{\"kind\":\"Nope\",\"t_ps\":1}").is_none());
        assert!(TelemetryEvent::from_jsonl("{\"kind\":\"KernelLaunch\",\"t_ps\":1}").is_none());
        assert!(TelemetryEvent::from_jsonl("not json").is_none());
    }

    #[test]
    fn unknown_strings_intern_to_placeholder() {
        let ev = TelemetryEvent::from_jsonl(
            "{\"kind\":\"PhaseTransition\",\"t_ps\":1,\"from\":\"Weird\",\"to\":\"Critical\"}",
        )
        .unwrap();
        assert_eq!(
            ev,
            TelemetryEvent::PhaseTransition {
                t_ps: 1,
                from: "?",
                to: "Critical"
            }
        );
    }

    #[test]
    fn pre_correlation_lines_still_parse() {
        // PR 1 traces carried no warning_id: the field defaults.
        let ev = TelemetryEvent::from_jsonl(
            "{\"kind\":\"ThermalWarningRaised\",\"t_ps\":5,\"peak_dram_c\":85.0}",
        )
        .unwrap();
        assert_eq!(ev.warning_id(), Some(0));
        let ev = TelemetryEvent::from_jsonl(
            "{\"kind\":\"TokenPoolResize\",\"t_ps\":9,\"old\":8,\"new\":4,\"trigger\":\"thermal_warning\"}",
        )
        .unwrap();
        assert_eq!(ev.warning_id(), None);
    }

    #[test]
    fn epoch_samples_written_before_the_record_still_parse() {
        // Older traces lacked epoch, logic_c and the throttle state.
        let line = r#"{"kind":"EpochSample","t_ps":6,"pim_rate_op_ns":1.5,"data_bw":2e9,"peak_dram_c":83,"phase":"Normal"}"#;
        let Some(TelemetryEvent::EpochSample(rec)) = TelemetryEvent::from_jsonl(line) else {
            panic!("{line} must parse");
        };
        assert_eq!(
            (rec.t_ps, rec.epoch, rec.peak_dram_c, rec.phase),
            (6, 0, 83.0, "Normal")
        );
        assert!(rec.logic_c.is_nan() && rec.pool_size.is_none() && rec.warp_cap.is_none());
        assert_eq!(
            TelemetryEvent::heartbeat(&rec, 2.0),
            TelemetryEvent::Heartbeat {
                t_ps: 6,
                epoch: 0,
                peak_dram_c: 83.0,
                phase: "Normal",
                epochs_per_s: 2.0,
            }
        );
    }

    #[test]
    fn kind_time_and_warning_accessors() {
        let ev = TelemetryEvent::TokenPoolResize {
            t_ps: 42,
            old: 8,
            new: 4,
            trigger: "init",
            warning_id: None,
        };
        assert_eq!(ev.kind(), "TokenPoolResize");
        assert_eq!(ev.t_ps(), 42);
        assert_eq!(ev.warning_id(), None);
        let ev = TelemetryEvent::ThermalWarningRaised {
            t_ps: 1,
            peak_dram_c: 85.0,
            warning_id: 3,
        };
        assert_eq!(ev.warning_id(), Some(3));
        assert_eq!(
            TelemetryEvent::KernelLaunch { t_ps: 7, launch: 1 }.warning_id(),
            None
        );
    }

    #[test]
    fn throttle_actions_are_warning_shrinks_and_cap_updates() {
        let resize = |trigger| TelemetryEvent::TokenPoolResize {
            t_ps: 9,
            old: 8,
            new: 4,
            trigger,
            warning_id: Some(2),
        };
        assert_eq!(
            resize("thermal_warning").throttle_action(),
            Some((9, Some(2)))
        );
        assert_eq!(resize("stale_cancelled").throttle_action(), None);
        assert_eq!(resize("init").throttle_action(), None);
        let cap = TelemetryEvent::WarpCapUpdate {
            t_ps: 5,
            old_slots: 8,
            new_slots: 6,
            warning_id: None,
        };
        assert_eq!(cap.throttle_action(), Some((5, None)));
    }

    #[test]
    fn intern_covers_policies_and_workloads() {
        assert_eq!(intern("CoolPIM(HW)"), "CoolPIM(HW)");
        assert_eq!(intern("pagerank"), "pagerank");
        assert_eq!(intern("nope"), "?");
    }
}
