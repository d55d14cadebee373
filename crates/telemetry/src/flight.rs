//! Spatial flight recorder: a fixed-capacity ring of per-vault samples
//! and the versioned post-mortem bundle it dumps on thermal anomalies.
//!
//! The paper's core evidence is *spatial* (Fig. 3's infrared heat map
//! concentrates over specific vaults), but the scalar telemetry of the
//! event stream cannot answer "*which* vault overheated and *which* PIM
//! traffic put the heat there". The co-simulator fills a
//! [`FlightRecorder`] every thermal epoch with one [`FlightFrame`]: the
//! epoch's [`EpochRecord`] plus per-vault peak DRAM temperature from the
//! solver grid and per-vault bandwidth/queue/PIM activity from the cube
//! window. On an anomaly (warning raised, phase
//! change, overshoot-episode start) it snapshots the ring into a
//! [`PostmortemBundle`] — the last K seconds of spatial history *before*
//! the event plus the cumulative SM → vault PIM attribution — encoded as
//! flat JSONL via [`crate::json`] so the `postmortem` tool can rank
//! vaults by °C·s contribution and SMs by PIM ops routed to hot vaults.
//!
//! The recorder allocates once at construction ([`FlightRecorder::new`])
//! and never on the sampling path: [`FlightRecorder::record`] stores the
//! record and hands back the slot's cleared per-vault samples to fill.

use crate::event::{intern, EpochRecord};
use crate::json::{parse_flat_object, JsonBuilder};

/// Version stamped into every bundle; bump on incompatible layout
/// changes so old tooling refuses rather than mis-reads.
pub const BUNDLE_SCHEMA_VERSION: u64 = 1;

/// One vault's state within a [`FlightFrame`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VaultSample {
    /// Peak DRAM temperature over the vault's footprint (°C).
    pub peak_dram_c: f64,
    /// Transactions (reads + writes + PIM) serviced in the epoch window.
    pub ops: u64,
    /// PIM operations serviced in the epoch window.
    pub pim_ops: u64,
    /// Raw FLITs moved for this vault's transactions in the window.
    pub flits: u64,
    /// Summed bank-queue wait of the window's transactions (ps) — the
    /// queue-depth proxy the ring records.
    pub queue_wait_ps: u64,
}

/// One sampled epoch: its record plus the per-vault breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightFrame {
    /// The epoch's cube-level scalars.
    pub record: EpochRecord,
    /// Per-vault samples (index = vault id).
    pub vaults: Vec<VaultSample>,
}

/// Fixed-capacity ring buffer of [`FlightFrame`]s.
///
/// All frames (and their per-vault vectors) are allocated up front; the
/// hot path overwrites the oldest slot in place. Iteration order is
/// oldest → newest.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    frames: Vec<FlightFrame>,
    /// Next slot to overwrite.
    head: usize,
    /// Live frames (≤ capacity).
    len: usize,
    /// Total frames ever recorded (monotonic; counts overwrites).
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder holding up to `capacity` frames of `vaults` vaults
    /// each. Allocates everything now; panics on zero capacity.
    pub fn new(capacity: usize, vaults: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity >= 1");
        let frames = (0..capacity)
            .map(|_| FlightFrame {
                record: EpochRecord::default(),
                vaults: vec![VaultSample::default(); vaults],
            })
            .collect();
        Self {
            frames,
            head: 0,
            len: 0,
            recorded: 0,
        }
    }

    /// Maximum number of retained frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Number of live frames (saturates at capacity once wrapped).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total frames ever recorded, including ones overwritten by the
    /// ring.
    pub fn total_recorded(&self) -> u64 {
        self.recorded
    }

    /// Claims the next slot (overwriting the oldest frame once full),
    /// stores `record` there and returns the slot's per-vault samples
    /// cleared, for the caller to fill in place. Performs no allocation.
    pub fn record(&mut self, record: EpochRecord) -> &mut [VaultSample] {
        let slot = self.head;
        self.head = (self.head + 1) % self.frames.len();
        self.len = (self.len + 1).min(self.frames.len());
        self.recorded += 1;
        let f = &mut self.frames[slot];
        f.record = record;
        f.vaults.fill(VaultSample::default());
        &mut f.vaults
    }

    /// Live frames, oldest → newest.
    pub fn iter_ordered(&self) -> impl Iterator<Item = &FlightFrame> {
        let cap = self.frames.len();
        let start = (self.head + cap - self.len) % cap;
        (0..self.len).map(move |i| &self.frames[(start + i) % cap])
    }

    /// The most recently recorded frame, if any.
    pub fn latest(&self) -> Option<&FlightFrame> {
        if self.len == 0 {
            None
        } else {
            Some(&self.frames[(self.head + self.frames.len() - 1) % self.frames.len()])
        }
    }
}

/// One SM's cumulative PIM-op counts per vault, as carried by a bundle.
/// `sm = None` groups PIM traffic that reached the cube without a source
/// tag (e.g. hand-driven cube tests).
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Source SM id (None = untagged traffic).
    pub sm: Option<u64>,
    /// PIM ops routed to each vault (index = vault id).
    pub vault_pim_ops: Vec<u64>,
}

/// One vault's entry in a post-mortem ranking (see
/// [`PostmortemBundle::rank_vaults`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VaultRank {
    /// Vault id.
    pub vault: usize,
    /// Integrated °C·s above the warning threshold over the recorded
    /// history — the vault's thermal contribution to the anomaly.
    pub cs_above: f64,
    /// Peak temperature in the newest frame (°C).
    pub latest_peak_c: f64,
    /// PIM ops over the recorded frames.
    pub pim_ops: u64,
}

/// A snapshot of the flight ring at anomaly time, plus the cumulative
/// SM → vault attribution — everything `postmortem` needs to answer
/// "which vault, and whose traffic".
#[derive(Debug, Clone, PartialEq)]
pub struct PostmortemBundle {
    /// Bundle schema version ([`BUNDLE_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// What triggered the dump (`"warning"`, `"phase"`, `"overshoot"`).
    pub trigger: &'static str,
    /// Simulation time of the trigger (ps).
    pub t_ps: u64,
    /// Warning episode that triggered the dump, if the trigger carried
    /// one.
    pub warning_id: Option<u64>,
    /// ERRSTAT warning threshold the run used (°C).
    pub threshold_c: f64,
    /// Thermal epoch length of the run (ps).
    pub epoch_ps: u64,
    /// Frames at dump time, oldest → newest.
    pub frames: Vec<FlightFrame>,
    /// Cumulative per-SM, per-vault PIM-op counts at dump time.
    pub attribution: Vec<AttributionRow>,
}

impl PostmortemBundle {
    /// Snapshots `rec` into a bundle (attribution rows are appended by
    /// the caller via [`Self::push_attribution_row`]).
    pub fn from_recorder(
        trigger: &'static str,
        t_ps: u64,
        warning_id: Option<u64>,
        threshold_c: f64,
        epoch_ps: u64,
        rec: &FlightRecorder,
    ) -> Self {
        Self {
            schema_version: BUNDLE_SCHEMA_VERSION,
            trigger,
            t_ps,
            warning_id,
            threshold_c,
            epoch_ps,
            frames: rec.iter_ordered().cloned().collect(),
            attribution: Vec::new(),
        }
    }

    /// Appends one SM's per-vault PIM-op counts.
    pub fn push_attribution_row(&mut self, sm: Option<u64>, vault_pim_ops: Vec<u64>) {
        self.attribution.push(AttributionRow { sm, vault_pim_ops });
    }

    /// Number of vaults per frame (0 for an empty bundle).
    pub fn vaults(&self) -> usize {
        self.frames.first().map_or(0, |f| f.vaults.len())
    }

    /// The vault with the highest peak temperature in the newest frame —
    /// "the hottest vault at dump time" per the thermal solver.
    pub fn hottest_vault(&self) -> Option<usize> {
        let last = self.frames.last()?;
        last.vaults
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.peak_dram_c.total_cmp(&b.1.peak_dram_c))
            .map(|(v, _)| v)
    }

    /// Per-vault °C·s above the warning threshold integrated over the
    /// recorded frames (frame spacing from timestamps; the first frame
    /// is weighted by one epoch).
    pub fn vault_cs_above(&self) -> Vec<f64> {
        let n = self.vaults();
        let mut cs = vec![0.0; n];
        let mut prev_t = None;
        for f in &self.frames {
            let t_ps = f.record.t_ps;
            let dt_ps = match prev_t {
                Some(p) => t_ps.saturating_sub(p).max(1),
                None => self.epoch_ps.max(1),
            };
            prev_t = Some(t_ps);
            let dt_s = dt_ps as f64 * 1e-12;
            for (v, s) in f.vaults.iter().enumerate() {
                cs[v] += (s.peak_dram_c - self.threshold_c).max(0.0) * dt_s;
            }
        }
        cs
    }

    /// Vaults ranked by °C·s contribution (ties broken by the newest
    /// frame's peak temperature).
    pub fn rank_vaults(&self) -> Vec<VaultRank> {
        let cs = self.vault_cs_above();
        let latest = self.frames.last();
        let mut ranks: Vec<VaultRank> = (0..self.vaults())
            .map(|v| VaultRank {
                vault: v,
                cs_above: cs[v],
                latest_peak_c: latest.map_or(0.0, |f| f.vaults[v].peak_dram_c),
                pim_ops: self.frames.iter().map(|f| f.vaults[v].pim_ops).sum(),
            })
            .collect();
        ranks.sort_by(|a, b| {
            b.cs_above
                .total_cmp(&a.cs_above)
                .then(b.latest_peak_c.total_cmp(&a.latest_peak_c))
        });
        ranks
    }

    /// PIM ops each SM routed to `vaults`, most first (None = untagged
    /// traffic). Pass every vault id to rank by total PIM ops.
    pub fn sm_pim_ops_to(&self, vaults: &[usize]) -> Vec<(Option<u64>, u64)> {
        let mut rows: Vec<(Option<u64>, u64)> = self
            .attribution
            .iter()
            .map(|r| {
                let ops = vaults
                    .iter()
                    .filter_map(|&v| r.vault_pim_ops.get(v))
                    .sum::<u64>();
                (r.sm, ops)
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Encodes the bundle as flat JSONL: one header line, one `Frame`
    /// line per frame (its index, then the whole [`EpochRecord`]), one `VaultSample` line per (frame, vault), and
    /// one `Attribution` line per non-zero (SM, vault) pair.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let mut h = JsonBuilder::new();
        h.str("kind", "PostmortemHeader")
            .u64("schema_version", self.schema_version)
            .str("trigger", self.trigger)
            .u64("t_ps", self.t_ps)
            .opt_u64("warning_id", self.warning_id)
            .f64("threshold_c", self.threshold_c)
            .u64("epoch_ps", self.epoch_ps)
            .u64("vaults", self.vaults() as u64)
            .u64("frames", self.frames.len() as u64)
            .opt_u64("hottest_vault", self.hottest_vault().map(|v| v as u64));
        out.push_str(&h.finish());
        out.push('\n');
        for (i, f) in self.frames.iter().enumerate() {
            let mut b = JsonBuilder::new();
            b.str("kind", "Frame").u64("idx", i as u64);
            f.record.write_json(&mut b);
            out.push_str(&b.finish());
            out.push('\n');
            for (v, s) in f.vaults.iter().enumerate() {
                let mut b = JsonBuilder::new();
                b.str("kind", "VaultSample")
                    .u64("frame", i as u64)
                    .u64("vault", v as u64)
                    .f64("peak_c", s.peak_dram_c)
                    .u64("ops", s.ops)
                    .u64("pim_ops", s.pim_ops)
                    .u64("flits", s.flits)
                    .u64("queue_wait_ps", s.queue_wait_ps);
                out.push_str(&b.finish());
                out.push('\n');
            }
        }
        for r in &self.attribution {
            for (v, &ops) in r.vault_pim_ops.iter().enumerate() {
                if ops == 0 {
                    continue;
                }
                let mut b = JsonBuilder::new();
                b.str("kind", "Attribution")
                    .opt_u64("sm", r.sm)
                    .u64("vault", v as u64)
                    .u64("pim_ops", ops);
                out.push_str(&b.finish());
                out.push('\n');
            }
        }
        out
    }

    /// Parses a bundle produced by [`Self::encode`]. Returns `Err` on a
    /// missing/foreign header, unknown schema version, or malformed
    /// lines.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty bundle")?;
        let h = parse_flat_object(header).ok_or("header is not flat JSON")?;
        if h.str_field("kind") != Some("PostmortemHeader") {
            return Err("first line is not a PostmortemHeader".into());
        }
        let version = h
            .u64_field("schema_version")
            .ok_or("missing schema_version")?;
        if version != BUNDLE_SCHEMA_VERSION {
            return Err(format!(
                "bundle schema version {version} (this build reads {BUNDLE_SCHEMA_VERSION})"
            ));
        }
        let vaults = h.u64_field("vaults").ok_or("missing vaults")? as usize;
        let n_frames = h.u64_field("frames").ok_or("missing frames")? as usize;
        let mut bundle = Self {
            schema_version: version,
            trigger: intern(h.str_field("trigger").unwrap_or("?")),
            t_ps: h.u64_field("t_ps").ok_or("missing t_ps")?,
            warning_id: h.u64_field("warning_id"),
            threshold_c: h.f64_field("threshold_c").ok_or("missing threshold_c")?,
            epoch_ps: h.u64_field("epoch_ps").ok_or("missing epoch_ps")?,
            frames: vec![
                FlightFrame {
                    record: EpochRecord::default(),
                    vaults: vec![VaultSample::default(); vaults],
                };
                n_frames
            ],
            attribution: Vec::new(),
        };
        for line in lines {
            let o = parse_flat_object(line).ok_or_else(|| format!("malformed line {line:?}"))?;
            match o.str_field("kind") {
                Some("Frame") => {
                    let i = o.u64_field("idx").ok_or("Frame without idx")? as usize;
                    let f = bundle
                        .frames
                        .get_mut(i)
                        .ok_or_else(|| format!("frame idx {i} out of range"))?;
                    f.record = EpochRecord::from_json(&o).ok_or("Frame without t_ps")?;
                }
                Some("VaultSample") => {
                    let i = o.u64_field("frame").ok_or("VaultSample without frame")? as usize;
                    let v = o.u64_field("vault").ok_or("VaultSample without vault")? as usize;
                    let s = bundle
                        .frames
                        .get_mut(i)
                        .and_then(|f| f.vaults.get_mut(v))
                        .ok_or_else(|| format!("vault sample ({i},{v}) out of range"))?;
                    s.peak_dram_c = o.f64_field("peak_c").unwrap_or(f64::NAN);
                    s.ops = o.u64_field("ops").unwrap_or(0);
                    s.pim_ops = o.u64_field("pim_ops").unwrap_or(0);
                    s.flits = o.u64_field("flits").unwrap_or(0);
                    s.queue_wait_ps = o.u64_field("queue_wait_ps").unwrap_or(0);
                }
                Some("Attribution") => {
                    let sm = o.u64_field("sm");
                    let v = o.u64_field("vault").ok_or("Attribution without vault")? as usize;
                    let ops = o
                        .u64_field("pim_ops")
                        .ok_or("Attribution without pim_ops")?;
                    if v >= vaults {
                        return Err(format!("attribution vault {v} out of range"));
                    }
                    let row = match bundle.attribution.iter_mut().find(|r| r.sm == sm) {
                        Some(r) => r,
                        None => {
                            bundle.attribution.push(AttributionRow {
                                sm,
                                vault_pim_ops: vec![0; vaults],
                            });
                            bundle.attribution.last_mut().expect("just pushed")
                        }
                    };
                    row.vault_pim_ops[v] += ops;
                }
                other => return Err(format!("unknown bundle line kind {other:?}")),
            }
        }
        Ok(bundle)
    }

    /// Reads and parses a bundle file.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(rec: &mut FlightRecorder, t_ps: u64, hot_vault: usize, peak: f64) {
        let vaults = rec.record(EpochRecord {
            t_ps,
            epoch: t_ps / 100,
            pim_rate_op_ns: 0.5,
            data_bw: 1e11,
            peak_dram_c: peak,
            logic_c: peak - 2.0,
            phase: "Normal",
            pool_size: Some(60),
            warp_cap: None,
        });
        for (v, s) in vaults.iter_mut().enumerate() {
            s.peak_dram_c = if v == hot_vault { peak } else { peak - 10.0 };
            s.ops = (v + 1) as u64;
            s.pim_ops = if v == hot_vault { 50 } else { 1 };
            s.flits = 3 * s.ops;
            s.queue_wait_ps = 7;
        }
    }

    #[test]
    fn ring_wraparound_preserves_order_and_capacity() {
        let mut rec = FlightRecorder::new(4, 2);
        assert!(rec.is_empty());
        for t in 1..=7u64 {
            stamp(&mut rec, t * 100, 0, 80.0);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.capacity(), 4);
        assert_eq!(rec.total_recorded(), 7);
        let times: Vec<u64> = rec.iter_ordered().map(|f| f.record.t_ps).collect();
        assert_eq!(times, vec![400, 500, 600, 700]);
        assert_eq!(rec.latest().unwrap().record.t_ps, 700);
    }

    #[test]
    fn record_clears_the_reused_slot() {
        let mut rec = FlightRecorder::new(2, 3);
        stamp(&mut rec, 100, 1, 90.0);
        stamp(&mut rec, 200, 1, 90.0);
        let vaults = rec.record(EpochRecord::default()); // overwrites the t=100 slot
        assert!(vaults.iter().all(|v| *v == VaultSample::default()));
        assert_eq!(vaults.len(), 3);
        assert_eq!(rec.latest().unwrap().record, EpochRecord::default());
    }

    #[test]
    fn bundle_round_trips_through_jsonl() {
        let mut rec = FlightRecorder::new(8, 4);
        stamp(&mut rec, 1_000, 2, 82.0);
        stamp(&mut rec, 2_000, 2, 86.0);
        let mut b = PostmortemBundle::from_recorder("warning", 2_000, Some(3), 84.0, 1_000, &rec);
        b.push_attribution_row(Some(0), vec![5, 0, 40, 0]);
        b.push_attribution_row(Some(1), vec![0, 1, 10, 0]);
        b.push_attribution_row(None, vec![0, 0, 2, 0]);
        let text = b.encode();
        let back = PostmortemBundle::parse(&text).expect("parses");
        assert_eq!(back, b);
        assert_eq!(back.frames.len(), 2);
        assert_eq!(back.vaults(), 4);
        assert_eq!(back.warning_id, Some(3));
    }

    #[test]
    fn ranking_finds_the_hot_vault_and_its_sm() {
        let mut rec = FlightRecorder::new(8, 4);
        stamp(&mut rec, 1_000, 2, 88.0);
        stamp(&mut rec, 2_000, 2, 90.0);
        let mut b = PostmortemBundle::from_recorder("warning", 2_000, None, 84.0, 1_000, &rec);
        b.push_attribution_row(Some(0), vec![5, 0, 40, 0]);
        b.push_attribution_row(Some(1), vec![9, 1, 10, 0]);
        assert_eq!(b.hottest_vault(), Some(2));
        let ranks = b.rank_vaults();
        assert_eq!(ranks[0].vault, 2, "hot vault must rank first");
        assert!(ranks[0].cs_above > ranks[1].cs_above);
        assert_eq!(ranks[0].pim_ops, 100);
        // SM 0 routed the most PIM ops to the hot vault.
        let sms = b.sm_pim_ops_to(&[2]);
        assert_eq!(sms[0], (Some(0), 40));
        assert_eq!(sms[1], (Some(1), 10));
    }

    #[test]
    fn cs_above_is_zero_when_below_threshold() {
        let mut rec = FlightRecorder::new(4, 2);
        stamp(&mut rec, 1_000, 0, 50.0);
        let b = PostmortemBundle::from_recorder("overshoot", 1_000, None, 84.0, 1_000, &rec);
        assert!(b.vault_cs_above().iter().all(|&c| c == 0.0));
    }

    #[test]
    fn malformed_bundles_are_rejected() {
        assert!(PostmortemBundle::parse("").is_err());
        assert!(PostmortemBundle::parse("{\"kind\":\"Frame\",\"idx\":0}").is_err());
        let wrong_version = "{\"kind\":\"PostmortemHeader\",\"schema_version\":99,\"trigger\":\"warning\",\"t_ps\":1,\"threshold_c\":84,\"epoch_ps\":1,\"vaults\":1,\"frames\":0}";
        let err = PostmortemBundle::parse(wrong_version).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
        assert!(PostmortemBundle::parse("not json").is_err());
    }

    #[test]
    fn frames_written_before_the_record_still_parse() {
        // Older bundles' Frame lines lacked the epoch's rate and bandwidth.
        let text = concat!(
            r#"{"kind":"PostmortemHeader","schema_version":1,"trigger":"warning","t_ps":5,"threshold_c":84,"epoch_ps":5,"vaults":1,"frames":1}"#,
            "\n",
            r#"{"kind":"Frame","idx":0,"t_ps":5,"epoch":1,"peak_dram_c":85,"logic_c":80,"phase":"Extended","pool_size":60}"#,
        );
        let b = PostmortemBundle::parse(text).expect("parses");
        let r = b.frames[0].record;
        assert_eq!(
            (r.t_ps, r.epoch, r.phase, r.pool_size),
            (5, 1, "Extended", Some(60))
        );
        assert!(r.pim_rate_op_ns.is_nan() && r.data_bw.is_nan());
    }

    #[test]
    fn empty_bundle_has_no_hottest_vault() {
        let rec = FlightRecorder::new(4, 2);
        let b = PostmortemBundle::from_recorder("phase", 0, None, 84.0, 1_000, &rec);
        assert_eq!(b.hottest_vault(), None);
        assert_eq!(b.vaults(), 0);
        let back = PostmortemBundle::parse(&b.encode()).expect("parses");
        assert!(back.frames.is_empty());
    }
}
