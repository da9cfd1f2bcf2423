//! Online adaptive leakage control (the paper's titular "adaptive" claim,
//! §6 discussion): a per-shot feedback controller that estimates the live
//! leakage rate from signals the policies already see — syndrome detection
//! events and ERASER+M's |L⟩ readout labels — and retunes the LRC density
//! mid-run.
//!
//! The subsystem is one policy, [`AdaptivePolicy`]: an [`LrcPolicy`] that
//! runs a cheap base policy in `Base` mode and a full ERASER+M instance in
//! `Escalated` mode, switching per round. Each round it folds the round's
//! leakage-activity rate into an exponentially-weighted moving average
//! kept in Q16 fixed point (65536 = rate 1.0), so every statistic the
//! runner merges stays integer-valued and bit-identical across thread
//! counts and stripe widths. A hysteresis law then maps the estimate to the
//! mode: escalate above `up`, de-escalate below `down`, never switch before
//! the dwell time, and (the `adaptive-budget` law) stop escalating once a
//! per-shot LRC quota is spent. In the 64-lane striped runtime each lane
//! carries its own controller; decisions surface as per-lane masks over the
//! static `SlotTable` schedule, so the bit-packed path never leaves its
//! masked-op IR.
//!
//! [`LeakageProfile`] generalizes the leakage-storm test scenario into a
//! first-class noise schedule (stationary, bursts, ramps) injected by the
//! runner, giving the controller a time-varying workload to adapt to.

use crate::policy::{LeakageDetections, LrcPolicy, RoundContext};
use surface_code::{LrcAssignment, RotatedCode};

/// One unit in the controller's Q16 fixed-point rate representation.
pub const Q16_ONE: u32 = 1 << 16;

// ---------------------------------------------------------------------------
// Leakage profiles (time-varying injected leakage)
// ---------------------------------------------------------------------------

/// A deterministic schedule of *extra* per-round leakage injected on every
/// data qubit, on top of whatever the noise model already produces. This is
/// the `leakage_storm_recovery` scenario promoted to a first-class knob:
/// the runner applies `LeakInject` with the profile's rate at the top of
/// each round, identically in every stripe lane.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum LeakageProfile {
    /// No injected leakage beyond the noise model (the default).
    #[default]
    Stationary,
    /// Leakage storms: starting at round `start`, each data qubit leaks
    /// with probability `rate` per round for `len` consecutive rounds,
    /// repeating every `period` rounds (`period == 0` = a single burst).
    Burst {
        /// First storm round.
        start: usize,
        /// Storm length in rounds.
        len: usize,
        /// Storm repetition period (0 = one-shot).
        period: usize,
        /// Per-qubit per-round leak probability during a storm.
        rate: f64,
    },
    /// A linear ramp: zero before `start`, rising to `peak` over `len`
    /// rounds, then holding at `peak`.
    Ramp {
        /// First ramping round.
        start: usize,
        /// Rounds taken to reach the peak.
        len: usize,
        /// Final per-qubit per-round leak probability.
        peak: f64,
    },
}

impl LeakageProfile {
    /// The extra per-qubit leak probability injected at round `round`.
    pub fn extra_leak_p(&self, round: usize) -> f64 {
        match *self {
            LeakageProfile::Stationary => 0.0,
            LeakageProfile::Burst {
                start,
                len,
                period,
                rate,
            } => {
                if round < start {
                    return 0.0;
                }
                let phase = if period == 0 {
                    round - start
                } else {
                    (round - start) % period
                };
                if phase < len {
                    rate
                } else {
                    0.0
                }
            }
            LeakageProfile::Ramp { start, len, peak } => {
                if round < start {
                    0.0
                } else if round - start < len {
                    peak * (round - start + 1) as f64 / len as f64
                } else {
                    peak
                }
            }
        }
    }

    /// Validates the profile's knobs.
    pub fn validate(&self) -> Result<(), &'static str> {
        match *self {
            LeakageProfile::Stationary => Ok(()),
            LeakageProfile::Burst {
                len, period, rate, ..
            } => {
                if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                    Err("burst rate must be a probability in [0, 1]")
                } else if len == 0 {
                    Err("burst length must be at least one round")
                } else if period != 0 && period < len {
                    Err("burst period must cover the burst length")
                } else {
                    Ok(())
                }
            }
            LeakageProfile::Ramp { len, peak, .. } => {
                if !(peak.is_finite() && (0.0..=1.0).contains(&peak)) {
                    Err("ramp peak must be a probability in [0, 1]")
                } else if len == 0 {
                    Err("ramp length must be at least one round")
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Parses a profile spec: `stationary`,
    /// `burst:start=S,len=L,period=P,rate=R` (period optional), or
    /// `ramp:start=S,len=L,peak=R`. Used by the serve protocol.
    pub fn parse_spec(raw: &str) -> Result<LeakageProfile, &'static str> {
        let raw = raw.trim();
        let (head, tail) = match raw.split_once(':') {
            Some((h, t)) => (h.trim(), Some(t)),
            None => (raw, None),
        };
        let profile = match head {
            "stationary" => {
                if tail.is_some() {
                    return Err("stationary takes no knobs");
                }
                LeakageProfile::Stationary
            }
            "burst" => {
                let mut start = 0usize;
                let mut len = 0usize;
                let mut period = 0usize;
                let mut rate = f64::NAN;
                for (key, value) in parse_knobs(tail.unwrap_or(""))? {
                    match key {
                        "start" => start = parse_int(value)?,
                        "len" => len = parse_int(value)?,
                        "period" => period = parse_int(value)?,
                        "rate" => rate = parse_f64(value)?,
                        _ => return Err("unknown burst knob (expected start/len/period/rate)"),
                    }
                }
                LeakageProfile::Burst {
                    start,
                    len,
                    period,
                    rate,
                }
            }
            "ramp" => {
                let mut start = 0usize;
                let mut len = 0usize;
                let mut peak = f64::NAN;
                for (key, value) in parse_knobs(tail.unwrap_or(""))? {
                    match key {
                        "start" => start = parse_int(value)?,
                        "len" => len = parse_int(value)?,
                        "peak" => peak = parse_f64(value)?,
                        _ => return Err("unknown ramp knob (expected start/len/peak)"),
                    }
                }
                LeakageProfile::Ramp { start, len, peak }
            }
            _ => return Err("unknown profile (expected \"stationary\", \"burst\", or \"ramp\")"),
        };
        profile.validate()?;
        Ok(profile)
    }
}

// ---------------------------------------------------------------------------
// The control law
// ---------------------------------------------------------------------------

/// Weight of one |L⟩ label relative to one detection event in
/// [`rate_q16`]. A label is *direct* evidence of leakage (the multi-level
/// discriminator saw the |L⟩ state itself), where an event is
/// circumstantial — ordinary Pauli noise fires checks all the time. The
/// high weight lets a threshold sit above the multi-event Pauli noise
/// floor yet still trip on a single labelled readout, which matters at
/// small distances where one stabilizer is a coarse fraction of the code.
const LABEL_WEIGHT: u64 = 4;

/// A round's raw leakage-activity rate in Q16, from the signals a
/// controller sees without oracle access: `fired` detection events and
/// `leaked_labels` parity readouts labeled |L⟩ (zero under two-level
/// readout), out of `num_stabs` stabilizer readouts.
fn rate_q16(fired: u32, leaked_labels: u32, num_stabs: u32) -> u32 {
    if num_stabs == 0 {
        return 0;
    }
    let weighted = u64::from(fired) + LABEL_WEIGHT * u64::from(leaked_labels);
    ((weighted * u64::from(Q16_ONE)) / u64::from(num_stabs)).min(u64::from(Q16_ONE)) as u32
}

/// The controller's operating point for a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ControlMode {
    /// Cheap steady state (the configured base policy).
    Base,
    /// Full ERASER+M suppression during a detected storm.
    Escalated,
}

/// Threshold escalator with hysteresis: escalate when the estimate crosses
/// `up`, de-escalate only when it falls below `down < up`, and never switch
/// before `min_dwell` rounds have been spent in the current mode — so
/// boundary noise cannot make the controller flap. Once the shot has spent
/// `quota` LRCs it stays in `Base` (`u64::MAX` for `adaptive-ewma`, so
/// never; [`ControllerConfig::budget`] for `adaptive-budget`).
#[derive(Debug, Clone, Copy)]
struct HysteresisLaw {
    up_q16: u32,
    down_q16: u32,
    min_dwell: u32,
    quota: u64,
    dwell: u32,
    mode: ControlMode,
}

impl HysteresisLaw {
    /// Creates the law from Q16 thresholds (`down <= up`).
    fn new(up_q16: u32, down_q16: u32, min_dwell: u32, quota: u64) -> HysteresisLaw {
        HysteresisLaw {
            up_q16,
            down_q16: down_q16.min(up_q16),
            min_dwell,
            quota,
            // A fresh shot is free to escalate immediately.
            dwell: min_dwell,
            mode: ControlMode::Base,
        }
    }

    /// Decides the mode for the coming round.
    fn decide(&mut self, estimate_q16: u32, spent_lrcs: u64) -> ControlMode {
        if spent_lrcs >= self.quota {
            // Quota exhausted: force base mode (the dwell guard does not
            // apply — the budget is a hard cap), and keep counting the
            // dwell without resetting it.
            self.mode = ControlMode::Base;
            self.dwell = self.dwell.saturating_add(1);
            return ControlMode::Base;
        }
        let can_switch = self.dwell >= self.min_dwell;
        let next = match self.mode {
            ControlMode::Base if can_switch && estimate_q16 >= self.up_q16 => {
                ControlMode::Escalated
            }
            ControlMode::Escalated if can_switch && estimate_q16 <= self.down_q16 => {
                ControlMode::Base
            }
            mode => mode,
        };
        if next != self.mode {
            self.mode = next;
            self.dwell = 0;
        } else {
            self.dwell = self.dwell.saturating_add(1);
        }
        self.mode
    }

    /// Resets the law for a fresh shot.
    fn reset(&mut self) {
        self.mode = ControlMode::Base;
        self.dwell = self.min_dwell;
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Which control law the adaptive policy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlLawKind {
    /// The hysteresis escalator (`adaptive-ewma`).
    Ewma,
    /// The same escalator behind a per-shot LRC quota (`adaptive-budget`).
    Budget,
}

/// The steady-state policy run while the controller sees no storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlBase {
    /// No LRCs at all in steady state (maximum savings).
    NoLrc,
    /// Two-level ERASER in steady state (escalation only upgrades the
    /// readout to multi-level).
    Eraser,
}

/// Validated knobs for [`AdaptivePolicy`]. Constructed via
/// [`ControllerConfig::ewma`] / [`ControllerConfig::budget`] (or
/// [`ControllerConfig::parse_spec`], the serve `JobSpec.control`) and
/// carried by `PolicyKind::Adaptive`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// The control law.
    pub law: ControlLawKind,
    /// The steady-state base policy.
    pub base: ControlBase,
    /// Escalation threshold on the estimated leakage-activity rate.
    pub up: f64,
    /// De-escalation threshold (`down <= up`; the hysteresis band).
    pub down: f64,
    /// EWMA smoothing weight exponent (weight `2^-shift`).
    pub ewma_shift: u32,
    /// Minimum rounds in a mode before the law may switch again.
    pub min_dwell: u32,
    /// Per-shot LRC quota (budget law only).
    pub budget: u64,
}

impl ControllerConfig {
    /// Default EWMA-threshold escalator: no-LRC steady state, ERASER+M
    /// during storms. Shift 0 (raw tracking) makes the law escalate in the
    /// *same* round the first |L⟩ labels appear — the smoothed variants
    /// trade one round of reaction lag per storm for noise immunity, and
    /// with double-weighted labels plus the dwell-time hysteresis the raw
    /// signal is already stable enough at the default thresholds.
    pub fn ewma() -> ControllerConfig {
        ControllerConfig {
            law: ControlLawKind::Ewma,
            base: ControlBase::NoLrc,
            up: 0.12,
            down: 0.04,
            ewma_shift: 0,
            min_dwell: 2,
            budget: 0,
        }
    }

    /// Default fixed-budget scheduler: as [`ControllerConfig::ewma`] but
    /// with a per-shot quota of 40 LRCs.
    pub fn budget() -> ControllerConfig {
        ControllerConfig {
            law: ControlLawKind::Budget,
            budget: 40,
            ..ControllerConfig::ewma()
        }
    }

    /// The policy name the config resolves to.
    pub fn law_name(&self) -> &'static str {
        match self.law {
            ControlLawKind::Ewma => "adaptive-ewma",
            ControlLawKind::Budget => "adaptive-budget",
        }
    }

    /// Validates threshold ranges and law-specific knobs.
    pub fn validate(&self) -> Result<(), &'static str> {
        let in_range = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x);
        if !in_range(self.up) || !in_range(self.down) || self.down > self.up {
            return Err("thresholds must satisfy 0 <= down <= up <= 1");
        }
        if self.ewma_shift > 15 {
            return Err("ewma shift must be at most 15");
        }
        if self.law == ControlLawKind::Budget && self.budget == 0 {
            return Err("budget law needs a positive quota");
        }
        Ok(())
    }

    /// Parses a controller spec: `ewma` or `budget`, optionally followed by
    /// `:key=value,...` with keys `up`, `down`, `shift`, `dwell`, `quota`,
    /// `base` (`no-lrc` | `eraser`). The serve protocol's `control` field.
    pub fn parse_spec(raw: &str) -> Result<ControllerConfig, &'static str> {
        let raw = raw.trim();
        let (head, tail) = match raw.split_once(':') {
            Some((h, t)) => (h.trim(), t),
            None => (raw, ""),
        };
        let mut config = match head {
            "ewma" => ControllerConfig::ewma(),
            "budget" => ControllerConfig::budget(),
            _ => return Err("unknown control law (expected \"ewma\" or \"budget\")"),
        };
        for (key, value) in parse_knobs(tail)? {
            match key {
                "up" => config.up = parse_f64(value)?,
                "down" => config.down = parse_f64(value)?,
                "shift" => config.ewma_shift = parse_int(value)?,
                "dwell" => config.min_dwell = parse_int(value)?,
                "quota" => config.budget = parse_int(value)?,
                "base" => {
                    config.base = match value {
                        "no-lrc" | "nolrc" | "none" => ControlBase::NoLrc,
                        "eraser" => ControlBase::Eraser,
                        _ => return Err("unknown base policy (expected \"no-lrc\" or \"eraser\")"),
                    }
                }
                _ => return Err("unknown control knob (expected up/down/shift/dwell/quota/base)"),
            }
        }
        config.validate()?;
        Ok(config)
    }

    fn up_q16(&self) -> u32 {
        (self.up * f64::from(Q16_ONE)) as u32
    }

    fn down_q16(&self) -> u32 {
        (self.down * f64::from(Q16_ONE)) as u32
    }
}

/// `key=value,...` knob splitter shared by the spec parsers.
fn parse_knobs(tail: &str) -> Result<Vec<(&str, &str)>, &'static str> {
    let mut knobs = Vec::new();
    for part in tail.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, value) = part
            .split_once('=')
            .ok_or("knobs must be key=value pairs")?;
        knobs.push((key.trim(), value.trim()));
    }
    Ok(knobs)
}

/// An unsigned integer knob, parsed at its field's own width: a value the
/// field cannot hold is rejected, never wrapped.
fn parse_int<T: std::str::FromStr<Err = std::num::ParseIntError>>(
    value: &str,
) -> Result<T, &'static str> {
    value
        .parse()
        .map_err(|e: std::num::ParseIntError| match e.kind() {
            std::num::IntErrorKind::PosOverflow => "knob value is out of range",
            _ => "knob value is not an integer",
        })
}

fn parse_f64(value: &str) -> Result<f64, &'static str> {
    value.parse().map_err(|_| "knob value is not a number")
}

// ---------------------------------------------------------------------------
// Controller telemetry
// ---------------------------------------------------------------------------

/// Per-run controller telemetry. Every field is integer-valued and merges
/// by addition or max, so cross-thread / cross-stripe aggregation is exact
/// regardless of merge order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Base → Escalated transitions.
    pub escalations: u64,
    /// Rounds spent escalated.
    pub rounds_escalated: u64,
    /// Rounds spent in the base mode.
    pub rounds_base: u64,
    /// Sum of the per-round Q16 estimates (for the mean).
    pub estimate_sum_q16: u64,
    /// Largest per-round Q16 estimate seen.
    pub estimate_peak_q16: u32,
}

impl ControllerStats {
    /// Total controlled rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds_escalated + self.rounds_base
    }

    /// Fraction of rounds spent escalated.
    pub fn escalated_fraction(&self) -> f64 {
        if self.rounds() == 0 {
            0.0
        } else {
            self.rounds_escalated as f64 / self.rounds() as f64
        }
    }

    /// Mean leakage-rate estimate over all controlled rounds.
    pub fn mean_estimate(&self) -> f64 {
        if self.rounds() == 0 {
            0.0
        } else {
            self.estimate_sum_q16 as f64 / (self.rounds() as f64 * f64::from(Q16_ONE))
        }
    }

    /// Peak leakage-rate estimate.
    pub fn peak_estimate(&self) -> f64 {
        f64::from(self.estimate_peak_q16) / f64::from(Q16_ONE)
    }

    /// True when any controller ran (an all-zero value means the run had
    /// no adaptive policy).
    pub fn is_active(&self) -> bool {
        self.rounds() > 0
    }

    /// Exact order-independent merge (sums and maxes).
    pub fn merge(&mut self, other: &ControllerStats) {
        self.escalations += other.escalations;
        self.rounds_escalated += other.rounds_escalated;
        self.rounds_base += other.rounds_base;
        self.estimate_sum_q16 += other.estimate_sum_q16;
        self.estimate_peak_q16 = self.estimate_peak_q16.max(other.estimate_peak_q16);
    }

    fn observe_round(&mut self, mode: ControlMode, estimate_q16: u32) {
        match mode {
            ControlMode::Base => self.rounds_base += 1,
            ControlMode::Escalated => self.rounds_escalated += 1,
        }
        self.estimate_sum_q16 += u64::from(estimate_q16);
        self.estimate_peak_q16 = self.estimate_peak_q16.max(estimate_q16);
    }
}

// ---------------------------------------------------------------------------
// The adaptive policy
// ---------------------------------------------------------------------------

/// Feedback-controlled LRC policy: a cheap base policy in steady state,
/// a full ERASER+M instance during detected leakage storms.
///
/// The policy always reports multi-level readout so the run-level
/// measurement discriminator (chosen once per run) is constant — the
/// estimator needs the |L⟩ labels even while the base policy idles.
pub struct AdaptivePolicy {
    base: Box<dyn LrcPolicy>,
    escalated: crate::policy::EraserPolicy,
    /// The EWMA leakage-rate estimate in Q16, with weight `2^-ewma_shift`.
    estimate_q16: u32,
    ewma_shift: u32,
    law: HysteresisLaw,
    spent_lrcs: u64,
    stats: ControllerStats,
    name: &'static str,
}

impl AdaptivePolicy {
    /// Builds the controller for a code. Panics on an invalid config (the
    /// facade validates first).
    pub fn new(code: &RotatedCode, config: ControllerConfig) -> AdaptivePolicy {
        config.validate().expect("invalid controller config");
        let base: Box<dyn LrcPolicy> = match config.base {
            ControlBase::NoLrc => Box::new(crate::policy::NoLrcPolicy::new()),
            ControlBase::Eraser => Box::new(crate::policy::EraserPolicy::new(code)),
        };
        let quota = match config.law {
            ControlLawKind::Ewma => u64::MAX,
            ControlLawKind::Budget => config.budget,
        };
        AdaptivePolicy {
            base,
            escalated: crate::policy::EraserPolicy::with_multilevel(code),
            estimate_q16: 0,
            ewma_shift: config.ewma_shift,
            law: HysteresisLaw::new(config.up_q16(), config.down_q16(), config.min_dwell, quota),
            spent_lrcs: 0,
            stats: ControllerStats::default(),
            name: config.law_name(),
        }
    }

    /// The run-so-far telemetry (accumulates across shots; the runner
    /// harvests it once per worker / lane).
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Folds one round's raw rate into the EWMA estimate,
    /// `state += (input - state) >> shift` (shift 0 tracks the raw rate),
    /// and returns the new estimate.
    fn observe(&mut self, rate_q16: u32) -> u32 {
        let input = i64::from(rate_q16);
        let state = i64::from(self.estimate_q16);
        let next = state + ((input - state) >> self.ewma_shift);
        self.estimate_q16 = next.clamp(0, i64::from(Q16_ONE)) as u32;
        self.estimate_q16
    }
}

impl LrcPolicy for AdaptivePolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn reset_shot(&mut self) {
        self.base.reset_shot();
        self.escalated.reset_shot();
        self.estimate_q16 = 0;
        self.law.reset();
        self.spent_lrcs = 0;
        // `stats` intentionally persists: it is run-level telemetry.
    }

    fn plan_round(&mut self, ctx: &RoundContext<'_>) -> Vec<LrcAssignment> {
        let fired = ctx.events.iter().filter(|&&e| e).count() as u32;
        let leaked = ctx.leaked_readouts.iter().filter(|&&l| l).count() as u32;
        let estimate = self.observe(rate_q16(fired, leaked, ctx.events.len() as u32));
        let was = self.law.mode;
        let mode = self.law.decide(estimate, self.spent_lrcs);
        if mode != was {
            // The newly-activated policy starts a fresh speculation window.
            match mode {
                ControlMode::Escalated => {
                    self.stats.escalations += 1;
                    self.escalated.reset_shot();
                }
                ControlMode::Base => self.base.reset_shot(),
            }
        }
        self.stats.observe_round(mode, estimate);
        let plan = match mode {
            ControlMode::Base => self.base.plan_round(ctx),
            ControlMode::Escalated => self.escalated.plan_round(ctx),
        };
        self.spent_lrcs += plan.len() as u64;
        plan
    }

    fn uses_multilevel(&self) -> bool {
        true
    }

    fn leakage_detections(&self) -> Option<LeakageDetections<'_>> {
        match self.law.mode {
            ControlMode::Base => self.base.leakage_detections(),
            ControlMode::Escalated => self.escalated.leakage_detections(),
        }
    }

    fn controller(&self) -> Option<&ControllerStats> {
        Some(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The raw rate of a round on 16 stabilizers.
    fn rate(fired: u32, leaked: u32) -> u32 {
        rate_q16(fired, leaked, 16)
    }

    #[test]
    fn profile_schedules() {
        let burst = LeakageProfile::Burst {
            start: 5,
            len: 2,
            period: 10,
            rate: 0.5,
        };
        let expect: Vec<(usize, f64)> = vec![
            (0, 0.0),
            (4, 0.0),
            (5, 0.5),
            (6, 0.5),
            (7, 0.0),
            (14, 0.0),
            (15, 0.5),
            (16, 0.5),
            (17, 0.0),
        ];
        for (round, p) in expect {
            assert_eq!(burst.extra_leak_p(round), p, "burst round {round}");
        }
        let one_shot = LeakageProfile::Burst {
            start: 3,
            len: 2,
            period: 0,
            rate: 0.25,
        };
        assert_eq!(one_shot.extra_leak_p(3), 0.25);
        assert_eq!(one_shot.extra_leak_p(4), 0.25);
        assert_eq!(one_shot.extra_leak_p(13), 0.0, "one-shot does not repeat");
        let ramp = LeakageProfile::Ramp {
            start: 2,
            len: 4,
            peak: 0.4,
        };
        assert_eq!(ramp.extra_leak_p(1), 0.0);
        assert!((ramp.extra_leak_p(2) - 0.1).abs() < 1e-12);
        assert!((ramp.extra_leak_p(5) - 0.4).abs() < 1e-12);
        assert!((ramp.extra_leak_p(50) - 0.4).abs() < 1e-12);
        assert_eq!(LeakageProfile::Stationary.extra_leak_p(7), 0.0);
    }

    #[test]
    fn profile_specs_parse_and_validate() {
        assert_eq!(
            LeakageProfile::parse_spec("stationary"),
            Ok(LeakageProfile::Stationary)
        );
        assert_eq!(
            LeakageProfile::parse_spec("burst:start=5,len=2,period=10,rate=0.02"),
            Ok(LeakageProfile::Burst {
                start: 5,
                len: 2,
                period: 10,
                rate: 0.02
            })
        );
        assert_eq!(
            LeakageProfile::parse_spec(" ramp:start=1, len=3 ,peak=0.1 "),
            Ok(LeakageProfile::Ramp {
                start: 1,
                len: 3,
                peak: 0.1
            })
        );
        for bad in [
            "storm",
            "burst:rate=2.0,len=1",
            "burst:len=0,rate=0.1",
            "burst:start=0,len=5,period=3,rate=0.1",
            "ramp:len=2,peak=nan",
            "ramp:peak=0.1,len=0",
            "burst:wat=1",
            "burst:rate",
            "stationary:x=1",
        ] {
            assert!(LeakageProfile::parse_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn ewma_estimator_tracks_and_smooths() {
        let config = ControllerConfig {
            ewma_shift: 1,
            ..ControllerConfig::ewma()
        };
        let mut policy = AdaptivePolicy::new(&RotatedCode::new(3), config);
        assert_eq!(policy.estimate_q16, 0);
        // A constant input converges to the input.
        for _ in 0..32 {
            policy.observe(rate(8, 0)); // rate 0.5
        }
        let half = Q16_ONE / 2;
        let estimate = policy.estimate_q16;
        assert!(estimate.abs_diff(half) <= 2, "{estimate}");
        // Silence decays back toward zero.
        for _ in 0..32 {
            policy.observe(rate(0, 0));
        }
        assert!(policy.estimate_q16 <= 2, "{}", policy.estimate_q16);
        // A fresh shot starts from zero.
        policy.observe(rate(8, 0));
        policy.reset_shot();
        assert_eq!(policy.estimate_q16, 0);
        // |L⟩ labels carry the direct-evidence weight.
        assert_eq!(rate(0, 1), LABEL_WEIGHT as u32 * rate(1, 0));
        // The rate saturates at 1.0, and no readouts read as no activity.
        assert_eq!(rate(16, 16), Q16_ONE);
        assert_eq!(rate_q16(3, 1, 0), 0);
    }

    /// The law without a quota, as `adaptive-ewma` runs it.
    fn unbudgeted(up: u32, down: u32, min_dwell: u32) -> HysteresisLaw {
        HysteresisLaw::new(up, down, min_dwell, u64::MAX)
    }

    #[test]
    fn threshold_law_escalates_and_recovers() {
        let up = Q16_ONE / 8;
        let down = Q16_ONE / 32;
        let mut law = unbudgeted(up, down, 0);
        assert_eq!(law.mode, ControlMode::Base);
        assert_eq!(law.decide(up, 0), ControlMode::Escalated);
        // Inside the hysteresis band: stays escalated.
        assert_eq!(law.decide(down + 1, 0), ControlMode::Escalated);
        assert_eq!(law.decide(down, 0), ControlMode::Base);
        // Inside the band from below: stays base.
        assert_eq!(law.decide(up - 1, 0), ControlMode::Base);
    }

    /// The anti-flapping property: noise oscillating across the `up`
    /// boundary cannot toggle the mode faster than the dwell time.
    #[test]
    fn hysteresis_prevents_escalation_flapping() {
        let up = Q16_ONE / 8;
        let down = Q16_ONE / 32;
        let mut law = unbudgeted(up, down, 3);
        let mut switches = 0u32;
        let mut last = law.mode;
        // Worst-case boundary noise: alternate just-above-up / just-below-down.
        for round in 0..60 {
            let estimate = if round % 2 == 0 {
                up + 1
            } else {
                down.saturating_sub(1)
            };
            let mode = law.decide(estimate, 0);
            if mode != last {
                switches += 1;
                last = mode;
            }
        }
        // With min_dwell = 3 a switch is possible at most every 4 rounds.
        assert!(switches <= 60 / 4 + 1, "flapped {switches} times");

        // And with estimates inside the hysteresis band, no switches at all.
        let mut law = unbudgeted(up, down, 3);
        law.decide(up, 0); // escalate once
        for round in 0..40 {
            let estimate = if round % 2 == 0 { up - 1 } else { down + 1 };
            assert_eq!(law.decide(estimate, 0), ControlMode::Escalated);
        }
    }

    #[test]
    fn dwell_time_blocks_immediate_switchback() {
        let up = Q16_ONE / 8;
        let mut law = unbudgeted(up, up / 4, 3);
        assert_eq!(law.decide(up, 0), ControlMode::Escalated);
        // Even a zero estimate cannot de-escalate during the dwell window.
        assert_eq!(law.decide(0, 0), ControlMode::Escalated);
        assert_eq!(law.decide(0, 0), ControlMode::Escalated);
        assert_eq!(law.decide(0, 0), ControlMode::Escalated);
        // Dwell satisfied: the switch goes through.
        assert_eq!(law.decide(0, 0), ControlMode::Base);
    }

    #[test]
    fn budget_law_stops_spending_at_quota() {
        let up = Q16_ONE / 8;
        let mut law = HysteresisLaw::new(up, up / 4, 0, 10);
        assert_eq!(law.decide(up, 0), ControlMode::Escalated);
        assert_eq!(law.decide(up, 9), ControlMode::Escalated);
        // Quota reached: base mode for the rest of the shot, regardless of
        // the estimate.
        assert_eq!(law.decide(Q16_ONE, 10), ControlMode::Base);
        assert_eq!(law.decide(Q16_ONE, 10), ControlMode::Base);
        law.reset();
        assert_eq!(
            law.decide(up, 0),
            ControlMode::Escalated,
            "reset restores the quota"
        );
        // The forced switch ignores the dwell guard and advances the dwell
        // without resetting it, as no ordinary switch would.
        let mut law = HysteresisLaw::new(up, up / 4, 3, 10);
        assert_eq!(law.decide(up, 0), ControlMode::Escalated);
        assert_eq!(law.dwell, 0);
        assert_eq!(law.decide(up, 10), ControlMode::Base);
        assert_eq!(law.dwell, 1);
        assert_eq!(law.decide(up, 10), ControlMode::Base);
        assert_eq!(law.dwell, 2);
    }

    #[test]
    fn control_specs_parse_and_validate() {
        assert_eq!(
            ControllerConfig::parse_spec("ewma"),
            Ok(ControllerConfig::ewma())
        );
        assert_eq!(
            ControllerConfig::parse_spec(" budget "),
            Ok(ControllerConfig::budget())
        );
        let custom = ControllerConfig::parse_spec(
            "budget:up=0.2,down=0.05,shift=3,dwell=4,quota=99,base=eraser",
        )
        .expect("valid spec");
        assert_eq!(custom.law, ControlLawKind::Budget);
        assert_eq!(custom.base, ControlBase::Eraser);
        assert_eq!(custom.up, 0.2);
        assert_eq!(custom.down, 0.05);
        assert_eq!(custom.ewma_shift, 3);
        assert_eq!(custom.min_dwell, 4);
        assert_eq!(custom.budget, 99);
        let thresholds = "thresholds must satisfy 0 <= down <= up <= 1";
        for (bad, reason) in [
            (
                "pid",
                "unknown control law (expected \"ewma\" or \"budget\")",
            ),
            ("ewma:up=two", "knob value is not a number"),
            ("ewma:up=0.01,down=0.5", thresholds),
            ("ewma:up=2.0", thresholds),
            ("ewma:down=-1", thresholds),
            ("ewma:shift=16", "ewma shift must be at most 15"),
            // One past `u32::MAX` plus 3: parsed at 64 bits and narrowed,
            // these used to read as shift 3 and dwell 3.
            ("ewma:shift=4294967299", "knob value is out of range"),
            ("ewma:dwell=4294967299", "knob value is out of range"),
            ("ewma:shift=-1", "knob value is not an integer"),
            ("budget:quota=0", "budget law needs a positive quota"),
            (
                "ewma:base=optimal",
                "unknown base policy (expected \"no-lrc\" or \"eraser\")",
            ),
            (
                "ewma:wat=1",
                "unknown control knob (expected up/down/shift/dwell/quota/base)",
            ),
            ("ewma:up", "knobs must be key=value pairs"),
        ] {
            assert_eq!(ControllerConfig::parse_spec(bad), Err(reason), "{bad}");
        }
    }

    #[test]
    fn controller_stats_merge_is_exact() {
        let mut a = ControllerStats {
            escalations: 2,
            rounds_escalated: 10,
            rounds_base: 30,
            estimate_sum_q16: 1000,
            estimate_peak_q16: 500,
        };
        let b = ControllerStats {
            escalations: 1,
            rounds_escalated: 5,
            rounds_base: 15,
            estimate_sum_q16: 400,
            estimate_peak_q16: 900,
        };
        a.merge(&b);
        assert_eq!(a.escalations, 3);
        assert_eq!(a.rounds(), 60);
        assert_eq!(a.estimate_sum_q16, 1400);
        assert_eq!(a.estimate_peak_q16, 900);
        assert!(a.is_active());
        assert!((a.escalated_fraction() - 0.25).abs() < 1e-12);
        assert!(!ControllerStats::default().is_active());
    }

    #[test]
    fn adaptive_policy_escalates_on_a_storm_and_recovers() {
        let code = RotatedCode::new(3);
        let mut config = ControllerConfig::ewma();
        config.min_dwell = 1;
        let mut policy = AdaptivePolicy::new(&code, config);
        assert!(policy.uses_multilevel());
        assert_eq!(policy.name(), "adaptive-ewma");
        policy.reset_shot();
        let num_stabs = code.num_stabs();
        let quiet_events = vec![false; num_stabs];
        let quiet_labels = vec![false; num_stabs];
        let oracle = vec![false; code.num_data()];
        // Quiet rounds: base (no-lrc) mode, no LRCs planned.
        for round in 0..4 {
            let plan = policy.plan_round(&RoundContext {
                round,
                events: &quiet_events,
                leaked_readouts: &quiet_labels,
                oracle_leaked_data: &oracle,
                last_lrcs: &[],
            });
            assert!(plan.is_empty(), "quiet round {round} planned LRCs");
        }
        assert_eq!(policy.stats().escalations, 0);
        // Storm rounds: every stabilizer fires and half read |L⟩.
        let storm_events = vec![true; num_stabs];
        let mut storm_labels = vec![false; num_stabs];
        for l in storm_labels.iter_mut().step_by(2) {
            *l = true;
        }
        let mut planned = 0usize;
        let mut last: Vec<LrcAssignment> = Vec::new();
        for round in 4..10 {
            let plan = policy.plan_round(&RoundContext {
                round,
                events: &storm_events,
                leaked_readouts: &storm_labels,
                oracle_leaked_data: &oracle,
                last_lrcs: &last,
            });
            planned += plan.len();
            last = plan;
        }
        assert_eq!(policy.stats().escalations, 1, "one escalation per storm");
        assert!(planned > 0, "escalated mode must schedule LRCs");
        assert!(policy.stats().rounds_escalated > 0);
        // Quiet again: the controller de-escalates.
        for round in 10..30 {
            let plan = policy.plan_round(&RoundContext {
                round,
                events: &quiet_events,
                leaked_readouts: &quiet_labels,
                oracle_leaked_data: &oracle,
                last_lrcs: &last,
            });
            last = plan;
        }
        assert!(
            policy.stats().rounds_base > policy.stats().rounds_escalated,
            "controller must return to base mode"
        );
        // Telemetry survives reset_shot (it is run-level).
        let before = *policy.stats();
        policy.reset_shot();
        assert_eq!(*policy.stats(), before);
        assert_eq!(policy.controller(), Some(&before));
    }
}
