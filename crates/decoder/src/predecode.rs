//! Tiered sparse-syndrome fast-path decoding (the predecoder).
//!
//! At the paper's operating points (p ≈ 1e-3) the vast majority of decode
//! calls — individual windows, or whole shots under a full-cover window —
//! carry zero, one, or two defects, yet the pipeline pays full decoder
//! machinery for every one of them. This module fronts every backend with
//! an *exact* tier ladder:
//!
//! | Tier | Applies to | Resolution |
//! |------|------------|------------|
//! | 0 | no defects, no erasures | skip outright ([`DecodeOutcome::default`]) |
//! | 1 | 1–2 defects, no erasures | closed form via [`SyndromeDecoder::decode_tier1`] |
//! | 2 | everything else | the configured backend, unchanged |
//!
//! Every tier is bit-identical to the untier'd path: the same flip, the
//! same f64 weight bits, and the same correction-edge sequence. Tier 0
//! reproduces the empty-syndrome early return every backend already has;
//! tier 1 is each backend's own closed form (boundary match for one
//! defect; min of pair-path vs two boundary matches for two), which
//! *defers* (`None`) whenever the optimal matching is ambiguous so the
//! full solver keeps making the tie-break. The union-find backend has no
//! order-free closed form and always defers to tier 2; it still gets the
//! tier-0 skip.
//!
//! The ladder is always on; there is no switch to turn it off. Its
//! reference is the tier-1 contract itself: `crates/decoder/tests/predecode.rs`
//! checks every 1- and 2-defect syndrome on real window shapes against the
//! backend's full decode.
//!
//! [`TieredDecoder`] wraps any [`SyndromeDecoder`] for whole-syndrome
//! batch decoding (the benches' and tests' reference); the streaming
//! path the runtime uses ([`crate::window::WindowedDecoder`]) implements
//! the same ladder inline (a window's carry-in defects count against the
//! tier threshold because they are part of its live defect set).
//! [`TierCounters`] is the shared mergeable telemetry.

use crate::api::{DecodeOutcome, Syndrome, SyndromeDecoder};

/// Per-tier hit/latency telemetry. Integer-valued and merged by addition,
/// so cross-thread / cross-stripe aggregation is exact regardless of merge
/// order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Decode calls resolved per tier (0 = skipped, 1 = closed form,
    /// 2 = full backend).
    pub hits: [u64; 3],
    /// Wall-clock nanoseconds spent per tier.
    pub nanos: [u64; 3],
}

impl TierCounters {
    /// Records one decode call resolved at `tier`.
    #[inline]
    pub fn record(&mut self, tier: usize, nanos: u64) {
        self.hits[tier] += 1;
        self.nanos[tier] += nanos;
    }

    /// Total decode calls across all tiers.
    pub fn total(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Fraction of calls resolved at `tier` (0 when nothing was decoded).
    pub fn hit_rate(&self, tier: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.hits[tier] as f64 / total as f64
        }
    }

    /// True when any decode call was counted.
    pub fn is_active(&self) -> bool {
        self.total() > 0
    }

    /// Exact order-independent merge (sums).
    pub fn merge(&mut self, other: &TierCounters) {
        for t in 0..3 {
            self.hits[t] += other.hits[t];
            self.nanos[t] += other.nanos[t];
        }
    }
}

/// Whether a live syndrome qualifies for the tier-0 skip: nothing fired
/// and nothing was erased. Shared predicate so the batch wrapper and the
/// streaming path cannot drift.
#[inline]
pub(crate) fn tier0_applies(defects: &[usize], erasures: &[usize]) -> bool {
    defects.is_empty() && erasures.is_empty()
}

/// Whether a live syndrome qualifies for a tier-1 attempt (the backend may
/// still defer): one or two defects, no erasures.
#[inline]
pub(crate) fn tier1_applies(defects: &[usize], erasures: &[usize]) -> bool {
    matches!(defects.len(), 1 | 2) && erasures.is_empty()
}

/// A [`SyndromeDecoder`] wrapper that fronts its inner backend with the
/// tier ladder for whole-syndrome decoding.
pub struct TieredDecoder<'a> {
    inner: Box<dyn SyndromeDecoder + 'a>,
    counters: TierCounters,
}

impl<'a> TieredDecoder<'a> {
    /// Wraps `inner` with the tier ladder.
    pub fn new(inner: Box<dyn SyndromeDecoder + 'a>) -> TieredDecoder<'a> {
        TieredDecoder {
            inner,
            counters: TierCounters::default(),
        }
    }

    /// The accumulated per-tier telemetry.
    pub fn counters(&self) -> &TierCounters {
        &self.counters
    }

    fn decode_tiered(
        &mut self,
        syndrome: &Syndrome,
        mut correction: Option<&mut Vec<usize>>,
    ) -> DecodeOutcome {
        if tier0_applies(&syndrome.defects, &syndrome.erasures) {
            // Bit-identical by construction: every backend early-returns
            // `DecodeOutcome::default()` (clearing the correction) on an
            // empty syndrome before reading the clock.
            if let Some(c) = correction.as_deref_mut() {
                c.clear();
            }
            self.counters.record(0, 0);
            return DecodeOutcome::default();
        }
        if tier1_applies(&syndrome.defects, &syndrome.erasures) {
            if let Some(outcome) = self.inner.decode_tier1(syndrome, correction.as_deref_mut()) {
                self.counters.record(1, outcome.nanos);
                return outcome;
            }
        }
        let outcome = match correction {
            Some(c) => self.inner.decode_with_correction(syndrome, c),
            None => self.inner.decode_syndrome(syndrome),
        };
        self.counters.record(2, outcome.nanos);
        outcome
    }
}

impl SyndromeDecoder for TieredDecoder<'_> {
    fn decode_syndrome(&mut self, syndrome: &Syndrome) -> DecodeOutcome {
        self.decode_tiered(syndrome, None)
    }

    fn decode_with_correction(
        &mut self,
        syndrome: &Syndrome,
        correction: &mut Vec<usize>,
    ) -> DecodeOutcome {
        self.decode_tiered(syndrome, Some(correction))
    }

    fn decode_tier1(
        &mut self,
        syndrome: &Syndrome,
        correction: Option<&mut Vec<usize>>,
    ) -> Option<DecodeOutcome> {
        self.inner.decode_tier1(syndrome, correction)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ScriptedDecoder {
        tier1_calls: usize,
        full_calls: usize,
        tier1_supported: bool,
    }

    impl SyndromeDecoder for ScriptedDecoder {
        fn decode_syndrome(&mut self, syndrome: &Syndrome) -> DecodeOutcome {
            if syndrome.is_empty() {
                return DecodeOutcome::default();
            }
            self.full_calls += 1;
            DecodeOutcome {
                flip: syndrome.len() % 2 == 1,
                weight: syndrome.len() as f64,
                defects: syndrome.len(),
                nanos: 7,
            }
        }

        fn decode_with_correction(
            &mut self,
            syndrome: &Syndrome,
            correction: &mut Vec<usize>,
        ) -> DecodeOutcome {
            correction.clear();
            correction.extend(0..syndrome.len());
            self.decode_syndrome(syndrome)
        }

        fn decode_tier1(
            &mut self,
            syndrome: &Syndrome,
            correction: Option<&mut Vec<usize>>,
        ) -> Option<DecodeOutcome> {
            if !self.tier1_supported {
                return None;
            }
            self.tier1_calls += 1;
            if let Some(c) = correction {
                c.clear();
                c.extend(0..syndrome.len());
            }
            Some(DecodeOutcome {
                flip: syndrome.len() % 2 == 1,
                weight: syndrome.len() as f64,
                defects: syndrome.len(),
                nanos: 3,
            })
        }

        fn name(&self) -> &'static str {
            "scripted"
        }
    }

    #[test]
    fn counters_merge_and_rate() {
        let mut a = TierCounters::default();
        a.record(0, 0);
        a.record(1, 10);
        let mut b = TierCounters::default();
        b.record(2, 100);
        b.record(0, 0);
        a.merge(&b);
        assert_eq!(a.hits, [2, 1, 1]);
        assert_eq!(a.nanos, [0, 10, 100]);
        assert_eq!(a.total(), 4);
        assert!((a.hit_rate(0) - 0.5).abs() < 1e-12);
        assert!(a.is_active());
        assert!(!TierCounters::default().is_active());
        assert_eq!(TierCounters::default().hit_rate(1), 0.0);
    }

    #[test]
    fn ladder_routes_by_defect_count() {
        let inner = ScriptedDecoder {
            tier1_calls: 0,
            full_calls: 0,
            tier1_supported: true,
        };
        let mut tiered = TieredDecoder::new(Box::new(inner));
        assert_eq!(tiered.name(), "scripted");
        // Tier 0: empty syndrome never reaches the backend, and a stale
        // correction is cleared (matching the full path's contract).
        let mut correction = vec![9, 9];
        let out = tiered.decode_with_correction(&Syndrome::default(), &mut correction);
        assert_eq!(out, DecodeOutcome::default());
        assert!(correction.is_empty());
        // Tier 1: 1 and 2 defects.
        tiered.decode_syndrome(&Syndrome::new(vec![4]));
        tiered.decode_syndrome(&Syndrome::new(vec![4, 5]));
        // Tier 2: 3 defects, and 1 defect with an erasure overlay.
        tiered.decode_syndrome(&Syndrome::new(vec![1, 2, 3]));
        tiered.decode_syndrome(&Syndrome::with_erasures(vec![4], vec![0]));
        assert_eq!(tiered.counters().hits, [1, 2, 2]);
    }

    #[test]
    fn unsupported_tier1_falls_through_to_full() {
        let inner = ScriptedDecoder {
            tier1_calls: 0,
            full_calls: 0,
            tier1_supported: false,
        };
        let mut tiered = TieredDecoder::new(Box::new(inner));
        tiered.decode_syndrome(&Syndrome::new(vec![4]));
        assert_eq!(tiered.counters().hits, [0, 0, 1]);
    }
}
