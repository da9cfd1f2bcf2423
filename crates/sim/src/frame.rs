//! Leakage-aware Pauli-frame simulator.
//!
//! Pauli-frame simulation tracks, for each qubit, the Pauli *difference*
//! between the noisy run and a noiseless reference run. For circuits whose
//! detectors are parity checks with deterministic noiseless values (every
//! circuit in this repository), sampling the frame is statistically exact —
//! this is the same strategy Stim uses.
//!
//! Leakage is tracked as a boolean flag per qubit, on top of the frame:
//!
//! * a leaked qubit has no meaningful Pauli frame (its state left the
//!   computational basis); gates and Pauli noise on it are skipped;
//! * a CNOT between a leaked and an unleaked qubit applies a uniformly random
//!   Pauli to the unleaked operand and transports leakage with probability
//!   `p_LT` (conservative or exchange semantics, §5.2.2 / Appendix A.1);
//! * measuring a leaked qubit yields a random outcome (two-level readout) or
//!   an |L⟩ label (multi-level readout, error rate `10p`);
//! * `Reset` removes leakage; seepage returns a leaked qubit to a random
//!   computational state.

use crate::readout::{Discriminator, ReadoutLabel};
use qec_core::{MeasKey, NoiseParams, Op, Pauli, QubitId, Rng, TransportModel};

/// The measurement record of one shot: per-key outcome flips (relative to the
/// noiseless reference) and readout labels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MeasRecord {
    flips: Vec<bool>,
    labels: Vec<ReadoutLabel>,
}

impl MeasRecord {
    fn new(num_keys: usize) -> MeasRecord {
        MeasRecord {
            flips: vec![false; num_keys],
            labels: vec![ReadoutLabel::Computational; num_keys],
        }
    }

    fn clear(&mut self) {
        self.flips.fill(false);
        self.labels.fill(ReadoutLabel::Computational);
    }

    /// Whether the outcome under `key` differs from the noiseless reference.
    pub fn flip(&self, key: MeasKey) -> bool {
        self.flips[key]
    }

    /// The readout label recorded under `key`.
    pub fn label(&self, key: MeasKey) -> ReadoutLabel {
        self.labels[key]
    }

    /// All flips, indexed by key.
    pub fn flips(&self) -> &[bool] {
        &self.flips
    }

    /// Parity (XOR) of the flips under a set of keys — the value of a
    /// detector or logical observable.
    pub fn parity(&self, keys: &[MeasKey]) -> bool {
        keys.iter().fold(false, |acc, &k| acc ^ self.flips[k])
    }
}

/// A Pauli-frame Monte-Carlo simulator with leakage (see module docs).
///
/// # Example
///
/// ```
/// use leak_sim::{Discriminator, FrameSimulator};
/// use qec_core::{NoiseParams, Op, Rng};
///
/// let mut sim = FrameSimulator::new(
///     2,
///     2,
///     NoiseParams::standard(1e-3),
///     Discriminator::TwoLevel,
///     Rng::new(42),
/// );
/// // A deterministic X error on qubit 0 flips its later measurement.
/// sim.apply(&Op::XError { qubit: 0, p: 1.0 });
/// sim.apply(&Op::Cnot { control: 0, target: 1 });
/// sim.apply(&Op::Measure { qubit: 1, key: 0 });
/// assert!(sim.record().flip(0)); // X propagated through the CNOT
/// ```
#[derive(Debug, Clone)]
pub struct FrameSimulator {
    num_qubits: usize,
    x: Vec<bool>,
    z: Vec<bool>,
    /// Leak flags, bit-packed 64 qubits per word. The packed layout turns
    /// the per-round LPR probe ([`FrameSimulator::leaked_count_in`]) into a
    /// handful of masked popcounts instead of an O(n) bool rescan.
    leaked: Vec<u64>,
    /// Running number of set bits in `leaked`, maintained by every leak
    /// transition so [`FrameSimulator::leaked_count`] is O(1).
    leaked_count: usize,
    noise: NoiseParams,
    discriminator: Discriminator,
    rng: Rng,
    record: MeasRecord,
}

impl FrameSimulator {
    /// Creates a simulator over `num_qubits` qubits with room for `num_keys`
    /// recorded measurements.
    pub fn new(
        num_qubits: usize,
        num_keys: usize,
        noise: NoiseParams,
        discriminator: Discriminator,
        rng: Rng,
    ) -> FrameSimulator {
        FrameSimulator {
            num_qubits,
            x: vec![false; num_qubits],
            z: vec![false; num_qubits],
            leaked: vec![0; num_qubits.div_ceil(64)],
            leaked_count: 0,
            noise,
            discriminator,
            rng,
            record: MeasRecord::new(num_keys),
        }
    }

    #[inline]
    fn set_leak(&mut self, q: QubitId) {
        let (w, b) = (q / 64, 1u64 << (q % 64));
        if self.leaked[w] & b == 0 {
            self.leaked[w] |= b;
            self.leaked_count += 1;
        }
    }

    #[inline]
    fn clear_leak(&mut self, q: QubitId) {
        let (w, b) = (q / 64, 1u64 << (q % 64));
        if self.leaked[w] & b != 0 {
            self.leaked[w] &= !b;
            self.leaked_count -= 1;
        }
    }

    /// Clears frames, leakage flags, and the measurement record for a new
    /// shot, *keeping* the RNG stream (so consecutive shots are independent
    /// but the whole sequence stays reproducible).
    pub fn reset_shot(&mut self) {
        self.x.fill(false);
        self.z.fill(false);
        self.leaked.fill(0);
        self.leaked_count = 0;
        self.record.clear();
    }

    /// Replaces the RNG stream. The thread-invariant runtime gives every
    /// shot its own stream (a pure function of root seed and shot index), so
    /// results do not depend on how shots are partitioned across workers.
    pub fn reseed(&mut self, rng: Rng) {
        self.rng = rng;
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The measurement record of the current shot.
    pub fn record(&self) -> &MeasRecord {
        &self.record
    }

    /// Whether qubit `q` is currently leaked.
    #[inline]
    pub fn is_leaked(&self, q: QubitId) -> bool {
        self.leaked[q / 64] >> (q % 64) & 1 != 0
    }

    /// Total number of currently leaked qubits (O(1): maintained as a
    /// running count across every leak transition).
    pub fn leaked_count(&self) -> usize {
        self.leaked_count
    }

    /// Number of currently leaked qubits among `qubits`. Masked popcounts
    /// over the packed leak words — O(n/64), not an O(n) rescan; this sits
    /// on the per-round LPR probe path of every memory experiment.
    pub fn leaked_count_in(&self, qubits: std::ops::Range<usize>) -> usize {
        let (start, end) = (qubits.start, qubits.end.min(self.num_qubits));
        if start >= end {
            return 0;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        let lo = !0u64 << (start % 64);
        let hi = !0u64 >> (63 - (end - 1) % 64);
        if first == last {
            return (self.leaked[first] & lo & hi).count_ones() as usize;
        }
        let mut count = (self.leaked[first] & lo).count_ones();
        for w in &self.leaked[first + 1..last] {
            count += w.count_ones();
        }
        count += (self.leaked[last] & hi).count_ones();
        count as usize
    }

    /// The noise model in force.
    pub fn noise(&self) -> &NoiseParams {
        &self.noise
    }

    /// The readout discriminator in force.
    pub fn discriminator(&self) -> Discriminator {
        self.discriminator
    }

    /// Applies a bare Pauli to a qubit's frame (no-op on leaked qubits). Used
    /// by tests to inject deterministic errors.
    pub fn apply_pauli(&mut self, q: QubitId, p: Pauli) {
        if !self.is_leaked(q) {
            self.x[q] ^= p.has_x();
            self.z[q] ^= p.has_z();
        }
    }

    /// Forces qubit `q` into the leaked state (used by targeted experiments
    /// such as the leakage-storm example).
    pub fn force_leak(&mut self, q: QubitId) {
        self.set_leak(q);
        self.x[q] = false;
        self.z[q] = false;
    }

    /// Executes a sequence of operations.
    pub fn run(&mut self, ops: &[Op]) {
        for op in ops {
            self.apply(op);
        }
    }

    /// Executes a single operation.
    pub fn apply(&mut self, op: &Op) {
        match *op {
            Op::H(q) => {
                if !self.is_leaked(q) {
                    let (xq, zq) = (self.x[q], self.z[q]);
                    self.x[q] = zq;
                    self.z[q] = xq;
                }
            }
            Op::Cnot { control, target } => self.cnot(control, target, true),
            Op::CnotNoTransport { control, target } => self.cnot(control, target, false),
            Op::Measure { qubit, key } => self.measure(qubit, key),
            Op::Reset(q) => {
                self.clear_leak(q);
                self.x[q] = false;
                self.z[q] = false;
            }
            Op::Depolarize1 { qubit, p } => {
                if !self.is_leaked(qubit) && self.rng.bernoulli(p) {
                    let e = self.rng.error_pauli();
                    self.x[qubit] ^= e.has_x();
                    self.z[qubit] ^= e.has_z();
                }
            }
            Op::Depolarize2 { a, b, p } => {
                // Gate noise is calibrated for the computational basis; a
                // leaked operand already received its random-Pauli kick in
                // `cnot`, so the channel is skipped to avoid double-counting.
                if !self.is_leaked(a) && !self.is_leaked(b) && self.rng.bernoulli(p) {
                    let (pa, pb) = loop {
                        let pa = self.rng.uniform_pauli();
                        let pb = self.rng.uniform_pauli();
                        if !(pa.is_identity() && pb.is_identity()) {
                            break (pa, pb);
                        }
                    };
                    self.x[a] ^= pa.has_x();
                    self.z[a] ^= pa.has_z();
                    self.x[b] ^= pb.has_x();
                    self.z[b] ^= pb.has_z();
                }
            }
            Op::XError { qubit, p } => {
                if !self.is_leaked(qubit) && self.rng.bernoulli(p) {
                    self.x[qubit] ^= true;
                }
            }
            Op::LeakInject { qubit, p } => {
                if self.rng.bernoulli(p) {
                    self.set_leak(qubit);
                    self.x[qubit] = false;
                    self.z[qubit] = false;
                }
            }
            Op::Seep { qubit, p } => {
                if self.is_leaked(qubit) && self.rng.bernoulli(p) {
                    // Return in a uniformly random computational state
                    // (§5.2.2 footnote 5).
                    self.clear_leak(qubit);
                    self.x[qubit] = self.rng.bit();
                    self.z[qubit] = self.rng.bit();
                }
            }
            Op::LeakIswap { data, parity } => self.leak_iswap(data, parity),
            Op::Tick => {}
        }
    }

    fn cnot(&mut self, c: QubitId, t: QubitId, transport_enabled: bool) {
        match (self.is_leaked(c), self.is_leaked(t)) {
            (false, false) => {
                self.x[t] ^= self.x[c];
                self.z[c] ^= self.z[t];
            }
            (true, true) => {
                // Both operands leaked: the gate does nothing useful; under
                // the exchange model a transport between two leaked qubits
                // also has no effect (Appendix A.1).
            }
            (leak_c, _) => {
                let (leaked_q, clean_q) = if leak_c { (c, t) } else { (t, c) };
                // The unleaked operand suffers a uniformly random Pauli
                // (§5.2.2: operations are only calibrated for the
                // computational basis).
                let kick = self.rng.uniform_pauli();
                self.x[clean_q] ^= kick.has_x();
                self.z[clean_q] ^= kick.has_z();
                // Leakage transport with probability p_LT.
                if transport_enabled && self.rng.bernoulli(self.noise.p_transport) {
                    match self.noise.transport {
                        TransportModel::Conservative => {
                            self.set_leak(clean_q);
                            self.x[clean_q] = false;
                            self.z[clean_q] = false;
                        }
                        TransportModel::Exchange => {
                            self.set_leak(clean_q);
                            self.x[clean_q] = false;
                            self.z[clean_q] = false;
                            self.clear_leak(leaked_q);
                            self.x[leaked_q] = self.rng.bit();
                            self.z[leaked_q] = self.rng.bit();
                        }
                    }
                }
            }
        }
    }

    fn measure(&mut self, q: QubitId, key: MeasKey) {
        if self.is_leaked(q) {
            match self.discriminator {
                Discriminator::TwoLevel => {
                    // A two-level classifier assigns a uniformly random
                    // computational label to |L⟩.
                    self.record.flips[key] = self.rng.bit();
                    self.record.labels[key] = ReadoutLabel::Computational;
                }
                Discriminator::MultiLevel => {
                    let err = self.noise.multilevel_error_p();
                    if self.rng.bernoulli(err) {
                        // Misclassified into the computational basis.
                        self.record.flips[key] = self.rng.bit();
                        self.record.labels[key] = ReadoutLabel::Computational;
                    } else {
                        // Correctly labelled |L⟩; the syndrome bit forwarded
                        // to the decoder is still a random computational
                        // value.
                        self.record.flips[key] = self.rng.bit();
                        self.record.labels[key] = ReadoutLabel::Leaked;
                    }
                }
            }
            // The qubit stays leaked through the measurement; only an
            // explicit reset removes leakage.
        } else {
            self.record.flips[key] = self.x[q];
            self.record.labels[key] = ReadoutLabel::Computational;
            // Z-basis measurement randomizes the phase frame (the standard
            // frame-simulation rule ensuring correct statistics for later
            // non-commuting operations).
            self.z[q] = self.rng.bit();
        }
    }

    fn leak_iswap(&mut self, data: QubitId, parity: QubitId) {
        // Google's LeakageISWAP (Appendix A.2): an iSWAP in the |11⟩/|20⟩
        // basis. It deterministically moves data-qubit leakage onto the
        // (just-reset) parity qubit and is not vulnerable to transport.
        if self.is_leaked(data) && !self.is_leaked(parity) {
            self.clear_leak(data);
            self.set_leak(parity);
            self.x[data] = self.rng.bit();
            self.z[data] = self.rng.bit();
        } else if !self.is_leaked(data) && !self.is_leaked(parity) && self.x[parity] {
            // The parity reset failed (it sits in |1⟩). If the data qubit is
            // also in |1⟩ — probability ½ for a generic data state — the
            // |11⟩→|20⟩ coupling excites the data qubit to |L⟩ (Fig 19(b)).
            if self.rng.bit() {
                self.set_leak(data);
                self.x[data] = false;
                self.z[data] = false;
            }
        }
        // Both leaked, or only the parity leaked: no effect; the subsequent
        // parity reset cleans up.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(noise: NoiseParams, keys: usize) -> FrameSimulator {
        FrameSimulator::new(4, keys, noise, Discriminator::TwoLevel, Rng::new(7))
    }

    #[test]
    fn x_error_propagates_through_cnot() {
        let mut s = sim(NoiseParams::without_leakage(0.0), 2);
        s.apply(&Op::XError { qubit: 0, p: 1.0 });
        s.apply(&Op::Cnot {
            control: 0,
            target: 1,
        });
        s.apply(&Op::Measure { qubit: 0, key: 0 });
        s.apply(&Op::Measure { qubit: 1, key: 1 });
        assert!(s.record().flip(0));
        assert!(s.record().flip(1));
    }

    #[test]
    fn z_error_propagates_backwards_through_cnot() {
        let mut s = sim(NoiseParams::without_leakage(0.0), 1);
        s.apply_pauli(1, Pauli::Z);
        s.apply(&Op::Cnot {
            control: 0,
            target: 1,
        });
        // Z on target propagates to control; H converts it to X there.
        s.apply(&Op::H(0));
        s.apply(&Op::Measure { qubit: 0, key: 0 });
        assert!(s.record().flip(0));
    }

    #[test]
    fn h_exchanges_x_and_z() {
        let mut s = sim(NoiseParams::without_leakage(0.0), 1);
        s.apply_pauli(0, Pauli::Z);
        s.apply(&Op::H(0));
        s.apply(&Op::Measure { qubit: 0, key: 0 });
        assert!(s.record().flip(0), "Z became X after H, flipping MZ");
    }

    #[test]
    fn reset_clears_frame_and_leakage() {
        let mut s = sim(NoiseParams::standard(1e-3), 1);
        s.apply_pauli(0, Pauli::Y);
        s.force_leak(0);
        s.apply(&Op::Reset(0));
        assert!(!s.is_leaked(0));
        s.apply(&Op::Measure { qubit: 0, key: 0 });
        assert!(!s.record().flip(0));
    }

    #[test]
    fn leaked_measurement_is_random() {
        let mut s = sim(NoiseParams::standard(1e-3), 1);
        let mut flips = 0;
        let n = 2000;
        for _ in 0..n {
            s.reset_shot();
            s.force_leak(0);
            s.apply(&Op::Measure { qubit: 0, key: 0 });
            assert_eq!(s.record().label(0), ReadoutLabel::Computational);
            if s.record().flip(0) {
                flips += 1;
            }
        }
        let frac = flips as f64 / n as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "leaked readout must be random, got {frac}"
        );
    }

    #[test]
    fn multilevel_labels_leaked_qubits() {
        let noise = NoiseParams::standard(1e-3);
        let mut s = FrameSimulator::new(1, 1, noise, Discriminator::MultiLevel, Rng::new(3));
        let mut labelled = 0;
        let n = 5000;
        for _ in 0..n {
            s.reset_shot();
            s.force_leak(0);
            s.apply(&Op::Measure { qubit: 0, key: 0 });
            if s.record().label(0).is_leaked() {
                labelled += 1;
            }
        }
        let frac = labelled as f64 / n as f64;
        // Expect 1 - 10p = 0.99.
        assert!((frac - 0.99).abs() < 0.01, "multi-level accuracy {frac}");
    }

    #[test]
    fn multilevel_never_mislabels_unleaked() {
        let noise = NoiseParams::standard(1e-3);
        let mut s = FrameSimulator::new(1, 1, noise, Discriminator::MultiLevel, Rng::new(3));
        for _ in 0..1000 {
            s.reset_shot();
            s.apply(&Op::Measure { qubit: 0, key: 0 });
            assert!(!s.record().label(0).is_leaked());
        }
    }

    #[test]
    fn leaked_cnot_kicks_partner_half_the_time() {
        let noise = NoiseParams::standard(1e-3);
        let mut s = FrameSimulator::new(2, 1, noise, Discriminator::TwoLevel, Rng::new(11));
        let mut flips = 0;
        let n = 4000;
        for _ in 0..n {
            s.reset_shot();
            s.force_leak(0);
            s.apply(&Op::Cnot {
                control: 0,
                target: 1,
            });
            // Z-basis measurement sees X or Y kicks: probability 1/2.
            if !s.is_leaked(1) {
                s.apply(&Op::Measure { qubit: 1, key: 0 });
                if s.record().flip(0) {
                    flips += 1;
                }
            }
        }
        let frac = flips as f64 / n as f64;
        // Transport (10%) sometimes removes the qubit from the sample; the
        // remaining 90% flip with probability 1/2 → ~0.45 overall.
        assert!((frac - 0.45).abs() < 0.05, "kick rate {frac}");
    }

    #[test]
    fn conservative_transport_duplicates_leakage() {
        let mut noise = NoiseParams::standard(1e-3);
        noise.p_transport = 1.0;
        let mut s = FrameSimulator::new(2, 0, noise, Discriminator::TwoLevel, Rng::new(1));
        s.force_leak(0);
        s.apply(&Op::Cnot {
            control: 0,
            target: 1,
        });
        assert!(s.is_leaked(0), "source stays leaked (conservative)");
        assert!(s.is_leaked(1), "target becomes leaked");
    }

    #[test]
    fn exchange_transport_moves_leakage() {
        let mut noise = NoiseParams::exchange_transport(1e-3);
        noise.p_transport = 1.0;
        let mut s = FrameSimulator::new(2, 0, noise, Discriminator::TwoLevel, Rng::new(1));
        s.force_leak(0);
        s.apply(&Op::Cnot {
            control: 0,
            target: 1,
        });
        assert!(!s.is_leaked(0), "source returns to computational basis");
        assert!(s.is_leaked(1), "target becomes leaked");
    }

    #[test]
    fn both_leaked_cnot_is_inert() {
        let mut noise = NoiseParams::standard(1e-3);
        noise.p_transport = 1.0;
        let mut s = FrameSimulator::new(2, 0, noise, Discriminator::TwoLevel, Rng::new(1));
        s.force_leak(0);
        s.force_leak(1);
        s.apply(&Op::Cnot {
            control: 0,
            target: 1,
        });
        assert!(s.is_leaked(0) && s.is_leaked(1));
    }

    #[test]
    fn seepage_returns_random_state() {
        let noise = NoiseParams::standard(1e-3);
        let mut s = FrameSimulator::new(1, 1, noise, Discriminator::TwoLevel, Rng::new(2));
        let mut returned_flipped = 0;
        let n = 4000;
        for _ in 0..n {
            s.reset_shot();
            s.force_leak(0);
            s.apply(&Op::Seep { qubit: 0, p: 1.0 });
            assert!(!s.is_leaked(0));
            s.apply(&Op::Measure { qubit: 0, key: 0 });
            if s.record().flip(0) {
                returned_flipped += 1;
            }
        }
        let frac = returned_flipped as f64 / n as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "seeped state must be random, got {frac}"
        );
    }

    #[test]
    fn leak_iswap_removes_data_leakage() {
        let noise = NoiseParams::standard(1e-3);
        let mut s = FrameSimulator::new(2, 0, noise, Discriminator::TwoLevel, Rng::new(5));
        s.force_leak(0);
        s.apply(&Op::LeakIswap { data: 0, parity: 1 });
        assert!(!s.is_leaked(0));
        assert!(s.is_leaked(1));
    }

    #[test]
    fn leak_iswap_reset_failure_can_excite_data() {
        let noise = NoiseParams::standard(1e-3);
        let mut s = FrameSimulator::new(2, 0, noise, Discriminator::TwoLevel, Rng::new(5));
        let mut excited = 0;
        let n = 4000;
        for _ in 0..n {
            s.reset_shot();
            // Parity reset failed: it sits in |1⟩ (x frame set).
            s.apply_pauli(1, Pauli::X);
            s.apply(&Op::LeakIswap { data: 0, parity: 1 });
            if s.is_leaked(0) {
                excited += 1;
            }
        }
        let frac = excited as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "excitation rate {frac}");
    }

    #[test]
    fn depolarize2_skipped_when_leaked() {
        let noise = NoiseParams::standard(1e-3);
        let mut s = FrameSimulator::new(2, 1, noise, Discriminator::TwoLevel, Rng::new(5));
        s.force_leak(0);
        for _ in 0..100 {
            s.apply(&Op::Depolarize2 { a: 0, b: 1, p: 1.0 });
        }
        s.apply(&Op::Measure { qubit: 1, key: 0 });
        assert!(
            !s.record().flip(0),
            "partner of leaked qubit untouched by gate channel"
        );
    }

    #[test]
    fn record_parity() {
        let mut s = sim(NoiseParams::without_leakage(0.0), 3);
        s.apply(&Op::XError { qubit: 0, p: 1.0 });
        s.apply(&Op::Measure { qubit: 0, key: 0 });
        s.apply(&Op::Measure { qubit: 1, key: 1 });
        s.apply(&Op::Measure { qubit: 2, key: 2 });
        assert!(s.record().parity(&[0, 1]));
        assert!(!s.record().parity(&[1, 2]));
    }

    #[test]
    fn reset_shot_preserves_rng_stream() {
        let noise = NoiseParams::standard(1e-3);
        let mut a = FrameSimulator::new(1, 1, noise, Discriminator::TwoLevel, Rng::new(9));
        let mut b = FrameSimulator::new(1, 1, noise, Discriminator::TwoLevel, Rng::new(9));
        // Two shots on `a` must consume the stream exactly like two shots on
        // `b` — i.e., reset_shot itself must not draw randomness.
        for s in [&mut a, &mut b] {
            s.force_leak(0);
            s.apply(&Op::Measure { qubit: 0, key: 0 });
            s.reset_shot();
        }
        a.force_leak(0);
        b.force_leak(0);
        a.apply(&Op::Measure { qubit: 0, key: 0 });
        b.apply(&Op::Measure { qubit: 0, key: 0 });
        assert_eq!(a.record().flip(0), b.record().flip(0));
    }
}
