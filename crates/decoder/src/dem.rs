//! Detector-error-model construction.
//!
//! For every explicit Pauli noise operation in a circuit (depolarizing
//! channels and X errors), each of its Pauli components maps to the set of
//! detectors it flips and whether it flips the logical observable; components
//! with identical signatures are merged with XOR-probability combination.
//! This mirrors what Stim's `detector_error_model` does for the circuits the
//! paper simulates.
//!
//! The builder walks the circuit **backwards**, maintaining for every qubit
//! the signature (detector set + observable bit) that an X or Z error at the
//! current position would produce. Gates transform signatures
//! (`H` swaps X/Z, `CNOT` accumulates control↔target), measurements inject
//! their detectors, resets clear. One pass over the circuit then prices every
//! noise site in O(signature size), independent of circuit length — the
//! forward-propagation alternative is quadratic because data-qubit errors
//! persist to the final transversal readout.
//!
//! Leakage operations carry no Pauli component and are skipped — the error
//! model (and hence the decoder) is leakage-blind by design. Every merged
//! mechanism does, however, record its fault **provenance**
//! ([`ErrorMechanism::sources`]): the op indices of the contributing noise
//! sites, which is what lets the runtime translate heralded leakage into
//! exact erased-edge sets. Tracking it costs a constant factor on model
//! construction — a once-per-graph price, invisible next to the Monte-Carlo
//! loop it serves.

use crate::fxhash::FxHashMap;
use qec_core::{Circuit, DetectorInfo, MeasKey, Op};

/// One merged error mechanism: the detectors it flips, whether it flips the
/// logical observable, and its total probability.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorMechanism {
    /// Indices into the detector list the model was built against, sorted.
    pub detectors: Vec<usize>,
    /// Whether the mechanism flips the logical observable.
    pub flips_observable: bool,
    /// Merged probability (XOR-combined over contributing fault components).
    pub probability: f64,
    /// Provenance: the circuit op indices of every noise site that
    /// contributed a component to this mechanism, sorted and deduplicated.
    /// This is what lets a runtime translate "qubit X was leaked around op
    /// position P" into the exact set of heralded mechanisms (erasure
    /// decoding) instead of a hand-derived approximation.
    pub sources: Vec<u32>,
}

/// A circuit-level detector error model.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorErrorModel {
    /// Number of detectors in the underlying experiment.
    pub num_detectors: usize,
    /// Merged mechanisms.
    pub mechanisms: Vec<ErrorMechanism>,
}

/// The effect of a single Pauli error at a circuit position: which detectors
/// flip and whether the observable flips. Detector ids stay sorted.
#[derive(Debug, Clone, Default, PartialEq)]
struct Signature {
    dets: Vec<u32>,
    obs: bool,
}

impl Signature {
    fn clear(&mut self) {
        self.dets.clear();
        self.obs = false;
    }

    fn is_empty(&self) -> bool {
        self.dets.is_empty() && !self.obs
    }

    /// Writes `a ⊕ b` (sorted-merge symmetric difference plus observable
    /// XOR) into `out`, reusing its buffer.
    fn xor_into(a: &Signature, b: &Signature, out: &mut Signature) {
        out.dets.clear();
        out.obs = a.obs ^ b.obs;
        let (a, b) = (&a.dets, &b.dets);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.dets.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.dets.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.dets.extend_from_slice(&a[i..]);
        out.dets.extend_from_slice(&b[j..]);
    }
}

/// XOR-combines two independent probabilities: P(exactly one fires).
pub(crate) fn combine_probability(a: f64, b: f64) -> f64 {
    a * (1.0 - b) + b * (1.0 - a)
}

/// The mechanisms found so far: an id per distinct signature (one map per
/// observable bit, probed with the borrowed detector slice), each id's
/// running probability, and every `(id, source)` record in walk order.
#[derive(Default)]
struct Merger {
    ids: [FxHashMap<Vec<u32>, u32>; 2],
    probability: Vec<f64>,
    records: Vec<(u32, u32)>,
}

impl Merger {
    fn record(&mut self, sig: &Signature, p: f64, source: usize) {
        if sig.is_empty() || p <= 0.0 {
            return;
        }
        let map = &mut self.ids[usize::from(sig.obs)];
        let id = match map.get(sig.dets.as_slice()) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.probability.len()).expect("mechanism ids fit u32");
                map.insert(sig.dets.clone(), id);
                self.probability.push(0.0);
                id
            }
        };
        let prob = &mut self.probability[id as usize];
        *prob = combine_probability(*prob, p);
        self.records.push((id, source as u32));
    }

    /// The merged mechanisms, sorted by (detectors, observable), each with
    /// its sources sorted and deduplicated.
    fn finish(self, num_detectors: usize) -> DetectorErrorModel {
        // Group the records by id (a stable counting sort). The walk runs
        // backwards, so each group's sources are non-increasing.
        let mut start = vec![0u32; self.probability.len() + 1];
        for &(id, _) in &self.records {
            start[id as usize + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut next = start.clone();
        let mut sources = vec![0u32; self.records.len()];
        for &(id, src) in &self.records {
            sources[next[id as usize] as usize] = src;
            next[id as usize] += 1;
        }
        drop(self.records);

        let mut keys: Vec<(Vec<u32>, bool, u32)> = Vec::with_capacity(self.probability.len());
        for (obs, map) in self.ids.into_iter().enumerate() {
            keys.extend(map.into_iter().map(|(dets, id)| (dets, obs == 1, id)));
        }
        keys.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mechanisms = keys
            .into_iter()
            .map(|(dets, flips_observable, id)| {
                let group = &sources[start[id as usize] as usize..start[id as usize + 1] as usize];
                let mut sources: Vec<u32> = group.iter().rev().copied().collect();
                sources.dedup();
                ErrorMechanism {
                    detectors: dets.into_iter().map(|d| d as usize).collect(),
                    flips_observable,
                    probability: self.probability[id as usize],
                    sources,
                }
            })
            .collect();
        DetectorErrorModel {
            num_detectors,
            mechanisms,
        }
    }
}

/// Builds the detector error model of `circuit` against the given detector
/// definitions and observable keys.
///
/// # Panics
///
/// Panics if a detector or observable references a measurement key that is
/// out of range for the circuit.
pub fn build_dem(
    circuit: &Circuit,
    detectors: &[DetectorInfo],
    observable: &[MeasKey],
) -> DetectorErrorModel {
    let num_keys = circuit.num_keys();
    // Per-key signature: the detectors containing the key, plus observable
    // membership.
    let mut key_sig: Vec<Signature> = vec![Signature::default(); num_keys];
    for (idx, det) in detectors.iter().enumerate() {
        for &k in &det.keys {
            assert!(k < num_keys, "detector references unmeasured key {k}");
            key_sig[k].dets.push(idx as u32);
        }
    }
    for sig in &mut key_sig {
        sig.dets.sort_unstable();
    }
    for &k in observable {
        assert!(k < num_keys, "observable references unmeasured key {k}");
        key_sig[k].obs = true;
    }

    let nq = circuit.num_qubits();
    let mut sig_x: Vec<Signature> = vec![Signature::default(); nq];
    let mut sig_z: Vec<Signature> = vec![Signature::default(); nq];
    let mut merged = Merger::default();
    // Reused buffers: `tmp` receives an update and is swapped with the
    // signature it replaces; `ya`/`yb` hold Y components and `pab` one
    // two-qubit Pauli product.
    let identity = Signature::default();
    let mut tmp = Signature::default();
    let mut ya = Signature::default();
    let mut yb = Signature::default();
    let mut pab = Signature::default();

    for (op_idx, op) in circuit.ops().iter().enumerate().rev() {
        match *op {
            Op::Measure { qubit, key } => {
                // An X error before MZ flips the outcome (and persists, which
                // the signature already accounts for via later ops).
                Signature::xor_into(&sig_x[qubit], &key_sig[key], &mut tmp);
                std::mem::swap(&mut sig_x[qubit], &mut tmp);
            }
            Op::Reset(q) => {
                sig_x[q].clear();
                sig_z[q].clear();
            }
            Op::H(q) => std::mem::swap(&mut sig_x[q], &mut sig_z[q]),
            Op::Cnot { control, target } | Op::CnotNoTransport { control, target } => {
                // Forward: X_c → X_c X_t, so an X on c also acts as X on t.
                Signature::xor_into(&sig_x[control], &sig_x[target], &mut tmp);
                std::mem::swap(&mut sig_x[control], &mut tmp);
                // Forward: Z_t → Z_t Z_c.
                Signature::xor_into(&sig_z[target], &sig_z[control], &mut tmp);
                std::mem::swap(&mut sig_z[target], &mut tmp);
            }
            Op::Depolarize1 { qubit, p } => {
                if p > 0.0 {
                    let share = p / 3.0;
                    merged.record(&sig_x[qubit], share, op_idx);
                    merged.record(&sig_z[qubit], share, op_idx);
                    Signature::xor_into(&sig_x[qubit], &sig_z[qubit], &mut ya);
                    merged.record(&ya, share, op_idx);
                }
            }
            Op::XError { qubit, p } => {
                merged.record(&sig_x[qubit], p, op_idx);
            }
            Op::Depolarize2 { a, b, p } => {
                if p > 0.0 {
                    let share = p / 15.0;
                    Signature::xor_into(&sig_x[a], &sig_z[a], &mut ya);
                    Signature::xor_into(&sig_x[b], &sig_z[b], &mut yb);
                    // I, X, Y, Z on each qubit, in that order.
                    let pa = [&identity, &sig_x[a], &ya, &sig_z[a]];
                    let pb = [&identity, &sig_x[b], &yb, &sig_z[b]];
                    for (i, sa) in pa.iter().enumerate() {
                        for (j, sb) in pb.iter().enumerate() {
                            if i == 0 && j == 0 {
                                continue;
                            }
                            Signature::xor_into(sa, sb, &mut pab);
                            merged.record(&pab, share, op_idx);
                        }
                    }
                }
            }
            // Leakage channels and layer markers carry no Pauli component.
            Op::LeakInject { .. } | Op::Seep { .. } | Op::LeakIswap { .. } | Op::Tick => {}
        }
    }
    merged.finish(detectors.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_core::circuit::DetectorBasis;

    /// Hand-built repetition-code-flavoured circuit: two data qubits, one
    /// parity qubit measuring their Z-parity, repeated twice.
    fn tiny_circuit() -> (Circuit, Vec<DetectorInfo>, Vec<MeasKey>) {
        let mut c = Circuit::new(3);
        c.alloc_keys(4);
        // round 0
        c.push(Op::Depolarize1 { qubit: 0, p: 0.01 });
        c.push(Op::Depolarize1 { qubit: 1, p: 0.01 });
        c.push(Op::Cnot {
            control: 0,
            target: 2,
        });
        c.push(Op::Cnot {
            control: 1,
            target: 2,
        });
        c.push(Op::XError { qubit: 2, p: 0.02 });
        c.push(Op::Measure { qubit: 2, key: 0 });
        c.push(Op::Reset(2));
        // round 1
        c.push(Op::Cnot {
            control: 0,
            target: 2,
        });
        c.push(Op::Cnot {
            control: 1,
            target: 2,
        });
        c.push(Op::Measure { qubit: 2, key: 1 });
        c.push(Op::Reset(2));
        // final data readout
        c.push(Op::Measure { qubit: 0, key: 2 });
        c.push(Op::Measure { qubit: 1, key: 3 });
        let detectors = vec![
            DetectorInfo {
                keys: vec![0],
                basis: DetectorBasis::Z,
                stabilizer: 0,
                round: 0,
            },
            DetectorInfo {
                keys: vec![0, 1],
                basis: DetectorBasis::Z,
                stabilizer: 0,
                round: 1,
            },
            DetectorInfo {
                keys: vec![1, 2, 3],
                basis: DetectorBasis::Z,
                stabilizer: 0,
                round: 2,
            },
        ];
        let observable = vec![2];
        (c, detectors, observable)
    }

    #[test]
    fn measurement_flip_fires_two_detectors() {
        let (c, dets, obs) = tiny_circuit();
        let dem = build_dem(&c, &dets, &obs);
        // The X error before the round-0 measurement flips detectors 0 and 1
        // (outcome flip, then state flip cancelled by reset).
        let mech = dem
            .mechanisms
            .iter()
            .find(|m| m.detectors == vec![0, 1])
            .expect("measurement-flip mechanism");
        assert!(!mech.flips_observable);
        assert!(mech.probability > 0.0);
    }

    #[test]
    fn data_error_flips_detectors_and_observable() {
        let (c, dets, obs) = tiny_circuit();
        let dem = build_dem(&c, &dets, &obs);
        let mech = dem
            .mechanisms
            .iter()
            .find(|m| m.flips_observable)
            .expect("observable-flipping mechanism");
        assert!(!mech.detectors.is_empty());
        // Its probability must include both the X and Y components of the
        // round-0 depolarizing channel on qubit 0, XOR-combined.
        let p_each = 0.01 / 3.0;
        let expected = combine_probability(p_each, p_each);
        assert!((mech.probability - expected).abs() < 1e-12);
    }

    #[test]
    fn every_mechanism_fires_something() {
        let (c, dets, obs) = tiny_circuit();
        let dem = build_dem(&c, &dets, &obs);
        for mech in &dem.mechanisms {
            assert!(!mech.detectors.is_empty() || mech.flips_observable);
        }
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (c, dets, obs) = tiny_circuit();
        let dem = build_dem(&c, &dets, &obs);
        for mech in &dem.mechanisms {
            assert!(mech.probability > 0.0 && mech.probability < 1.0);
        }
    }

    #[test]
    fn mechanisms_carry_fault_provenance() {
        let (c, dets, obs) = tiny_circuit();
        let dem = build_dem(&c, &dets, &obs);
        for mech in &dem.mechanisms {
            assert!(!mech.sources.is_empty(), "every mechanism has a source");
            assert!(mech.sources.windows(2).all(|w| w[0] < w[1]), "sorted");
            for &src in &mech.sources {
                // Sources are noise sites, never gates or measurements.
                assert!(matches!(
                    c.ops()[src as usize],
                    Op::Depolarize1 { .. } | Op::Depolarize2 { .. } | Op::XError { .. }
                ));
            }
        }
        // The round-0 measurement-flip mechanism's source is the XError in
        // front of the round-0 measurement (op index 4).
        let mech = dem
            .mechanisms
            .iter()
            .find(|m| m.detectors == vec![0, 1])
            .expect("measurement-flip mechanism");
        assert_eq!(mech.sources, vec![4]);
    }

    #[test]
    fn combine_probability_is_xor() {
        assert!((combine_probability(0.5, 0.5) - 0.5).abs() < 1e-12);
        assert!((combine_probability(0.0, 0.3) - 0.3).abs() < 1e-12);
        assert!(combine_probability(0.1, 0.1) < 0.2);
    }

    #[test]
    fn zero_probability_channels_are_skipped() {
        let mut c = Circuit::new(1);
        c.alloc_keys(1);
        c.push(Op::Depolarize1 { qubit: 0, p: 0.0 });
        c.push(Op::Measure { qubit: 0, key: 0 });
        let dets = vec![DetectorInfo {
            keys: vec![0],
            basis: DetectorBasis::Z,
            stabilizer: 0,
            round: 0,
        }];
        let dem = build_dem(&c, &dets, &[]);
        assert!(dem.mechanisms.is_empty());
    }

    #[test]
    fn signature_xor_is_symmetric_difference() {
        let a = Signature {
            dets: vec![1, 3, 5],
            obs: true,
        };
        let b = Signature {
            dets: vec![3, 4],
            obs: true,
        };
        let mut c = Signature::default();
        Signature::xor_into(&a, &b, &mut c);
        assert_eq!(c.dets, vec![1, 4, 5]);
        assert!(!c.obs);
        // XOR with self annihilates.
        Signature::xor_into(&a, &a, &mut c);
        assert!(c.is_empty());
    }

    /// Cross-check the backward builder against literal forward frame
    /// propagation on the tiny circuit: inject each X/Z error explicitly and
    /// verify the recorded mechanism matches.
    #[test]
    fn backward_pass_matches_forward_injection() {
        use qec_core::Pauli;
        let (c, dets, obs) = tiny_circuit();
        let dem = build_dem(&c, &dets, &obs);
        // Manually propagate an X error on qubit 0 at position 2 (right after
        // its depolarizing site): flips k0, k1 (parity readouts) and k2
        // (final data readout = observable).
        let mut flips = [false; 4];
        {
            // X on qubit 0 propagates through both CNOTs onto qubit 2 and
            // flips every measurement of qubit 0 and the copies on qubit 2.
            flips[0] ^= true; // round-0 parity
            flips[1] ^= true; // round-1 parity
            flips[2] ^= true; // final readout of qubit 0
        }
        let det_fired: Vec<usize> = dets
            .iter()
            .enumerate()
            .filter(|(_, d)| d.keys.iter().fold(false, |acc, &k| acc ^ flips[k]))
            .map(|(i, _)| i)
            .collect();
        let obs_fired = obs.iter().fold(false, |acc, &k| acc ^ flips[k]);
        assert!(
            dem.mechanisms
                .iter()
                .any(|m| m.detectors == det_fired && m.flips_observable == obs_fired),
            "missing mechanism {det_fired:?}/{obs_fired}; have {:?}",
            dem.mechanisms
                .iter()
                .map(|m| (&m.detectors, m.flips_observable))
                .collect::<Vec<_>>(),
        );
        let _ = Pauli::X;
    }
}
