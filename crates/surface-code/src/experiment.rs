//! Memory-experiment specification: measurement-record layout, detectors, and
//! the logical observable.
//!
//! A memory-Z experiment (the paper's state-preservation workload, §5.3)
//! initializes every data qubit in |0⟩, runs `R` syndrome-extraction rounds,
//! and finally measures every data qubit in the Z basis. The decoder sees:
//!
//! * one detector per Z stabilizer in round 0 (its first outcome is
//!   deterministic),
//! * one detector per stabilizer (either basis) comparing consecutive rounds,
//! * one final detector per Z stabilizer comparing its last round against the
//!   parity reconstructed from the transversal data readout,
//!
//! and one logical observable: the parity of the top data-qubit row (the
//! support of logical Z).

use crate::circuits::{LrcAssignment, RoundBuilder};
use crate::layout::{RotatedCode, StabKind};
use qec_core::circuit::DetectorBasis;
use qec_core::{Circuit, DetectorInfo, MeasKey, NoiseParams, Op};

/// Measurement-record layout for an `R`-round memory experiment.
///
/// Round `r`'s stabilizer outcomes occupy keys `r·S .. (r+1)·S` (where `S` is
/// the stabilizer count) regardless of which physical qubit produced them;
/// the final transversal data readout occupies the last `d²` keys.
///
/// # Example
///
/// ```
/// use surface_code::KeyLayout;
///
/// let keys = KeyLayout::new(3, 8, 9);
/// assert_eq!(keys.stab_key(2, 5), 21);
/// assert_eq!(keys.final_key(0), 24);
/// assert_eq!(keys.total(), 33);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyLayout {
    rounds: usize,
    num_stabs: usize,
    num_data: usize,
}

impl KeyLayout {
    /// Creates a layout for `rounds` rounds over `num_stabs` stabilizers and
    /// `num_data` data qubits.
    pub fn new(rounds: usize, num_stabs: usize, num_data: usize) -> KeyLayout {
        KeyLayout {
            rounds,
            num_stabs,
            num_data,
        }
    }

    /// Number of syndrome-extraction rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Key of stabilizer `stab`'s outcome in round `round`.
    ///
    /// # Panics
    ///
    /// Panics if `round` or `stab` is out of range.
    pub fn stab_key(&self, round: usize, stab: usize) -> MeasKey {
        assert!(round < self.rounds && stab < self.num_stabs);
        round * self.num_stabs + stab
    }

    /// Key of data qubit `data`'s final transversal readout.
    ///
    /// # Panics
    ///
    /// Panics if `data` is out of range.
    pub fn final_key(&self, data: usize) -> MeasKey {
        assert!(data < self.num_data);
        self.rounds * self.num_stabs + data
    }

    /// Total number of measurement keys.
    pub fn total(&self) -> usize {
        self.rounds * self.num_stabs + self.num_data
    }

    /// Inverts a key into `(round, stab)` if it is a stabilizer key.
    pub fn key_to_round_stab(&self, key: MeasKey) -> Option<(usize, usize)> {
        (key < self.rounds * self.num_stabs).then(|| (key / self.num_stabs, key % self.num_stabs))
    }
}

/// Which logical state a memory experiment preserves.
///
/// A memory-Z experiment prepares |0…0⟩, tracks logical Z (flipped by X
/// errors, detected by Z stabilizers); a memory-X experiment prepares |+…+⟩
/// and tracks logical X (flipped by Z errors, detected by X stabilizers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoryBasis {
    /// Preserve logical Z (the paper's workload).
    #[default]
    Z,
    /// Preserve logical X.
    X,
}

impl MemoryBasis {
    /// The stabilizer kind whose round-0 outcomes are deterministic and
    /// whose detectors are decoded.
    pub fn stab_kind(self) -> StabKind {
        match self {
            MemoryBasis::Z => StabKind::Z,
            MemoryBasis::X => StabKind::X,
        }
    }
}

impl std::str::FromStr for MemoryBasis {
    /// ``unknown basis `name` (expected "z" or "x")``.
    type Err = String;

    /// Parses `z` / `Z` or `x` / `X`.
    fn from_str(s: &str) -> Result<MemoryBasis, String> {
        match s {
            "z" | "Z" => Ok(MemoryBasis::Z),
            "x" | "X" => Ok(MemoryBasis::X),
            other => Err(format!("unknown basis `{other}` (expected \"z\" or \"x\")")),
        }
    }
}

/// A memory experiment over a rotated surface code (memory-Z by default, the
/// paper's workload; memory-X via [`MemoryExperiment::new_with_basis`]).
///
/// # Example
///
/// ```
/// use qec_core::NoiseParams;
/// use surface_code::{MemoryExperiment, RotatedCode};
///
/// let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 3);
/// assert_eq!(exp.rounds(), 3);
/// assert_eq!(exp.observable_keys().len(), 3); // logical-Z support = d qubits
/// let circuit = exp.base_circuit();
/// assert_eq!(circuit.num_keys(), exp.keys().total());
/// ```
#[derive(Debug, Clone)]
pub struct MemoryExperiment {
    code: RotatedCode,
    noise: NoiseParams,
    rounds: usize,
    keys: KeyLayout,
    basis: MemoryBasis,
}

impl MemoryExperiment {
    /// Creates an `rounds`-round memory-Z experiment.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn new(code: RotatedCode, noise: NoiseParams, rounds: usize) -> MemoryExperiment {
        MemoryExperiment::new_with_basis(code, noise, rounds, MemoryBasis::Z)
    }

    /// Creates a memory experiment preserving the given logical basis.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn new_with_basis(
        code: RotatedCode,
        noise: NoiseParams,
        rounds: usize,
        basis: MemoryBasis,
    ) -> MemoryExperiment {
        assert!(rounds >= 1, "memory experiment needs at least one round");
        let keys = KeyLayout::new(rounds, code.num_stabs(), code.num_data());
        MemoryExperiment {
            code,
            noise,
            rounds,
            keys,
            basis,
        }
    }

    /// The preserved logical basis.
    pub fn basis(&self) -> MemoryBasis {
        self.basis
    }

    /// The underlying code.
    pub fn code(&self) -> &RotatedCode {
        &self.code
    }

    /// The noise model.
    pub fn noise(&self) -> &NoiseParams {
        &self.noise
    }

    /// Number of syndrome-extraction rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The measurement-record layout.
    pub fn keys(&self) -> &KeyLayout {
        &self.keys
    }

    /// A round builder bound to this experiment's code and noise model.
    pub fn round_builder(&self) -> RoundBuilder<'_> {
        RoundBuilder::new(&self.code, self.noise)
    }

    /// Initialization segment: reset every qubit, apply init errors (§5.2.1:
    /// "initialization errors on qubits after a reset"), and — for memory-X —
    /// rotate the data qubits into |+⟩ with noisy Hadamards.
    pub fn init_segment(&self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(2 * self.code.num_qubits());
        for q in 0..self.code.num_qubits() {
            ops.push(Op::Reset(q));
            ops.push(Op::XError {
                qubit: q,
                p: self.noise.p,
            });
        }
        if self.basis == MemoryBasis::X {
            for q in 0..self.code.num_data() {
                ops.push(Op::H(q));
                ops.push(Op::Depolarize1 {
                    qubit: q,
                    p: self.noise.p,
                });
            }
        }
        ops
    }

    /// Final segment: transversal readout of every data qubit in the memory
    /// basis (memory-X rotates back with noisy Hadamards first).
    pub fn final_segment(&self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(2 * self.code.num_data());
        if self.basis == MemoryBasis::X {
            for q in 0..self.code.num_data() {
                ops.push(Op::H(q));
                ops.push(Op::Depolarize1 {
                    qubit: q,
                    p: self.noise.p,
                });
            }
        }
        for q in 0..self.code.num_data() {
            ops.push(Op::XError {
                qubit: q,
                p: self.noise.p,
            });
            ops.push(Op::Measure {
                qubit: q,
                key: self.keys.final_key(q),
            });
        }
        ops
    }

    /// All detector definitions: round-0 detectors for the memory basis
    /// (those stabilizers start deterministic), consecutive-round pairs of
    /// both bases, and final reconstruction detectors from the transversal
    /// readout.
    pub fn detectors(&self) -> Vec<DetectorInfo> {
        let mut out = Vec::new();
        let det_kind = self.basis.stab_kind();
        let det_basis = match det_kind {
            StabKind::Z => DetectorBasis::Z,
            StabKind::X => DetectorBasis::X,
        };
        let det_ids = self.code.stab_ids(det_kind);
        // Round 0: the memory-basis stabilizers start deterministic (|0…0⟩ /
        // |+…+⟩ are +1 eigenstates); the other basis is random in round 0 and
        // only becomes comparable from round 1.
        for &s in &det_ids {
            out.push(DetectorInfo {
                keys: vec![self.keys.stab_key(0, s)],
                basis: det_basis,
                stabilizer: s,
                round: 0,
            });
        }
        for r in 1..self.rounds {
            for (s, stab) in self.code.stabilizers().iter().enumerate() {
                let basis = match stab.kind {
                    StabKind::X => DetectorBasis::X,
                    StabKind::Z => DetectorBasis::Z,
                };
                out.push(DetectorInfo {
                    keys: vec![self.keys.stab_key(r, s), self.keys.stab_key(r - 1, s)],
                    basis,
                    stabilizer: s,
                    round: r,
                });
            }
        }
        // Final detectors: each memory-basis stabilizer's last readout
        // against the parity of its support in the transversal readout.
        for &s in &det_ids {
            let mut keys: Vec<MeasKey> = self.code.stabilizers()[s]
                .support()
                .map(|q| self.keys.final_key(q))
                .collect();
            keys.push(self.keys.stab_key(self.rounds - 1, s));
            out.push(DetectorInfo {
                keys,
                basis: det_basis,
                stabilizer: s,
                round: self.rounds,
            });
        }
        out
    }

    /// Keys whose parity is the preserved logical observable (final readout
    /// of the logical-Z row or logical-X column).
    pub fn observable_keys(&self) -> Vec<MeasKey> {
        let support = match self.basis {
            MemoryBasis::Z => self.code.logical_z_support(),
            MemoryBasis::X => self.code.logical_x_support(),
        };
        support
            .into_iter()
            .map(|q| self.keys.final_key(q))
            .collect()
    }

    /// The full static circuit with **no LRCs**: init, `R` plain rounds, final
    /// readout. This is the circuit the decoder's error model is built from
    /// (the decoder is leakage- and LRC-unaware, per the paper's premise) and
    /// the circuit used by the tableau-based verification tests.
    pub fn base_circuit(&self) -> Circuit {
        let mut circuit = Circuit::new(self.code.num_qubits());
        circuit.alloc_keys(self.keys.total());
        circuit.extend(self.init_segment());
        let builder = self.round_builder();
        for r in 0..self.rounds {
            let round = builder.round(r, &[], &self.keys);
            circuit.extend(round.pre);
            circuit.extend(round.measure);
            circuit.extend(round.mr_reset);
            debug_assert!(round.lrc_post.is_empty() && round.post.is_empty());
        }
        circuit.extend(self.final_segment());
        circuit
    }

    /// Like [`MemoryExperiment::base_circuit`] but with fixed LRC assignments
    /// applied on alternating rounds — the static Always-LRC circuit, useful
    /// for inspection and tests.
    pub fn always_lrc_circuit(&self, schedule: &[Vec<LrcAssignment>]) -> Circuit {
        let mut circuit = Circuit::new(self.code.num_qubits());
        circuit.alloc_keys(self.keys.total());
        circuit.extend(self.init_segment());
        let builder = self.round_builder();
        for r in 0..self.rounds {
            let lrcs: &[LrcAssignment] = schedule
                .get(r % schedule.len().max(1))
                .map(|v| v.as_slice())
                .unwrap_or(&[]);
            let round = builder.round(r, lrcs, &self.keys);
            circuit.extend(round.pre);
            circuit.extend(round.measure);
            circuit.extend(round.mr_reset);
            for tail in round.lrc_post {
                circuit.extend(tail.swap_back);
            }
            circuit.extend(round.post);
        }
        circuit.extend(self.final_segment());
        circuit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(d: usize, rounds: usize) -> MemoryExperiment {
        MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(1e-3), rounds)
    }

    #[test]
    fn key_layout_round_trips() {
        let keys = KeyLayout::new(5, 24, 25);
        for r in 0..5 {
            for s in 0..24 {
                let k = keys.stab_key(r, s);
                assert_eq!(keys.key_to_round_stab(k), Some((r, s)));
            }
        }
        assert_eq!(keys.key_to_round_stab(keys.final_key(0)), None);
        assert_eq!(keys.total(), 5 * 24 + 25);
    }

    #[test]
    fn detector_census() {
        for (d, rounds) in [(3usize, 3usize), (5, 5), (3, 1)] {
            let e = exp(d, rounds);
            let n_half = (d * d - 1) / 2;
            let expected = n_half                      // round-0 Z
                + (rounds - 1) * (d * d - 1)           // bulk, both bases
                + n_half; // final Z
            assert_eq!(e.detectors().len(), expected, "d={d} rounds={rounds}");
        }
    }

    #[test]
    fn detector_keys_are_in_range() {
        let e = exp(3, 4);
        let total = e.keys().total();
        for det in e.detectors() {
            assert!(!det.keys.is_empty());
            for k in det.keys {
                assert!(k < total);
            }
        }
    }

    #[test]
    fn observable_is_logical_z_row() {
        let e = exp(5, 2);
        let obs = e.observable_keys();
        assert_eq!(obs.len(), 5);
        // Keys must be final-readout keys of the top data row.
        for (c, key) in obs.iter().enumerate() {
            assert_eq!(*key, e.keys().final_key(e.code().data_qubit(0, c)));
        }
    }

    #[test]
    fn base_circuit_measures_every_key_once() {
        let e = exp(3, 3);
        let circuit = e.base_circuit();
        let mut seen = vec![0usize; circuit.num_keys()];
        for op in circuit.ops() {
            if let Op::Measure { key, .. } = op {
                seen[*key] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "each key measured exactly once"
        );
    }

    #[test]
    fn base_circuit_op_budget_scales() {
        let small = exp(3, 2).base_circuit().ops().len();
        let large = exp(5, 2).base_circuit().ops().len();
        assert!(large > small);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        exp(3, 0);
    }

    #[test]
    fn final_detectors_cover_all_z_stabs() {
        let e = exp(5, 3);
        let finals: Vec<_> = e
            .detectors()
            .into_iter()
            .filter(|det| det.round == 3)
            .collect();
        assert_eq!(finals.len(), 12);
        for det in &finals {
            // weight-2 or weight-4 support plus the last stabilizer readout.
            assert!(det.keys.len() == 3 || det.keys.len() == 5);
        }
    }

    #[test]
    fn memory_x_experiment_mirrors_memory_z() {
        let code = RotatedCode::new(5);
        let noise = NoiseParams::standard(1e-3);
        let z = MemoryExperiment::new(code.clone(), noise, 3);
        let x = MemoryExperiment::new_with_basis(code.clone(), noise, 3, MemoryBasis::X);
        assert_eq!(z.basis(), MemoryBasis::Z);
        assert_eq!(x.basis(), MemoryBasis::X);
        // Same key layout and detector count, mirrored bases.
        assert_eq!(z.detectors().len(), x.detectors().len());
        let count_basis =
            |exp: &MemoryExperiment, b| exp.detectors().iter().filter(|d| d.basis == b).count();
        use qec_core::circuit::DetectorBasis;
        assert_eq!(
            count_basis(&z, DetectorBasis::Z),
            count_basis(&x, DetectorBasis::X)
        );
        // X init/readout adds two noisy Hadamard layers on data qubits.
        let h_count = |ops: &[Op]| ops.iter().filter(|o| matches!(o, Op::H(_))).count();
        assert_eq!(h_count(&x.init_segment()), code.num_data());
        assert_eq!(h_count(&x.final_segment()), code.num_data());
        assert_eq!(h_count(&z.init_segment()), 0);
        // Observables differ: row vs column.
        assert_ne!(z.observable_keys(), x.observable_keys());
        assert_eq!(x.observable_keys().len(), 5);
    }

    #[test]
    fn memory_x_round0_detectors_are_x_basis() {
        use qec_core::circuit::DetectorBasis;
        let e = MemoryExperiment::new_with_basis(
            RotatedCode::new(3),
            NoiseParams::standard(1e-3),
            2,
            MemoryBasis::X,
        );
        for det in e.detectors().iter().filter(|d| d.round == 0) {
            assert_eq!(det.basis, DetectorBasis::X);
        }
    }

    #[test]
    fn always_lrc_circuit_has_more_cnots() {
        let e = exp(3, 4);
        let base = e.base_circuit();
        // Alternate rounds: odd rounds apply one LRC on data 4.
        let stab = e.code().adjacent_stabs(4)[0];
        let schedule = vec![vec![], vec![LrcAssignment { data: 4, stab }]];
        let with = e.always_lrc_circuit(&schedule);
        let count =
            |c: &Circuit| c.count(|o| matches!(o, Op::Cnot { .. } | Op::CnotNoTransport { .. }));
        assert_eq!(count(&with), count(&base) + 2 * 5);
    }
}
