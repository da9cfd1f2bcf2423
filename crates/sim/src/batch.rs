//! Word-parallel (bit-packed) Pauli-frame simulation: 64 shots per stripe.
//!
//! # Bit-plane layout
//!
//! [`BatchFrameSimulator`] runs up to [`STRIPE_WIDTH`] = 64 independent
//! shots at once by transposing the scalar [`crate::FrameSimulator`]'s
//! state: instead of one `bool` per qubit per shot, each qubit owns three
//! `u64` *bit-planes* — an X-frame word, a Z-frame word, and a leakage-mask
//! word — in which bit `l` belongs to stripe lane `l` (shot `l` of the
//! stripe). The measurement record is transposed the same way: one flip
//! word and one |L⟩-label word per measurement key. Deterministic frame
//! algebra (CNOT propagation, Hadamard X/Z exchange, resets, detector
//! parities) then executes on all 64 lanes with a handful of word ops —
//! the same trick Stim uses.
//!
//! # Masked-op discipline
//!
//! Every operation takes a 64-bit *lane mask* and must only touch lanes in
//! `mask & active`. Static round schedules (see `surface_code`'s masked
//! rounds) use this to encode per-shot dynamic decisions — which LRC slots
//! a lane's policy scheduled, which branch of the ERASER+M swap-back a
//! lane takes — as masks over one shared op sequence, so a stripe never
//! rebuilds circuits per shot.
//!
//! # Bit-identical RNG alignment
//!
//! Each lane owns the *same* per-shot RNG stream the scalar path would use
//! (`shot_rng(seed, shot)` forked exactly once), and every op draws from a
//! lane's stream under exactly the scalar conditions, in the scalar order:
//! an op that fires in lane `l` performs the draws `FrameSimulator::apply`
//! would perform for that shot, and no others. Lanes are independent
//! streams, so the order in which one op visits its lanes is immaterial —
//! per-lane draw sequences are what must (and do) match. The result is that
//! a stripe is bit-identical, shot for shot, to 64 scalar runs; the
//! equivalence suite in `crates/sim/tests/batch_equivalence.rs` asserts
//! this op-by-op and end-to-end.
//!
//! Two implementation moves keep the draw engine fast without breaking the
//! alignment:
//!
//! * **Integer Bernoulli thresholds, computed at compile time.**
//!   `rng.bernoulli(p)` compares `(u >> 11) as f64 * 2⁻⁵³ < p`; compiling
//!   an op ([`CompiledOp::compile`]) replaces `p` by the exact integer
//!   threshold `⌈p·2⁵³⌉` (both sides exactly representable), so the
//!   decision — and the consumed draw — is identical while the hot loop
//!   stays in integer registers. As in [`Rng::bernoulli`], `p ≥ 1` consumes
//!   no draw: it compiles to the sentinel `u64::MAX`, which hits every lane.
//!   `p ≤ 0` consumes no draw either, and such an op (like a `Tick`) has no
//!   compiled form at all.
//! * **Structure-of-arrays lane streams.** The 64 lane states live as four
//!   64-entry arrays (one per xoshiro256++ state word), and one kernel,
//!   `LaneRngs::step_word`, advances every lane of a mask by one step and
//!   returns the lane word directly: the hits below an integer threshold,
//!   or the draws' top bits. Lanes outside the mask keep their state, so a
//!   lane never consumes a draw the scalar path would not have made. On
//!   builds that enable AVX-512F (`target-cpu=native` on such a host, see
//!   `.cargo/config.toml`) the kernel runs 8 groups of 8 lanes in 512-bit
//!   registers: rotates are one instruction, the mask byte merges the new
//!   state, a masked compare writes the group's byte of the hit word, and
//!   a group with no masked lane is skipped. Every other build runs the
//!   portable elementwise loop, which is also the vector kernel's test
//!   reference. Masks with few lanes, and rare branchy draws
//!   (leaked-operand CNOT kicks, Pauli picks), use a per-lane `Rng`
//!   rebuilt from — and written back to — the lane's state words.
//!
//! The AVX-512 kernel is the crate's only `unsafe` code: its lane-group
//! loads and stores, and the call into the `#[target_feature]` function.
//!
//! # One executor
//!
//! [`BatchFrameSimulator::apply_compiled`] is the only op interpreter.
//! [`BatchFrameSimulator::apply_masked`] (and so
//! [`BatchFrameSimulator::run_masked`]) compiles its [`Op`] and delegates;
//! a caller that runs one schedule many times — the memory runner's
//! per-round programs — compiles it once and calls `apply_compiled`
//! directly, with a key offset that rebases the schedule's `Measure` keys.

use crate::readout::Discriminator;
use qec_core::{MeasKey, NoiseParams, Op, QubitId, Rng, TransportModel};

/// Number of lanes (shots) in a full stripe: one per bit of a machine word.
pub const STRIPE_WIDTH: usize = 64;

/// Mask populations below this take the per-lane scalar loop instead of a
/// full 64-lane bulk pass. Both make the same draws. With the AVX-512
/// kernel (about 20–30 ns a pass against about 2 ns a lane) the isolated
/// crossover sits at 9–12 lanes, and whole d = 7 runs read the same for any
/// value from 8 to 16; 1 and 64 are both measurably slower.
const BULK_MIN_LANES: u32 = 8;

/// The compiled threshold of a channel that always fires: `p ≥ 1` consumes
/// no randomness, matching [`Rng::bernoulli`]'s clamped fast path. Every
/// other threshold is at most 2⁵³, so the sentinel is unambiguous.
const ALWAYS: u64 = u64::MAX;

/// Compiles a Bernoulli probability to its exact integer threshold (see the
/// module docs): `None` for `p ≤ 0`, which never fires and consumes no
/// randomness, [`ALWAYS`] for `p ≥ 1`, else `⌈p·2⁵³⌉`.
#[inline]
fn threshold(p: f64) -> Option<u64> {
    if p <= 0.0 {
        None
    } else if p >= 1.0 {
        Some(ALWAYS)
    } else {
        // Exact: p·2⁵³ is a power-of-two scaling (no rounding), and
        // `u >> 11 < ⌈p·2⁵³⌉` ⇔ `(u >> 11) as f64 * 2⁻⁵³ < p`.
        Some((p * 9007199254740992.0).ceil() as u64)
    }
}

/// Draws a compiled channel on one lane's stream, consuming exactly what
/// `rng.bernoulli(p)` would.
#[inline]
fn fires(thresh: u64, rng: &mut Rng) -> bool {
    thresh == ALWAYS || (rng.next_u64() >> 11) < thresh
}

/// One [`Op`] compiled for [`BatchFrameSimulator::apply_compiled`]: operands
/// narrowed to `u32`, and a noise channel's probability replaced by its
/// exact integer threshold (see the module docs), computed once. An op that
/// never acts — [`Op::Tick`], a channel with `p ≤ 0` — has no compiled
/// form. `Measure` keys are relative: the executor adds a key offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompiledOp {
    /// [`Op::H`].
    H(u32),
    /// [`Op::Cnot`] (`transport`) or [`Op::CnotNoTransport`].
    Cnot {
        /// Control qubit.
        control: u32,
        /// Target qubit.
        target: u32,
        /// Whether the leakage-transport channel is enabled.
        transport: bool,
    },
    /// [`Op::Measure`].
    Measure {
        /// Measured qubit.
        qubit: u32,
        /// Measurement key, before the executor's key offset.
        key: u32,
    },
    /// [`Op::Reset`].
    Reset(u32),
    /// [`Op::Depolarize1`].
    Depolarize1 {
        /// Affected qubit.
        qubit: u32,
        /// Compiled channel threshold.
        thresh: u64,
    },
    /// [`Op::Depolarize2`].
    Depolarize2 {
        /// First operand.
        a: u32,
        /// Second operand.
        b: u32,
        /// Compiled channel threshold.
        thresh: u64,
    },
    /// [`Op::XError`].
    XError {
        /// Affected qubit.
        qubit: u32,
        /// Compiled channel threshold.
        thresh: u64,
    },
    /// [`Op::LeakInject`].
    LeakInject {
        /// Affected qubit.
        qubit: u32,
        /// Compiled channel threshold.
        thresh: u64,
    },
    /// [`Op::Seep`].
    Seep {
        /// Affected qubit.
        qubit: u32,
        /// Compiled channel threshold.
        thresh: u64,
    },
    /// [`Op::LeakIswap`].
    LeakIswap {
        /// Data qubit.
        data: u32,
        /// Parity qubit.
        parity: u32,
    },
}

impl CompiledOp {
    /// Compiles `op`, or returns `None` if it never acts (a `Tick`, or a
    /// channel with `p ≤ 0`): executing such an op draws nothing and
    /// changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if a qubit id or measurement key does not fit in a `u32`.
    #[inline]
    pub fn compile(op: &Op) -> Option<CompiledOp> {
        let n = |x: usize| u32::try_from(x).expect("qubit ids and keys fit in u32");
        Some(match *op {
            Op::H(q) => CompiledOp::H(n(q)),
            Op::Cnot { control, target } => CompiledOp::Cnot {
                control: n(control),
                target: n(target),
                transport: true,
            },
            Op::CnotNoTransport { control, target } => CompiledOp::Cnot {
                control: n(control),
                target: n(target),
                transport: false,
            },
            Op::Measure { qubit, key } => CompiledOp::Measure {
                qubit: n(qubit),
                key: n(key),
            },
            Op::Reset(q) => CompiledOp::Reset(n(q)),
            Op::Depolarize1 { qubit, p } => CompiledOp::Depolarize1 {
                qubit: n(qubit),
                thresh: threshold(p)?,
            },
            Op::Depolarize2 { a, b, p } => CompiledOp::Depolarize2 {
                a: n(a),
                b: n(b),
                thresh: threshold(p)?,
            },
            Op::XError { qubit, p } => CompiledOp::XError {
                qubit: n(qubit),
                thresh: threshold(p)?,
            },
            Op::LeakInject { qubit, p } => CompiledOp::LeakInject {
                qubit: n(qubit),
                thresh: threshold(p)?,
            },
            Op::Seep { qubit, p } => CompiledOp::Seep {
                qubit: n(qubit),
                thresh: threshold(p)?,
            },
            Op::LeakIswap { data, parity } => CompiledOp::LeakIswap {
                data: n(data),
                parity: n(parity),
            },
            Op::Tick => return None,
        })
    }
}

/// Iterates the set bits (lanes) of a mask word.
#[inline]
fn for_lanes(mut lanes: u64, mut f: impl FnMut(usize)) {
    while lanes != 0 {
        let l = lanes.trailing_zeros() as usize;
        f(l);
        lanes &= lanes - 1;
    }
}

/// The 64 lane streams in structure-of-arrays form: `s[j][lane]` is state
/// word `j` of lane `lane`'s xoshiro256++ generator. Cache-line aligned, so
/// each 8-lane group of a state word is one aligned 64-byte line.
#[derive(Debug, Clone)]
#[repr(align(64))]
struct LaneRngs {
    s: [[u64; STRIPE_WIDTH]; 4],
}

/// What one draw contributes to its lane's bit of a lane word.
#[derive(Debug, Clone, Copy)]
enum LaneTest {
    /// A Bernoulli hit: `draw >> 11` below an integer threshold (see
    /// `threshold`).
    Below(u64),
    /// The draw's top bit ([`Rng::bit`]).
    Msb,
}

impl LaneRngs {
    fn new() -> LaneRngs {
        LaneRngs {
            s: [[1; STRIPE_WIDTH]; 4],
        }
    }

    /// Installs `rng` as lane `lane`'s stream.
    fn load(&mut self, lane: usize, rng: &Rng) {
        for (plane, word) in self.s.iter_mut().zip(rng.state()) {
            plane[lane] = word;
        }
    }

    /// Runs `f` on lane `lane`'s stream as a scalar [`Rng`] (state written
    /// back afterwards) — the bit-exact fallback for branchy draws.
    #[inline]
    fn with_lane<R>(&mut self, lane: usize, f: impl FnOnce(&mut Rng) -> R) -> R {
        let mut rng = Rng::from_state([
            self.s[0][lane],
            self.s[1][lane],
            self.s[2][lane],
            self.s[3][lane],
        ]);
        let out = f(&mut rng);
        for (plane, word) in self.s.iter_mut().zip(rng.state()) {
            plane[lane] = word;
        }
        out
    }

    /// Advances every lane in `mask` by one xoshiro256++ step (other lanes
    /// keep their state) and returns the lane word of `test` over the
    /// advanced lanes' draws: bit `l` is set iff `l` is in `mask` and its
    /// draw passes.
    #[inline]
    fn step_word(&mut self, mask: u64, test: LaneTest) -> u64 {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        // SAFETY: this cfg arm is compiled only when the whole build
        // enables avx512f, so every CPU that runs this code has it.
        return unsafe { step_word_avx512(&mut self.s, mask, test) };
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
        step_word_portable(&mut self.s, mask, test)
    }
}

/// The portable draw kernel: one elementwise pass over all 64 lanes, masked
/// lanes advanced and unmasked ones kept via a blend. Also the reference
/// the AVX-512 kernel is tested against.
#[cfg_attr(
    all(target_arch = "x86_64", target_feature = "avx512f", not(test)),
    allow(dead_code)
)]
#[inline]
fn step_word_portable(s: &mut [[u64; STRIPE_WIDTH]; 4], mask: u64, test: LaneTest) -> u64 {
    let [s0, s1, s2, s3] = s;
    let mut word = 0u64;
    for lane in 0..STRIPE_WIDTH {
        let keep = 0u64.wrapping_sub(mask >> lane & 1);
        let (a, b, c, d) = (s0[lane], s1[lane], s2[lane], s3[lane]);
        let draw = a.wrapping_add(d).rotate_left(23).wrapping_add(a);
        let t = b << 17;
        let c1 = c ^ a;
        let d1 = d ^ b;
        let b1 = b ^ c1;
        let a1 = a ^ d1;
        let c2 = c1 ^ t;
        let d2 = d1.rotate_left(45);
        s0[lane] = (a1 & keep) | (a & !keep);
        s1[lane] = (b1 & keep) | (b & !keep);
        s2[lane] = (c2 & keep) | (c & !keep);
        s3[lane] = (d2 & keep) | (d & !keep);
        let hit = match test {
            LaneTest::Below(thresh) => draw >> 11 < thresh,
            LaneTest::Msb => draw >> 63 != 0,
        };
        word |= (hit as u64) << lane;
    }
    word & mask
}

/// The AVX-512 draw kernel: 8 groups of 8 lanes, one 512-bit register per
/// state word. A group whose mask byte is 0 is skipped; otherwise the
/// advanced state is merged under the mask byte and the masked compare
/// writes the group's byte of the lane word directly.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[target_feature(enable = "avx512f")]
fn step_word_avx512(s: &mut [[u64; STRIPE_WIDTH]; 4], mask: u64, test: LaneTest) -> u64 {
    use std::arch::x86_64::*;
    let thresh = _mm512_set1_epi64(match test {
        LaneTest::Below(t) => t as i64,
        LaneTest::Msb => 0,
    });
    let msb = _mm512_set1_epi64(i64::MIN);
    let mut word = 0u64;
    for group in 0..STRIPE_WIDTH / 8 {
        let k = (mask >> (8 * group)) as __mmask8;
        if k == 0 {
            continue;
        }
        let lanes = 8 * group..8 * group + 8;
        // SAFETY: each slice is 8 in-bounds `u64`s of a state word;
        // unaligned loads have no alignment requirement.
        let [a, b, c, d] = s
            .each_ref()
            .map(|plane| unsafe { _mm512_loadu_epi64(plane[lanes.clone()].as_ptr().cast()) });
        let draw = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(a, d)), a);
        let t = _mm512_slli_epi64::<17>(b);
        let c1 = _mm512_xor_si512(c, a);
        let d1 = _mm512_xor_si512(d, b);
        let b1 = _mm512_xor_si512(b, c1);
        let a1 = _mm512_xor_si512(a, d1);
        let c2 = _mm512_xor_si512(c1, t);
        let d2 = _mm512_rol_epi64::<45>(d1);
        let next = [
            _mm512_mask_mov_epi64(a, k, a1),
            _mm512_mask_mov_epi64(b, k, b1),
            _mm512_mask_mov_epi64(c, k, c2),
            _mm512_mask_mov_epi64(d, k, d2),
        ];
        for (plane, v) in s.iter_mut().zip(next) {
            // SAFETY: the destination is 8 in-bounds `u64`s of a state
            // word, borrowed mutably; unaligned stores have no alignment
            // requirement.
            unsafe { _mm512_storeu_epi64(plane[lanes.clone()].as_mut_ptr().cast(), v) };
        }
        let hits = match test {
            LaneTest::Below(_) => {
                _mm512_mask_cmplt_epu64_mask(k, _mm512_srli_epi64::<11>(draw), thresh)
            }
            LaneTest::Msb => _mm512_mask_test_epi64_mask(k, draw, msb),
        };
        word |= u64::from(hits) << (8 * group);
    }
    word
}

/// The transposed measurement record of one stripe: per measurement key,
/// one word of outcome flips and one word of |L⟩ labels (bit `l` = lane
/// `l`).
#[derive(Debug, Clone, Default)]
pub struct BatchMeasRecord {
    flips: Vec<u64>,
    leaked: Vec<u64>,
}

impl BatchMeasRecord {
    fn new(num_keys: usize) -> BatchMeasRecord {
        BatchMeasRecord {
            flips: vec![0; num_keys],
            leaked: vec![0; num_keys],
        }
    }

    fn clear(&mut self) {
        self.flips.fill(0);
        self.leaked.fill(0);
    }

    /// Flip word under `key`: bit `l` set iff lane `l`'s outcome differs
    /// from the noiseless reference.
    #[inline]
    pub fn flip_word(&self, key: MeasKey) -> u64 {
        self.flips[key]
    }

    /// |L⟩-label word under `key` (only ever nonzero with multi-level
    /// readout).
    #[inline]
    pub fn leaked_word(&self, key: MeasKey) -> u64 {
        self.leaked[key]
    }

    /// Whether lane `lane`'s outcome under `key` was flipped.
    pub fn flip(&self, key: MeasKey, lane: usize) -> bool {
        self.flips[key] >> lane & 1 != 0
    }

    /// Whether lane `lane`'s readout under `key` was labelled |L⟩.
    pub fn is_leaked_label(&self, key: MeasKey, lane: usize) -> bool {
        self.leaked[key] >> lane & 1 != 0
    }

    /// Word-parallel detector parity: XOR of the flip words under `keys` —
    /// all 64 lanes' parities in one pass.
    #[inline]
    pub fn parity_word(&self, keys: &[MeasKey]) -> u64 {
        keys.iter().fold(0, |acc, &k| acc ^ self.flips[k])
    }
}

/// A bit-packed Pauli-frame Monte-Carlo simulator running one 64-shot
/// stripe (see the module docs for layout, masking, and RNG discipline).
///
/// # Example
///
/// ```
/// use leak_sim::{BatchFrameSimulator, Discriminator};
/// use qec_core::{NoiseParams, Op, Rng};
///
/// let mut sim = BatchFrameSimulator::new(
///     2,
///     1,
///     NoiseParams::standard(1e-3),
///     Discriminator::TwoLevel,
/// );
/// // Three lanes; a deterministic X error propagates in all of them.
/// sim.begin_stripe(&[Rng::new(1), Rng::new(2), Rng::new(3)]);
/// let all = sim.active();
/// sim.apply_masked(&Op::XError { qubit: 0, p: 1.0 }, all);
/// sim.apply_masked(&Op::Cnot { control: 0, target: 1 }, all);
/// sim.apply_masked(&Op::Measure { qubit: 1, key: 0 }, all);
/// assert_eq!(sim.record().flip_word(0), 0b111);
/// ```
#[derive(Debug, Clone)]
pub struct BatchFrameSimulator {
    num_qubits: usize,
    /// Per-qubit X-frame bit-planes (bit `l` = lane `l`).
    x: Vec<u64>,
    /// Per-qubit Z-frame bit-planes.
    z: Vec<u64>,
    /// Per-qubit leakage-mask bit-planes.
    leaked: Vec<u64>,
    noise: NoiseParams,
    discriminator: Discriminator,
    /// The compiled misclassification channel of a multi-level readout of a
    /// leaked qubit (`None`: it never misclassifies).
    readout_error: Option<u64>,
    /// One independent stream per lane (aligned with the scalar path's
    /// per-shot streams), in structure-of-arrays form.
    rngs: LaneRngs,
    /// Lanes holding live shots; a ragged final stripe activates fewer
    /// than 64.
    active: u64,
    record: BatchMeasRecord,
}

impl BatchFrameSimulator {
    /// Creates a stripe simulator over `num_qubits` qubits with room for
    /// `num_keys` recorded measurements. No lanes are active until
    /// [`BatchFrameSimulator::begin_stripe`].
    pub fn new(
        num_qubits: usize,
        num_keys: usize,
        noise: NoiseParams,
        discriminator: Discriminator,
    ) -> BatchFrameSimulator {
        BatchFrameSimulator {
            num_qubits,
            x: vec![0; num_qubits],
            z: vec![0; num_qubits],
            leaked: vec![0; num_qubits],
            noise,
            discriminator,
            readout_error: threshold(noise.multilevel_error_p()),
            rngs: LaneRngs::new(),
            active: 0,
            record: BatchMeasRecord::new(num_keys),
        }
    }

    /// Starts a fresh stripe: lane `l` gets `rngs[l]` as its per-shot
    /// stream, the low `rngs.len()` lanes become active, and all frames,
    /// leakage masks, and the record are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `rngs` is empty or holds more than [`STRIPE_WIDTH`]
    /// streams.
    pub fn begin_stripe(&mut self, rngs: &[Rng]) {
        assert!(
            !rngs.is_empty() && rngs.len() <= STRIPE_WIDTH,
            "a stripe holds 1..=64 shots, got {}",
            rngs.len()
        );
        self.x.fill(0);
        self.z.fill(0);
        self.leaked.fill(0);
        self.record.clear();
        for (lane, rng) in rngs.iter().enumerate() {
            self.rngs.load(lane, rng);
        }
        self.active = if rngs.len() == STRIPE_WIDTH {
            !0
        } else {
            (1u64 << rngs.len()) - 1
        };
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The active-lane mask of the current stripe.
    #[inline]
    pub fn active(&self) -> u64 {
        self.active
    }

    /// The transposed measurement record of the current stripe.
    #[inline]
    pub fn record(&self) -> &BatchMeasRecord {
        &self.record
    }

    /// The noise model in force.
    pub fn noise(&self) -> &NoiseParams {
        &self.noise
    }

    /// The leakage-mask word of qubit `q` (active lanes only).
    #[inline]
    pub fn leak_word(&self, q: QubitId) -> u64 {
        self.leaked[q]
    }

    /// The X-frame word of qubit `q` (bit `l` = lane `l`): the flip each
    /// lane's Z-basis readout of `q` would record right now.
    #[inline]
    pub fn x_word(&self, q: QubitId) -> u64 {
        self.x[q]
    }

    /// Whether qubit `q` is leaked in lane `lane`.
    pub fn is_leaked(&self, q: QubitId, lane: usize) -> bool {
        self.leaked[q] >> lane & 1 != 0
    }

    /// Total leaked-qubit count over `qubits`, summed across the stripe's
    /// active lanes (one popcount per qubit — the stripe-side analogue of
    /// the scalar simulator's running leaked counts).
    pub fn leaked_count_in(&self, qubits: std::ops::Range<usize>) -> u64 {
        qubits
            .map(|q| (self.leaked[q] & self.active).count_ones() as u64)
            .sum()
    }

    /// Forces qubit `q` into the leaked state on `mask` lanes (targeted
    /// experiments and tests).
    pub fn force_leak_masked(&mut self, q: QubitId, mask: u64) {
        let m = mask & self.active;
        self.leaked[q] |= m;
        self.x[q] &= !m;
        self.z[q] &= !m;
    }

    /// Applies a bare Pauli to `mask` lanes of qubit `q`'s frame (no-op on
    /// leaked lanes), mirroring [`crate::FrameSimulator::apply_pauli`].
    pub fn apply_pauli_masked(&mut self, q: QubitId, p: qec_core::Pauli, mask: u64) {
        let m = mask & self.active & !self.leaked[q];
        if p.has_x() {
            self.x[q] ^= m;
        }
        if p.has_z() {
            self.z[q] ^= m;
        }
    }

    /// Executes a sequence of operations on `mask` lanes.
    pub fn run_masked(&mut self, ops: &[Op], mask: u64) {
        for op in ops {
            self.apply_masked(op, mask);
        }
    }

    /// Draws one compiled channel over `lanes`, bulk or per-lane by
    /// population, returning the hit word. [`ALWAYS`] hits every lane
    /// without a draw. Kept out of line: inlined into each channel arm of
    /// [`BatchFrameSimulator::apply_compiled`] it made `run_masked` over a
    /// d = 7 round about 2× slower.
    #[inline(never)]
    fn bernoulli_lanes(&mut self, lanes: u64, thresh: u64) -> u64 {
        if thresh == ALWAYS {
            lanes
        } else if lanes.count_ones() >= BULK_MIN_LANES {
            self.rngs.step_word(lanes, LaneTest::Below(thresh))
        } else {
            let mut hits = 0u64;
            let rngs = &mut self.rngs;
            for_lanes(lanes, |l| {
                if rngs.with_lane(l, |rng| rng.next_u64() >> 11) < thresh {
                    hits |= 1u64 << l;
                }
            });
            hits
        }
    }

    /// Draws one uniform bit over `lanes` ([`Rng::bit`]), returning the
    /// bit word.
    #[inline]
    fn bit_lanes(&mut self, lanes: u64) -> u64 {
        if lanes.count_ones() >= BULK_MIN_LANES {
            self.rngs.step_word(lanes, LaneTest::Msb)
        } else {
            let mut bits = 0u64;
            let rngs = &mut self.rngs;
            for_lanes(lanes, |l| {
                if rngs.with_lane(l, Rng::bit) {
                    bits |= 1u64 << l;
                }
            });
            bits
        }
    }

    /// Executes a single operation on `mask` lanes (implicitly intersected
    /// with the active mask). Per lane, the semantics — including the RNG
    /// draw sequence — are exactly [`crate::FrameSimulator::apply`]'s.
    /// Compiles `op` and runs [`BatchFrameSimulator::apply_compiled`];
    /// callers that run one op sequence many times compile it once.
    pub fn apply_masked(&mut self, op: &Op, mask: u64) {
        if let Some(op) = CompiledOp::compile(op) {
            self.apply_compiled(&op, mask, 0);
        }
    }

    /// Executes a compiled operation on `mask` lanes (implicitly intersected
    /// with the active mask), with `key_offset` added to a `Measure` key.
    /// Per lane, the semantics — including the RNG draw sequence — are
    /// exactly [`crate::FrameSimulator::apply`]'s on the source op.
    /// Inlined, so that in `apply_masked` it fuses with the compile step.
    #[inline]
    pub fn apply_compiled(&mut self, op: &CompiledOp, mask: u64, key_offset: usize) {
        let m = mask & self.active;
        if m == 0 {
            return;
        }
        match *op {
            CompiledOp::H(q) => {
                let q = q as usize;
                let u = m & !self.leaked[q];
                let flip = (self.x[q] ^ self.z[q]) & u;
                self.x[q] ^= flip;
                self.z[q] ^= flip;
            }
            CompiledOp::Cnot {
                control,
                target,
                transport,
            } => self.cnot(control as usize, target as usize, transport, m),
            CompiledOp::Measure { qubit, key } => {
                self.measure(qubit as usize, key as usize + key_offset, m)
            }
            CompiledOp::Reset(q) => {
                let q = q as usize;
                self.leaked[q] &= !m;
                self.x[q] &= !m;
                self.z[q] &= !m;
            }
            CompiledOp::Depolarize1 { qubit, thresh } => {
                let qubit = qubit as usize;
                let hits = self.bernoulli_lanes(m & !self.leaked[qubit], thresh);
                for_lanes(hits, |l| {
                    let e = self.rngs.with_lane(l, Rng::error_pauli);
                    let bit = 1u64 << l;
                    if e.has_x() {
                        self.x[qubit] ^= bit;
                    }
                    if e.has_z() {
                        self.z[qubit] ^= bit;
                    }
                });
            }
            CompiledOp::Depolarize2 { a, b, thresh } => {
                let (a, b) = (a as usize, b as usize);
                // Skipped when either operand is leaked (gate noise is
                // calibrated for the computational basis; the leaked-CNOT
                // kick already fired).
                let lanes = m & !self.leaked[a] & !self.leaked[b];
                let hits = self.bernoulli_lanes(lanes, thresh);
                for_lanes(hits, |l| {
                    let (pa, pb) = self.rngs.with_lane(l, |rng| loop {
                        let pa = rng.uniform_pauli();
                        let pb = rng.uniform_pauli();
                        if !(pa.is_identity() && pb.is_identity()) {
                            break (pa, pb);
                        }
                    });
                    let bit = 1u64 << l;
                    if pa.has_x() {
                        self.x[a] ^= bit;
                    }
                    if pa.has_z() {
                        self.z[a] ^= bit;
                    }
                    if pb.has_x() {
                        self.x[b] ^= bit;
                    }
                    if pb.has_z() {
                        self.z[b] ^= bit;
                    }
                });
            }
            CompiledOp::XError { qubit, thresh } => {
                let qubit = qubit as usize;
                let hits = self.bernoulli_lanes(m & !self.leaked[qubit], thresh);
                self.x[qubit] ^= hits;
            }
            CompiledOp::LeakInject { qubit, thresh } => {
                let qubit = qubit as usize;
                // Unlike the Pauli channels, injection draws on leaked
                // lanes too (the scalar path has no leak guard here).
                let hits = self.bernoulli_lanes(m, thresh);
                self.leaked[qubit] |= hits;
                self.x[qubit] &= !hits;
                self.z[qubit] &= !hits;
            }
            CompiledOp::Seep { qubit, thresh } => {
                let qubit = qubit as usize;
                let lanes = m & self.leaked[qubit];
                if lanes == 0 {
                    return;
                }
                let hits = self.bernoulli_lanes(lanes, thresh);
                if hits == 0 {
                    return;
                }
                // Return in a uniformly random computational state.
                self.leaked[qubit] &= !hits;
                let xbits = self.bit_lanes(hits);
                let zbits = self.bit_lanes(hits);
                self.x[qubit] = (self.x[qubit] & !hits) | xbits;
                self.z[qubit] = (self.z[qubit] & !hits) | zbits;
            }
            CompiledOp::LeakIswap { data, parity } => {
                self.leak_iswap(data as usize, parity as usize, m)
            }
        }
    }

    fn cnot(&mut self, c: QubitId, t: QubitId, transport_enabled: bool, m: u64) {
        // Common case, word-parallel: both operands in the computational
        // basis — the frame propagates.
        let clean = m & !self.leaked[c] & !self.leaked[t];
        self.x[t] ^= self.x[c] & clean;
        self.z[c] ^= self.z[t] & clean;
        // Mixed lanes (exactly one operand leaked) take the scalar path:
        // random-Pauli kick on the clean operand plus leakage transport.
        let mixed = m & (self.leaked[c] ^ self.leaked[t]);
        if mixed == 0 {
            return;
        }
        let p_transport = self.noise.p_transport;
        let model = self.noise.transport;
        for_lanes(mixed, |l| {
            let bit = 1u64 << l;
            let (leaked_q, clean_q) = if self.leaked[c] & bit != 0 {
                (c, t)
            } else {
                (t, c)
            };
            let (kick, transported, exchange_bits) = self.rngs.with_lane(l, |rng| {
                let kick = rng.uniform_pauli();
                let transported = transport_enabled && rng.bernoulli(p_transport);
                let exchange_bits = if transported && model == TransportModel::Exchange {
                    Some((rng.bit(), rng.bit()))
                } else {
                    None
                };
                (kick, transported, exchange_bits)
            });
            if kick.has_x() {
                self.x[clean_q] ^= bit;
            }
            if kick.has_z() {
                self.z[clean_q] ^= bit;
            }
            if transported {
                self.leaked[clean_q] |= bit;
                self.x[clean_q] &= !bit;
                self.z[clean_q] &= !bit;
                if let Some((xb, zb)) = exchange_bits {
                    self.leaked[leaked_q] &= !bit;
                    self.set_bit(true, leaked_q, bit, xb);
                    self.set_bit(false, leaked_q, bit, zb);
                }
            }
        });
    }

    /// Sets or clears one frame bit (`x_plane` selects the plane).
    #[inline]
    fn set_bit(&mut self, x_plane: bool, q: QubitId, bit: u64, value: bool) {
        let plane = if x_plane {
            &mut self.x[q]
        } else {
            &mut self.z[q]
        };
        if value {
            *plane |= bit;
        } else {
            *plane &= !bit;
        }
    }

    fn measure(&mut self, q: QubitId, key: MeasKey, m: u64) {
        let lk = m & self.leaked[q];
        let clean = m & !self.leaked[q];
        // Unleaked lanes, word-parallel: record the X frame, clear labels.
        let mut flips = (self.record.flips[key] & !m) | (self.x[q] & clean);
        let mut labels = self.record.leaked[key] & !m;
        // Leaked lanes read out randomly (and may be labelled |L⟩ under
        // multi-level readout).
        if lk != 0 {
            match self.discriminator {
                Discriminator::TwoLevel => {
                    flips |= self.bit_lanes(lk);
                }
                Discriminator::MultiLevel => {
                    // Per lane: classification draw, then the random
                    // computational value — the scalar order.
                    let err = self.readout_error;
                    let rngs = &mut self.rngs;
                    for_lanes(lk, |l| {
                        let (mis, flip) = rngs
                            .with_lane(l, |rng| (err.is_some_and(|t| fires(t, rng)), rng.bit()));
                        let bit = 1u64 << l;
                        if flip {
                            flips |= bit;
                        }
                        if !mis {
                            labels |= bit;
                        }
                    });
                }
            }
        }
        self.record.flips[key] = flips;
        self.record.leaked[key] = labels;
        // Z-basis measurement randomizes the phase frame of unleaked lanes.
        if clean != 0 {
            let zbits = self.bit_lanes(clean);
            self.z[q] = (self.z[q] & !clean) | zbits;
        }
    }

    fn leak_iswap(&mut self, data: QubitId, parity: QubitId, m: u64) {
        // Deterministic move: data leaked, parity clean.
        let moves = m & self.leaked[data] & !self.leaked[parity];
        // Failed parity reset (|1⟩) with both computational: the |11⟩→|20⟩
        // coupling may excite the data qubit.
        let risky = m & !self.leaked[data] & !self.leaked[parity] & self.x[parity];
        if moves != 0 {
            self.leaked[data] &= !moves;
            self.leaked[parity] |= moves;
            let xbits = self.bit_lanes(moves);
            let zbits = self.bit_lanes(moves);
            self.x[data] = (self.x[data] & !moves) | xbits;
            self.z[data] = (self.z[data] & !moves) | zbits;
        }
        if risky != 0 {
            let excited = self.bit_lanes(risky);
            self.leaked[data] |= excited;
            self.x[data] &= !excited;
            self.z[data] &= !excited;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chan_threshold_matches_rng_bernoulli_exactly() {
        // The integer-threshold fast path must agree with Rng::bernoulli on
        // both the decision and the number of draws, for every p.
        for &p in &[
            0.0, -1.0, 1.0, 2.0, 1e-9, 1e-4, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.9, 0.999,
        ] {
            let thresh = threshold(p);
            let mut a = Rng::new(42);
            let mut b = Rng::new(42);
            for _ in 0..2000 {
                let fired = thresh.is_some_and(|t| fires(t, &mut a));
                assert_eq!(fired, b.bernoulli(p), "p={p}");
                // Streams must stay aligned draw-for-draw.
                assert_eq!(a.next_u64(), b.next_u64(), "p={p}");
            }
        }
    }

    #[test]
    fn compile_drops_ops_that_never_act_and_narrows_the_rest() {
        assert_eq!(std::mem::size_of::<CompiledOp>(), 24);
        for op in [
            Op::Tick,
            Op::XError { qubit: 1, p: 0.0 },
            Op::Depolarize2 {
                a: 0,
                b: 1,
                p: -1.0,
            },
            Op::Seep { qubit: 2, p: 0.0 },
        ] {
            assert_eq!(CompiledOp::compile(&op), None, "{op:?}");
        }
        assert_eq!(
            CompiledOp::compile(&Op::LeakInject { qubit: 3, p: 2.0 }),
            Some(CompiledOp::LeakInject {
                qubit: 3,
                thresh: ALWAYS
            })
        );
        assert_eq!(
            CompiledOp::compile(&Op::CnotNoTransport {
                control: 4,
                target: 5
            }),
            Some(CompiledOp::Cnot {
                control: 4,
                target: 5,
                transport: false
            })
        );
        // A key offset rebases a compiled Measure.
        let noise = NoiseParams::without_leakage(0.0);
        let mut sim = BatchFrameSimulator::new(1, 4, noise, Discriminator::TwoLevel);
        sim.begin_stripe(&[Rng::new(1), Rng::new(2)]);
        sim.apply_masked(&Op::XError { qubit: 0, p: 1.0 }, 0b10);
        let measure = CompiledOp::compile(&Op::Measure { qubit: 0, key: 1 }).unwrap();
        sim.apply_compiled(&measure, !0, 2);
        assert_eq!(sim.record().flip_word(3), 0b10);
        assert_eq!(sim.record().flip_word(1), 0);
    }

    /// Masks that exercise every kernel path: random, full, empty,
    /// single-lane, and random with whole 8-lane groups cleared.
    fn kernel_masks(mix: &mut Rng) -> Vec<u64> {
        let mut masks = vec![!0, 0];
        for i in 0..STRIPE_WIDTH {
            masks.push(1 << i);
        }
        for _ in 0..400 {
            masks.push(mix.next_u64());
            let groups = mix.next_u64() as u8;
            let keep = (0..8)
                .filter(|g| groups >> g & 1 != 0)
                .fold(0u64, |acc, g| acc | 0xff << (8 * g));
            masks.push(mix.next_u64() & keep);
        }
        masks
    }

    fn kernel_tests() -> [LaneTest; 5] {
        let t = threshold(1e-3).expect("1e-3 compiles to a threshold");
        [
            LaneTest::Below(0),
            LaneTest::Below(1),
            LaneTest::Below((1 << 53) - 1),
            LaneTest::Below(t),
            LaneTest::Msb,
        ]
    }

    #[test]
    fn masked_bulk_advance_matches_scalar_streams() {
        // step_word must advance exactly the masked lanes, by exactly one
        // scalar xoshiro step, leave the rest untouched, and report each
        // advanced lane's draw under the test (`fires` / Rng::bit).
        let mut lanes = LaneRngs::new();
        let mut scalars: Vec<Rng> = (0..STRIPE_WIDTH as u64)
            .map(|l| Rng::new(l * 77 + 5))
            .collect();
        for (l, rng) in scalars.iter().enumerate() {
            lanes.load(l, rng);
        }
        let mut mix = Rng::new(1);
        for (i, mask) in kernel_masks(&mut mix).into_iter().enumerate() {
            for test in kernel_tests() {
                let word = lanes.step_word(mask, test);
                let mut want = 0u64;
                for (l, scalar) in scalars.iter_mut().enumerate() {
                    if mask >> l & 1 != 0 {
                        let hit = match test {
                            LaneTest::Below(t) => fires(t, scalar),
                            LaneTest::Msb => scalar.bit(),
                        };
                        want |= (hit as u64) << l;
                    }
                }
                assert_eq!(word, want, "mask #{i} {mask:#x}, {test:?}");
            }
        }
        // Final states agree lane for lane (untouched lanes included).
        for (l, scalar) in scalars.iter().enumerate() {
            let state = lanes.with_lane(l, |rng| rng.state());
            assert_eq!(state, scalar.state(), "final state, lane {l}");
        }
    }

    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    #[test]
    fn avx512_kernel_matches_portable_kernel() {
        // Same inputs through both kernels: same words, same states.
        let mut vector = LaneRngs::new();
        for l in 0..STRIPE_WIDTH {
            vector.load(l, &Rng::new(l as u64 * 31 + 9));
        }
        let mut portable = vector.s;
        let mut mix = Rng::new(2);
        for _ in 0..4 {
            for mask in kernel_masks(&mut mix) {
                for test in kernel_tests() {
                    // SAFETY: compiled only when the build enables avx512f.
                    let got = unsafe { step_word_avx512(&mut vector.s, mask, test) };
                    let want = step_word_portable(&mut portable, mask, test);
                    assert_eq!(got, want, "mask {mask:#x}, {test:?}");
                    assert_eq!(vector.s, portable, "mask {mask:#x}, {test:?}");
                }
            }
        }
    }

    #[test]
    fn ragged_stripe_activates_low_lanes() {
        let noise = NoiseParams::standard(1e-3);
        let mut sim = BatchFrameSimulator::new(2, 1, noise, Discriminator::TwoLevel);
        sim.begin_stripe(&[Rng::new(1), Rng::new(2), Rng::new(3)]);
        assert_eq!(sim.active(), 0b111);
        sim.apply_masked(&Op::XError { qubit: 0, p: 1.0 }, !0);
        assert_eq!(sim.x[0], 0b111, "inactive lanes untouched");
        let full: Vec<Rng> = (0..64).map(Rng::new).collect();
        sim.begin_stripe(&full);
        assert_eq!(sim.active(), !0);
        assert_eq!(sim.x[0], 0, "begin_stripe clears state");
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn oversized_stripe_rejected() {
        let noise = NoiseParams::standard(1e-3);
        let mut sim = BatchFrameSimulator::new(1, 0, noise, Discriminator::TwoLevel);
        let rngs: Vec<Rng> = (0..65).map(Rng::new).collect();
        sim.begin_stripe(&rngs);
    }

    #[test]
    fn word_parallel_frame_algebra() {
        let noise = NoiseParams::without_leakage(0.0);
        let mut sim = BatchFrameSimulator::new(2, 2, noise, Discriminator::TwoLevel);
        sim.begin_stripe(&[Rng::new(1), Rng::new(2)]);
        // Lane 0 only: X on qubit 0.
        sim.apply_masked(&Op::XError { qubit: 0, p: 1.0 }, 0b01);
        sim.apply_masked(
            &Op::Cnot {
                control: 0,
                target: 1,
            },
            0b11,
        );
        sim.apply_masked(&Op::Measure { qubit: 0, key: 0 }, 0b11);
        sim.apply_masked(&Op::Measure { qubit: 1, key: 1 }, 0b11);
        assert_eq!(sim.record().flip_word(0), 0b01);
        assert_eq!(sim.record().flip_word(1), 0b01);
        assert_eq!(sim.record().parity_word(&[0, 1]), 0);
        assert!(sim.record().flip(0, 0));
        assert!(!sim.record().flip(0, 1));
    }

    #[test]
    fn masked_h_exchanges_x_and_z() {
        let noise = NoiseParams::without_leakage(0.0);
        let mut sim = BatchFrameSimulator::new(1, 1, noise, Discriminator::TwoLevel);
        sim.begin_stripe(&[Rng::new(1), Rng::new(2)]);
        sim.apply_pauli_masked(0, qec_core::Pauli::Z, 0b10);
        sim.apply_masked(&Op::H(0), 0b11);
        sim.apply_masked(&Op::Measure { qubit: 0, key: 0 }, 0b11);
        assert_eq!(sim.record().flip_word(0), 0b10, "Z became X in lane 1");
    }

    #[test]
    fn leaked_count_and_force_leak() {
        let noise = NoiseParams::standard(1e-3);
        let mut sim = BatchFrameSimulator::new(4, 0, noise, Discriminator::TwoLevel);
        sim.begin_stripe(&[Rng::new(1), Rng::new(2), Rng::new(3)]);
        sim.force_leak_masked(1, 0b101);
        sim.force_leak_masked(3, 0b010);
        assert_eq!(sim.leaked_count_in(0..4), 3);
        assert_eq!(sim.leaked_count_in(0..2), 2);
        assert_eq!(sim.leak_word(1), 0b101);
        assert!(sim.is_leaked(1, 0));
        assert!(!sim.is_leaked(1, 1));
        sim.apply_masked(&Op::Reset(1), 0b001);
        assert_eq!(sim.leak_word(1), 0b100);
    }
}
