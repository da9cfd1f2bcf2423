//! Property tests for every spec-string grammar a run or a serve job reads:
//! the controller and leakage-profile specs, the `ERASER_THREADS` override,
//! and the `FromStr` names of decoders, policies, noise families and memory
//! bases. Random strings and mutated valid specs come from the in-repo
//! [`qec_core::Rng`] generator. No input may panic, every accepted value
//! must pass its own validation, and an integer knob past its field's range
//! must be rejected, never wrapped.

use eraser_core::runtime::parse_threads_env;
use eraser_core::{ControllerConfig, DecoderKind, LeakageProfile, NoiseModel, PolicyKind};
use qec_core::Rng;
use surface_code::MemoryBasis;

/// Fragments the grammars are made of, so random strings reach past the
/// first token often.
const TOKENS: &[&str] = &[
    "ewma",
    "budget",
    "burst",
    "ramp",
    "stationary",
    ":",
    "=",
    ",",
    " ",
    "up",
    "down",
    "shift",
    "dwell",
    "quota",
    "base",
    "eraser",
    "no-lrc",
    "start",
    "len",
    "period",
    "rate",
    "peak",
    "0",
    "1",
    "15",
    "16",
    "0.1",
    "-1",
    "1e-3",
    "nan",
    "inf",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "mwpm",
    "sparse",
    "uf",
    "auto",
    "eraser+m",
    "adaptive",
    "standard",
    "without-leakage",
    "exchange-transport",
    "z",
    "X",
    "é",
    "\0",
];

/// Specs every grammar above accepts, the seeds of the mutations.
const VALID: &[&str] = &[
    "ewma",
    "budget:quota=40",
    "ewma:up=0.2,down=0.05,shift=3,dwell=4,base=eraser",
    "budget:up=0.3,down=0.1,shift=15,dwell=0,quota=99,base=no-lrc",
    "stationary",
    "burst:start=5,len=2,period=10,rate=0.02",
    "ramp:start=1,len=3,peak=0.1",
    "4",
    "sparse-mwpm",
    "adaptive-budget",
    "exchange-transport",
    "x",
];

/// A random unsigned decimal of 1 to 39 digits: in range of some widths,
/// past others.
fn random_integer(rng: &mut Rng) -> String {
    let digits = 1 + rng.below(39) as usize;
    let mut out: String = (0..digits)
        .map(|_| char::from(b'0' + rng.below(10) as u8))
        .collect();
    if rng.bit() {
        // Edge values around the u32 and u64 limits.
        out = [u32::MAX as u128, u64::MAX as u128, usize::MAX as u128][rng.below(3) as usize]
            .saturating_add(rng.below(3) as u128)
            .to_string();
    }
    out
}

/// A random string: tokens, integers and stray characters.
fn random_string(rng: &mut Rng) -> String {
    let mut out = String::new();
    for _ in 0..rng.below(12) {
        match rng.below(4) {
            0 => out.push_str(&random_integer(rng)),
            1 => out.push(char::from(32 + rng.below(95) as u8)),
            _ => out.push_str(TOKENS[rng.below(TOKENS.len() as u64) as usize]),
        }
    }
    out
}

/// A valid spec with one to three edits: a character dropped, a token or
/// an integer spliced in, or every integer knob replaced by a random one.
fn mutated_spec(rng: &mut Rng) -> String {
    let mut spec = VALID[rng.below(VALID.len() as u64) as usize].to_string();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(spec.len() as u64 + 1) as usize;
        let at = (0..=at)
            .rev()
            .find(|&i| spec.is_char_boundary(i))
            .unwrap_or(0);
        match rng.below(4) {
            0 if at < spec.len() => {
                spec.remove(at);
            }
            1 => spec.insert_str(at, TOKENS[rng.below(TOKENS.len() as u64) as usize]),
            2 => spec.insert_str(at, &random_integer(rng)),
            _ => {
                let knobs: Vec<String> = spec
                    .split(',')
                    .map(|knob| match knob.split_once('=') {
                        Some((key, value)) if value.bytes().all(|b| b.is_ascii_digit()) => {
                            format!("{key}={}", random_integer(rng))
                        }
                        _ => knob.to_string(),
                    })
                    .collect();
                spec = knobs.join(",");
            }
        }
    }
    spec
}

/// The decimal value of every all-digit `key=value` knob of `spec`.
fn integer_knobs(spec: &str) -> Vec<(String, u128)> {
    let tail = spec.split_once(':').map_or("", |(_, tail)| tail);
    tail.split(',')
        .filter_map(|knob| {
            let (key, value) = knob.split_once('=')?;
            let value = value.trim();
            let digits = !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit());
            // Past u128 counts as out of every range.
            digits.then(|| (key.trim().to_string(), value.parse().unwrap_or(u128::MAX)))
        })
        .collect()
}

/// Checks every parser on one input.
fn check(input: &str) {
    if let Ok(config) = ControllerConfig::parse_spec(input) {
        assert_eq!(config.validate(), Ok(()), "{input:?}");
        // A repeated knob holds the value written last.
        let last: std::collections::HashMap<_, _> = integer_knobs(input).into_iter().collect();
        for (key, value) in last {
            let parsed = match key.as_str() {
                "shift" => u128::from(config.ewma_shift),
                "dwell" => u128::from(config.min_dwell),
                "quota" => u128::from(config.budget),
                _ => continue,
            };
            assert_eq!(parsed, value, "{input:?}: {key} wrapped");
        }
    }
    if let Ok(profile) = LeakageProfile::parse_spec(input) {
        assert_eq!(profile.validate(), Ok(()), "{input:?}");
        for (key, value) in integer_knobs(input) {
            assert!(value <= usize::MAX as u128, "{input:?}: {key} past usize");
        }
    }
    match parse_threads_env(input) {
        Ok(Some(threads)) => {
            assert!(threads >= 1, "{input:?}");
            assert_eq!(input.trim().parse(), Ok(threads), "{input:?}");
        }
        Ok(None) => assert!(input.trim().is_empty(), "{input:?}"),
        Err(_) => {}
    }
    if let Ok(kind) = input.parse::<DecoderKind>() {
        assert_eq!(kind.to_string().parse(), Ok(kind), "{input:?}");
    }
    if let Ok(policy) = input.parse::<PolicyKind>() {
        if let PolicyKind::Adaptive(config) = &policy {
            assert_eq!(config.validate(), Ok(()), "{input:?}");
        }
        assert_eq!(
            policy.label().parse::<PolicyKind>().ok(),
            Some(policy),
            "{input:?}"
        );
    }
    if let Ok(noise) = input.parse::<NoiseModel>() {
        assert!(!matches!(noise, NoiseModel::Custom(_)), "{input:?}");
    }
    if let Ok(basis) = input.parse::<MemoryBasis>() {
        let name = if basis == MemoryBasis::Z { "z" } else { "x" };
        assert_eq!(input.to_ascii_lowercase(), name, "{input:?}");
    }
}

#[test]
fn valid_specs_parse() {
    assert!(ControllerConfig::parse_spec(VALID[2]).is_ok());
    assert!(LeakageProfile::parse_spec(VALID[5]).is_ok());
    for spec in VALID {
        check(spec);
    }
}

#[test]
fn random_strings_never_panic_or_wrap() {
    let mut rng = Rng::new(0x9A25_E125);
    for _ in 0..20_000 {
        check(&random_string(&mut rng));
    }
}

#[test]
fn mutated_specs_never_panic_or_wrap() {
    let mut rng = Rng::new(0x5BEC);
    let (mut accepted, mut out_of_range) = (0, 0);
    for _ in 0..20_000 {
        let spec = mutated_spec(&mut rng);
        check(&spec);
        accepted += usize::from(
            ControllerConfig::parse_spec(&spec).is_ok()
                || LeakageProfile::parse_spec(&spec).is_ok(),
        );
        out_of_range += usize::from(
            ControllerConfig::parse_spec(&spec) == Err("knob value is out of range")
                || LeakageProfile::parse_spec(&spec) == Err("knob value is out of range"),
        );
    }
    // The mutations reach both sides of every grammar.
    assert!(accepted > 500, "{accepted} accepted");
    assert!(out_of_range > 1000, "{out_of_range} out of range");
}

#[test]
fn integer_knobs_past_their_width_are_rejected() {
    for (spec, field) in [
        ("ewma:shift=4294967296", "shift"),
        ("ewma:shift=4294967299", "shift"),
        ("ewma:dwell=4294967299", "dwell"),
        ("budget:quota=18446744073709551616", "quota"),
    ] {
        assert_eq!(
            ControllerConfig::parse_spec(spec),
            Err("knob value is out of range"),
            "{field}"
        );
    }
    assert_eq!(
        ControllerConfig::parse_spec("ewma:dwell=4294967295").map(|c| c.min_dwell),
        Ok(u32::MAX)
    );
    assert_eq!(
        LeakageProfile::parse_spec("burst:len=18446744073709551616,rate=0.1"),
        Err("knob value is out of range")
    );
    assert!(parse_threads_env("18446744073709551616").is_err());
}
