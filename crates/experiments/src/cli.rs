//! Tiny dependency-free command-line parsing.

use eraser_core::DecoderKind;
use std::path::PathBuf;

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub shots: u64,
    pub seed: u64,
    pub threads: usize,
    pub p: f64,
    /// Per-figure distance override (0 = use the paper's default).
    pub d: usize,
    pub dmax: usize,
    pub cycles: usize,
    pub decoder: DecoderKind,
    /// Sliding-window decode configuration `(window_rounds, window_stride)`
    /// applied to every figure; (0, 0) = one full-cover window.
    pub window: (usize, usize),
    pub out: PathBuf,
    pub quick: bool,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            shots: 1000,
            seed: 2023,
            threads: 0,
            p: 1e-3,
            d: 0,
            dmax: 11,
            cycles: 10,
            decoder: DecoderKind::Auto,
            window: (0, 0),
            out: PathBuf::from("results"),
            quick: false,
        }
    }
}

impl Opts {
    /// Effective shot budget (the `--quick` smoke budget wins).
    pub fn effective_shots(&self) -> u64 {
        if self.quick {
            100
        } else {
            self.shots
        }
    }
}

/// Parses `<command> [--key value | --flag]...`. `--help` anywhere makes
/// the command `help`.
pub fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut opts = Opts::default();
    let mut command = None;
    let mut help = false;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(key) = arg.strip_prefix("--") {
            let value = |i: &mut usize| -> Result<String, String> {
                *i += 1;
                args.get(*i)
                    .cloned()
                    .ok_or_else(|| format!("--{key} needs a value"))
            };
            match key {
                "shots" => {
                    opts.shots = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--shots: {e}"))?
                }
                "seed" => opts.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
                "threads" => {
                    opts.threads = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?
                }
                "p" => opts.p = value(&mut i)?.parse().map_err(|e| format!("--p: {e}"))?,
                "d" => opts.d = value(&mut i)?.parse().map_err(|e| format!("--d: {e}"))?,
                "dmax" => opts.dmax = value(&mut i)?.parse().map_err(|e| format!("--dmax: {e}"))?,
                "cycles" => {
                    opts.cycles = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--cycles: {e}"))?
                }
                "decoder" => {
                    opts.decoder = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--decoder: {e}"))?
                }
                "window" => {
                    let spec = value(&mut i)?;
                    let mut parts = spec.splitn(2, ':');
                    let window: usize = parts
                        .next()
                        .unwrap_or_default()
                        .parse()
                        .map_err(|e| format!("--window: {e}"))?;
                    let stride: usize = match parts.next() {
                        Some(s) => s.parse().map_err(|e| format!("--window stride: {e}"))?,
                        None => 0,
                    };
                    if stride > window {
                        return Err(format!("--window: stride {stride} exceeds window {window}"));
                    }
                    opts.window = (window, stride);
                }
                "out" => opts.out = PathBuf::from(value(&mut i)?),
                "quick" => opts.quick = true,
                "help" => help = true,
                other => return Err(format!("unknown option `--{other}`")),
            }
        } else if command.is_none() {
            command = Some(arg.clone());
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
        i += 1;
    }
    let command = match command {
        Some(command) if !help => command,
        _ => "help".to_string(),
    };
    Ok((command, opts))
}
