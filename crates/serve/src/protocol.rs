//! Wire protocol of `eraser-serve`: length-prefixed JSON frames.
//!
//! Every frame is a 4-byte big-endian payload length followed by exactly
//! that many bytes of UTF-8 JSON (one [`eraser_json::Value`] object with a
//! `"type"` discriminant). Length prefixing keeps framing trivial for any
//! client language; JSON keeps the payloads inspectable with `nc`+`jq`.
//!
//! Client → server frames:
//!
//! | type       | fields                                   |
//! |------------|------------------------------------------|
//! | `submit`   | a [`JobSpec`] (see its field docs)       |
//! | `ping`     | —                                        |
//! | `stats`    | —                                        |
//! | `shutdown` | —                                        |
//!
//! Server → client frames:
//!
//! | type       | fields                                                       |
//! |------------|--------------------------------------------------------------|
//! | `accepted` | `job`, `cells` (grid points to expect)                       |
//! | `busy`     | `queued`, `capacity` — job queue full, retry later           |
//! | `error`    | `message` — the job was rejected (validation, shutdown)      |
//! | `point`    | one streamed sweep cell (see `server::point_frame`)          |
//! | `done`     | `job`, `cells`, `micros`, `cache_hits`, `cache_misses`       |
//! | `pong`     | `version`, `workers`, `queue_capacity`                       |
//! | `stats`    | server + artifact-cache counters                             |
//! | `bye`      | shutdown acknowledged; the server drains and exits           |

use eraser_core::{
    ControllerConfig, ExperimentError, LeakageProfile, NoiseModel, PolicyKind, Sweep,
};
use eraser_json::Value;
use std::io::{self, Read, Write};

/// Protocol version reported by `pong`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a single frame's payload. Large enough for any job spec
/// or streamed point by orders of magnitude; small enough that a garbage
/// length prefix cannot OOM the server.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Writes one frame: 4-byte big-endian length, then the compact JSON.
/// Header and payload go out in one write, so a `TCP_NODELAY` socket sends
/// the frame as one segment rather than two.
pub fn write_frame(w: &mut impl Write, value: &Value) -> io::Result<()> {
    let mut frame = vec![0; 4];
    write!(frame, "{value}")?;
    let len = frame.len() - 4;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    frame[..4].copy_from_slice(&(len as u32).to_be_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// One `FrameReader::read` outcome.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame arrived.
    Frame(Value),
    /// The read timed out with no (or a partial) frame; already-received
    /// bytes are retained, so callers can poll a shutdown flag and retry
    /// without corrupting the stream.
    Idle,
    /// The peer closed the connection cleanly (between frames).
    Eof,
}

/// Incremental frame reader that survives read timeouts.
///
/// A plain blocking read loop would lose buffered bytes when a
/// `set_read_timeout` deadline fires mid-frame; this reader accumulates
/// into an internal buffer and only yields [`ReadOutcome::Frame`] once the
/// length prefix and full payload are present.
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    filled: usize,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            filled: 0,
        }
    }

    /// Reads until a full frame, a timeout, or EOF.
    pub fn read(&mut self) -> io::Result<ReadOutcome> {
        loop {
            if self.filled >= 4 {
                let len = u32::from_be_bytes(self.buf[..4].try_into().unwrap()) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "frame length exceeds limit",
                    ));
                }
                let need = 4 + len;
                if self.filled >= need {
                    let value = std::str::from_utf8(&self.buf[4..need])
                        .map_err(|_| {
                            io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8")
                        })
                        .and_then(|payload| {
                            Value::parse(payload).map_err(|e| {
                                let message = format!("bad frame JSON: {e}");
                                io::Error::new(io::ErrorKind::InvalidData, message)
                            })
                        });
                    self.buf.copy_within(need..self.filled, 0);
                    self.filled -= need;
                    return value.map(ReadOutcome::Frame);
                }
                if self.buf.len() < need {
                    self.buf.resize(need, 0);
                }
            } else if self.buf.len() < 4096 {
                self.buf.resize(4096, 0);
            }
            match self.inner.read(&mut self.buf[self.filled..]) {
                Ok(0) => {
                    return if self.filled == 0 {
                        Ok(ReadOutcome::Eof)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-frame",
                        ))
                    };
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(ReadOutcome::Idle);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// A decode job: the same grid the in-process [`Sweep`] facade runs,
/// expressed as plain JSON. Every field has a default, so the minimal
/// submit frame is `{"type":"submit"}`.
///
/// Reproducibility contract: a job's streamed points are bit-identical to
/// building the equivalent [`Sweep`] (or per-cell
/// [`Experiment`](eraser_core::Experiment)) in-process with the same
/// `seed` — the server adds sharding and caching, never different
/// arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Code distances (default `[3]`).
    pub distances: Vec<usize>,
    /// Physical error rates (default `[1e-3]`).
    pub error_rates: Vec<f64>,
    /// Policy labels, e.g. `"eraser"`, `"no-lrc"` (default `["eraser"]`).
    pub policies: Vec<String>,
    /// Explicit rounds per shot; 0 defers to `cycles` (default 0).
    pub rounds: usize,
    /// Rounds as multiples of the distance; used when `rounds` is 0
    /// (default 1, the paper's `R = d` short-memory shape).
    pub cycles: usize,
    /// Monte-Carlo shots per cell (default 256).
    pub shots: u64,
    /// Root RNG seed (default `0x2023`, matching `RunConfig`).
    pub seed: u64,
    /// Memory basis, `"z"` or `"x"` (default `"z"`).
    pub basis: String,
    /// Decoder name: `"auto"`, `"mwpm"`, `"sparse-mwpm"` or `"union-find"`
    /// (default `"auto"`).
    pub decoder: String,
    /// Noise family: `"standard"`, `"without-leakage"`,
    /// `"exchange-transport"` (default `"standard"`).
    pub noise: String,
    /// Leakage-aware (erasure) decoding (default false).
    pub leakage_aware: bool,
    /// Imperfect-erasure-check false-positive rate (default 0).
    pub erasure_fp: f64,
    /// Imperfect-erasure-check false-negative rate (default 0).
    pub erasure_fn: f64,
    /// Sliding-window rounds; 0 = one full-cover window, i.e. whole-shot
    /// decoding (default 0).
    pub window: usize,
    /// Sliding-window stride; 0 derives `window − d` (default 0).
    pub stride: usize,
    /// Controller spec for adaptive policies, e.g. `"ewma:up=0.2"` or
    /// `"budget:quota=40"`, bound into every adaptive policy of the job
    /// (so its law also sets their label); empty = each adaptive policy's
    /// embedded defaults (default empty; see
    /// [`ControllerConfig::parse_spec`](eraser_core::ControllerConfig)).
    pub control: String,
    /// Injected-leakage schedule, e.g. `"burst:start=5,len=2,period=10,rate=0.02"`;
    /// empty = stationary (default empty; see
    /// [`LeakageProfile::parse_spec`](eraser_core::LeakageProfile)).
    pub profile: String,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            distances: vec![3],
            error_rates: vec![1e-3],
            policies: vec!["eraser".to_string()],
            rounds: 0,
            cycles: 1,
            shots: 256,
            seed: 0x2023,
            basis: "z".to_string(),
            decoder: "auto".to_string(),
            noise: "standard".to_string(),
            leakage_aware: false,
            erasure_fp: 0.0,
            erasure_fn: 0.0,
            window: 0,
            stride: 0,
            control: String::new(),
            profile: String::new(),
        }
    }
}

impl JobSpec {
    /// Serializes as a submit frame payload.
    pub fn to_frame(&self) -> Value {
        let mut v = Value::object();
        v.set("type", "submit");
        v.set(
            "distances",
            Value::Array(self.distances.iter().map(|&d| Value::from(d)).collect()),
        );
        v.set(
            "error_rates",
            Value::Array(self.error_rates.iter().map(|&p| Value::from(p)).collect()),
        );
        v.set(
            "policies",
            Value::Array(
                self.policies
                    .iter()
                    .map(|p| Value::from(p.as_str()))
                    .collect(),
            ),
        );
        v.set("rounds", self.rounds);
        v.set("cycles", self.cycles);
        v.set("shots", self.shots);
        v.set("seed", self.seed);
        v.set("basis", self.basis.as_str());
        v.set("decoder", self.decoder.as_str());
        v.set("noise", self.noise.as_str());
        v.set("leakage_aware", self.leakage_aware);
        v.set("erasure_fp", self.erasure_fp);
        v.set("erasure_fn", self.erasure_fn);
        v.set("window", self.window);
        v.set("stride", self.stride);
        v.set("control", self.control.as_str());
        v.set("profile", self.profile.as_str());
        v
    }

    /// Parses a submit frame. Unknown fields are ignored (forward
    /// compatibility); present fields must have the right shape.
    pub fn from_frame(v: &Value) -> Result<JobSpec, String> {
        let mut spec = JobSpec::default();
        if let Some(field) = v.get("distances") {
            spec.distances = field
                .as_array()
                .ok_or("distances must be an array")?
                .iter()
                .map(|d| d.as_u64().map(|d| d as usize))
                .collect::<Option<Vec<_>>>()
                .ok_or("distances must hold non-negative integers")?;
        }
        if let Some(field) = v.get("error_rates") {
            spec.error_rates = field
                .as_array()
                .ok_or("error_rates must be an array")?
                .iter()
                .map(|p| p.as_f64())
                .collect::<Option<Vec<_>>>()
                .ok_or("error_rates must hold numbers")?;
        }
        if let Some(field) = v.get("policies") {
            spec.policies = field
                .as_array()
                .ok_or("policies must be an array")?
                .iter()
                .map(|p| p.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .ok_or("policies must hold strings")?;
        }
        read_usize(v, "rounds", &mut spec.rounds)?;
        read_usize(v, "cycles", &mut spec.cycles)?;
        if let Some(field) = v.get("shots") {
            spec.shots = field
                .as_u64()
                .ok_or("shots must be a non-negative integer")?;
        }
        if let Some(field) = v.get("seed") {
            spec.seed = field
                .as_u64()
                .ok_or("seed must be a non-negative integer")?;
        }
        read_string(v, "basis", &mut spec.basis)?;
        read_string(v, "decoder", &mut spec.decoder)?;
        read_string(v, "noise", &mut spec.noise)?;
        if let Some(field) = v.get("leakage_aware") {
            spec.leakage_aware = field.as_bool().ok_or("leakage_aware must be a boolean")?;
        }
        read_f64(v, "erasure_fp", &mut spec.erasure_fp)?;
        read_f64(v, "erasure_fn", &mut spec.erasure_fn)?;
        read_usize(v, "window", &mut spec.window)?;
        read_usize(v, "stride", &mut spec.stride)?;
        read_string(v, "control", &mut spec.control)?;
        read_string(v, "profile", &mut spec.profile)?;
        Ok(spec)
    }

    /// Validates through the `Sweep` facade and returns the runnable grid.
    /// `threads` is the server's worker-pool width (shots shard across it).
    pub fn build_sweep(&self, threads: usize) -> Result<Sweep, String> {
        let noise: NoiseModel = self.noise.parse()?;
        let basis: surface_code::MemoryBasis = self.basis.parse()?;
        let mut policies = self
            .policies
            .iter()
            .map(|p| p.parse())
            .collect::<Result<Vec<_>, ExperimentError>>()
            .map_err(|e| e.to_string())?;
        if !self.control.trim().is_empty() {
            let config = ControllerConfig::parse_spec(self.control.trim())
                .map_err(|reason| format!("invalid control spec: {reason}"))?;
            for kind in &mut policies {
                if let PolicyKind::Adaptive(own) = kind {
                    *own = config;
                }
            }
        }
        let decoder = self.decoder.parse()?;
        let mut builder = Sweep::builder()
            .distances(self.distances.iter().copied())
            .error_rates(self.error_rates.iter().copied())
            .noise_model(noise)
            .basis(basis)
            .shots(self.shots)
            .seed(self.seed)
            .threads(threads)
            .decoder(decoder)
            .leakage_aware_decoding(self.leakage_aware)
            .erasure_detection(self.erasure_fp, self.erasure_fn)
            .window_rounds(self.window)
            .window_stride(self.stride)
            .policies(policies);
        if !self.profile.trim().is_empty() {
            let profile = LeakageProfile::parse_spec(self.profile.trim())
                .map_err(|reason| format!("invalid leakage profile: {reason}"))?;
            builder = builder.leakage_profile(profile);
        }
        builder = if self.rounds > 0 {
            builder.rounds(self.rounds)
        } else {
            builder.cycles(self.cycles)
        };
        builder.build().map_err(|e| e.to_string())
    }
}

fn read_usize(v: &Value, key: &str, out: &mut usize) -> Result<(), String> {
    if let Some(field) = v.get(key) {
        *out = field
            .as_u64()
            .map(|x| x as usize)
            .ok_or_else(|| format!("{key} must be a non-negative integer"))?;
    }
    Ok(())
}

fn read_f64(v: &Value, key: &str, out: &mut f64) -> Result<(), String> {
    if let Some(field) = v.get(key) {
        *out = field
            .as_f64()
            .ok_or_else(|| format!("{key} must be a number"))?;
    }
    Ok(())
}

fn read_string(v: &Value, key: &str, out: &mut String) -> Result<(), String> {
    if let Some(field) = v.get(key) {
        *out = field
            .as_str()
            .ok_or_else(|| format!("{key} must be a string"))?
            .to_string();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let spec = JobSpec {
            distances: vec![3, 5, 7],
            seed: u64::MAX - 1,
            policies: vec!["no-lrc".into(), "eraser".into()],
            window: 9,
            stride: 4,
            ..JobSpec::default()
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &spec.to_frame()).unwrap();
        write_frame(&mut wire, &Value::parse(r#"{"type":"ping"}"#).unwrap()).unwrap();

        let mut reader = FrameReader::new(&wire[..]);
        let first = match reader.read().unwrap() {
            ReadOutcome::Frame(v) => v,
            other => panic!("expected frame, got {other:?}"),
        };
        assert_eq!(JobSpec::from_frame(&first).unwrap(), spec);
        assert!(matches!(reader.read().unwrap(), ReadOutcome::Frame(_)));
        assert!(matches!(reader.read().unwrap(), ReadOutcome::Eof));

        // Legacy `fusion` (the retired intra-shot thread count) and
        // `predecode` (the retired tier-ladder switch) keys are unknown
        // fields now: ignored, the spec unchanged.
        let mut legacy = spec.to_frame();
        legacy.set("fusion", 4usize);
        legacy.set("predecode", "off");
        assert_eq!(JobSpec::from_frame(&legacy).unwrap(), spec);
    }

    /// One frame is one `write` call, carrying the bytes the
    /// protocol defines: the big-endian payload length, then the JSON.
    #[test]
    fn a_frame_is_one_write() {
        #[derive(Default)]
        struct Counting {
            bytes: Vec<u8>,
            writes: usize,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Counting::default();
        let frames = [
            JobSpec::default().to_frame(),
            Value::parse(r#"{"type":"error","message":"é"}"#).unwrap(),
        ];
        for (n, frame) in frames.iter().enumerate() {
            let start = sink.bytes.len();
            write_frame(&mut sink, frame).unwrap();
            assert_eq!(sink.writes, n + 1);
            let payload = frame.to_string();
            let wire = &sink.bytes[start..];
            assert_eq!(wire[..4], (payload.len() as u32).to_be_bytes());
            assert_eq!(&wire[4..], payload.as_bytes());
        }
    }

    #[test]
    fn reader_handles_split_frames() {
        // Feed the frame one byte at a time through a reader that returns
        // WouldBlock between bytes — the timeout path.
        struct Trickle {
            data: Vec<u8>,
            pos: usize,
            ready: bool,
        }
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Ok(0);
                }
                if !self.ready {
                    self.ready = true;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
                }
                self.ready = false;
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, &JobSpec::default().to_frame()).unwrap();
        let total = wire.len();
        let mut reader = FrameReader::new(Trickle {
            data: wire,
            pos: 0,
            ready: false,
        });
        let mut idles = 0;
        loop {
            match reader.read().unwrap() {
                ReadOutcome::Frame(v) => {
                    assert_eq!(v.get("type").unwrap().as_str(), Some("submit"));
                    break;
                }
                ReadOutcome::Idle => idles += 1,
                ReadOutcome::Eof => panic!("hit EOF before the frame completed"),
            }
        }
        assert_eq!(idles, total, "one WouldBlock per delivered byte");
    }

    #[test]
    fn reader_rejects_oversized_and_truncated_frames() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut reader = FrameReader::new(&wire[..]);
        assert!(reader.read().is_err(), "oversized length prefix");

        let mut wire = Vec::new();
        write_frame(&mut wire, &Value::parse("{}").unwrap()).unwrap();
        wire.pop();
        let mut reader = FrameReader::new(&wire[..]);
        let err = reader.read().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn job_spec_validates_through_the_facade() {
        let spec = JobSpec::default();
        let sweep = spec.build_sweep(1).unwrap();
        assert_eq!(sweep.len(), 1);

        let bad = JobSpec {
            policies: vec!["definitely-not-a-policy".into()],
            ..JobSpec::default()
        };
        assert!(bad.build_sweep(1).unwrap_err().contains("unknown policy"));

        let bad = JobSpec {
            noise: "thermal".into(),
            ..JobSpec::default()
        };
        assert!(bad.build_sweep(1).unwrap_err().contains("noise"));

        let bad = JobSpec {
            shots: 0,
            ..JobSpec::default()
        };
        assert!(bad.build_sweep(1).is_err());
    }

    #[test]
    fn adaptive_jobs_round_trip_and_validate() {
        let spec = JobSpec {
            policies: vec!["adaptive-ewma".into(), "adaptive-budget".into()],
            control: "budget:quota=12,base=eraser".into(),
            profile: "burst:start=5,len=2,period=10,rate=0.02".into(),
            ..JobSpec::default()
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &spec.to_frame()).unwrap();
        let mut reader = FrameReader::new(&wire[..]);
        let frame = match reader.read().unwrap() {
            ReadOutcome::Frame(v) => v,
            other => panic!("expected frame, got {other:?}"),
        };
        assert_eq!(JobSpec::from_frame(&frame).unwrap(), spec);
        let sweep = spec.build_sweep(1).unwrap();
        assert_eq!(sweep.len(), 2);

        // The control spec is bound into every adaptive policy at build
        // time; static policies are left alone.
        let spec = JobSpec {
            policies: vec!["adaptive-ewma".into(), "eraser".into()],
            control: "budget:quota=12,base=eraser".into(),
            ..JobSpec::default()
        };
        let parsed = ControllerConfig::parse_spec("budget:quota=12,base=eraser").unwrap();
        assert_eq!(
            spec.build_sweep(1).unwrap().policies(),
            [PolicyKind::Adaptive(parsed), PolicyKind::eraser()]
        );

        let bad = JobSpec {
            control: "pid:kp=0.3".into(),
            ..JobSpec::default()
        };
        let err = bad.build_sweep(1).unwrap_err();
        assert!(err.contains("invalid control spec"), "{err}");

        let bad = JobSpec {
            profile: "burst:rate=7".into(),
            ..JobSpec::default()
        };
        let err = bad.build_sweep(1).unwrap_err();
        assert!(err.contains("invalid leakage profile"), "{err}");
    }

    #[test]
    fn malformed_submit_fields_are_rejected() {
        for (raw, needle) in [
            (r#"{"type":"submit","distances":3}"#, "array"),
            (r#"{"type":"submit","shots":-4}"#, "shots"),
            (r#"{"type":"submit","policies":[7]}"#, "strings"),
            (r#"{"type":"submit","basis":3}"#, "basis"),
        ] {
            let v = Value::parse(raw).unwrap();
            let err = JobSpec::from_frame(&v).unwrap_err();
            assert!(err.contains(needle), "{raw} -> {err}");
        }
    }
}
