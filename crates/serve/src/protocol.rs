//! The `ALSV` wire protocol: length-prefixed, versioned, CRC-sealed frames.
//!
//! Every frame is laid out the same way, in the house `ALCK` codec style
//! (see `alrescha::checkpoint`):
//!
//! ```text
//! ┌───────┬─────────┬──────┬─────────────┬─────────┬────────┐
//! │ "ALSV"│ version │ tag  │ payload_len │ payload │ CRC-32 │
//! │ 4 B   │ u32 LE  │ u8   │ u32 LE      │ …       │ u32 LE │
//! └───────┴─────────┴──────┴─────────────┴─────────┴────────┘
//! ```
//!
//! The CRC covers everything before it, so a torn or bit-flipped frame is
//! detected before any field is trusted. Decoding is total: corrupted
//! input produces a typed [`WireError`], never a panic, and every length
//! field is validated against the bytes actually present *before* any
//! allocation. `f64` values travel as raw IEEE-754 bits — numeric payloads
//! survive the round trip bit-exactly.

use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

use alrescha_obs::crc32;
use alrescha_sparse::Coo;

/// Frame magic: "ALSV" (ALrescha SerVe).
pub const MAGIC: [u8; 4] = *b"ALSV";
/// Current wire-format version (2 added the job `priority` byte; 3 added
/// the [`TraceContext`] on `Submit` and the `Scrape`/`Observe` frames).
pub const VERSION: u32 = 3;
/// Oldest version this build still decodes. A v2 `Submit` payload is a
/// strict prefix of the v3 layout (the trace context is appended after
/// the priority byte), so v2 peers keep working with a zero trace.
pub const MIN_VERSION: u32 = 2;
/// Upper bound on a frame payload (a 3-D stencil system of a few million
/// rows fits comfortably; anything bigger is a corrupt length field).
pub const MAX_PAYLOAD: usize = 256 << 20;

/// Errors raised while encoding, decoding, or transporting frames.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The bytes do not start with the `ALSV` magic.
    BadMagic,
    /// The frame version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The byte stream ends before the advertised payload.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        got: usize,
    },
    /// The trailing CRC-32 does not match the frame.
    CrcMismatch {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum recomputed over the frame.
        computed: u32,
    },
    /// A field holds a value the format forbids.
    Malformed(&'static str),
    /// The frame tag is not one this build knows.
    UnknownFrame(u8),
    /// The advertised payload exceeds [`MAX_PAYLOAD`].
    TooLarge {
        /// Advertised payload length.
        len: usize,
    },
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "not an alserve frame: bad magic"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported frame version {v} (this build speaks {VERSION})")
            }
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} more bytes, found {got}")
            }
            WireError::CrcMismatch { stored, computed } => write!(
                f,
                "frame CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::UnknownFrame(tag) => write!(f, "unknown frame tag {tag}"),
            WireError::TooLarge { len } => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::Io(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A solve job as submitted over the wire: the operand system plus solver
/// options. The matrix travels as COO triples with exact value bits.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPayload {
    /// The sparse SPD operand.
    pub matrix: Coo,
    /// Right-hand side.
    pub b: Vec<f64>,
    /// Relative residual tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: u64,
    /// Scheduling priority: higher levels run first; within a level the
    /// queue is stable FIFO. 0 is the default (lowest) priority.
    pub priority: u8,
}

/// Distributed-trace context carried by a [`Frame::Submit`]: the client
/// mints a `trace_id` (deterministically from its retry seed), and every
/// span the request touches — client retries, server journal fsyncs,
/// checkpoint writes, fleet job execution, engine device events — carries
/// a `trace:<trace_id as 016x>` name prefix so `alobs stitch` can line
/// the processes up on one timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Request-scoped identifier; 0 means "untraced" (v2 peers).
    pub trace_id: u64,
    /// Client-side span id that encloses the submit, for future use by
    /// viewers that support explicit parent links; 0 when absent.
    pub parent_span: u64,
}

impl TraceContext {
    /// True when this context carries no trace (v2 peer or tracing off).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.trace_id == 0 && self.parent_span == 0
    }

    /// The span-name prefix for this trace: `trace:<16 hex digits>`.
    #[must_use]
    pub fn prefix(&self) -> String {
        format!("trace:{:016x}", self.trace_id)
    }
}

/// What a [`Frame::Scrape`] asks the daemon for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScrapeKind {
    /// Prometheus text exposition of the live metrics registry.
    Metrics,
    /// One-line JSON health summary (uptime, queue, breaker states).
    Health,
    /// JSON array of every job the status board knows.
    Jobs,
    /// JSON for the `alserve top` view: queue depth, per-tenant quota
    /// burn and SLO burn rate, breaker states.
    Top,
}

impl ScrapeKind {
    fn code(self) -> u8 {
        match self {
            ScrapeKind::Metrics => 0,
            ScrapeKind::Health => 1,
            ScrapeKind::Jobs => 2,
            ScrapeKind::Top => 3,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        Ok(match code {
            0 => ScrapeKind::Metrics,
            1 => ScrapeKind::Health,
            2 => ScrapeKind::Jobs,
            3 => ScrapeKind::Top,
            _ => return Err(WireError::Malformed("scrape kind")),
        })
    }
}

/// The terminal payload of a completed solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The solution iterate.
    pub x: Vec<f64>,
    /// Iterations completed.
    pub iterations: u64,
    /// Final residual norm.
    pub residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Resume-invariant fingerprint
    /// ([`alrescha::JobOutput::solution_fingerprint`]): equal between an
    /// uninterrupted solve and a killed-and-recovered one.
    pub solution_fingerprint: u64,
}

/// One protocol message, client→server or server→client.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Frame {
    /// Submit a solve job under a tenant identity.
    Submit {
        /// Tenant the job is charged against.
        tenant: String,
        /// The job itself.
        job: JobPayload,
        /// Distributed-trace context (zero from v2 peers).
        trace: TraceContext,
    },
    /// Ask for a one-shot status of a job.
    Status {
        /// Journal job identifier.
        job_id: u64,
    },
    /// Block until the job is terminal, streaming progress frames.
    Wait {
        /// Journal job identifier.
        job_id: u64,
    },
    /// Liveness check.
    Ping,
    /// Stop admitting and park queued work (admin).
    Drain,
    /// The job was journaled durably and will run (or be recovered).
    Accepted {
        /// Journal job identifier assigned by the server.
        job_id: u64,
    },
    /// The job was not admitted.
    Rejected {
        /// Human-readable reason.
        reason: String,
        /// Structured backpressure hint, when the rejection is transient
        /// (queue full, quota exhausted).
        retry_after: Option<Duration>,
    },
    /// Progress of a running job (latest checkpoint boundary).
    Progress {
        /// Journal job identifier.
        job_id: u64,
        /// Completed solver iterations.
        iteration: u64,
        /// Residual norm at that boundary (NaN while still queued).
        residual: f64,
    },
    /// The job finished.
    Done {
        /// Journal job identifier.
        job_id: u64,
        /// The solve outcome.
        result: SolveResult,
    },
    /// The job failed.
    Failed {
        /// Journal job identifier.
        job_id: u64,
        /// The in-band error.
        error: String,
    },
    /// Reply to [`Frame::Ping`].
    Pong,
    /// Reply to [`Frame::Drain`]: admission is closed.
    Draining,
    /// The job id is not known to this server.
    NotFound {
        /// Journal job identifier.
        job_id: u64,
    },
    /// The job was parked by a drain and will resume on the next start.
    Parked {
        /// Journal job identifier.
        job_id: u64,
    },
    /// Ask the daemon for live introspection data (v3).
    Scrape {
        /// Which view to render.
        kind: ScrapeKind,
    },
    /// Reply to [`Frame::Scrape`]: the rendered text/JSON body.
    ScrapeReply {
        /// Exposition body (Prometheus text or JSON, per the request).
        body: String,
    },
    /// Subscribe read-only to an in-flight job's progress stream (v3).
    /// Streams the same frames as [`Frame::Wait`], but the terminal
    /// [`Frame::Done`] omits the solution vector — passive observers get
    /// scalars and the fingerprint, not the tenant's data.
    Observe {
        /// Journal job identifier.
        job_id: u64,
    },
}

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Frame::Submit { .. } => 1,
            Frame::Status { .. } => 2,
            Frame::Wait { .. } => 3,
            Frame::Ping => 4,
            Frame::Drain => 5,
            Frame::Accepted { .. } => 6,
            Frame::Rejected { .. } => 7,
            Frame::Progress { .. } => 8,
            Frame::Done { .. } => 9,
            Frame::Failed { .. } => 10,
            Frame::Pong => 11,
            Frame::Draining => 12,
            Frame::NotFound { .. } => 13,
            Frame::Parked { .. } => 14,
            Frame::Scrape { .. } => 15,
            Frame::ScrapeReply { .. } => 16,
            Frame::Observe { .. } => 17,
        }
    }

    /// Encodes the frame: header, payload, CRC-32 trailer.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(17 + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.tag());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Submit { tenant, job, trace } => {
                put_str(&mut out, tenant);
                put_job(&mut out, job);
                put_u64(&mut out, trace.trace_id);
                put_u64(&mut out, trace.parent_span);
            }
            Frame::Status { job_id }
            | Frame::Wait { job_id }
            | Frame::Observe { job_id }
            | Frame::Accepted { job_id }
            | Frame::NotFound { job_id }
            | Frame::Parked { job_id } => put_u64(&mut out, *job_id),
            Frame::Ping | Frame::Drain | Frame::Pong | Frame::Draining => {}
            Frame::Rejected {
                reason,
                retry_after,
            } => {
                put_str(&mut out, reason);
                match retry_after {
                    Some(d) => {
                        out.push(1);
                        put_u64(&mut out, d.as_millis().min(u128::from(u64::MAX)) as u64);
                    }
                    None => out.push(0),
                }
            }
            Frame::Progress {
                job_id,
                iteration,
                residual,
            } => {
                put_u64(&mut out, *job_id);
                put_u64(&mut out, *iteration);
                put_u64(&mut out, residual.to_bits());
            }
            Frame::Done { job_id, result } => {
                put_u64(&mut out, *job_id);
                put_f64_vec(&mut out, &result.x);
                put_u64(&mut out, result.iterations);
                put_u64(&mut out, result.residual.to_bits());
                out.push(u8::from(result.converged));
                put_u64(&mut out, result.solution_fingerprint);
            }
            Frame::Failed { job_id, error } => {
                put_u64(&mut out, *job_id);
                put_str(&mut out, error);
            }
            Frame::Scrape { kind } => out.push(kind.code()),
            Frame::ScrapeReply { body } => put_str(&mut out, body),
        }
        out
    }

    /// Decodes one complete frame from `bytes` (header through CRC).
    ///
    /// # Errors
    ///
    /// Every malformation is a typed [`WireError`]; never panics on
    /// arbitrary input.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < 17 {
            return Err(WireError::Truncated {
                needed: 17,
                got: bytes.len(),
            });
        }
        if bytes[..4] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let computed = crc32(body);
        if stored != computed {
            return Err(WireError::CrcMismatch { stored, computed });
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(WireError::UnsupportedVersion(version));
        }
        let tag = bytes[8];
        let len = u32::from_le_bytes([bytes[9], bytes[10], bytes[11], bytes[12]]) as usize;
        if len > MAX_PAYLOAD {
            return Err(WireError::TooLarge { len });
        }
        let payload = &body[13..];
        if payload.len() != len {
            return Err(WireError::Malformed("payload length disagrees with header"));
        }
        let mut rd = Reader {
            bytes: payload,
            pos: 0,
        };
        let frame = Frame::decode_payload(tag, version, &mut rd)?;
        if rd.pos != payload.len() {
            return Err(WireError::Malformed("trailing bytes after payload"));
        }
        Ok(frame)
    }

    fn decode_payload(tag: u8, version: u32, rd: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match tag {
            1 => {
                let tenant = rd.string()?;
                let job = rd.job()?;
                // v2 ends at the priority byte; v3 appends the trace.
                let trace = if version >= 3 {
                    TraceContext {
                        trace_id: rd.u64()?,
                        parent_span: rd.u64()?,
                    }
                } else {
                    TraceContext::default()
                };
                Frame::Submit { tenant, job, trace }
            }
            2 => Frame::Status { job_id: rd.u64()? },
            3 => Frame::Wait { job_id: rd.u64()? },
            4 => Frame::Ping,
            5 => Frame::Drain,
            6 => Frame::Accepted { job_id: rd.u64()? },
            7 => {
                let reason = rd.string()?;
                let retry_after = match rd.u8()? {
                    0 => None,
                    1 => Some(Duration::from_millis(rd.u64()?)),
                    _ => return Err(WireError::Malformed("retry_after flag")),
                };
                Frame::Rejected {
                    reason,
                    retry_after,
                }
            }
            8 => Frame::Progress {
                job_id: rd.u64()?,
                iteration: rd.u64()?,
                residual: rd.f64()?,
            },
            9 => {
                let job_id = rd.u64()?;
                let x = rd.f64_vec()?;
                let iterations = rd.u64()?;
                let residual = rd.f64()?;
                let converged = match rd.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("converged flag")),
                };
                let solution_fingerprint = rd.u64()?;
                Frame::Done {
                    job_id,
                    result: SolveResult {
                        x,
                        iterations,
                        residual,
                        converged,
                        solution_fingerprint,
                    },
                }
            }
            10 => Frame::Failed {
                job_id: rd.u64()?,
                error: rd.string()?,
            },
            11 => Frame::Pong,
            12 => Frame::Draining,
            13 => Frame::NotFound { job_id: rd.u64()? },
            14 => Frame::Parked { job_id: rd.u64()? },
            15 => Frame::Scrape {
                kind: ScrapeKind::from_code(rd.u8()?)?,
            },
            16 => Frame::ScrapeReply { body: rd.string()? },
            17 => Frame::Observe { job_id: rd.u64()? },
            other => return Err(WireError::UnknownFrame(other)),
        })
    }

    /// Writes one frame to a blocking transport.
    ///
    /// # Errors
    ///
    /// Transport errors ([`WireError::Io`]).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        w.write_all(&self.encode())?;
        w.flush()?;
        Ok(())
    }

    /// Reads one complete frame from a blocking transport.
    ///
    /// # Errors
    ///
    /// Transport errors, or any [`WireError`] the frame fails to decode
    /// with. A clean EOF before the first header byte surfaces as
    /// [`WireError::Io`] with [`io::ErrorKind::UnexpectedEof`].
    pub fn read_from(r: &mut impl Read) -> Result<Self, WireError> {
        let mut header = [0u8; 13];
        r.read_exact(&mut header)?;
        if header[..4] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let len = u32::from_le_bytes([header[9], header[10], header[11], header[12]]) as usize;
        if len > MAX_PAYLOAD {
            return Err(WireError::TooLarge { len });
        }
        let mut rest = vec![0u8; len + 4];
        r.read_exact(&mut rest)?;
        let mut whole = Vec::with_capacity(17 + len);
        whole.extend_from_slice(&header);
        whole.extend_from_slice(&rest);
        Frame::decode(&whole)
    }
}

// ---------------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------------

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) {
    put_u64(out, v.len() as u64);
    for &value in v {
        put_u64(out, value.to_bits());
    }
}

pub(crate) fn put_job(out: &mut Vec<u8>, job: &JobPayload) {
    put_u64(out, job.matrix.rows() as u64);
    put_u64(out, job.matrix.cols() as u64);
    put_u64(out, job.matrix.entries().len() as u64);
    for &(r, c, v) in job.matrix.entries() {
        put_u64(out, r as u64);
        put_u64(out, c as u64);
        put_u64(out, v.to_bits());
    }
    put_f64_vec(out, &job.b);
    put_u64(out, job.tol.to_bits());
    put_u64(out, job.max_iters);
    out.push(job.priority);
}

/// Bounded, allocation-validating payload reader (same discipline as the
/// checkpoint codec: lengths are checked against the bytes present before
/// any `Vec` is sized).
pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let got = self.bytes.len() - self.pos;
        if got < len {
            return Err(WireError::Truncated { needed: len, got });
        }
        let out = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn checked_len(&self, len: u64, stride: usize) -> Result<usize, WireError> {
        let len = usize::try_from(len).map_err(|_| WireError::Malformed("length field"))?;
        let needed = len
            .checked_mul(stride)
            .ok_or(WireError::Malformed("length field"))?;
        let remaining = self.bytes.len() - self.pos;
        if needed > remaining {
            return Err(WireError::Truncated {
                needed,
                got: remaining,
            });
        }
        Ok(len)
    }

    pub(crate) fn string(&mut self) -> Result<String, WireError> {
        let len = self.u64()?;
        let len = self.checked_len(len, 1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string is not UTF-8"))
    }

    pub(crate) fn f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        let len = self.u64()?;
        let len = self.checked_len(len, 8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    pub(crate) fn job(&mut self) -> Result<JobPayload, WireError> {
        let rows = usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("rows"))?;
        let cols = usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("cols"))?;
        let nnz = self.u64()?;
        let nnz = self.checked_len(nnz, 24)?;
        let mut matrix = Coo::new(rows, cols);
        for _ in 0..nnz {
            let r = usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("entry row"))?;
            let c = usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("entry col"))?;
            let v = self.f64()?;
            if r >= rows || c >= cols {
                return Err(WireError::Malformed("entry out of bounds"));
            }
            matrix.push(r, c, v);
        }
        let b = self.f64_vec()?;
        let tol = self.f64()?;
        let max_iters = self.u64()?;
        let priority = self.u8()?;
        if b.len() != rows {
            return Err(WireError::Malformed("rhs length disagrees with rows"));
        }
        Ok(JobPayload {
            matrix,
            b,
            tol,
            max_iters,
            priority,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha_sparse::gen;

    fn sample_job() -> JobPayload {
        let matrix = gen::stencil27(2);
        let b: Vec<f64> = (0..matrix.rows()).map(|i| (i % 3) as f64 - 1.25).collect();
        JobPayload {
            matrix,
            b,
            tol: 1e-9,
            max_iters: 120,
            priority: 0,
        }
    }

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Submit {
                tenant: "tenant-α".to_owned(),
                job: sample_job(),
                trace: TraceContext {
                    trace_id: 0x0123_4567_89AB_CDEF,
                    parent_span: 7,
                },
            },
            Frame::Status { job_id: 7 },
            Frame::Wait { job_id: u64::MAX },
            Frame::Ping,
            Frame::Drain,
            Frame::Accepted { job_id: 42 },
            Frame::Rejected {
                reason: "queue full".to_owned(),
                retry_after: Some(Duration::from_millis(75)),
            },
            Frame::Rejected {
                reason: "unknown tenant".to_owned(),
                retry_after: None,
            },
            Frame::Progress {
                job_id: 3,
                iteration: 17,
                residual: 1.25e-4,
            },
            Frame::Done {
                job_id: 3,
                result: SolveResult {
                    x: vec![1.0, -2.5, f64::MIN_POSITIVE],
                    iterations: 23,
                    residual: 9.5e-11,
                    converged: true,
                    solution_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                },
            },
            Frame::Failed {
                job_id: 9,
                error: "pcg breakdown at iteration 4".to_owned(),
            },
            Frame::Pong,
            Frame::Draining,
            Frame::NotFound { job_id: 404 },
            Frame::Parked { job_id: 11 },
            Frame::Scrape {
                kind: ScrapeKind::Metrics,
            },
            Frame::Scrape {
                kind: ScrapeKind::Top,
            },
            Frame::ScrapeReply {
                body: "# HELP alserve_jobs_total jobs\n".to_owned(),
            },
            Frame::Observe { job_id: 12 },
        ]
    }

    #[test]
    fn every_frame_round_trips_bit_exactly() {
        for frame in frames() {
            let bytes = frame.encode();
            let decoded = Frame::decode(&bytes).unwrap();
            assert_eq!(frame, decoded);
        }
    }

    #[test]
    fn submit_preserves_matrix_value_bits() {
        let frame = Frame::Submit {
            tenant: "t".to_owned(),
            job: sample_job(),
            trace: TraceContext::default(),
        };
        let Frame::Submit { job, .. } = Frame::decode(&frame.encode()).unwrap() else {
            panic!("wrong frame");
        };
        let orig = sample_job();
        for (a, b) in orig.matrix.entries().iter().zip(job.matrix.entries()) {
            assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
        for (a, b) in orig.b.iter().zip(&job.b) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corruption_and_truncation_are_typed_errors() {
        for frame in frames() {
            let bytes = frame.encode();
            for len in 0..bytes.len() {
                assert!(
                    Frame::decode(&bytes[..len]).is_err(),
                    "truncation to {len} went undetected"
                );
            }
            // Flip one byte in a few positions spread across the frame.
            for i in [0, 5, 8, bytes.len() / 2, bytes.len() - 1] {
                let mut bad = bytes.clone();
                bad[i] ^= 0x20;
                assert!(Frame::decode(&bad).is_err(), "flip at {i} went undetected");
            }
        }
    }

    #[test]
    fn stream_read_write_round_trips() {
        let mut buf = Vec::new();
        for frame in frames() {
            frame.write_to(&mut buf).unwrap();
        }
        let mut cursor = io::Cursor::new(buf);
        for frame in frames() {
            assert_eq!(Frame::read_from(&mut cursor).unwrap(), frame);
        }
        // Clean EOF afterwards.
        match Frame::read_from(&mut cursor) {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected EOF, got {other:?}"),
        }
    }

    #[test]
    fn absurd_length_fields_do_not_allocate() {
        // A Done frame whose x-vector length is absurd: decode must reject
        // on the validated length, not attempt the allocation.
        let frame = Frame::Done {
            job_id: 1,
            result: SolveResult {
                x: vec![1.0],
                iterations: 1,
                residual: 0.5,
                converged: false,
                solution_fingerprint: 1,
            },
        };
        let mut bytes = frame.encode();
        // x length lives right after the 13-byte header + 8-byte job id.
        bytes[21..29].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc_pos = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_pos]);
        bytes[crc_pos..].copy_from_slice(&crc.to_le_bytes());
        match Frame::decode(&bytes) {
            Err(WireError::Truncated { .. } | WireError::Malformed(_)) => {}
            other => panic!("expected typed rejection, got {other:?}"),
        }
    }

    /// Encodes a Submit exactly as a v2 peer would: version 2 in the
    /// header, payload ending at the priority byte.
    fn encode_v2_submit(tenant: &str, job: &JobPayload) -> Vec<u8> {
        let mut payload = Vec::new();
        put_str(&mut payload, tenant);
        put_job(&mut payload, job);
        let mut out = Vec::with_capacity(17 + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&2u32.to_le_bytes());
        out.push(1); // Submit
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn v2_submit_decodes_with_a_zero_trace() {
        let bytes = encode_v2_submit("legacy", &sample_job());
        let Frame::Submit { tenant, job, trace } = Frame::decode(&bytes).unwrap() else {
            panic!("wrong frame");
        };
        assert_eq!(tenant, "legacy");
        assert_eq!(job, sample_job());
        assert!(trace.is_zero());
    }

    #[test]
    fn v2_frames_without_trailing_trace_still_round_trip() {
        // Non-Submit v2 frames are byte-identical to v3 except the header
        // version; all must decode.
        for frame in [Frame::Ping, Frame::Status { job_id: 3 }] {
            let mut bytes = frame.encode();
            bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
            let crc_pos = bytes.len() - 4;
            let crc = crc32(&bytes[..crc_pos]);
            bytes[crc_pos..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(Frame::decode(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn trace_prefix_is_sixteen_hex_digits() {
        let t = TraceContext {
            trace_id: 0xBEEF,
            parent_span: 0,
        };
        assert_eq!(t.prefix(), "trace:000000000000beef");
        assert!(!t.is_zero());
        assert!(TraceContext::default().is_zero());
    }

    #[test]
    fn unknown_tag_and_future_version_are_rejected() {
        let mut bytes = Frame::Ping.encode();
        bytes[8] = 200;
        let crc_pos = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_pos]);
        bytes[crc_pos..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::UnknownFrame(200))
        ));

        let mut bytes = Frame::Ping.encode();
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        let crc_pos = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_pos]);
        bytes[crc_pos..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::UnsupportedVersion(9))
        ));
    }
}
