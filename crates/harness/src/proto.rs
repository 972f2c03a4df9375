//! Length-prefixed wire protocol for distributed sweeps.
//!
//! `hx serve`, `hx work`, and `hx submit` speak a hand-rolled codec over
//! TCP: each frame is a 1-byte kind tag, a little-endian `u32` payload
//! length, and a JSON payload. The vendored serde stand-in only
//! *serializes*, so payloads are rendered by hand (same idiom as
//! `digest.rs`) and parsed back through [`crate::value::parse_json`] —
//! the same reader the spec loader and result-store use.
//!
//! Robustness rules, pinned by `tests/proto_props.rs`:
//!
//! * **Truncated frames** (EOF inside the header or the payload) are
//!   errors, never silent partial reads. EOF *between* frames is a clean
//!   end of stream.
//! * **Oversized frames** (declared length above [`MAX_FRAME_BYTES`]) are
//!   rejected before any payload allocation, so a corrupt or hostile
//!   length prefix cannot OOM the daemon.
//! * **Deeply nested payloads** (past [`crate::value::MAX_JSON_DEPTH`])
//!   are malformed, not a stack overflow: a payload is parsed before the
//!   handshake has vetted its sender.
//! * **Unknown frame kinds are skipped with a warning**, not a
//!   disconnect: a newer peer may add message types, and an older daemon
//!   or worker keeps interoperating on the frames it understands.
//!   (Version *mismatches that change semantics* are caught earlier, at
//!   the [`Frame::Hello`] handshake.)

use std::io::{Read, Write};

use crate::value::{parse_json, write_json_object, Value};

/// Protocol revision spoken by this build. Bumped on any incompatible
/// frame-semantics change; the handshake rejects mismatches.
pub(crate) const PROTO_VERSION: u32 = 1;

/// Hard ceiling on a frame's payload size. Spec texts and result rows
/// are a few KiB; 16 MiB leaves three orders of magnitude of headroom
/// while still refusing nonsense lengths immediately.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Role a connecting peer announces in its [`Frame::Hello`].
pub const ROLE_CLIENT: &str = "client";
/// See [`ROLE_CLIENT`].
pub const ROLE_WORKER: &str = "worker";

// Frame kind tags. Gaps are deliberate: 0x1x frames flow on client
// connections, 0x2x frames on worker connections.
const K_HELLO: u8 = 0x01;
const K_HELLO_ACK: u8 = 0x02;
const K_ERROR: u8 = 0x03;
const K_SUBMIT: u8 = 0x10;
const K_ACCEPTED: u8 = 0x11;
const K_ROW: u8 = 0x12;
const K_DONE: u8 = 0x13;
const K_WORK_REQUEST: u8 = 0x20;
const K_ASSIGN: u8 = 0x21;
const K_SPEC: u8 = 0x22;
const K_NO_WORK: u8 = 0x23;
const K_ROW_RESULT: u8 = 0x24;
const K_HEARTBEAT: u8 = 0x25;
const K_FAIL_RESULT: u8 = 0x26;

/// One protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// First frame on every connection, peer → daemon. The daemon rejects
    /// any version skew: results must be bit-identical across the fleet,
    /// and `workspace_version` is part of every point digest.
    Hello {
        role: String,
        proto: u32,
        schema_version: u32,
        workspace_version: String,
    },
    /// Handshake accept, daemon → peer. `worker_id` is 0 for clients.
    /// Workers must send traffic (heartbeats count) at least once per
    /// `lease_ms` or their leased points are reclaimed.
    HelloAck {
        worker_id: u64,
        lease_ms: u64,
        heartbeat_ms: u64,
    },
    /// Fatal, either direction; the connection closes after it.
    Error { message: String },

    /// Client → daemon: run this sweep spec. The daemon expands and
    /// digests the spec itself (`spec.rs`/`digest.rs`), so a malicious or
    /// stale client cannot poison the shared cache with mislabeled rows.
    Submit {
        format: String,
        force: bool,
        spec: String,
    },
    /// Daemon → client: spec accepted; `cached` points are already
    /// answered by the store.
    Accepted { job: u64, total: u64, cached: u64 },
    /// Daemon → client: the next in-order merged row. Indices are
    /// strictly sequential from 0 — the commit frontier lives daemon-side.
    Row { job: u64, index: u64, row: String },
    /// Daemon → client: job finished.
    Done {
        job: u64,
        total: u64,
        cached: u64,
        executed: u64,
        failed: u64,
    },

    /// Worker → daemon: idle, give me a point.
    WorkRequest,
    /// Daemon → worker: the sweep spec for `job`, sent once per
    /// (worker, job) before the first assignment. The worker re-expands
    /// it with the same deterministic machinery, so only an index needs
    /// to travel per point.
    Spec {
        job: u64,
        format: String,
        spec: String,
    },
    /// Daemon → worker: execute point `index` of `job` under lease
    /// `lease`. `digest` double-checks that both sides expanded the spec
    /// identically (belt and braces under the handshake's version pin).
    Assign {
        job: u64,
        index: u64,
        lease: u64,
        digest: String,
    },
    /// Daemon → worker: nothing pending; poll again after `backoff_ms`.
    NoWork { backoff_ms: u64 },
    /// Worker → daemon: completed point, result row verbatim.
    RowResult {
        job: u64,
        index: u64,
        lease: u64,
        elapsed_ms: u64,
        row: String,
    },
    /// Worker → daemon: the point panicked; the daemon degrades it to a
    /// `kind = "failed"` row exactly like a single-node sweep.
    FailResult {
        job: u64,
        index: u64,
        lease: u64,
        error: String,
    },
    /// Worker → daemon: still alive; renews every lease the worker holds.
    Heartbeat,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum ProtoError {
    Io(std::io::Error),
    /// EOF inside a frame (header or payload).
    Truncated {
        expected: usize,
        got: usize,
    },
    /// Declared payload length above [`MAX_FRAME_BYTES`].
    Oversized {
        kind: u8,
        len: usize,
    },
    /// Payload failed to parse or lacked a required field.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            ProtoError::Oversized { kind, len } => write!(
                f,
                "oversized frame kind 0x{kind:02x}: {len} bytes (max {MAX_FRAME_BYTES})"
            ),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl Frame {
    /// The frame's kind tag and rendered JSON payload.
    pub(crate) fn encode(&self) -> (u8, String) {
        let (kind, members): (u8, &[(&str, &dyn serde::Serialize)]) = match self {
            Frame::Hello {
                role,
                proto,
                schema_version,
                workspace_version,
            } => (
                K_HELLO,
                &[
                    ("role", role),
                    ("proto", proto),
                    ("schema_version", schema_version),
                    ("workspace_version", workspace_version),
                ],
            ),
            Frame::HelloAck {
                worker_id,
                lease_ms,
                heartbeat_ms,
            } => (
                K_HELLO_ACK,
                &[
                    ("worker_id", worker_id),
                    ("lease_ms", lease_ms),
                    ("heartbeat_ms", heartbeat_ms),
                ],
            ),
            Frame::Error { message } => (K_ERROR, &[("message", message)]),
            Frame::Submit {
                format,
                force,
                spec,
            } => (
                K_SUBMIT,
                &[("format", format), ("force", force), ("spec", spec)],
            ),
            Frame::Accepted { job, total, cached } => (
                K_ACCEPTED,
                &[("job", job), ("total", total), ("cached", cached)],
            ),
            Frame::Row { job, index, row } => {
                (K_ROW, &[("job", job), ("index", index), ("row", row)])
            }
            Frame::Done {
                job,
                total,
                cached,
                executed,
                failed,
            } => (
                K_DONE,
                &[
                    ("job", job),
                    ("total", total),
                    ("cached", cached),
                    ("executed", executed),
                    ("failed", failed),
                ],
            ),
            Frame::WorkRequest => (K_WORK_REQUEST, &[]),
            Frame::Spec { job, format, spec } => {
                (K_SPEC, &[("job", job), ("format", format), ("spec", spec)])
            }
            Frame::Assign {
                job,
                index,
                lease,
                digest,
            } => (
                K_ASSIGN,
                &[
                    ("job", job),
                    ("index", index),
                    ("lease", lease),
                    ("digest", digest),
                ],
            ),
            Frame::NoWork { backoff_ms } => (K_NO_WORK, &[("backoff_ms", backoff_ms)]),
            Frame::RowResult {
                job,
                index,
                lease,
                elapsed_ms,
                row,
            } => (
                K_ROW_RESULT,
                &[
                    ("job", job),
                    ("index", index),
                    ("lease", lease),
                    ("elapsed_ms", elapsed_ms),
                    ("row", row),
                ],
            ),
            Frame::FailResult {
                job,
                index,
                lease,
                error,
            } => (
                K_FAIL_RESULT,
                &[
                    ("job", job),
                    ("index", index),
                    ("lease", lease),
                    ("error", error),
                ],
            ),
            Frame::Heartbeat => (K_HEARTBEAT, &[]),
        };
        // Room for a result row, the frame there are most of.
        let mut payload = String::with_capacity(1024);
        write_json_object(&mut payload, members);
        (kind, payload)
    }

    /// Appends the frame as it travels: `[kind u8][len u32 LE][payload]`.
    pub(crate) fn encode_into(&self, wire: &mut Vec<u8>) {
        let (kind, payload) = self.encode();
        debug_assert!(payload.len() <= MAX_FRAME_BYTES, "outgoing frame too large");
        wire.reserve(5 + payload.len());
        wire.push(kind);
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(payload.as_bytes());
    }

    /// Decodes a payload for `kind`. `Ok(None)` means the kind is unknown
    /// to this build (skip it — forward compatibility).
    pub(crate) fn decode(kind: u8, payload: &str) -> Result<Option<Frame>, ProtoError> {
        let known = matches!(
            kind,
            K_HELLO
                | K_HELLO_ACK
                | K_ERROR
                | K_SUBMIT
                | K_ACCEPTED
                | K_ROW
                | K_DONE
                | K_WORK_REQUEST
                | K_ASSIGN
                | K_SPEC
                | K_NO_WORK
                | K_ROW_RESULT
                | K_HEARTBEAT
                | K_FAIL_RESULT
        );
        if !known {
            return Ok(None);
        }
        let v = parse_json(payload)
            .map_err(|e| ProtoError::Malformed(format!("kind 0x{kind:02x}: {e}")))?;
        let str_field = |key: &str| -> Result<String, ProtoError> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| {
                    ProtoError::Malformed(format!("kind 0x{kind:02x}: missing string {key:?}"))
                })
        };
        let u64_field = |key: &str| -> Result<u64, ProtoError> {
            v.get(key)
                .and_then(Value::as_i64)
                .filter(|&i| i >= 0)
                .map(|i| i as u64)
                .ok_or_else(|| {
                    ProtoError::Malformed(format!("kind 0x{kind:02x}: missing integer {key:?}"))
                })
        };
        // Version fields are compared for equality at the handshake: a value
        // that does not fit must not wrap into one that matches.
        let u32_field = |key: &str| -> Result<u32, ProtoError> {
            u32::try_from(u64_field(key)?).map_err(|_| {
                ProtoError::Malformed(format!("kind 0x{kind:02x}: {key:?} out of range"))
            })
        };
        let bool_field = |key: &str| -> Result<bool, ProtoError> {
            v.get(key).and_then(Value::as_bool).ok_or_else(|| {
                ProtoError::Malformed(format!("kind 0x{kind:02x}: missing boolean {key:?}"))
            })
        };
        Ok(Some(match kind {
            K_HELLO => Frame::Hello {
                role: str_field("role")?,
                proto: u32_field("proto")?,
                schema_version: u32_field("schema_version")?,
                workspace_version: str_field("workspace_version")?,
            },
            K_HELLO_ACK => Frame::HelloAck {
                worker_id: u64_field("worker_id")?,
                lease_ms: u64_field("lease_ms")?,
                heartbeat_ms: u64_field("heartbeat_ms")?,
            },
            K_ERROR => Frame::Error {
                message: str_field("message")?,
            },
            K_SUBMIT => Frame::Submit {
                format: str_field("format")?,
                force: bool_field("force")?,
                spec: str_field("spec")?,
            },
            K_ACCEPTED => Frame::Accepted {
                job: u64_field("job")?,
                total: u64_field("total")?,
                cached: u64_field("cached")?,
            },
            K_ROW => Frame::Row {
                job: u64_field("job")?,
                index: u64_field("index")?,
                row: str_field("row")?,
            },
            K_DONE => Frame::Done {
                job: u64_field("job")?,
                total: u64_field("total")?,
                cached: u64_field("cached")?,
                executed: u64_field("executed")?,
                failed: u64_field("failed")?,
            },
            K_WORK_REQUEST => Frame::WorkRequest,
            K_SPEC => Frame::Spec {
                job: u64_field("job")?,
                format: str_field("format")?,
                spec: str_field("spec")?,
            },
            K_ASSIGN => Frame::Assign {
                job: u64_field("job")?,
                index: u64_field("index")?,
                lease: u64_field("lease")?,
                digest: str_field("digest")?,
            },
            K_NO_WORK => Frame::NoWork {
                backoff_ms: u64_field("backoff_ms")?,
            },
            K_ROW_RESULT => Frame::RowResult {
                job: u64_field("job")?,
                index: u64_field("index")?,
                lease: u64_field("lease")?,
                elapsed_ms: u64_field("elapsed_ms")?,
                row: str_field("row")?,
            },
            K_HEARTBEAT => Frame::Heartbeat,
            K_FAIL_RESULT => Frame::FailResult {
                job: u64_field("job")?,
                index: u64_field("index")?,
                lease: u64_field("lease")?,
                error: str_field("error")?,
            },
            _ => unreachable!("kind was checked known"),
        }))
    }
}

/// Writes one frame ([`Frame::encode_into`]).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let mut buf = Vec::new();
    frame.encode_into(&mut buf);
    // One write call per frame so concurrent writers (the worker's
    // heartbeat thread shares the socket with its result sender) can
    // interleave only at frame boundaries under an external mutex.
    w.write_all(&buf)?;
    w.flush()
}

/// Reads bytes until `buf` is full; distinguishes clean EOF at offset 0
/// (`Ok(false)`) from EOF mid-buffer (`Err(Truncated)`).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, ProtoError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(ProtoError::Truncated {
                    expected: buf.len(),
                    got,
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads the next frame this build understands. Unknown kinds are skipped
/// with a warning (their payload is consumed, keeping the stream in
/// sync). `Ok(None)` is a clean end of stream.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, ProtoError> {
    loop {
        let mut header = [0u8; 5];
        if !read_exact_or_eof(r, &mut header)? {
            return Ok(None);
        }
        let kind = header[0];
        let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(ProtoError::Oversized { kind, len });
        }
        let mut payload = vec![0u8; len];
        let mut got = 0;
        while got < len {
            match r.read(&mut payload[got..]) {
                Ok(0) => {
                    return Err(ProtoError::Truncated {
                        expected: 5 + len,
                        got: 5 + got,
                    })
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ProtoError::Io(e)),
            }
        }
        let payload = String::from_utf8(payload)
            .map_err(|_| ProtoError::Malformed(format!("kind 0x{kind:02x}: non-UTF-8 payload")))?;
        match Frame::decode(kind, &payload)? {
            Some(frame) => return Ok(Some(frame)),
            None => {
                eprintln!(
                    "warning: ignoring unknown frame kind 0x{kind:02x} ({len} bytes) — \
                     peer is probably a newer build"
                );
                continue;
            }
        }
    }
}

/// Serializes a frame to bytes (tests and in-memory transports).
pub fn frame_to_bytes(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, frame).expect("Vec write cannot fail");
    buf
}

/// The `Hello` this build sends.
pub fn hello(role: &str) -> Frame {
    Frame::Hello {
        role: role.to_string(),
        proto: PROTO_VERSION,
        schema_version: hxsim::SCHEMA_VERSION,
        workspace_version: crate::digest::WORKSPACE_VERSION.to_string(),
    }
}

/// Validates a peer's `Hello` against this build. Returns the role on
/// success, a rejection message on any skew.
pub(crate) fn check_hello(frame: &Frame) -> Result<String, String> {
    let Frame::Hello {
        role,
        proto,
        schema_version,
        workspace_version,
    } = frame
    else {
        return Err("expected Hello as the first frame".to_string());
    };
    if *proto != PROTO_VERSION {
        return Err(format!(
            "protocol version mismatch: peer speaks {proto}, this daemon speaks {PROTO_VERSION}"
        ));
    }
    if *schema_version != hxsim::SCHEMA_VERSION {
        return Err(format!(
            "schema version mismatch: peer {schema_version}, daemon {}",
            hxsim::SCHEMA_VERSION
        ));
    }
    if workspace_version != crate::digest::WORKSPACE_VERSION {
        return Err(format!(
            "workspace version mismatch: peer {workspace_version}, daemon {} \
             (results would not be bit-identical)",
            crate::digest::WORKSPACE_VERSION
        ));
    }
    if role != ROLE_CLIENT && role != ROLE_WORKER {
        return Err(format!("unknown role {role:?}"));
    }
    Ok(role.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_layout_is_kind_then_le_length() {
        let bytes = frame_to_bytes(&Frame::Heartbeat);
        assert_eq!(bytes[0], K_HEARTBEAT);
        assert_eq!(&bytes[1..5], &2u32.to_le_bytes());
        assert_eq!(&bytes[5..], b"{}");
    }

    #[test]
    fn row_payload_escaping_round_trips() {
        // A result row is itself JSON: quotes and backslashes must survive
        // the string-field embedding.
        let f = Frame::Row {
            job: 7,
            index: 3,
            row: "{\"kind\":\"steady\",\"note\":\"a\\\\b\\\"c\"}".to_string(),
        };
        let bytes = frame_to_bytes(&f);
        let got = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        assert_eq!(got, f);
    }

    #[test]
    fn handshake_rejects_version_skew() {
        let good = hello(ROLE_WORKER);
        assert_eq!(check_hello(&good).unwrap(), ROLE_WORKER);
        let Frame::Hello {
            role,
            schema_version,
            workspace_version,
            ..
        } = good.clone()
        else {
            unreachable!()
        };
        assert!(check_hello(&Frame::Hello {
            role: role.clone(),
            proto: PROTO_VERSION + 1,
            schema_version,
            workspace_version: workspace_version.clone(),
        })
        .is_err());
        assert!(check_hello(&Frame::Hello {
            role: "observer".to_string(),
            proto: PROTO_VERSION,
            schema_version,
            workspace_version,
        })
        .is_err());
        assert!(check_hello(&Frame::Heartbeat).is_err());
    }

    #[test]
    fn clean_eof_between_frames_is_none() {
        assert!(read_frame(&mut (&[] as &[u8])).unwrap().is_none());
    }
}
