//! Property tests for the distributed-sweep wire protocol.
//!
//! The codec is hand-rolled (vendored serde is serialize-only), so these
//! pin the three robustness rules `proto.rs` documents:
//!
//! 1. every frame type round-trips through encode → bytes → decode,
//!    including strings full of JSON metacharacters;
//! 2. truncation at *any* byte offset inside a frame is a hard
//!    `Truncated` error, and an oversized declared length is rejected
//!    before any payload allocation;
//! 3. unknown frame kinds are skipped (with their payload consumed, so
//!    the stream stays in sync) and the next known frame is returned —
//!    forward compatibility with newer peers.

use hxharness::proto::{
    frame_to_bytes, read_frame, Frame, ProtoError, MAX_FRAME_BYTES, ROLE_WORKER,
};
use proptest::prelude::*;

/// Characters that stress the JSON string escaper: quotes, backslashes,
/// control characters, braces, and multi-byte UTF-8.
fn tricky_string() -> impl Strategy<Value = String> {
    let chars = vec![
        'a', 'Z', '7', '"', '\\', '\n', '\t', '\r', '{', '}', ':', ',', '[', ']', ' ', 'é', '∑',
        '🦀', '\u{1}',
    ];
    prop::collection::vec(prop::sample::select(chars), 0..=16)
        .prop_map(|cs| cs.into_iter().collect())
}

/// JSON integers travel through `Value::Int` (i64), so wire values are
/// confined to the non-negative i64 domain — far above any real counter.
fn wire_u64() -> impl Strategy<Value = u64> {
    0u64..=(i64::MAX as u64)
}

/// Deterministically builds one of the 14 frame types from drawn parts.
fn build_frame(which: usize, n: (u64, u64, u64, u64, u64), s: (String, String), b: bool) -> Frame {
    let (n0, n1, n2, n3, n4) = n;
    let (s0, s1) = s;
    match which {
        0 => Frame::Hello {
            role: s0,
            proto: n0 as u32,
            schema_version: n1 as u32,
            workspace_version: s1,
        },
        1 => Frame::HelloAck {
            worker_id: n0,
            lease_ms: n1,
            heartbeat_ms: n2,
        },
        2 => Frame::Error { message: s0 },
        3 => Frame::Submit {
            format: s0,
            force: b,
            spec: s1,
        },
        4 => Frame::Accepted {
            job: n0,
            total: n1,
            cached: n2,
        },
        5 => Frame::Row {
            job: n0,
            index: n1,
            row: s0,
        },
        6 => Frame::Done {
            job: n0,
            total: n1,
            cached: n2,
            executed: n3,
            failed: n4,
        },
        7 => Frame::WorkRequest,
        8 => Frame::Spec {
            job: n0,
            format: s0,
            spec: s1,
        },
        9 => Frame::Assign {
            job: n0,
            index: n1,
            lease: n2,
            digest: s0,
        },
        10 => Frame::NoWork { backoff_ms: n0 },
        11 => Frame::RowResult {
            job: n0,
            index: n1,
            lease: n2,
            elapsed_ms: n3,
            row: s0,
        },
        12 => Frame::FailResult {
            job: n0,
            index: n1,
            lease: n2,
            error: s0,
        },
        _ => Frame::Heartbeat,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_frame_type_round_trips(
        which in 0usize..14,
        nums in (wire_u64(), wire_u64(), wire_u64(), wire_u64(), wire_u64()),
        texts in (tricky_string(), tricky_string()),
        flag in any::<bool>(),
    ) {
        let frame = build_frame(which, nums, texts, flag);
        let bytes = frame_to_bytes(&frame);
        let mut cursor = bytes.as_slice();
        let got = match read_frame(&mut cursor) {
            Ok(Some(f)) => f,
            other => return Err(TestCaseError::Fail(format!("decode failed: {other:?}"))),
        };
        prop_assert_eq!(&got, &frame, "round trip changed the frame");
        prop_assert!(cursor.is_empty(), "decoder left {} bytes unread", cursor.len());
    }

    /// Cutting an encoded frame at ANY interior byte — inside the 5-byte
    /// header or inside the payload — must surface as `Truncated`, never
    /// as a silent partial frame or a clean EOF.
    #[test]
    fn truncation_at_every_offset_is_rejected(
        which in 0usize..14,
        nums in (wire_u64(), wire_u64(), wire_u64(), wire_u64(), wire_u64()),
        texts in (tricky_string(), tricky_string()),
        flag in any::<bool>(),
        cut_seed in any::<u64>(),
    ) {
        let bytes = frame_to_bytes(&build_frame(which, nums, texts, flag));
        // Every frame has the 5-byte header plus at least `{}`.
        prop_assert!(bytes.len() >= 7);
        let cut = 1 + (cut_seed as usize) % (bytes.len() - 1); // 1..len
        let result = read_frame(&mut &bytes[..cut]);
        prop_assert!(
            matches!(result, Err(ProtoError::Truncated { .. })),
            "cut at {cut}/{} gave {result:?}", bytes.len()
        );
    }

    /// A length prefix above MAX_FRAME_BYTES is rejected from the header
    /// alone — the 5 bytes here are the whole input, so the rejection
    /// provably happens before any payload read or allocation.
    #[test]
    fn oversized_length_prefix_is_rejected_from_header(
        kind in any::<u8>(),
        extra in 1u64..=(u32::MAX as u64 - MAX_FRAME_BYTES as u64),
    ) {
        let len = (MAX_FRAME_BYTES as u64 + extra) as u32;
        let mut bytes = vec![kind];
        bytes.extend_from_slice(&len.to_le_bytes());
        let result = read_frame(&mut bytes.as_slice());
        prop_assert!(
            matches!(result, Err(ProtoError::Oversized { .. })),
            "kind {kind:#04x} len {len} gave {result:?}"
        );
    }

    /// A frame kind this build does not know is skipped — payload and all
    /// — and the *next* frame is decoded normally. An unknown kind must
    /// not kill the connection: that is what lets an old daemon keep
    /// interoperating with a newer worker.
    #[test]
    fn unknown_kinds_are_skipped_not_fatal(
        unknown_kind in prop::sample::select(vec![0x00u8, 0x0f, 0x2f, 0x40, 0x7f, 0xee, 0xff]),
        junk in tricky_string(),
        lease in wire_u64(),
    ) {
        let follow = Frame::Assign {
            job: 1,
            index: 2,
            lease,
            digest: "00000000deadbeef".to_string(),
        };
        let mut bytes = vec![unknown_kind];
        bytes.extend_from_slice(&(junk.len() as u32).to_le_bytes());
        bytes.extend_from_slice(junk.as_bytes());
        bytes.extend_from_slice(&frame_to_bytes(&follow));
        let mut cursor = bytes.as_slice();
        let got = match read_frame(&mut cursor) {
            Ok(Some(f)) => f,
            other => return Err(TestCaseError::Fail(format!(
                "reader died on unknown kind {unknown_kind:#04x}: {other:?}"
            ))),
        };
        prop_assert_eq!(got, follow);
        prop_assert!(cursor.is_empty());
    }
}

/// A known kind whose payload parses but lacks a required field is
/// `Malformed` — not a panic, not a default-filled frame.
#[test]
fn missing_fields_are_malformed() {
    // Frame::Row requires job/index/row; send an empty object under the
    // same kind tag by splicing the payload of a real Row frame away.
    let bytes = frame_to_bytes(&Frame::Row {
        job: 1,
        index: 0,
        row: "x".to_string(),
    });
    let kind = bytes[0];
    let mut forged = vec![kind];
    forged.extend_from_slice(&2u32.to_le_bytes());
    forged.extend_from_slice(b"{}");
    match read_frame(&mut forged.as_slice()) {
        Err(ProtoError::Malformed(m)) => assert!(m.contains("job"), "message: {m}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// Non-UTF-8 payload bytes are malformed, known kind or not.
#[test]
fn non_utf8_payload_is_malformed() {
    let mut bytes = frame_to_bytes(&hxharness::proto::hello(ROLE_WORKER));
    let len = bytes.len();
    bytes[len - 1] = 0xFF;
    bytes[len - 2] = 0xFE;
    match read_frame(&mut bytes.as_slice()) {
        Err(ProtoError::Malformed(m)) => assert!(m.contains("UTF-8"), "message: {m}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// The handshake compares `proto` and `schema_version` for equality, so a
/// value that does not fit the field must be rejected, not wrapped:
/// `4294967297` (2^32 + 1) used to narrow to 1 and pass as version 1.
#[test]
fn out_of_range_hello_versions_are_malformed() {
    let hello_with = |proto: u64, schema: u64| {
        let payload = format!(
            "{{\"role\":\"worker\",\"proto\":{proto},\"schema_version\":{schema},\
             \"workspace_version\":\"x\"}}"
        );
        let kind = frame_to_bytes(&hxharness::proto::hello(ROLE_WORKER))[0];
        let mut bytes = vec![kind];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(payload.as_bytes());
        read_frame(&mut bytes.as_slice())
    };
    let wrapped = (1u64 << 32) + 1;
    for (proto, schema) in [(wrapped, 1), (1, wrapped), (u32::MAX as u64 + 1, 1)] {
        match hello_with(proto, schema) {
            Err(ProtoError::Malformed(m)) => assert!(m.contains("out of range"), "message: {m}"),
            other => panic!("proto {proto} schema {schema}: expected Malformed, got {other:?}"),
        }
    }
    // The largest value that fits still decodes (and fails the handshake
    // on its merits).
    match hello_with(u32::MAX as u64, 1) {
        Ok(Some(Frame::Hello { proto, .. })) => assert_eq!(proto, u32::MAX),
        other => panic!("expected Hello, got {other:?}"),
    }
}

/// The payload is parsed before the handshake can vet the peer, so its
/// nesting is bounded like its length: 1 MiB of `[` under the `Hello` tag
/// used to recurse once per byte and abort the process with a stack
/// overflow. It must be `Malformed`, on a thread no deeper than the
/// daemon's connection threads.
#[test]
fn deeply_nested_payload_is_malformed_not_a_stack_overflow() {
    let mut bytes = vec![frame_to_bytes(&hxharness::proto::hello(ROLE_WORKER))[0]];
    bytes.extend_from_slice(&(1u32 << 20).to_le_bytes());
    bytes.resize(5 + (1 << 20), b'[');
    let result = std::thread::spawn(move || read_frame(&mut bytes.as_slice()))
        .join()
        .expect("the reader thread survives");
    match result {
        Err(ProtoError::Malformed(m)) => assert!(m.contains("nested deeper"), "message: {m}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}
