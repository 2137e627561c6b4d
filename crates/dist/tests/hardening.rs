//! Malformed-input hardening for the binary worker protocol: truncated
//! frames, oversized length prefixes, and garbage payloads must never
//! panic the worker — broken framing closes the connection, broken
//! messages get an [`Msg::Error`] reply with the connection intact, and
//! the worker keeps serving fresh connections throughout.

use iam_dist::{read_frame, write_frame, DistError, Msg, WorkerConfig, WorkerHandle, MAX_FRAME};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn spawn_worker() -> WorkerHandle {
    WorkerHandle::spawn("127.0.0.1:0", WorkerConfig::default()).expect("spawn worker")
}

fn connect(worker: &WorkerHandle) -> TcpStream {
    let s = TcpStream::connect(worker.addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

fn recv(stream: &mut TcpStream) -> Result<Option<Msg>, DistError> {
    Ok(read_frame(stream, MAX_FRAME)?.map(|frame| frame.msg))
}

fn rpc(stream: &mut TcpStream, msg: &Msg) -> Result<Option<Msg>, DistError> {
    write_frame(stream, msg, None, &[])?;
    recv(stream)
}

/// Sanity: a well-formed round-trip works, so the failures below are
/// attributable to the malformed input and not the harness.
#[test]
fn well_formed_ping_gets_pong() {
    let worker = spawn_worker();
    let mut s = connect(&worker);
    assert!(matches!(rpc(&mut s, &Msg::Ping), Ok(Some(Msg::Pong))));
    worker.stop();
}

/// An oversized length prefix is rejected against the configured bound:
/// the worker replies with an error naming the limit (best effort) and
/// closes the connection rather than allocating the claimed size.
#[test]
fn oversized_length_prefix_is_rejected_bounded() {
    let worker = spawn_worker();
    let mut s = connect(&worker);

    // claim a frame of u32::MAX bytes; send nothing after the prefix
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    s.flush().unwrap();

    // the worker answers with Msg::Error (mentioning the frame bound) and
    // then closes; EOF before the reply is also acceptable best-effort
    match recv(&mut s) {
        Ok(Some(Msg::Error { message })) => {
            assert!(message.contains("frame"), "unhelpful error: {message}");
            assert!(matches!(recv(&mut s), Ok(None) | Err(_)));
        }
        Ok(None) | Err(_) => {}
        Ok(Some(other)) => panic!("expected error reply, got {other:?}"),
    }

    // the worker survives: a new connection serves normally
    let mut s2 = connect(&worker);
    assert!(matches!(rpc(&mut s2, &Msg::Ping), Ok(Some(Msg::Pong))));
    worker.stop();
}

/// A frame that is cut off mid-payload (peer disconnects) must not panic
/// or wedge the worker.
#[test]
fn truncated_frame_does_not_poison_worker() {
    let worker = spawn_worker();
    {
        let mut s = connect(&worker);
        let frame = {
            let mut buf = Vec::new();
            write_frame(&mut buf, &Msg::Version { table: "twi".into() }, None, &[]).unwrap();
            buf
        };
        // send the length prefix plus half the payload, then vanish
        s.write_all(&frame[..4 + (frame.len() - 4) / 2]).unwrap();
        s.flush().unwrap();
    } // drop → RST/EOF mid-frame on the worker side

    let mut s2 = connect(&worker);
    assert!(matches!(rpc(&mut s2, &Msg::Ping), Ok(Some(Msg::Pong))));
    worker.stop();
}

/// Garbage bytes inside an intact frame: the frame boundary holds, so the
/// worker replies [`Msg::Error`] and the *same* connection keeps working.
#[test]
fn garbage_payload_gets_error_reply_connection_survives() {
    let worker = spawn_worker();
    let mut s = connect(&worker);

    let garbage: &[&[u8]] = &[
        &[0xFF],                      // unknown tag
        &[],                          // empty payload
        &[5, 0xAA, 0xBB],             // EstimateBatch tag with junk body
        &[3, 0xFF, 0xFF, 0xFF, 0xFF], // LoadSnapshot with hostile inner length
    ];
    for payload in garbage {
        s.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        s.write_all(payload).unwrap();
        s.flush().unwrap();
        match recv(&mut s) {
            Ok(Some(Msg::Error { .. })) => {}
            other => panic!("garbage {payload:?} expected Error reply, got {other:?}"),
        }
    }

    // same connection, still alive
    assert!(matches!(rpc(&mut s, &Msg::Ping), Ok(Some(Msg::Pong))));
    worker.stop();
}

/// Well-formed messages that are semantically invalid — unknown table,
/// reply-direction messages, corrupt snapshots — get error replies, never
/// a panic, and never touch serving state.
#[test]
fn semantic_garbage_gets_error_replies() {
    let worker = spawn_worker();
    let mut s = connect(&worker);

    // estimate against a table no snapshot was shipped for
    let reply =
        rpc(&mut s, &Msg::EstimateBatch { table: "nope".into(), queries: Vec::new() }).unwrap();
    assert!(matches!(reply, Some(Msg::Error { .. })), "{reply:?}");

    // reply-direction message as a request
    let reply = rpc(&mut s, &Msg::Pong).unwrap();
    assert!(matches!(reply, Some(Msg::Error { .. })), "{reply:?}");

    // a snapshot whose bytes are not a framed model: rejected before any
    // state changes, so the worker still hosts no tables
    let reply = rpc(
        &mut s,
        &Msg::LoadSnapshot {
            table: "twi".into(),
            label: "bad".into(),
            bytes: b"IAMF not actually a model".to_vec(),
        },
    )
    .unwrap();
    assert!(matches!(reply, Some(Msg::Error { .. })), "{reply:?}");
    assert!(worker.tables().is_empty(), "rejected snapshot must not create a table");

    worker.stop();
}
