//! Event-loop-specific integration suite: slow-client hardening
//! (408/431/413), pipelined keep-alive requests, an EAGAIN torture run
//! over artificially tiny kernel socket buffers, connection accounting,
//! over-capacity shedding, and a thousand idle connections held open at
//! once.
//!
//! Everything here runs the same tiny trained model over real TCP sockets.
#![cfg(target_os = "linux")]

use sevuldet::{save_detector, score_source, Detector, GadgetSpec, Json, ModelKind, TrainConfig};
use sevuldet_dataset::{sard, SardConfig};
use sevuldet_serve::registry::ModelRegistry;
use sevuldet_serve::server::{start, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

const LEAKY: &str = r#"void process(char *dest, char *data) {
    int n = atoi(data);
    if (n < 16) {
        puts("small");
    }
    strncpy(dest, data, n);
}"#;

const CLEAN: &str = "int three() { return 3; }";

fn detector() -> Detector {
    let samples = sard::generate(&SardConfig {
        per_category: 5,
        seed: 42,
        ..SardConfig::default()
    });
    let corpus = GadgetSpec::path_sensitive().extract(&samples);
    let cfg = TrainConfig {
        embed_dim: 10,
        w2v_epochs: 1,
        epochs: 2,
        cnn_channels: 8,
        seed: 42,
        ..TrainConfig::quick()
    };
    Detector::train(&corpus, ModelKind::SevulDet, &cfg)
}

fn model_text() -> &'static str {
    static M: OnceLock<String> = OnceLock::new();
    M.get_or_init(|| save_detector(&mut detector()))
}

fn write_model(tag: &str) -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "svd-evloop-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.svd");
    std::fs::write(&path, model_text()).expect("write model");
    path
}

fn serve(tag: &str, cfg: ServeConfig) -> ServerHandle {
    let path = write_model(tag);
    let registry = ModelRegistry::open(&path).expect("model loads");
    start(cfg, registry).expect("server binds")
}

fn eventloop_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

/// One request over a fresh `Connection: close` socket → full raw response.
fn request_raw(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &str,
) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &str,
) -> (u16, String) {
    let raw = request_raw(addr, method, path, body, extra_headers);
    split_response(&raw)
}

fn split_response(raw: &str) -> (u16, String) {
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn scan_body(source: &str, name: &str) -> String {
    Json::obj(vec![
        ("source", Json::str(source)),
        ("name", Json::str(name)),
    ])
    .to_string()
}

/// Reads exactly one keep-alive response (headers + `Content-Length` body)
/// from `stream`, returning `(status, body)`.
fn read_one_response(stream: &mut TcpStream) -> (u16, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("header byte");
        head.push(byte[0]);
        assert!(head.len() < 64 * 1024, "runaway response head");
    }
    let head = String::from_utf8_lossy(&head).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {head:?}"));
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content length");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

/// A client that sends half a request head and stalls gets `408` once the
/// header deadline lapses — the slowloris defence.
#[test]
fn slowloris_partial_head_answers_408() {
    let handle = serve(
        "slowloris",
        ServeConfig {
            header_deadline: Duration::from_millis(300),
            ..eventloop_config()
        },
    );
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"POST /scan HTT").expect("partial head");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (status, body) = split_response(&raw);
    assert_eq!(status, 408, "{raw}");
    assert!(body.contains("timeout reading request head"), "{body}");

    let (_, metrics) = request(addr, "GET", "/metrics", "", "");
    assert!(
        metrics.contains("sevuldet_connections_closed_total{reason=\"header_timeout\"} 1"),
        "{metrics}"
    );
    handle.shutdown();
}

/// A request head larger than the cap answers `431` without waiting for
/// its end.
#[test]
fn oversized_head_answers_431() {
    let handle = serve("bighead", eventloop_config());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nX-Padding: {}\r\n",
        "a".repeat(20 * 1024)
    );
    // The server may answer (and reset) before the whole head is written;
    // a send error is acceptable, the response must still be readable.
    let _ = stream.write_all(huge.as_bytes());
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    let (status, _) = split_response(&raw);
    assert_eq!(status, 431, "{raw}");
    handle.shutdown();
}

/// A declared body beyond the cap answers `413` before the upload finishes.
#[test]
fn oversized_body_answers_413() {
    let handle = serve("bigbody", eventloop_config());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let req = format!(
        "POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        8 * 1024 * 1024
    );
    stream.write_all(req.as_bytes()).expect("send head");
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    let (status, _) = split_response(&raw);
    assert_eq!(status, 413, "{raw}");
    handle.shutdown();
}

/// Several requests written back-to-back in a single TCP segment are
/// answered in order on the same connection — the pipelining regression
/// test for the event loop's buffer management.
#[test]
fn pipelined_requests_answer_in_order() {
    let handle = serve("pipeline", eventloop_config());
    let det = detector();
    let expected_a = score_source(&det, LEAKY, 1)
        .expect("scans")
        .to_json("a.c")
        .to_string();
    let expected_b = score_source(&det, CLEAN, 1)
        .expect("scans")
        .to_json("b.c")
        .to_string();

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut burst = Vec::new();
    for (source, name) in [(LEAKY, "a.c"), (CLEAN, "b.c")] {
        let body = scan_body(source, name);
        burst.extend_from_slice(
            format!(
                "POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    stream.write_all(&burst).expect("pipelined burst");

    let (s1, b1) = read_one_response(&mut stream);
    let (s2, b2) = read_one_response(&mut stream);
    let (s3, b3) = read_one_response(&mut stream);
    assert_eq!((s1, &b1), (200, &expected_a), "first pipelined response");
    assert_eq!((s2, &b2), (200, &expected_b), "second pipelined response");
    assert_eq!(s3, 200, "{b3}");
    assert!(b3.contains("\"status\":\"ok\""), "{b3}");
    handle.shutdown();
}

/// `Connection: close` is honoured mid-pipeline: the socket closes after
/// the first response even with a second request already buffered.
#[test]
fn connection_close_is_honoured() {
    let handle = serve("connclose", eventloop_config());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n\
              GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read to close");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert_eq!(
        raw.matches("HTTP/1.1").count(),
        1,
        "server answered past Connection: close:\n{raw}"
    );
    handle.shutdown();
}

/// EAGAIN torture: kernel socket buffers shrunk to ~1KiB force the loop
/// through partial reads on large uploads and partial writes (EPOLLOUT
/// resumption) on large responses. The `name` field round-trips into the
/// report, making the response itself large.
#[test]
fn eagain_torture_with_tiny_socket_buffers() {
    let handle = serve(
        "eagain",
        ServeConfig {
            sock_buf_bytes: Some(1024),
            ..eventloop_config()
        },
    );
    let big_name = "n".repeat(64 * 1024);
    let body = scan_body(CLEAN, &big_name);
    let req = format!(
        "POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    for round in 0..3 {
        // Dribble the upload in small chunks so the server keeps hitting
        // EAGAIN between reads.
        for chunk in req.as_bytes().chunks(1500) {
            stream.write_all(chunk).expect("chunk");
            std::thread::sleep(Duration::from_micros(200));
        }
        let (status, resp) = read_one_response(&mut stream);
        assert_eq!(status, 200, "round {round}: {resp}");
        assert!(
            resp.contains(&big_name),
            "round {round}: large response truncated ({} bytes)",
            resp.len()
        );
    }
    handle.shutdown();
}

/// Accepts beyond `max_connections` are shed at accept time and counted;
/// established connections keep working.
#[test]
fn over_capacity_accepts_are_shed_and_counted() {
    let handle = serve(
        "overcap",
        ServeConfig {
            max_connections: 2,
            ..eventloop_config()
        },
    );
    let addr = handle.addr();
    let streams: Vec<TcpStream> = (0..5)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200)); // loop accepted/shed all

    let mut ok = 0;
    let mut shed = 0;
    for mut s in streams {
        let sent = s
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .is_ok();
        let mut raw = String::new();
        match s.read_to_string(&mut raw) {
            Ok(_) if raw.starts_with("HTTP/1.1 200") => ok += 1,
            _ if !sent || raw.is_empty() => shed += 1,
            _ => shed += 1,
        }
    }
    assert!(ok >= 1, "held connections must keep working");
    assert!(shed >= 1, "excess connections must be shed");

    // The held slots are free again, so a fresh metrics request succeeds
    // (retry while the loop notices the closures).
    let metrics = (0..50)
        .find_map(|_| {
            std::thread::sleep(Duration::from_millis(50));
            let mut s = TcpStream::connect(addr).ok()?;
            s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
            s.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                .ok()?;
            let mut raw = String::new();
            s.read_to_string(&mut raw).ok()?;
            raw.starts_with("HTTP/1.1 200").then_some(raw)
        })
        .expect("metrics after slots freed");
    let count: u64 = metrics
        .lines()
        .find_map(|l| {
            l.strip_prefix("sevuldet_connections_closed_total{reason=\"over_capacity\"} ")
        })
        .and_then(|v| v.trim().parse().ok())
        .expect("over_capacity series");
    assert!(count >= 1, "shed connections must be counted:\n{metrics}");
    handle.shutdown();
}

/// A thousand idle keep-alive connections held open at once: the server
/// stays live, the gauge reflects them, and every one still answers.
#[test]
fn a_thousand_idle_connections_stay_serviceable() {
    let handle = serve("idle1k", eventloop_config());
    let addr = handle.addr();
    const N: usize = 1000;
    let mut conns: Vec<TcpStream> = Vec::with_capacity(N);
    for i in 0..N {
        let s = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect #{i}: {e}"));
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        conns.push(s);
        if i % 128 == 0 {
            std::thread::sleep(Duration::from_millis(2)); // pace the storm
        }
    }
    // Give the loop a beat to drain the accept queue, then confirm the
    // gauge sees them (the +1 is our metrics connection itself).
    let open = (0..100)
        .find_map(|_| {
            std::thread::sleep(Duration::from_millis(50));
            let (status, text) = request(addr, "GET", "/metrics", "", "");
            assert_eq!(status, 200);
            let open: i64 = text
                .lines()
                .find_map(|l| l.strip_prefix("sevuldet_open_connections "))
                .and_then(|v| v.trim().parse().ok())?;
            (open >= N as i64).then_some(open)
        })
        .expect("gauge never reached 1000 open connections");
    assert!(open >= N as i64);

    // Every held connection is still serviceable — exercise a sample.
    let body = scan_body(CLEAN, "idle.c");
    let req = format!(
        "POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    for i in (0..N).step_by(100) {
        conns[i]
            .write_all(req.as_bytes())
            .expect("send on idle conn");
        let (status, resp) = read_one_response(&mut conns[i]);
        assert_eq!(status, 200, "idle conn #{i}: {resp}");
    }
    drop(conns);
    handle.shutdown();
}
