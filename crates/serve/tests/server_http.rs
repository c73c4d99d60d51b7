//! TCP-level integration suite for `sevuldet serve`: every test drives a
//! real server over real sockets with a real (tiny) trained model.
//!
//! The acceptance criteria pinned down here:
//! * concurrent POST /scan responses are byte-identical to the library
//!   `score_source` path (which is also what the CLI prints with `--json`);
//! * `/metrics` exposes request counts, latency histograms, batch sizes,
//!   and queue depth in Prometheus text format;
//! * `POST /reload` swaps models without dropping in-flight requests;
//! * a full queue answers 429 instead of blocking;
//! * expired deadlines answer 504;
//! * graceful shutdown drains queued jobs before the workers exit;
//! * every route and error class answers with exact, pinned bytes.
#![cfg(target_os = "linux")]

use sevuldet::{
    error_json, save_detector, score_source, Detector, GadgetSpec, Json, ModelKind, TrainConfig,
};
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

/// Trains the shared tiny detector once per test binary.
fn detector(seed: u64) -> Detector {
    let samples = sard::generate(&SardConfig {
        per_category: 5,
        seed,
        ..SardConfig::default()
    });
    let corpus = GadgetSpec::path_sensitive().extract(&samples);
    let cfg = TrainConfig {
        embed_dim: 10,
        w2v_epochs: 1,
        epochs: 2,
        cnn_channels: 8,
        seed,
        ..TrainConfig::quick()
    };
    Detector::train(&corpus, ModelKind::SevulDet, &cfg)
}

fn model_text(seed: u64) -> &'static str {
    static A: OnceLock<String> = OnceLock::new();
    static B: OnceLock<String> = OnceLock::new();
    let cell = if seed == 42 { &A } else { &B };
    cell.get_or_init(|| save_detector(&mut detector(seed)))
}

/// A fresh model file in a per-test temp directory.
fn write_model(tag: &str, seed: u64) -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "svd-serve-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.svd");
    std::fs::write(&path, model_text(seed)).expect("write model");
    path
}

fn serve(tag: &str, cfg: ServeConfig) -> (ServerHandle, std::path::PathBuf) {
    let path = write_model(tag, 42);
    let registry = ModelRegistry::open(&path).expect("model loads");
    let handle = start(cfg, registry).expect("server binds");
    (handle, path)
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

/// Minimal HTTP/1.1 client: one request, `Connection: close`, full raw
/// response (status line + headers + body).
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

/// [`request_raw`] reduced to the pieces most tests want.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &str,
) -> (u16, String) {
    let raw = request_raw(addr, method, path, body, extra_headers);
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

#[test]
fn concurrent_scans_match_cli_scoring_byte_for_byte() {
    let (handle, _path) = serve(
        "concurrent",
        ServeConfig {
            workers: 2,
            max_batch: 4,
            ..test_config()
        },
    );
    let addr = handle.addr();

    // The reference: the same library call the CLI's `scan --json` makes.
    let det = detector(42);
    let expected_leaky = score_source(&det, LEAKY, 1)
        .expect("scans")
        .to_json("leaky.c")
        .to_string();
    let expected_clean = score_source(&det, CLEAN, 1)
        .expect("scans")
        .to_json("clean.c")
        .to_string();

    let workers: Vec<_> = (0..8)
        .map(|i| {
            let (expected, source, name) = if i % 2 == 0 {
                (expected_leaky.clone(), LEAKY, "leaky.c")
            } else {
                (expected_clean.clone(), CLEAN, "clean.c")
            };
            std::thread::spawn(move || {
                for _ in 0..3 {
                    let (status, body) =
                        request(addr, "POST", "/scan", &scan_body(source, name), "");
                    assert_eq!(status, 200, "body: {body}");
                    assert_eq!(body, expected, "batched serving changed a result");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    // The clean source came back `scanned` with zero findings — the
    // structured "no findings" shape, not an error.
    let parsed = Json::parse(&expected_clean).unwrap();
    assert_eq!(parsed.get("status").unwrap().as_str(), Some("scanned"));
    assert_eq!(parsed.get("gadgets").unwrap().as_f64(), Some(0.0));

    handle.shutdown();
}

#[test]
fn metrics_expose_requests_latency_batches_and_queue() {
    let (handle, _path) = serve("metrics", test_config());
    let addr = handle.addr();
    for _ in 0..3 {
        let (status, _) = request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), "");
        assert_eq!(status, 200);
    }
    let (status, _) = request(addr, "GET", "/healthz", "", "");
    assert_eq!(status, 200);
    let (status, text) = request(addr, "GET", "/metrics", "", "");
    assert_eq!(status, 200);
    for needle in [
        "sevuldet_requests_total{endpoint=\"scan\"} 3",
        "sevuldet_requests_total{endpoint=\"healthz\"} 1",
        "sevuldet_responses_total{code=\"200\"}",
        "sevuldet_scan_latency_seconds_bucket{le=\"+Inf\"} 3",
        "sevuldet_scan_latency_seconds_count 3",
        "sevuldet_batch_size_bucket",
        "sevuldet_batch_size_count",
        "sevuldet_queue_depth 0",
        "sevuldet_model_reloads_total 0",
        "sevuldet_model_version 1",
        "sevuldet_rejected_total{reason=\"queue_full\"} 0",
        // Per-stage duration histograms, fed by the trace observer even
        // though span *recording* stays off in serve.
        "sevuldet_stage_duration_seconds_bucket{stage=\"serve.forward\",le=\"+Inf\"}",
        "sevuldet_stage_duration_seconds_count{stage=\"serve.queue_wait\"}",
        "sevuldet_stage_duration_seconds_count{stage=\"serve.batch_assembly\"}",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    handle.shutdown();
}

#[test]
fn every_response_carries_a_unique_trace_id() {
    let (handle, _path) = serve("traceid", test_config());
    let addr = handle.addr();

    let trace_id = |raw: &str| -> String {
        raw.lines()
            .find_map(|l| l.strip_prefix("X-Trace-Id: "))
            .unwrap_or_else(|| panic!("no X-Trace-Id header in:\n{raw}"))
            .trim()
            .to_string()
    };

    let a = trace_id(&request_raw(
        addr,
        "POST",
        "/scan",
        &scan_body(LEAKY, "x.c"),
        "",
    ));
    let b = trace_id(&request_raw(addr, "GET", "/healthz", "", ""));
    // Even protocol errors are tagged.
    let c = trace_id(&request_raw(addr, "PATCH", "/scan", "", ""));

    for id in [&a, &b, &c] {
        // Shape: `xxxxxxxx-xxxxxx` (process fingerprint + sequence).
        let (fp, seq) = id.split_once('-').expect("fingerprint-seq shape");
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()), "bad id {id}");
        assert!(seq.chars().all(|c| c.is_ascii_hexdigit()), "bad id {id}");
    }
    assert_ne!(a, b);
    assert_ne!(b, c);
    assert_ne!(a, c);

    handle.shutdown();
}

#[test]
fn reload_swaps_model_without_dropping_requests() {
    let (handle, path) = serve("reload", test_config());
    let addr = handle.addr();

    let before = request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), "");
    assert_eq!(before.0, 200);

    // Swap the file for a model trained with a different seed and keep
    // scanning from other threads while the reload happens.
    std::fs::write(&path, model_text(7)).expect("swap model file");
    let in_flight: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let (status, body) =
                        request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), "");
                    assert_eq!(status, 200, "in-flight scan dropped during reload: {body}");
                }
            })
        })
        .collect();
    let (status, body) = request(addr, "POST", "/reload", "", "");
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("reloaded").unwrap().as_bool(), Some(true));
    assert_eq!(doc.get("version").unwrap().as_f64(), Some(2.0));
    for t in in_flight {
        t.join()
            .expect("no in-flight request may fail during reload");
    }

    // Post-reload scans score with the new model.
    let expected_new = score_source(&detector(7), LEAKY, 1)
        .expect("scans")
        .to_json("x.c")
        .to_string();
    let after = request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), "");
    assert_eq!(after.0, 200);
    assert_eq!(after.1, expected_new, "reload did not take effect");
    assert_ne!(after.1, before.1, "seed-7 model should score differently");

    let (_, metrics) = request(addr, "GET", "/metrics", "", "");
    assert!(metrics.contains("sevuldet_model_reloads_total 1"));
    assert!(metrics.contains("sevuldet_model_version 2"));
    handle.shutdown();
}

#[test]
fn full_queue_answers_429_not_blocking() {
    let (handle, _path) = serve(
        "backpressure",
        ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_cap: 1,
            batch_delay: Duration::from_millis(400),
            ..test_config()
        },
    );
    let addr = handle.addr();

    // Establish every connection first, then fire all requests at once.
    // The submissions land within one 400ms batch window, so the single
    // slow worker can absorb at most one job plus the one queue slot — the
    // rest must bounce with 429 immediately rather than block.
    let body = scan_body(CLEAN, "c");
    let req = format!(
        "POST /scan HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut streams: Vec<TcpStream> = (0..8)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            s
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200)); // connections accepted
    for s in &mut streams {
        s.write_all(req.as_bytes()).expect("send");
    }
    let (mut saw_200, mut saw_429) = (0, 0);
    for mut s in streams {
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("read response");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|t| t.parse().ok())
            .unwrap_or_else(|| panic!("no status line in {raw:?}"));
        match status {
            200 => saw_200 += 1,
            429 => {
                assert!(raw.contains("queue full"), "{raw}");
                saw_429 += 1;
            }
            other => panic!("unexpected status {other}: {raw}"),
        }
    }
    assert!(saw_200 > 0, "the accepted request still completes");
    assert!(saw_429 > 0, "a full queue must reject with 429");
    let (_, metrics) = request(addr, "GET", "/metrics", "", "");
    assert!(metrics.contains("sevuldet_rejected_total{reason=\"queue_full\"}"));
    handle.shutdown();
}

#[test]
fn expired_deadline_answers_504() {
    let (handle, _path) = serve(
        "deadline",
        ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_cap: 8,
            batch_delay: Duration::from_millis(300),
            ..test_config()
        },
    );
    let addr = handle.addr();
    // First request is popped immediately (passes its deadline check) and
    // holds the worker for ~300ms; the second's 100ms deadline expires
    // while it waits in the queue.
    let first =
        std::thread::spawn(move || request(addr, "POST", "/scan", &scan_body(CLEAN, "a"), "").0);
    std::thread::sleep(Duration::from_millis(100));
    let (status, body) = request(
        addr,
        "POST",
        "/scan",
        &scan_body(CLEAN, "b"),
        "X-Deadline-Ms: 100\r\n",
    );
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline"), "{body}");
    assert_eq!(first.join().unwrap(), 200);
    let (_, metrics) = request(addr, "GET", "/metrics", "", "");
    assert!(metrics.contains("sevuldet_rejected_total{reason=\"deadline\"} 1"));
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_queued_jobs() {
    let (handle, _path) = serve(
        "drain",
        ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_cap: 8,
            batch_delay: Duration::from_millis(200),
            ..test_config()
        },
    );
    let addr = handle.addr();
    let clients: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), ""))
        })
        .collect();
    // Let the requests reach the queue, then drain.
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();
    for c in clients {
        let (status, body) = c.join().expect("client");
        assert_eq!(status, 200, "queued job dropped during drain: {body}");
    }
}

/// Every route and error class answers with exact, pinned bytes: scan
/// reports match the library path the CLI prints with `--json`, parse
/// failures match `error_json`, and the protocol errors are literals.
#[test]
fn malformed_requests_get_structured_errors() {
    let (handle, _path) = serve("malformed", test_config());
    let addr = handle.addr();
    let det = detector(42);
    let report = |source: &str, name: &str| {
        score_source(&det, source, 1)
            .expect("scans")
            .to_json(name)
            .to_string()
    };
    let bad_source = "int main( {{{ oops";
    let parse_error = error_json(
        "bad.c",
        &score_source(&det, bad_source, 1).expect_err("does not parse"),
    )
    .to_string();

    let cases: Vec<(&str, &str, String, u16, String)> = vec![
        (
            "POST",
            "/scan",
            scan_body(LEAKY, "leaky.c"),
            200,
            report(LEAKY, "leaky.c"),
        ),
        (
            "POST",
            "/scan",
            scan_body(CLEAN, "clean.c"),
            200,
            report(CLEAN, "clean.c"),
        ),
        (
            "POST",
            "/scan",
            scan_body(bad_source, "bad.c"),
            422,
            parse_error,
        ),
        (
            "POST",
            "/scan",
            "{not json".to_string(),
            400,
            r#"{"error":"invalid JSON: expected `\"` at byte 1"}"#.to_string(),
        ),
        (
            "POST",
            "/scan",
            "{\"nosource\": 1}".to_string(),
            400,
            r#"{"error":"missing string field `source`"}"#.to_string(),
        ),
        (
            "GET",
            "/healthz",
            String::new(),
            200,
            r#"{"status":"ok","model_version":1}"#.to_string(),
        ),
        (
            "GET",
            "/nowhere",
            String::new(),
            404,
            r#"{"error":"not found"}"#.to_string(),
        ),
        (
            "GET",
            "/scan",
            String::new(),
            405,
            r#"{"error":"method not allowed"}"#.to_string(),
        ),
        (
            "PUT",
            "/metrics",
            String::new(),
            405,
            r#"{"error":"method not allowed"}"#.to_string(),
        ),
        (
            "POST",
            "/reload",
            String::new(),
            200,
            r#"{"reloaded":true,"version":2}"#.to_string(),
        ),
        // Post-reload: version 2 is live, and the same file scores the same.
        (
            "GET",
            "/healthz",
            String::new(),
            200,
            r#"{"status":"ok","model_version":2}"#.to_string(),
        ),
        (
            "POST",
            "/scan",
            scan_body(LEAKY, "leaky.c"),
            200,
            report(LEAKY, "leaky.c"),
        ),
    ];
    for (method, path, body, want_status, want_body) in &cases {
        let (status, got) = request(addr, method, path, body, "");
        assert_eq!(
            (status, &got),
            (*want_status, want_body),
            "{method} {path} answered unexpected bytes"
        );
    }
    handle.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let (handle, _path) = serve("keepalive", test_config());
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for _ in 0..2 {
        let body = scan_body(CLEAN, "c");
        let req = format!(
            "POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).unwrap();
        // Read headers + exact content length so the connection stays usable.
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).expect("header byte");
            buf.push(byte[0]);
        }
        let head = String::from_utf8_lossy(&buf);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .expect("content length");
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).expect("body");
    }
    handle.shutdown();
}
