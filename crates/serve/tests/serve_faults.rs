//! Fault-injection suite for the serve path: panic isolation inside batch
//! workers, reload rejection of bad candidate models, and health reporting.
//!
//! The invariants pinned down here:
//! * a poison request (one whose forward pass panics) is answered 500 while
//!   every other request in the same batch still gets its report —
//!   byte-identical to solo scoring — and the worker keeps serving;
//! * `POST /reload` rejects a missing, truncated, bit-flipped, or
//!   wrong-architecture candidate with 422 and a typed reason, the old
//!   model keeps serving unchanged, and `/metrics` counts the rejection;
//! * `/healthz` reports readiness, and flips to 503 once draining begins.
//!
//! Poison inputs are simulated with the `worker_forward` failpoint
//! (`panic@NAME` fires only when the batch contains a request with that
//! name), so no real model-crashing input is needed.
#![cfg(target_os = "linux")]

use sevuldet::integrity;
use sevuldet::{
    faults, save_detector, score_source, Detector, GadgetSpec, Json, ModelKind, TrainConfig,
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

fn model_text() -> &'static str {
    static CELL: OnceLock<String> = OnceLock::new();
    CELL.get_or_init(|| save_detector(&mut detector(42)))
}

fn write_model(tag: &str) -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "svd-faults-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.svd");
    std::fs::write(&path, model_text()).expect("write model");
    path
}

fn serve(tag: &str, cfg: ServeConfig) -> (ServerHandle, std::path::PathBuf) {
    let path = write_model(tag);
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

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &str) -> (u16, String) {
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

fn metric_value(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("metric `{name}` missing in:\n{metrics}"))
}

#[test]
fn poison_request_is_isolated_from_its_batch() {
    // One slow worker so a burst of requests coalesces into a single batch.
    let (handle, _path) = serve(
        "poison",
        ServeConfig {
            workers: 1,
            max_batch: 8,
            queue_cap: 16,
            batch_delay: Duration::from_millis(300),
            ..test_config()
        },
    );
    let addr = handle.addr();

    // The failpoint panics the forward pass of any batch whose request
    // names include the poison marker — the bisection then corners it.
    faults::arm("worker_forward=panic@POISON-REQUEST");

    let reference = score_source(&detector(42), LEAKY, 1).expect("scans");

    // Occupy the worker with a throwaway request, then fire the poison and
    // three clean requests while it sleeps: all four land in one batch.
    let warmup =
        std::thread::spawn(move || request(addr, "POST", "/scan", &scan_body(LEAKY, "warmup")));
    std::thread::sleep(Duration::from_millis(100));
    let burst: Vec<_> = (0..4)
        .map(|i| {
            let name = if i == 0 {
                "POISON-REQUEST".to_string()
            } else {
                format!("clean-{i}")
            };
            std::thread::spawn(move || {
                let body = Json::obj(vec![
                    ("source", Json::str(LEAKY)),
                    ("name", Json::str(&name)),
                ])
                .to_string();
                (name, request(addr, "POST", "/scan", &body))
            })
        })
        .collect();
    assert_eq!(warmup.join().unwrap().0, 200);
    let mut poison_status = 0;
    for t in burst {
        let (name, (status, body)) = t.join().expect("client thread");
        if name == "POISON-REQUEST" {
            poison_status = status;
            assert!(body.contains("isolated"), "{body}");
        } else {
            assert_eq!(status, 200, "clean batch-mate failed: {body}");
            assert_eq!(
                body,
                reference.to_json(&name).to_string(),
                "batch-mate result differs from solo scoring"
            );
        }
    }
    assert_eq!(poison_status, 500, "poison request must be answered 500");

    // The worker survived the panic and keeps serving.
    faults::disarm("worker_forward");
    let (status, body) = request(addr, "POST", "/scan", &scan_body(LEAKY, "after"));
    assert_eq!(status, 200, "{body}");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let panics = metric_value(&metrics, "sevuldet_worker_panics_total");
    // Bisecting the poison out of a multi-request batch catches more than
    // one panic (full batch, then halves); >= 2 proves isolation actually
    // split a batch rather than the poison arriving alone.
    assert!(panics >= 2.0, "expected bisection panics, saw {panics}");
    handle.shutdown();
}

#[test]
fn reload_rejects_bad_candidates_and_keeps_serving() {
    let (handle, path) = serve("badreload", test_config());
    let addr = handle.addr();
    let baseline = request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"));
    assert_eq!(baseline.0, 200);
    let good = model_text().to_string();
    let mut rejections = 0.0;

    // Missing file: I/O error.
    std::fs::remove_file(&path).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("reading model file"), "{body}");
    rejections += 1.0;

    // Truncated file: the footer is gone.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("footer missing"), "{body}");
    rejections += 1.0;

    // Bit flip mid-payload: the checksum catches it.
    let mut bytes = good.clone().into_bytes();
    let i = bytes.len() / 2;
    bytes[i] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("checksum mismatch"), "{body}");
    rejections += 1.0;

    // Wrong-architecture parameters: rewrite the config line to claim a
    // different embedding width, then re-seal so the CRC passes and the
    // structural shape check is what fires.
    let payload = integrity::unseal(&good).expect("sealed model");
    let tampered: String = payload
        .lines()
        .map(|l| {
            if let Some(rest) = l.strip_prefix("config ") {
                let mut fields: Vec<String> = rest.split_whitespace().map(String::from).collect();
                fields[0] = "999".to_string(); // embed_dim the params cannot fit
                format!("config {}\n", fields.join(" "))
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(&path, integrity::seal(tampered)).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(
        status, 422,
        "wrong-architecture candidate must be rejected: {body}"
    );
    rejections += 1.0;

    // Through all four failures the old model kept serving, byte-identical.
    let after = request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"));
    assert_eq!((after.0, &after.1), (200, &baseline.1));
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(
        metric_value(&metrics, "sevuldet_reload_failures_total"),
        rejections
    );
    assert_eq!(metric_value(&metrics, "sevuldet_model_version"), 1.0);
    assert_eq!(metric_value(&metrics, "sevuldet_model_reloads_total"), 0.0);

    // Restoring a good file reloads cleanly: rejection is not sticky.
    std::fs::write(&path, &good).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("version").unwrap().as_f64(), Some(2.0));
    handle.shutdown();
}

#[test]
fn healthz_reports_readiness_and_flips_to_draining() {
    let (handle, _path) = serve("healthz", test_config());
    let addr = handle.addr();
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("healthz is JSON");
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(doc.get("model_version").unwrap().as_f64(), Some(1.0));

    // A keep-alive connection opened before shutdown observes the draining
    // state: the accept loop is closed but existing connections still get
    // routed, and /healthz answers 503 so load balancers stop sending work.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // First request (and its framed response) proves the connection has a
    // handler thread attached before the accept loop is told to stop.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .expect("send pre-shutdown request");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("header byte");
        head.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&head);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content length");
    let mut first_body = vec![0u8; len];
    stream.read_exact(&mut first_body).expect("first body");
    handle.shutdown();
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
        )
        .expect("send on pre-shutdown connection");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (status, body) = parse_response(&raw);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("draining"), "{body}");
}
