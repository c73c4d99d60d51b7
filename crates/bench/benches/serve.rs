//! End-to-end throughput of `sevuldet serve`: a burst of concurrent
//! `POST /scan` requests against a live server, over fresh connections (one
//! TCP handshake per request — the worst case) and over keep-alive
//! connections (the fleet-realistic case the event loop is built for). Each
//! iteration fires 16 clients; fresh-connection clients send one request
//! each, keep-alive clients send four on one connection. ms/iter divided
//! into the request count gives requests/second. Serving is Linux-only
//! (epoll), so elsewhere this bench is empty.

#[cfg(target_os = "linux")]
criterion::criterion_main!(linux::benches);

#[cfg(not(target_os = "linux"))]
fn main() {}

#[cfg(target_os = "linux")]
mod linux {
    use criterion::{criterion_group, Criterion};
    use sevuldet::{save_detector, Detector, GadgetSpec, Json, ModelKind, TrainConfig};
    use sevuldet_dataset::{sard, SardConfig};
    use sevuldet_serve::registry::ModelRegistry;
    use sevuldet_serve::server::{start, ServeConfig, ServerHandle};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::path::{Path, PathBuf};

    const BURST: usize = 16;
    const KEEPALIVE_REQS: usize = 4;

    const SOURCE: &str = r#"void process(char *dest, char *data) {
        int n = atoi(data);
        if (n < 16) {
            puts("small");
        }
        strncpy(dest, data, n);
    }"#;

    /// Trains a tiny detector and persists it for the server to load.
    fn model_path() -> PathBuf {
        let samples = sard::generate(&SardConfig {
            per_category: 5,
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
        let mut det = Detector::train(&corpus, ModelKind::SevulDet, &cfg);
        let dir = std::env::temp_dir().join(format!("svd-bench-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("model.svd");
        std::fs::write(&path, save_detector(&mut det)).expect("write model");
        path
    }

    fn spawn_server(path: &Path) -> ServerHandle {
        let registry = ModelRegistry::open(path).expect("model loads");
        start(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                max_batch: 16,
                queue_cap: 64,
                ..ServeConfig::default()
            },
            registry,
        )
        .expect("server binds")
    }

    /// One request over a fresh connection; panics on anything but 200.
    fn scan_once(addr: SocketAddr, body: &str) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = format!(
            "POST /scan HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    }

    /// `n` sequential requests on one keep-alive connection; panics on anything
    /// but 200s.
    fn scan_keepalive(addr: SocketAddr, body: &str, n: usize) {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let req = format!(
            "POST /scan HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        for _ in 0..n {
            writer.write_all(req.as_bytes()).expect("send");
            let mut status = String::new();
            reader.read_line(&mut status).expect("status line");
            assert!(status.starts_with("HTTP/1.1 200"), "{status}");
            let mut len = 0usize;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).expect("header line");
                if line.trim_end().is_empty() {
                    break;
                }
                if let Some(v) = line.trim_end().strip_prefix("Content-Length: ") {
                    len = v.parse().expect("content length");
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).expect("body");
        }
    }

    /// Runs `client` on [`BURST`] concurrent threads and waits for all of them.
    fn burst(client: impl Fn() + Clone + Send + 'static) {
        let clients: Vec<_> = (0..BURST)
            .map(|_| std::thread::spawn(client.clone()))
            .collect();
        for t in clients {
            t.join().expect("client thread");
        }
    }

    fn bench_serve(c: &mut Criterion) {
        let path = model_path();
        let body = Json::obj(vec![
            ("source", Json::str(SOURCE)),
            ("name", Json::str("bench.c")),
        ])
        .to_string();
        let handle = spawn_server(&path);
        let addr = handle.addr();

        // Fresh connection per request: pays a TCP handshake every time.
        c.bench_function("serve_burst16_fresh", |b| {
            let body = body.clone();
            b.iter(|| {
                let body = body.clone();
                burst(move || scan_once(addr, &body))
            })
        });

        // Keep-alive: one connection, several requests — the fleet-realistic
        // shape (and 4x the requests per iteration).
        c.bench_function("serve_burst16_keepalive4", |b| {
            b.iter(|| {
                let body = body.clone();
                burst(move || scan_keepalive(addr, &body, KEEPALIVE_REQS))
            })
        });
        handle.shutdown();
    }

    criterion_group!(
        name = benches;
        config = Criterion::default().sample_size(10);
        targets = bench_serve
    );
}
