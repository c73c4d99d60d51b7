//! Open-loop HTTP client for `POST /scan`.
//!
//! Request `k` falls due at `start + k / rate`. Each keep-alive connection
//! has a writer that sends every request when it falls due, without waiting
//! for earlier answers (so it pipelines whenever one is still in flight),
//! and a reader that takes the answers in order. Latency runs from the scheduled send, so a stall
//! charges every request queued behind it; lag is how late the writer
//! actually sent.
//!
//! Every `200` body is compared with the CLI's JSON object for the same
//! file; a mismatch counts as a failed request.

use sevuldet::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One request on the wire and the body the server must answer with.
pub struct Request {
    pub wire: Vec<u8>,
    pub expect: String,
}

/// Builds the request list from the CLI's `scan --json` output: one request
/// per scanned file, named as the CLI named it.
pub fn requests(cli_json: &str) -> Result<Vec<Request>, String> {
    let doc = Json::parse(cli_json.trim()).map_err(|e| format!("CLI output: {e}"))?;
    let files = doc.as_array().ok_or("CLI output is not an array")?;
    files
        .iter()
        .map(|f| {
            let name = f
                .get("name")
                .and_then(Json::as_str)
                .ok_or("file without name")?;
            let source = std::fs::read_to_string(name).map_err(|e| format!("{name}: {e}"))?;
            let body = Json::obj(vec![
                ("source", Json::str(source)),
                ("name", Json::str(name)),
            ])
            .to_string();
            let mut wire = format!(
                "POST /scan HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            wire.extend_from_slice(body.as_bytes());
            Ok(Request {
                wire,
                expect: f.to_string(),
            })
        })
        .collect()
}

/// What one open-loop phase measured.
pub struct Outcome {
    /// Latencies (ms) of requests answered `200` with the expected body.
    pub latencies: Vec<f64>,
    /// How late each request was sent (ms).
    pub lags: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Requests answered `200` with a body other than the CLI's.
    pub mismatched: usize,
    pub statuses: HashMap<u16, usize>,
}

/// Sends `rate` requests per second for `seconds` over `conns` connections;
/// request `k` goes out on connection `k % conns` and carries
/// `reqs[k % reqs.len()]`.
pub fn run(
    addr: &str,
    reqs: &Arc<Vec<Request>>,
    rate: f64,
    seconds: f64,
    conns: usize,
) -> Result<Outcome, String> {
    let total = (rate * seconds).round().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    // Connect everything before the clock starts.
    let mut streams = Vec::with_capacity(conns);
    for _ in 0..conns {
        let s = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        streams.push(s);
    }
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<Vec<Answer>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                // This connection's share of the schedule: (due, request).
                let due: Vec<(Instant, usize)> = (c..total)
                    .step_by(conns)
                    .map(|k| (start + interval * k as u32, k % reqs.len()))
                    .collect();
                let reqs = Arc::clone(reqs);
                scope.spawn(move || connection(stream, due, &reqs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut out = Outcome {
        latencies: Vec::with_capacity(total),
        lags: Vec::with_capacity(total),
        attempted: total,
        failed: 0,
        mismatched: 0,
        statuses: HashMap::new(),
    };
    let answered: usize = results.iter().map(Vec::len).sum();
    out.failed += total - answered;
    for a in results.into_iter().flatten() {
        out.lags.push(a.lag_ms);
        *out.statuses.entry(a.status).or_default() += 1;
        if a.status != 200 {
            out.failed += 1;
        } else if !a.body_ok {
            out.mismatched += 1;
            out.failed += 1;
        } else {
            out.latencies.push(a.latency_ms);
        }
    }
    Ok(out)
}

struct Answer {
    status: u16,
    body_ok: bool,
    latency_ms: f64,
    lag_ms: f64,
}

/// One keep-alive connection sending each `(due, request)` when it falls
/// due: a writer on this thread's child, the reader here. Returns the
/// answers read, in request order.
fn connection(stream: TcpStream, schedule: Vec<(Instant, usize)>, reqs: &[Request]) -> Vec<Answer> {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return Vec::new(),
    };
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant)>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (due, r) in schedule {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                if writer.write_all(&reqs[r].wire).is_err() {
                    break;
                }
                if tx.send((r, due, sent)).is_err() {
                    break;
                }
            }
        });
        let mut reader = BufReader::new(stream);
        let mut answers = Vec::new();
        for (r, due, sent) in rx {
            let Some((status, body)) = read_response(&mut reader) else {
                break;
            };
            let done = Instant::now();
            let req = &reqs[r];
            answers.push(Answer {
                status,
                body_ok: body.trim_end() == req.expect,
                latency_ms: (done - due).as_secs_f64() * 1e3,
                lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
            });
        }
        answers
    })
}

/// Reads one HTTP/1.1 response with a `Content-Length` body.
fn read_response(r: &mut impl BufRead) -> Option<(u16, String)> {
    let mut line = String::new();
    if r.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let status: u16 = line.split_whitespace().nth(1)?.parse().ok()?;
    let mut len = 0usize;
    loop {
        line.clear();
        if r.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((k, v)) = l.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).ok()?;
    String::from_utf8(body).ok().map(|b| (status, b))
}

/// Percentile by nearest rank over unsorted values (`q` in 0..=1).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
