//! Helper binary of the benchmark (`perfbench/run.py` drives it):
//!
//! ```text
//! sevuldet-perfbench gen <sard|tree> --seed N --out DIR [--smoke]
//! sevuldet-perfbench reference --corpus DIR --model FILE
//! sevuldet-perfbench trace --corpus DIR --model FILE --cache-dir DIR
//! sevuldet-perfbench load --addr HOST:PORT --cli-json FILE --rate R --seconds S --conns N
//! sevuldet-perfbench host
//! ```
//!
//! Every subcommand prints one JSON object on stdout and exits non-zero,
//! with the reason on stderr, when a check fails.

mod alloc;
mod corpus;
mod load;
mod traced;

use corpus::Size;
use sevuldet::Json;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sevuldet-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)?
        .parse()
        .map_err(|_| format!("{name}: not a number"))
}

fn run(args: &[String]) -> Result<Json, String> {
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "gen" => {
            let kind = args.get(1).map(String::as_str).unwrap_or("");
            let seed: u64 = num(args, "--seed")?;
            let out = Path::new(flag(args, "--out")?);
            let size = if args.iter().any(|a| a == "--smoke") {
                Size::Smoke
            } else {
                Size::Full
            };
            let (files, victim) = match kind {
                "sard" => (corpus::sard_sim(seed, size), None),
                "tree" => (
                    corpus::tree(seed, size),
                    Some(corpus::tree_victim(seed, size)),
                ),
                _ => return Err(format!("gen: unknown corpus `{kind}`")),
            };
            corpus::write_all(out, &files)
                .map_err(|e| format!("writing {}: {e}", out.display()))?;
            let victim = victim.map_or(Json::Null, |i| Json::str(&files[i].name));
            Ok(Json::obj(vec![
                ("files", Json::Num(files.len() as f64)),
                ("victim", victim),
            ]))
        }
        "reference" => {
            let corpus = traced::Corpus::read(flag(args, "--corpus")?)?;
            traced::reference(&corpus, Path::new(flag(args, "--model")?))
        }
        "trace" => {
            let corpus = traced::Corpus::read(flag(args, "--corpus")?)?;
            traced::traced(
                &corpus,
                Path::new(flag(args, "--model")?),
                Path::new(flag(args, "--cache-dir")?),
            )
        }
        "load" => {
            let cli = std::fs::read_to_string(flag(args, "--cli-json")?)
                .map_err(|e| format!("--cli-json: {e}"))?;
            let reqs = Arc::new(load::requests(&cli)?);
            let rate: f64 = num(args, "--rate")?;
            let seconds: f64 = num(args, "--seconds")?;
            let conns: usize = num(args, "--conns")?;
            if !(rate > 0.0 && seconds > 0.0 && conns > 0) {
                return Err("load: --rate, --seconds and --conns must be positive".into());
            }
            let o = load::run(flag(args, "--addr")?, &reqs, rate, seconds, conns)?;
            let mut statuses: Vec<_> = o.statuses.into_iter().collect();
            statuses.sort();
            Ok(Json::obj(vec![
                ("attempted", Json::Num(o.attempted as f64)),
                ("failed", Json::Num(o.failed as f64)),
                ("mismatched", Json::Num(o.mismatched as f64)),
                ("answered", Json::Num(o.latencies.len() as f64)),
                ("p99_ms", Json::Num(load::percentile(&o.latencies, 0.99))),
                ("lag_p99_ms", Json::Num(load::percentile(&o.lags, 0.99))),
                (
                    "statuses",
                    Json::Obj(
                        statuses
                            .into_iter()
                            .map(|(s, n)| (s.to_string(), Json::Num(n as f64)))
                            .collect(),
                    ),
                ),
            ]))
        }
        "host" => Ok(Json::obj(vec![(
            "simd_level",
            Json::str(sevuldet::simd_level()),
        )])),
        _ => Err(format!("unknown subcommand `{cmd}`")),
    }
}
