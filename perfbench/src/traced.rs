//! The traced in-process run: the benchmark's own calls into each layer's
//! public functions, timed one by one, plus the reference scan the CLI's
//! output is checked against.
//!
//! The front half is re-run stage by stage (parse → analyze → specials →
//! `build_gadget` → normalize) exactly as `prepare_source` composes them;
//! the gadgets reassembled from those calls must equal `prepare_source`'s
//! output for every file, or the breakdown is measuring a different
//! program and the run fails.

use crate::alloc;
use sevuldet::{
    load_detector_file, prepare_source, score_prepared_mut, sha256_hex, GadgetSpec, Json,
    Precision, PreparedGadget, PreparedSource, ScanReport,
};
use sevuldet_analysis::ProgramAnalysis;
use sevuldet_gadget::{build_gadget, find_special_tokens, Normalizer};
use sevuldet_query::{QueryConfig, QueryEngine};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The tiers, in the order the traced run scores them.
pub const TIERS: [Precision; 3] = [Precision::F64, Precision::F32, Precision::Int8];

/// A corpus as the CLI sees it: file names exactly as `sevuldet scan <dir>`
/// prints them, in the same order, with their sources.
pub struct Corpus {
    pub files: Vec<(String, String)>,
}

impl Corpus {
    pub fn read(dir: &str) -> Result<Corpus, String> {
        let paths = sevuldet_query::expand_paths(&[dir.to_string()]).map_err(|e| e.to_string())?;
        let mut files = Vec::with_capacity(paths.len());
        for p in paths {
            let source =
                std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            files.push((p.display().to_string(), source));
        }
        if files.is_empty() {
            return Err(format!("no .c files under {dir}"));
        }
        Ok(Corpus { files })
    }
}

/// Time and heap allocations charged to one layer.
#[derive(Default, Clone, Copy)]
struct Cost {
    time: Duration,
    allocs: u64,
}

impl Cost {
    fn ms(&self) -> f64 {
        self.time.as_secs_f64() * 1e3
    }
}

/// Runs `f`, charging its wall time and allocations to `cost`.
fn charge<T>(cost: &mut Cost, f: impl FnOnce() -> T) -> T {
    let a = alloc::count();
    let t = Instant::now();
    let out = f();
    cost.time += t.elapsed();
    cost.allocs += alloc::count() - a;
    out
}

/// The CLI's `--json` document for a set of reports, byte for byte.
fn scan_json(corpus: &Corpus, reports: &[ScanReport]) -> String {
    let docs: Vec<Json> = corpus
        .files
        .iter()
        .zip(reports)
        .map(|((name, _), r)| r.to_json(name))
        .collect();
    Json::Arr(docs).to_string()
}

fn load(model: &Path, tier: Precision) -> Result<sevuldet::Detector, String> {
    let mut det = load_detector_file(model).map_err(|e| format!("loading model: {e}"))?;
    det.set_precision(tier)
        .map_err(|e| format!("--precision {tier}: {e}"))?;
    Ok(det)
}

fn prepare_all(corpus: &Corpus) -> Result<Vec<PreparedSource>, String> {
    corpus
        .files
        .iter()
        .map(|(name, src)| prepare_source(src, 1).map_err(|e| format!("{name}: {e}")))
        .collect()
}

/// The reference scan: the CLI's f64 `--no-cache` document assembled from
/// library calls, with its digest and the deterministic counters.
pub fn reference(corpus: &Corpus, model: &Path) -> Result<Json, String> {
    let prepared = prepare_all(corpus)?;
    let mut det = load(model, Precision::F64)?;
    let reports = score_prepared_mut(&mut det, &prepared, 1).map_err(|e| e.to_string())?;
    let json = scan_json(corpus, &reports);
    Ok(Json::obj(vec![
        (
            "digest",
            Json::str(sha256_hex(format!("{json}\n").as_bytes())),
        ),
        ("gadgets", Json::Num(count_gadgets(&prepared) as f64)),
        (
            "distinct_streams",
            Json::Num(distinct_streams(&prepared) as f64),
        ),
        ("tokens", Json::Num(count_tokens(&prepared) as f64)),
    ]))
}

fn count_gadgets(prepared: &[PreparedSource]) -> usize {
    prepared.iter().map(|p| p.gadgets.len()).sum()
}

fn count_tokens(prepared: &[PreparedSource]) -> usize {
    prepared
        .iter()
        .flat_map(|p| &p.gadgets)
        .map(|g| g.tokens.len())
        .sum()
}

fn distinct_streams(prepared: &[PreparedSource]) -> usize {
    prepared
        .iter()
        .flat_map(|p| p.gadgets.iter().map(|g| &g.tokens))
        .collect::<HashSet<_>>()
        .len()
}

/// One traced pass: every layer's time, allocations and counts.
pub fn traced(corpus: &Corpus, model: &Path, cache_dir: &Path) -> Result<Json, String> {
    let mut read = Cost::default();
    let mut parse = Cost::default();
    let mut analyze = Cost::default();
    let mut specials = Cost::default();
    let mut slice = Cost::default();
    let mut normalize = Cost::default();
    let mut nn_load = Cost::default();
    let mut report = Cost::default();
    let mut forward: BTreeMap<&'static str, Cost> = BTreeMap::new();

    // The f64 `--no-cache` scan path, layer by layer; its wall is what the
    // named layers must account for.
    let wall = Instant::now();
    let spec = GadgetSpec::path_sensitive();
    let slice_cfg = spec.slice_config();
    let mut prepared = Vec::with_capacity(corpus.files.len());
    for (name, path_src) in &corpus.files {
        let source = charge(&mut read, || std::fs::read_to_string(name))
            .map_err(|e| format!("reading {name}: {e}"))?;
        debug_assert_eq!(&source, path_src);
        let program = charge(&mut parse, || sevuldet_lang::parse(&source))
            .map_err(|e| format!("{name}: parse error: {e}"))?;
        let analysis = charge(&mut analyze, || ProgramAnalysis::analyze(&program));
        let sts = charge(&mut specials, || find_special_tokens(&program, &analysis));
        let mut gadgets = Vec::with_capacity(sts.len());
        for st in &sts {
            let g = charge(&mut slice, || {
                build_gadget(&program, &analysis, st, spec.kind, &slice_cfg)
            });
            let tokens = charge(&mut normalize, || Normalizer::normalize_gadget(&g).tokens());
            gadgets.push(PreparedGadget {
                line: st.line,
                category: st.category.abbrev(),
                name: st.name.clone(),
                tokens,
            });
        }
        prepared.push(PreparedSource { gadgets });
    }
    let mut det = charge(&mut nn_load, || load(model, Precision::F64))?;
    // The f64 model closes one `nn.forward` span per forward pass; counting
    // the closes measures the forwards the program actually ran.
    let forwards = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&forwards);
    let observer = sevuldet::trace::add_observer(move |name, _| {
        if name == "nn.forward" {
            seen.fetch_add(1, Ordering::Relaxed);
        }
    });
    let f64_cost = forward.entry("f64").or_default();
    let reports = charge(f64_cost, || score_prepared_mut(&mut det, &prepared, 1));
    sevuldet::trace::remove_observer(observer);
    let reports = reports.map_err(|e| e.to_string())?;
    let forwards = forwards.load(Ordering::Relaxed);
    let json = charge(&mut report, || scan_json(corpus, &reports));
    let wall = wall.elapsed();
    std::hint::black_box(json);

    // Self-check: the stage-by-stage gadgets are `prepare_source`'s.
    for ((name, src), mine) in corpus.files.iter().zip(&prepared) {
        let direct = prepare_source(src, 1).map_err(|e| format!("{name}: {e}"))?;
        if &direct != mine {
            return Err(format!(
                "{name}: gadgets reassembled from per-stage calls differ from prepare_source"
            ));
        }
    }

    // The fast tiers, each on its own freshly loaded detector as the CLI
    // would run them.
    for tier in &TIERS[1..] {
        let mut det = load(model, *tier)?;
        let cost = forward.entry(tier.as_str()).or_default();
        charge(cost, || score_prepared_mut(&mut det, &prepared, 1)).map_err(|e| e.to_string())?;
    }

    // The query layer: a cold pass through a fresh on-disk store, then a
    // warm pass from a new engine (a new process) over the same store.
    let _ = std::fs::remove_dir_all(cache_dir);
    let before = sevuldet_query::counters();
    let mut q_cold = Cost::default();
    let mut q_warm = Cost::default();
    let config = QueryConfig {
        cache_dir: Some(PathBuf::from(cache_dir)),
        ..QueryConfig::default()
    };
    for cost in [&mut q_cold, &mut q_warm] {
        let engine = QueryEngine::open(&config).map_err(|e| format!("opening store: {e}"))?;
        for ((name, src), mine) in corpus.files.iter().zip(&prepared) {
            let p = charge(cost, || engine.prepare(src, 1)).map_err(|e| format!("{name}: {e}"))?;
            if &p != mine {
                return Err(format!("{name}: query engine diverged from prepare_source"));
            }
        }
    }
    let after = sevuldet_query::counters();
    let store = QueryEngine::open(&config)
        .map_err(|e| format!("opening store: {e}"))?
        .store()
        .map(|s| s.stats())
        .ok_or("store missing")?;

    let gadgets = count_gadgets(&prepared);
    let tokens = count_tokens(&prepared);
    let distinct = distinct_streams(&prepared);
    let front = [&read, &parse, &analyze, &specials, &slice, &normalize];
    let named: Duration = front.iter().map(|c| c.time).sum::<Duration>()
        + nn_load.time
        + forward["f64"].time
        + report.time;

    let mut m: Vec<(String, f64)> = vec![
        ("io.read_ms".into(), read.ms()),
        ("lang.parse_ms".into(), parse.ms()),
        ("lang.allocs".into(), parse.allocs as f64),
        ("analysis.analyze_ms".into(), analyze.ms()),
        ("analysis.allocs".into(), analyze.allocs as f64),
        ("gadget.specials_ms".into(), specials.ms()),
        ("gadget.slice_ms".into(), slice.ms()),
        ("gadget.normalize_ms".into(), normalize.ms()),
        (
            "gadget.allocs".into(),
            (specials.allocs + slice.allocs + normalize.allocs) as f64,
        ),
        ("gadget.gadgets".into(), gadgets as f64),
        ("gadget.tokens".into(), tokens as f64),
        ("query.prepare_ms".into(), q_cold.ms()),
        ("query.warm_ms".into(), q_warm.ms()),
        ("query.hits".into(), (after.hits() - before.hits()) as f64),
        ("query.misses".into(), (after.misses - before.misses) as f64),
        ("query.store_bytes".into(), store.bytes as f64),
        ("query.store_entries".into(), store.entries as f64),
        ("nn.load_ms".into(), nn_load.ms()),
        ("nn.forwards".into(), forwards as f64),
        ("nn.distinct_streams".into(), distinct as f64),
        (
            "nn.useful_ratio".into(),
            distinct as f64 / forwards.max(1) as f64,
        ),
        ("scan.report_ms".into(), report.ms()),
        ("inproc.wall_ms".into(), wall.as_secs_f64() * 1e3),
        (
            "trace.coverage".into(),
            named.as_secs_f64() / wall.as_secs_f64(),
        ),
    ];
    for (tier, cost) in &forward {
        m.push((format!("nn.forward_ms.{tier}"), cost.ms()));
        m.push((
            format!("nn.ns_per_token.{tier}"),
            cost.time.as_secs_f64() * 1e9 / tokens.max(1) as f64,
        ));
    }
    Ok(Json::Obj(
        m.into_iter().map(|(k, v)| (k, Json::Num(v))).collect(),
    ))
}
