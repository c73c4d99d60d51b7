//! Scoring each distinct gadget stream once must not change a single score.
//!
//! The batch entry points forward every distinct token stream once and fan
//! the score back out to the gadgets that share it. These tests build
//! batches with duplicate streams injected on purpose — copies of a gadget
//! inside one file, and whole files repeated across the batch — and check
//! that:
//!
//! * `score_prepared` and `score_prepared_mut` return, at every precision
//!   tier and for `jobs` 1 and 4, scores whose bits equal a naive
//!   per-gadget [`Detector::predict`] loop;
//! * the f64 model closes exactly one `nn.forward` span per distinct
//!   stream.

use proptest::prelude::*;
use sevuldet::{
    load_detector, prepare_source, save_detector, score_prepared, score_prepared_mut, Detector,
    GadgetSpec, ModelKind, Precision, PreparedSource, TrainConfig,
};
use sevuldet_dataset::{sard, SardConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const LEAKY: &str = r#"void process(char *dest, char *data) {
    int n = atoi(data);
    if (n < 16) {
        puts("small");
    }
    strncpy(dest, data, n);
}"#;

/// A tiny detector after a save/load round trip, so the int8 tier has its
/// persisted calibration scales.
fn detector() -> &'static Detector {
    static CELL: OnceLock<Detector> = OnceLock::new();
    CELL.get_or_init(|| {
        let samples = sard::generate(&SardConfig {
            per_category: 3,
            ..SardConfig::default()
        });
        let corpus = GadgetSpec::path_sensitive().extract(&samples);
        let cfg = TrainConfig {
            embed_dim: 8,
            w2v_epochs: 1,
            epochs: 1,
            cnn_channels: 6,
            ..TrainConfig::quick()
        };
        let mut det = Detector::train(&corpus, ModelKind::SevulDet, &cfg);
        load_detector(&save_detector(&mut det)).expect("round trip")
    })
}

/// Prepared sources to draw files from: the motivating example plus
/// held-out SARD-sim programs.
fn pool() -> &'static [PreparedSource] {
    static CELL: OnceLock<Vec<PreparedSource>> = OnceLock::new();
    CELL.get_or_init(|| {
        let held_out = sard::generate(&SardConfig {
            per_category: 2,
            seed: 777,
            ..SardConfig::default()
        });
        std::iter::once(LEAKY.to_string())
            .chain(held_out.into_iter().take(6).map(|s| s.source))
            .map(|src| prepare_source(&src, 1).expect("pool parses"))
            .collect()
    })
}

/// A batch of files picked from the pool (repeats allowed, so whole files
/// duplicate across the batch), each with copies of some of its own
/// gadgets inserted (duplicates within a file).
fn batch(picks: &[(usize, Vec<(usize, usize)>)]) -> Vec<PreparedSource> {
    let pool = pool();
    picks
        .iter()
        .map(|(file, copies)| {
            let mut p = pool[file % pool.len()].clone();
            for &(from, to) in copies {
                if p.gadgets.is_empty() {
                    break;
                }
                let g = p.gadgets[from % p.gadgets.len()].clone();
                let at = to % (p.gadgets.len() + 1);
                p.gadgets.insert(at, g);
            }
            p
        })
        .collect()
}

fn bits(reports: &[sevuldet::ScanReport]) -> Vec<u64> {
    reports
        .iter()
        .flat_map(|r| &r.findings)
        .map(|f| f.score.to_bits())
        .collect()
}

fn distinct_streams(prepared: &[PreparedSource]) -> usize {
    prepared
        .iter()
        .flat_map(|p| &p.gadgets)
        .map(|g| &g.tokens)
        .collect::<HashSet<_>>()
        .len()
}

fn picks() -> impl Strategy<Value = Vec<(usize, Vec<(usize, usize)>)>> {
    proptest::collection::vec(
        (
            0usize..64,
            proptest::collection::vec((0usize..64, 0usize..64), 0..4),
        ),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn deduplicated_scores_equal_per_gadget_predict(picks in picks()) {
        let prepared = batch(&picks);
        for precision in [Precision::F64, Precision::F32, Precision::Int8] {
            let mut det = detector().clone();
            det.set_precision(precision).expect("tier builds");
            let naive: Vec<u64> = prepared
                .iter()
                .flat_map(|p| &p.gadgets)
                .map(|g| det.predict(&g.tokens).to_bits())
                .collect();
            for jobs in [1, 4] {
                let shared = score_prepared(&det, &prepared, jobs).expect("scores");
                prop_assert_eq!(bits(&shared), naive.clone(), "shared {} jobs={}", precision, jobs);
                let owned = score_prepared_mut(&mut det, &prepared, jobs).expect("scores");
                prop_assert_eq!(bits(&owned), naive.clone(), "owned {} jobs={}", precision, jobs);
            }
        }
    }
}

#[test]
fn f64_forwards_equal_distinct_streams() {
    let prepared = batch(&[
        (0, vec![(0, 0), (1, 3)]),
        (0, vec![]),
        (3, vec![(2, 1)]),
        (3, vec![]),
        (5, vec![]),
    ]);
    let gadgets: usize = prepared.iter().map(|p| p.gadgets.len()).sum();
    let distinct = distinct_streams(&prepared);
    assert!(distinct < gadgets, "{distinct} distinct of {gadgets}");
    // Trained (or waited for) before the observer is armed, so training's
    // own forwards on this thread are not counted.
    let mut det = detector().clone();

    // Observers fire on the thread that closes the span; at jobs = 1 every
    // forward runs on this one, so other tests' forwards are not counted.
    let me = std::thread::current().id();
    let forwards = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&forwards);
    let observer = sevuldet::trace::add_observer(move |name, _| {
        if name == "nn.forward" && std::thread::current().id() == me {
            seen.fetch_add(1, Ordering::Relaxed);
        }
    });
    let (computed, reused) = sevuldet::forward_counters();
    let reports = score_prepared_mut(&mut det, &prepared, 1);
    let (computed_after, reused_after) = sevuldet::forward_counters();
    sevuldet::trace::remove_observer(observer);

    assert_eq!(reports.expect("scores").len(), prepared.len());
    assert_eq!(forwards.load(Ordering::Relaxed), distinct as u64);
    // The process-wide counters move by at least this batch (other tests in
    // this binary may score concurrently).
    assert!(computed_after - computed >= distinct as u64);
    assert!(reused_after - reused >= (gadgets - distinct) as u64);
}
