//! Incremental-engine invariants, all downstream of one contract: for any
//! source and any cache state — cold, warm, damaged —
//! [`QueryEngine::prepare`] returns exactly what [`sevuldet::prepare_source`]
//! returns. The cache may only change how fast the answer arrives.
//!
//! Counter assertions use before/after deltas with `>=`: the counters are
//! process-global and the test binary runs its tests concurrently.

use sevuldet::{prepare_source, PreparedSource};
use sevuldet_query::{counters, QueryConfig, QueryEngine};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Three functions; `sink`'s gadget slices inter-procedurally into
/// `producer` (its caller), while `unrelated` stays out of that slice.
const BASE: &str = "void sink(char *dst, char *src) {\n    strcpy(dst, src);\n}\n\nvoid producer(char *buf) {\n    char data[64];\n    data[0] = 1;\n    sink(buf, data);\n}\n\nint unrelated(int x) {\n    int y = x + 1;\n    return y * 2;\n}\n";

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "svd-incr-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn disk_engine(dir: &std::path::Path) -> QueryEngine {
    QueryEngine::open(&QueryConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..QueryConfig::default()
    })
    .expect("open engine")
}

/// The reference the engine must match byte-for-byte.
fn fresh(source: &str) -> PreparedSource {
    prepare_source(source, 1).expect("reference prepare")
}

#[test]
fn engine_matches_prepare_source_for_every_tier_and_jobs() {
    let dir = tmpdir("tiers");
    let engine = disk_engine(&dir);
    let undefined_helper = BASE.replace("strcpy(dst, src);", "helper(dst, src);");
    let sources = [
        BASE.to_string(),
        "int main() { return 0; }".to_string(),
        // Edit scenarios: each is a distinct file, so each is a miss that
        // must still equal a fresh prepare.
        // An edit outside sink's inter-procedural slice.
        BASE.replace("y * 2", "y * 3"),
        // A pure line shift: every gadget moves, no function text changes.
        format!("\n\n\n{BASE}"),
        // An edit inside sink's slice (its caller `producer`).
        BASE.replace("data[0] = 1", "data[0] = 2"),
        // A new caller of `sink` extends its backward slice.
        format!("{BASE}\nvoid extra(char *p) {{\n    char tmp[8];\n    sink(p, tmp);\n}}\n"),
        // A call to an undefined helper, then the helper gains a body.
        undefined_helper.clone(),
        format!("{undefined_helper}\nvoid helper(char *a, char *b) {{\n    strcpy(a, b);\n}}\n"),
        // A global, then a change to it.
        format!("int limit = 10;\n\n{BASE}"),
        format!("int limit = 99;\n\n{BASE}"),
    ];
    for jobs in [1usize, 2] {
        for src in &sources {
            let want = fresh(src);
            // Cold (miss), warm (memory hit), and via a second engine on
            // the same directory (disk hit) — all three identical.
            assert_eq!(engine.prepare(src, jobs).unwrap(), want, "cold/warm");
            assert_eq!(engine.prepare(src, jobs).unwrap(), want, "memo");
            let other = disk_engine(&dir);
            assert_eq!(other.prepare(src, jobs).unwrap(), want, "disk");
        }
    }
    // Parse failures pass through unchanged (and are never cached).
    assert!(engine.prepare("int (", 1).is_err());
    assert!(engine.prepare("int (", 1).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_and_disk_hits_are_counted() {
    let dir = tmpdir("counters");
    let engine = disk_engine(&dir);
    let src = BASE.replace("unrelated", "renamed_for_counter_test");

    let before = counters();
    engine.prepare(&src, 1).unwrap();
    let after_cold = counters();
    assert!(after_cold.misses > before.misses, "cold scan is a miss");
    assert!(after_cold.size_bytes > 0, "save grew the store gauge");

    engine.prepare(&src, 1).unwrap();
    assert!(
        counters().hits_mem > after_cold.hits_mem,
        "second scan hits the memo"
    );

    let second = disk_engine(&dir);
    let before_disk = counters();
    second.prepare(&src, 1).unwrap();
    assert!(
        counters().hits_disk > before_disk.hits_disk,
        "fresh engine on the same dir hits the disk store"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every flavor of on-disk damage degrades to a silent recompute with
/// identical output: bit flips, truncation, emptiness, a stale format
/// header (sealed correctly, so only the header check can reject it), and
/// outright garbage.
#[test]
fn damaged_entries_recompute_byte_identically() {
    let dir = tmpdir("damage");
    let src = BASE.replace("unrelated", "renamed_for_damage_test");
    let want = fresh(&src);
    disk_engine(&dir).prepare(&src, 1).unwrap();
    let entry = || -> PathBuf {
        std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "svdc"))
            .expect("one cache entry")
    };
    let pristine = std::fs::read(entry()).unwrap();

    let damages: Vec<Vec<u8>> = vec![
        {
            let mut b = pristine.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x40;
            b
        },
        pristine[..pristine.len() / 3].to_vec(),
        Vec::new(),
        sevuldet::integrity::seal(
            String::from_utf8(pristine.clone())
                .unwrap()
                .lines()
                .take_while(|l| !l.starts_with("sevuldet-footer"))
                .collect::<Vec<_>>()
                .join("\n")
                .replace("cache v1", "cache v0"),
        )
        .into_bytes(),
        b"not a cache entry at all\n".to_vec(),
    ];
    for (i, bytes) in damages.iter().enumerate() {
        std::fs::write(entry(), bytes).unwrap();
        let engine = disk_engine(&dir);
        let before = counters();
        assert_eq!(
            engine.prepare(&src, 1).unwrap(),
            want,
            "damage #{i} changed the report"
        );
        assert!(
            counters().misses > before.misses,
            "damage #{i} must count as a miss, not a hit"
        );
        // And the store healed itself: a fresh engine now gets a disk hit.
        let before_heal = counters();
        assert_eq!(disk_engine(&dir).prepare(&src, 1).unwrap(), want);
        assert!(
            counters().hits_disk > before_heal.hits_disk,
            "damage #{i} was not rewritten by the recompute"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_memo_evicts_at_capacity() {
    // One more distinct source than the memo holds (4096 entries).
    let engine = QueryEngine::in_memory();
    let srcs: Vec<String> = (0..4097)
        .map(|i| format!("int f{i}(int x) {{ return x + {i}; }}"))
        .collect();
    let before = counters();
    for s in &srcs {
        engine.prepare(s, 1).unwrap();
    }
    assert!(
        counters().evictions > before.evictions,
        "inserting past the memo's capacity must evict"
    );
    // The evicted (oldest) source recomputes — and still matches.
    let before = counters();
    assert_eq!(engine.prepare(&srcs[0], 1).unwrap(), fresh(&srcs[0]));
    assert!(counters().misses > before.misses);
}
