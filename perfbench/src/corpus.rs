//! Seeded inputs for every workload, written to disk as `.c` files. The
//! program under test only ever sees these files (or their bytes posted
//! over HTTP); the seed never reaches it.

use sevuldet::prepare_source;
use sevuldet_dataset::{sard, ProgramSample, SardConfig};
use sevuldet_gadget::Category;
use std::io;
use std::path::Path;

/// Input size: `Full` is the measured configuration, `Smoke` a tiny one
/// that runs every workload and every check in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One generated input file: its name (relative to the corpus directory)
/// and its source text.
pub struct SourceFile {
    pub name: String,
    pub source: String,
}

/// A pool sample and the gadget tokens the scanner extracts from it: the
/// quantity a cold scan's time and peak memory follow.
struct Candidate {
    sample: ProgramSample,
    tokens: usize,
}

impl Candidate {
    fn new(sample: ProgramSample) -> Candidate {
        let tokens = prepare_source(&sample.source, 1)
            .map_or(0, |p| p.gadgets.iter().map(|g| g.tokens.len()).sum());
        Candidate { sample, tokens }
    }
}

/// The samples of one category and filler length: those picked for the
/// corpus and the spares they may be swapped with.
struct Group {
    picked: Vec<Candidate>,
    spare: Vec<Candidate>,
}

/// Picks `n` samples spread evenly over `pool` ordered by gadget tokens
/// (ties by generation order), so the picks track the pool's quantiles.
fn by_token_quantiles(mut pool: Vec<Candidate>, n: usize) -> Group {
    assert!(pool.len() >= n, "pool of {} cannot give {n}", pool.len());
    pool.sort_by_key(|c| c.tokens);
    let step = pool.len() as f64 / n as f64;
    let picks: Vec<usize> = (0..n).map(|k| ((k as f64 + 0.5) * step) as usize).collect();
    let (mut picked, mut spare) = (Vec::new(), Vec::new());
    for (i, c) in pool.into_iter().enumerate() {
        if picks.contains(&i) {
            picked.push(c);
        } else {
            spare.push(c);
        }
    }
    Group { picked, spare }
}

/// Swaps one pick for a spare of the same group, the swap that brings the
/// total gadget tokens closest to `target`, while that gets closer and the
/// total is off by more than 0.5%. Quantile picks alone leave the total
/// ±5% from seed to seed, and a cold scan's time and peak RSS with it.
fn balance(groups: &mut [Group], target: usize) {
    let target = target as i64;
    loop {
        let total: i64 = groups
            .iter()
            .flat_map(|g| &g.picked)
            .map(|c| c.tokens as i64)
            .sum();
        let gap = total - target;
        if gap.abs() * 200 <= target {
            return;
        }
        let mut best: Option<(usize, usize, usize, i64)> = None;
        for (gi, g) in groups.iter().enumerate() {
            for (pi, p) in g.picked.iter().enumerate() {
                for (si, s) in g.spare.iter().enumerate() {
                    let off = (gap - p.tokens as i64 + s.tokens as i64).abs();
                    if best.map_or(true, |b| off < b.3) {
                        best = Some((gi, pi, si, off));
                    }
                }
            }
        }
        match best {
            Some((gi, pi, si, off)) if off < gap.abs() => {
                let g = &mut groups[gi];
                std::mem::swap(&mut g.picked[pi], &mut g.spare[si]);
                g.picked.sort_by_key(|c| c.tokens);
            }
            _ => return,
        }
    }
}

/// Lines above which a SARD-sim case carries the long dependent filler.
const LONG_LINES: usize = 40;

/// Gadget tokens of the full-size SARD-sim corpus, whatever the seed.
const SARD_TOKENS: usize = 450_000;

/// SARD-sim: long dependent filler and inter-procedural taint, so gadgets
/// are long and the forward pass dominates. Each category contributes a
/// fixed number of long-filler and short cases (a quarter long, the
/// generator's default share), drawn from a seeded pool four times larger
/// by gadget-token quantiles, then balanced to `SARD_TOKENS`: the seed
/// changes the programs, not the amount of work.
pub fn sard_sim(seed: u64, size: Size) -> Vec<SourceFile> {
    let (long, short) = match size {
        Size::Full => (4, 11),
        Size::Smoke => (1, 1),
    };
    let pool = sard::generate(&SardConfig {
        per_category: 4 * (long + short),
        seed,
        ..SardConfig::default()
    });
    let mut groups = Vec::new();
    for category in Category::ALL {
        let (l, s): (Vec<_>, Vec<_>) = pool
            .iter()
            .filter(|p| p.category == category)
            .cloned()
            .partition(|p| p.source.lines().count() > LONG_LINES);
        groups.push(by_token_quantiles(l.into_iter().map(Candidate::new).collect(), long));
        groups.push(by_token_quantiles(s.into_iter().map(Candidate::new).collect(), short));
    }
    if size == Size::Full {
        balance(&mut groups, SARD_TOKENS);
    }
    groups
        .into_iter()
        .flat_map(|g| g.picked)
        .enumerate()
        .map(|(i, c)| SourceFile {
            name: format!("{i:03}_{}.c", c.sample.id),
            source: c.sample.source,
        })
        .collect()
}

/// Number of files in the incremental tree at each size.
pub fn tree_files(size: Size) -> usize {
    match size {
        Size::Full => 250,
        Size::Smoke => 12,
    }
}

/// One file of the incremental tree: two gadget-bearing functions with an
/// inter-procedural edge plus a gadget-free helper, varied per index so
/// every file is a distinct cache entry. The shape is the one the
/// repository's `incremental_scan` criterion bench uses; the seed shifts
/// the buffer lengths and multipliers.
pub fn tree_source(i: usize, seed: u64) -> String {
    let k = i as u64 + seed;
    format!(
        "void sink_{i}(char *dst, char *src, int n) {{\n\
         \x20   if (n < {len}) {{\n\
         \x20       strncpy(dst, src, n);\n\
         \x20   }}\n\
         }}\n\
         \n\
         void feed_{i}(char *buf) {{\n\
         \x20   char local[{len}];\n\
         \x20   local[0] = {i};\n\
         \x20   sink_{i}(buf, local, {len});\n\
         }}\n\
         \n\
         int calc_{i}(int x) {{\n\
         \x20   int y = x * {mult};\n\
         \x20   return y + {i};\n\
         }}\n",
        len = 16 + (k % 48),
        mult = 2 + (k % 7),
    )
}

/// The incremental tree, in file order.
pub fn tree(seed: u64, size: Size) -> Vec<SourceFile> {
    (0..tree_files(size))
        .map(|i| SourceFile {
            name: format!("f{i:03}.c"),
            source: tree_source(i, seed),
        })
        .collect()
}

/// The file an edit touches, chosen by the seed.
pub fn tree_victim(seed: u64, size: Size) -> usize {
    (seed as usize).wrapping_mul(7919) % tree_files(size)
}

/// Writes `files` into `dir` (created if missing).
pub fn write_all(dir: &Path, files: &[SourceFile]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for f in files {
        std::fs::write(dir.join(&f.name), &f.source)?;
    }
    Ok(())
}
