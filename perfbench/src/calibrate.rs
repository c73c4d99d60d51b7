//! The benchmark's host-speed probe (`perfbench/run.py` runs it between
//! scans):
//!
//! ```text
//! sevuldet-calibrate REPS
//! ```
//!
//! A fixed amount of work, shaped like a scan but sharing no code with the
//! repository: a dense 1-D convolution with ReLU over 24-wide rows (the
//! model's width), then word splitting, hashing and sorting over a byte
//! buffer (the front half's kind of work). Its wall time changes only when
//! the host's speed does, so a scan timed between two probes can be
//! expressed in probe units. The inputs are fixed, the result is printed,
//! and the process exits 0.

use std::collections::HashMap;
use std::hint::black_box;
use std::process::ExitCode;

const DIM: usize = 24;
const WIDTH: usize = 3;
const LEN: usize = 4096;
const TEXT: usize = 1 << 16;

/// xorshift64: a fixed, dependency-free stream of inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() % 1000) as f64 / 1000.0 - 0.5
    }
}

fn conv(w: &[f64], x: &[f64], y: &mut [f64]) {
    for t in 0..LEN - WIDTH {
        for o in 0..DIM {
            let mut s = 0.0;
            for j in 0..WIDTH {
                let xi = &x[(t + j) * DIM..(t + j + 1) * DIM];
                let wi = &w[(o * WIDTH + j) * DIM..(o * WIDTH + j + 1) * DIM];
                s += xi.iter().zip(wi).map(|(a, b)| a * b).sum::<f64>();
            }
            y[t * DIM + o] = s.max(0.0);
        }
    }
}

fn words(text: &[u8]) -> usize {
    let mut counts: HashMap<&[u8], usize> = HashMap::new();
    for word in text.split(|c| !c.is_ascii_alphanumeric() && *c != b'_') {
        if !word.is_empty() {
            *counts.entry(word).or_default() += 1;
        }
    }
    let mut sorted: Vec<_> = counts.into_iter().collect();
    sorted.sort_unstable();
    sorted.len()
}

fn main() -> ExitCode {
    let Some(reps) = std::env::args().nth(1).and_then(|s| s.parse::<usize>().ok()) else {
        eprintln!("usage: sevuldet-calibrate REPS");
        return ExitCode::from(2);
    };
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let w: Vec<f64> = (0..DIM * DIM * WIDTH).map(|_| rng.unit()).collect();
    let x: Vec<f64> = (0..DIM * LEN).map(|_| rng.unit()).collect();
    let alphabet = b"abc_ (){};=*+0123456789 \n";
    let text: Vec<u8> = (0..TEXT)
        .map(|_| alphabet[(rng.next() % alphabet.len() as u64) as usize])
        .collect();
    let mut y = vec![0.0; DIM * LEN];
    let (mut sum, mut distinct) = (0.0, 0);
    for _ in 0..reps {
        conv(black_box(&w), black_box(&x), &mut y);
        sum += black_box(&y).iter().sum::<f64>();
        distinct += words(black_box(&text));
    }
    println!("{sum} {distinct}");
    ExitCode::SUCCESS
}
