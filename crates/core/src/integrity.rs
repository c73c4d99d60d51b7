//! File-integrity primitives shared by detector persistence and training
//! checkpoints: CRC-32 / SHA-256 digests, crash-safe atomic writes, and a
//! sealed-footer format that turns silent corruption into typed errors.
//!
//! ## The crash-safety argument
//!
//! * [`atomic_write`] stages the bytes in a temp file **in the same
//!   directory** as the target, `fsync`s it, and `rename`s it over the
//!   target. POSIX rename is atomic within a filesystem, so a crash at any
//!   instant leaves either the complete old file or the complete new file —
//!   never a torn mix. The directory is fsynced afterwards so the rename
//!   itself survives a power cut.
//! * [`seal`] appends a footer line carrying the payload byte length and a
//!   CRC-32 over the payload. [`unseal`] refuses to hand back a payload
//!   whose footer is missing (truncation), whose length disagrees
//!   (truncation that kept a stale footer), or whose checksum disagrees
//!   (bit flips, tampering) — each with a distinct [`SealError`] variant.
//!
//! Together: a reader either sees bytes the writer finished and checksummed,
//! or a typed error. It never silently consumes garbage.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The footer line prefix; the full line is
/// `sevuldet-footer crc32=XXXXXXXX len=NNNN`.
const FOOTER_PREFIX: &str = "sevuldet-footer ";

/// Why a sealed payload was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealError {
    /// No footer line at the end of the file — the tail was truncated away.
    MissingFooter,
    /// A footer line is present but does not parse.
    BadFooter(String),
    /// The footer's recorded payload length disagrees with the bytes
    /// actually present (truncation or concatenation).
    LengthMismatch {
        /// Length the footer claims.
        stated: usize,
        /// Length actually present.
        actual: usize,
    },
    /// The payload's CRC-32 disagrees with the footer (bit flip/tamper).
    Checksum {
        /// Checksum the footer claims.
        stated: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::MissingFooter => write!(f, "integrity footer missing (truncated file?)"),
            SealError::BadFooter(line) => write!(f, "malformed integrity footer `{line}`"),
            SealError::LengthMismatch { stated, actual } => write!(
                f,
                "payload length mismatch: footer says {stated} bytes, file has {actual}"
            ),
            SealError::Checksum { stated, computed } => write!(
                f,
                "checksum mismatch: footer says crc32 {stated:08x}, payload is {computed:08x}"
            ),
        }
    }
}

impl std::error::Error for SealError {}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    // The 256-entry table costs 1KB and is built on first use.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// SHA-256 of `data`, as a lowercase hex string. Used by the fault-injection
/// harness to prove resumed training runs byte-identical to uninterrupted
/// ones.
pub fn sha256_hex(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());
    for chunk in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in chunk.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    h.iter().map(|x| format!("{x:08x}")).collect()
}

/// Appends the integrity footer to a payload, producing the on-disk form.
/// The payload must end with a newline (every line-oriented writer here
/// does); one is added if missing so the footer always starts a fresh line.
pub fn seal(mut payload: String) -> String {
    if !payload.ends_with('\n') {
        payload.push('\n');
    }
    let crc = crc32(payload.as_bytes());
    let len = payload.len();
    payload.push_str(&format!("{FOOTER_PREFIX}crc32={crc:08x} len={len}\n"));
    payload
}

/// Whether `text` ends with something that looks like an integrity footer
/// (used to tell sealed files from legacy unsealed ones).
pub fn has_footer(text: &str) -> bool {
    last_line(text).is_some_and(|l| l.starts_with(FOOTER_PREFIX))
}

fn last_line(text: &str) -> Option<&str> {
    let stripped = text.strip_suffix('\n').unwrap_or(text);
    if stripped.is_empty() {
        return None;
    }
    Some(match stripped.rsplit_once('\n') {
        Some((_, last)) => last,
        None => stripped,
    })
}

/// Verifies the footer and returns the payload (footer stripped).
///
/// # Errors
///
/// A [`SealError`] naming exactly what is wrong: missing footer, malformed
/// footer, length mismatch, or checksum mismatch.
pub fn unseal(text: &str) -> Result<&str, SealError> {
    let footer = last_line(text)
        .filter(|l| l.starts_with(FOOTER_PREFIX))
        .ok_or(SealError::MissingFooter)?;
    let bad = || SealError::BadFooter(footer.to_string());
    let mut stated_crc: Option<u32> = None;
    let mut stated_len: Option<usize> = None;
    for field in footer[FOOTER_PREFIX.len()..].split_whitespace() {
        if let Some(v) = field.strip_prefix("crc32=") {
            stated_crc = Some(u32::from_str_radix(v, 16).map_err(|_| bad())?);
        } else if let Some(v) = field.strip_prefix("len=") {
            stated_len = Some(v.parse().map_err(|_| bad())?);
        }
    }
    let (stated_crc, stated_len) = match (stated_crc, stated_len) {
        (Some(c), Some(l)) => (c, l),
        _ => return Err(bad()),
    };
    // Everything before the footer line (including its trailing newline).
    let actual = text.len() - footer.len() - text.ends_with('\n') as usize;
    if stated_len != actual {
        return Err(SealError::LengthMismatch {
            stated: stated_len,
            actual,
        });
    }
    let payload = &text[..actual];
    let computed = crc32(payload.as_bytes());
    if computed != stated_crc {
        return Err(SealError::Checksum {
            stated: stated_crc,
            computed,
        });
    }
    Ok(payload)
}

/// Writes `data` to `path` crash-safely: same-directory temp file, fsync,
/// atomic rename, directory fsync. A crash at any point leaves the target
/// either untouched or fully written — never torn.
///
/// The `save_midwrite` failpoint (see [`crate::faults`]) fires after half
/// the bytes are staged, so the fault-injection suite can prove the target
/// survives a crash mid-write.
///
/// # Errors
///
/// Any underlying I/O error; on failure the temp file is removed.
pub fn atomic_write(path: &Path, data: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    // Unique per call, not just per process: threads sharing one engine
    // may save the same key at once, and must not stage into one file.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let staged = (|| -> io::Result<()> {
        let mut f = File::create(&tmp)?;
        let mid = data.len() / 2;
        f.write_all(&data[..mid])?;
        crate::faults::hit("save_midwrite");
        f.write_all(&data[mid..])?;
        f.sync_all()?;
        Ok(())
    })();
    if let Err(e) = staged {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Persist the rename itself. Directory fsync can fail on exotic
    // filesystems; the data is already safe, so treat that as best-effort.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn sha256_known_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let sealed = seal("hello\nworld\n".to_string());
        assert!(has_footer(&sealed));
        assert_eq!(unseal(&sealed).unwrap(), "hello\nworld\n");
        // Payload without a trailing newline gets one before sealing.
        let sealed = seal("x".to_string());
        assert_eq!(unseal(&sealed).unwrap(), "x\n");
    }

    #[test]
    fn truncation_and_bitflips_are_typed_errors() {
        let sealed = seal("line one\nline two\n".to_string());
        // Chop the footer off entirely: truncation.
        let footer_start = sealed.rfind("sevuldet-footer").unwrap();
        assert_eq!(
            unseal(&sealed[..footer_start]),
            Err(SealError::MissingFooter)
        );
        // Drop payload bytes but keep the footer: length mismatch.
        let mut cut = sealed.clone();
        cut.replace_range(5..14, "");
        assert!(matches!(
            unseal(&cut),
            Err(SealError::LengthMismatch { .. })
        ));
        // Flip one payload byte: checksum mismatch.
        let mut flipped = sealed.clone().into_bytes();
        flipped[3] ^= 0x20;
        let flipped = String::from_utf8(flipped).unwrap();
        assert!(matches!(unseal(&flipped), Err(SealError::Checksum { .. })));
        // Garbage footer fields: malformed.
        let garbled = format!(
            "{}sevuldet-footer crc32=zz len=oops\n",
            &sealed[..footer_start]
        );
        assert!(matches!(unseal(&garbled), Err(SealError::BadFooter(_))));
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("svd-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.txt");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second version");
        // No stray temp files left behind.
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "{strays:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_atomic_writes_to_one_path_all_succeed() {
        let dir = std::env::temp_dir().join(format!("svd-atomic-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.svdc");
        atomic_write(&path, seal("seed\n".to_string()).as_bytes()).unwrap();
        const WRITERS: usize = 4;
        let start = std::sync::Barrier::new(WRITERS);
        std::thread::scope(|scope| {
            for t in 0..WRITERS {
                let (path, start) = (&path, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..50 {
                        let sealed = seal(format!("writer {t} round {i}\n"));
                        atomic_write(path, sealed.as_bytes()).unwrap();
                        let read = std::fs::read_to_string(path).unwrap();
                        assert!(unseal(&read).is_ok(), "torn read: {read:?}");
                    }
                });
            }
        });
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "{strays:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
