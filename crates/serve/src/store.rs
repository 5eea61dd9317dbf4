//! Content-addressed on-disk persistence for the daemon's memo tables.
//!
//! Each cached value is one file, `<root>/<kind>/<digest as %016x>.bin`,
//! wrapped in a small envelope: magic `ECLC`, version, the digest it is
//! filed under (so a renamed file cannot impersonate another key) and an
//! FNV-1a checksum over the payload. Writes go through a temp file and
//! an atomic rename, so a crash mid-write leaves either the old value or
//! nothing — never a torn file. Loads treat *any* defect (missing,
//! truncated, bad magic, checksum mismatch, digest mismatch) as a cache
//! miss and count it, because a persistent cache must never turn
//! corruption into a wrong answer when recomputing is always possible.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ecl_aaa::Fnv1a;
use ecl_telemetry::bytes::{ByteReader, ByteWriter, CodecError};

/// Envelope magic of one cache file.
const MAGIC: &[u8] = b"ECLC";
/// Envelope version. Version 2 marks the payloads of the closed-form
/// sim kernel: a version-1 file holds runs the RK45 kernel computed, so
/// it loads as a counted miss and is recomputed.
const VERSION: u8 = 2;

/// A directory of content-addressed cache kinds.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    corrupt: AtomicU64,
}

/// FNV-1a digest of a payload, the envelope's integrity check.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(payload);
    h.finish()
}

/// The bytes of one cache file: `payload` filed under `digest` in a
/// `version` envelope.
fn envelope(version: u8, digest: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(payload.len() + 32);
    w.put_raw(MAGIC);
    w.put_u8(version);
    w.put_u64(digest);
    w.put_seq_len(payload.len());
    w.put_raw(payload);
    w.put_u64(checksum(payload));
    w.into_bytes()
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskStore {
            root,
            corrupt: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Defective files seen by [`load`](DiskStore::load)/
    /// [`load_all`](DiskStore::load_all) since open.
    pub fn corrupt_seen(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    fn file_path(&self, kind: &str, digest: u64) -> PathBuf {
        self.root.join(kind).join(format!("{digest:016x}.bin"))
    }

    /// Persists `payload` under `(kind, digest)` atomically
    /// (temp file + rename). Overwrites any previous value.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self, kind: &str, digest: u64, payload: &[u8]) -> std::io::Result<()> {
        let path = self.file_path(kind, digest);
        let dir = path.parent().expect("cache file has a kind directory");
        std::fs::create_dir_all(dir)?;
        // The temp name embeds the digest, so concurrent saves of
        // *different* keys never collide; same-key racers write
        // identical bytes and the last rename wins harmlessly.
        let tmp = dir.join(format!(".{digest:016x}.tmp"));
        std::fs::write(&tmp, envelope(VERSION, digest, payload))?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// Decodes one envelope, checking magic, version, digest and checksum.
    fn decode(expected_digest: u64, bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut r = ByteReader::new(bytes);
        r.expect_magic(MAGIC)?;
        let version = r.get_u8()?;
        if version != VERSION {
            return Err(CodecError::Invalid {
                reason: format!("cache envelope version {version}"),
            });
        }
        let digest = r.get_u64()?;
        if digest != expected_digest {
            return Err(CodecError::Invalid {
                reason: format!("cache file digest {digest:016x} under key {expected_digest:016x}"),
            });
        }
        let len = r.get_seq_len()?;
        let payload = r.get_raw(len)?.to_vec();
        let sum = r.get_u64()?;
        r.finish()?;
        if sum != checksum(&payload) {
            return Err(CodecError::Invalid {
                reason: "cache payload checksum".into(),
            });
        }
        Ok(payload)
    }

    /// The payload stored under `(kind, digest)`, or `None` when the
    /// file is missing or defective (defects are counted, never errors).
    pub fn load(&self, kind: &str, digest: u64) -> Option<Vec<u8>> {
        let path = self.file_path(kind, digest);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => return None,
        };
        match Self::decode(digest, &bytes) {
            Ok(payload) => Some(payload),
            Err(_) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Every valid `(digest, payload)` of `kind`, sorted by digest so
    /// warm-start seeding is deterministic. Defective files are counted
    /// and skipped.
    pub fn load_all(&self, kind: &str) -> Vec<(u64, Vec<u8>)> {
        let dir = self.root.join(kind);
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(_) => return Vec::new(),
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(hex) = name.strip_suffix(".bin") else {
                continue;
            };
            let Ok(digest) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            if let Some(payload) = self.load(kind, digest) {
                out.push((digest, payload));
            }
        }
        out.sort_by_key(|&(digest, _)| digest);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> DiskStore {
        let dir =
            std::env::temp_dir().join(format!("ecl-serve-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DiskStore::open(dir).expect("open temp store")
    }

    #[test]
    fn save_load_round_trip() {
        let store = temp_store("roundtrip");
        assert_eq!(store.load("schedules", 7), None);
        store.save("schedules", 7, b"alpha").unwrap();
        store.save("schedules", 9, b"beta").unwrap();
        assert_eq!(store.load("schedules", 7).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(store.load("schedules", 9).as_deref(), Some(&b"beta"[..]));
        assert_eq!(store.load("responses", 7), None, "kinds are disjoint");
        assert_eq!(
            store.load_all("schedules"),
            vec![(7, b"alpha".to_vec()), (9, b"beta".to_vec())]
        );
        assert_eq!(store.corrupt_seen(), 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corruption_is_a_counted_miss() {
        let store = temp_store("corrupt");
        store.save("runs", 3, b"payload").unwrap();
        // Flip one payload byte on disk; the checksum must catch it.
        let path = store.root().join("runs").join(format!("{:016x}.bin", 3u64));
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 12;
        bytes[at] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(store.load("runs", 3), None);
        assert_eq!(store.corrupt_seen(), 1);
        // A file renamed under the wrong digest must also be rejected.
        store.save("runs", 4, b"other").unwrap();
        let wrong = store.root().join("runs").join(format!("{:016x}.bin", 5u64));
        std::fs::rename(
            store.root().join("runs").join(format!("{:016x}.bin", 4u64)),
            &wrong,
        )
        .unwrap();
        assert_eq!(store.load("runs", 5), None);
        assert_eq!(store.corrupt_seen(), 2);
        assert!(store.load_all("runs").is_empty());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn version_1_envelope_is_a_counted_miss() {
        let store = temp_store("v1");
        store.save("runs", 3, b"payload").unwrap();
        assert_eq!(store.load("runs", 3).as_deref(), Some(&b"payload"[..]));
        // The same payload in an otherwise intact version-1 envelope.
        let path = store.root().join("runs").join(format!("{:016x}.bin", 3u64));
        std::fs::write(&path, envelope(1, 3, b"payload")).unwrap();
        assert_eq!(store.load("runs", 3), None);
        assert_eq!(store.corrupt_seen(), 1);
        assert!(store.load_all("runs").is_empty());
        assert_eq!(store.corrupt_seen(), 2);
        let _ = std::fs::remove_dir_all(store.root());
    }
}
