//! The content-addressed on-disk plan store.
//!
//! One file per artifact, named by the request's [cache key] rendered as
//! 16 hex characters plus an extension: `.plan` for the plan itself, and
//! sibling `.cert` / `.xmap` files carrying the plan certificate and the
//! canonical X map so `GET /v1/plan/{hash}/verify` can re-check a cached
//! plan without re-planning. Writes go through a temporary file in the
//! same directory followed by a rename, so concurrent readers never
//! observe a half-written artifact and two writers racing on the same
//! key both leave a complete file behind.
//!
//! [cache key]: xhc_wire::plan_request_hash_with_options

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use xhc_wire::hash_hex;

/// A directory of wire-encoded partition plans keyed by request hash.
#[derive(Debug)]
pub struct PlanStore {
    dir: PathBuf,
    tmp_counter: AtomicU64,
}

impl PlanStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created.
    pub fn open(dir: &Path) -> io::Result<PlanStore> {
        fs::create_dir_all(dir)?;
        Ok(PlanStore {
            dir: dir.to_path_buf(),
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path a given key is (or would be) stored at.
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.path_for_ext(key, "plan")
    }

    /// The path of a sibling artifact (`cert`, `xmap`, ...) for `key`.
    pub fn path_for_ext(&self, key: u64, ext: &str) -> PathBuf {
        self.dir.join(format!("{}.{ext}", hash_hex(key)))
    }

    /// Loads the plan stored under `key`, if any.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than "not found".
    pub fn load(&self, key: u64) -> io::Result<Option<Vec<u8>>> {
        self.load_ext(key, "plan")
    }

    /// Loads the sibling artifact with extension `ext` for `key`, if any.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than "not found".
    pub fn load_ext(&self, key: u64, ext: &str) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.path_for_ext(key, ext)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Atomically stores `bytes` under `key` (write to a unique temp file
    /// in the store directory, then rename over the final name).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on write or rename failure.
    pub fn save(&self, key: u64, bytes: &[u8]) -> io::Result<()> {
        self.save_ext(key, "plan", bytes)
    }

    /// Atomically stores a sibling artifact with extension `ext`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on write or rename failure.
    pub fn save_ext(&self, key: u64, ext: &str, bytes: &[u8]) -> io::Result<()> {
        let unique = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".{}.{}.{unique}.tmp",
            hash_hex(key),
            std::process::id()
        ));
        fs::write(&tmp, bytes)?;
        match fs::rename(&tmp, self.path_for_ext(key, ext)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Number of plans currently stored (counts `.plan` files).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be read.
    pub fn len(&self) -> io::Result<usize> {
        let mut n = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "plan") {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Whether the store holds no plans.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be read.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xhc-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = temp_dir("roundtrip");
        let store = PlanStore::open(&dir).unwrap();
        assert!(store.is_empty().unwrap());
        assert_eq!(store.load(7).unwrap(), None);
        store.save(7, b"plan bytes").unwrap();
        assert_eq!(store.load(7).unwrap().as_deref(), Some(&b"plan bytes"[..]));
        assert_eq!(store.len().unwrap(), 1);
        // Overwrite is idempotent and leaves no temp files behind.
        store.save(7, b"plan bytes").unwrap();
        assert_eq!(store.len().unwrap(), 1);
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sibling_artifacts_live_beside_the_plan() {
        let dir = temp_dir("siblings");
        let store = PlanStore::open(&dir).unwrap();
        store.save(3, b"plan").unwrap();
        store.save_ext(3, "cert", b"cert").unwrap();
        store.save_ext(3, "xmap", b"xmap").unwrap();
        assert_eq!(
            store.load_ext(3, "cert").unwrap().as_deref(),
            Some(&b"cert"[..])
        );
        assert_eq!(
            store.load_ext(3, "xmap").unwrap().as_deref(),
            Some(&b"xmap"[..])
        );
        assert_eq!(store.load_ext(4, "cert").unwrap(), None);
        // Only `.plan` files count toward the store size.
        assert_eq!(store.len().unwrap(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_map_to_distinct_hex_names() {
        let dir = temp_dir("names");
        let store = PlanStore::open(&dir).unwrap();
        let p1 = store.path_for(0x0123_4567_89ab_cdef);
        assert!(p1.ends_with("0123456789abcdef.plan"));
        assert_ne!(p1, store.path_for(1));
        fs::remove_dir_all(&dir).unwrap();
    }
}
