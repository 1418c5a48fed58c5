//! The on-disk repository: validated load and atomic save.
//!
//! [`ProfileStore::load_any`] returns a profile only when the file is
//! structurally valid and checksummed. Everything else — missing file,
//! I/O error, corruption, version skew — is a [`ColdReason`], so the
//! runtime can count *why* warm starts fail without ever failing the
//! run itself. The runtime checks the profile's fingerprint against the
//! run: a profile measured on another program or configuration is a
//! cold start too.

use std::io;
use std::path::{Path, PathBuf};

use crate::format::ProfileError;
use crate::Profile;

/// Why a load degraded to a cold start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColdReason {
    /// No profile file exists yet (the first run of a workload).
    Missing,
    /// The file exists but could not be read.
    Io(io::ErrorKind),
    /// The file was read but could not be decoded.
    Format(ProfileError),
}

impl std::fmt::Display for ColdReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColdReason::Missing => f.write_str("no profile file"),
            ColdReason::Io(kind) => write!(f, "i/o error: {kind}"),
            ColdReason::Format(e) => write!(f, "{e}"),
        }
    }
}

/// Result of a warm-start load attempt. Never an error: a profile
/// repository must not be able to break the run it is accelerating.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadOutcome {
    /// A valid prior profile; the run it seeds checks its fingerprint.
    Warm(Profile),
    /// Start from scratch; the reason is for telemetry.
    Cold(ColdReason),
}

/// Path-addressed profile repository.
#[derive(Debug, Clone)]
pub struct ProfileStore {
    path: PathBuf,
}

impl ProfileStore {
    /// A store at `path` (conventionally `<name>.hpmprof`).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        ProfileStore { path: path.into() }
    }

    /// The backing file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Load and decode the profile. Its fingerprint is not checked:
    /// the runtime checks it against the run, and the inspect/diff/merge
    /// tool works on any valid file.
    ///
    /// # Errors
    ///
    /// [`ColdReason`] describing why the file is unusable.
    pub fn load_any(&self) -> Result<Profile, ColdReason> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(ColdReason::Missing),
            Err(e) => return Err(ColdReason::Io(e.kind())),
        };
        Profile::decode(&bytes).map_err(ColdReason::Format)
    }

    /// Persist `profile`, creating parent directories as needed. The
    /// write goes through a sibling temp file and a rename, so a crash
    /// mid-save leaves the previous profile intact (a torn write would
    /// otherwise be caught by the checksum and cost one warm start).
    ///
    /// The temp name is unique per process *and* per save (pid plus a
    /// process-wide sequence number), so concurrent savers — the serve
    /// daemon runs many jobs against one repository — never interleave
    /// writes into the same temp file. Each saver renames its own fully
    /// written file over the destination; the last rename wins and every
    /// intermediate state is a complete, checksummed profile.
    ///
    /// # Errors
    ///
    /// Any underlying I/O error.
    pub fn save(&self, profile: &Profile) -> io::Result<u64> {
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let bytes = profile.encode();
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self
            .path
            .with_extension(format!("hpmprof.{}.{}.tmp", std::process::id(), seq));
        std::fs::write(&tmp, &bytes)?;
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(bytes.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecisionKind, Fingerprint};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "hpmopt-store-test-{}-{tag}-{n}.hpmprof",
            std::process::id()
        ))
    }

    fn sample(fp: Fingerprint) -> Profile {
        let mut p = Profile::new(fp);
        p.record_field("String", "value", 50);
        p.record_decision("String", "value", DecisionKind::Enabled, 1000);
        p.seal_run();
        p
    }

    #[test]
    fn save_then_load_is_warm() {
        let fp = Fingerprint::new(7, 8, "db");
        let store = ProfileStore::new(temp_path("warm"));
        let p = sample(fp.clone());
        store.save(&p).unwrap();
        assert_eq!(store.load_any(), Ok(p));
        std::fs::remove_file(store.path()).unwrap();
    }

    #[test]
    fn missing_file_is_cold() {
        let store = ProfileStore::new(temp_path("missing"));
        assert_eq!(store.load_any(), Err(ColdReason::Missing));
    }

    #[test]
    fn garbage_file_is_cold_format() {
        let store = ProfileStore::new(temp_path("garbage"));
        std::fs::write(store.path(), b"this is not a profile").unwrap();
        assert_eq!(
            store.load_any(),
            Err(ColdReason::Format(ProfileError::BadMagic))
        );
        std::fs::remove_file(store.path()).unwrap();
    }

    #[test]
    fn interleaved_writers_never_tear_the_file() {
        // Two threads hammer the same path with save/load/merge
        // sequences. Whatever interleaving the scheduler produces, a
        // concurrent load must only ever observe a complete, checksummed
        // profile (or, transiently on some platforms, no file at all) —
        // never a torn or checksum-failing one. This is the multi-writer
        // regime the serve daemon puts the store in.
        let fp = Fingerprint::new(7, 8, "db");
        let store = ProfileStore::new(temp_path("interleave"));
        store.save(&sample(fp.clone())).unwrap();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let store = store.clone();
                let fp = fp.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..200u64 {
                        let mut p = match store.load_any() {
                            Ok(p) => p,
                            Err(ColdReason::Missing) => sample(fp.clone()),
                            Err(reason) => {
                                panic!("writer {t} iteration {i}: torn read: {reason}")
                            }
                        };
                        let mut fresh = Profile::new(fp.clone());
                        fresh.record_field("Node", "next", t * 1000 + i);
                        fresh.seal_run();
                        p.merge_run(&fresh, 0.5);
                        store.save(&p).unwrap();
                    }
                });
            }
        });
        assert!(store.load_any().is_ok(), "final state decodes");
        std::fs::remove_file(store.path()).unwrap();
    }

    #[test]
    fn save_overwrites_atomically() {
        let fp = Fingerprint::new(7, 8, "db");
        let store = ProfileStore::new(temp_path("overwrite"));
        let mut p = sample(fp.clone());
        store.save(&p).unwrap();
        p.record_field("Node", "next", 5);
        p.seal_run();
        store.save(&p).unwrap();
        assert_eq!(store.load_any(), Ok(p));
        assert!(!store.path().with_extension("hpmprof.tmp").exists());
        std::fs::remove_file(store.path()).unwrap();
    }
}
