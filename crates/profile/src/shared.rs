//! Shared, concurrently updated in-process profile repository.
//!
//! The on-disk [`crate::store::ProfileStore`] persists one profile per
//! path and serves one run at a time. A long-lived multi-tenant service
//! needs the same repository semantics *in memory*, shared by many
//! concurrent jobs: a job **checks out** a warm profile keyed by its
//! program+config [`Fingerprint`] at admission, runs with the seeds,
//! and **merges** its freshly measured results back on completion with
//! the same exponential decay the file store uses
//! ([`Profile::merge_run`]). One tenant's finished run is the next
//! tenant's warm start, so cycles-to-first-decision drops fleet-wide as
//! traffic flows.
//!
//! Concurrency model: the fingerprint space is split across
//! [`RepoConfig::shards`] independently locked shards (fingerprint hash
//! picks the shard), so two jobs touching different programs never
//! contend on the same mutex. Checkout clones the stored profile (jobs
//! never hold a lock while running), merge mutates under the shard
//! lock, and both are far off any hot path — a job performs exactly one
//! checkout and at most one merge for an execution of millions of
//! simulated cycles. Counters are relaxed atomics so stats reads never
//! contend with the maps.
//!
//! The repository is **bounded**: [`RepoConfig::capacity_bytes`] caps
//! the decay-merged state (approximated by [`Profile::approx_bytes`],
//! split evenly across shards) with least-recently-used eviction, and
//! [`RepoConfig::ttl_ops`] expires fingerprints that have not been
//! touched for that many repository operations (checkouts + merges, a
//! logical clock). An evicted fingerprint simply falls back to a cold
//! start on its next checkout — eviction is a performance event, never
//! an error — and is counted in [`RepoStats::evictions`]. Unbounded
//! behaviour ([`SharedProfileRepo::new`]) is unchanged from before the
//! bound existed.
//!
//! The repository can spill to / preload from a directory of
//! `.hpmprof` files ([`SharedProfileRepo::persist`],
//! [`SharedProfileRepo::preload`]), giving the daemon warm starts
//! across restarts without putting disk I/O on the job path.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::store::ProfileStore;
use crate::{Fingerprint, Profile};

/// Map key: the fingerprint flattened into an orderable tuple so
/// iteration (and therefore persistence and debug listings) is
/// deterministic.
type RepoKey = (u64, u64, String);

fn key_of(fp: &Fingerprint) -> RepoKey {
    (fp.program_hash, fp.config_hash, fp.workload.clone())
}

/// The hash both sharded structures pick a shard with: this repository
/// (over a key's bytes) and the serve scheduler (over a tenant name).
/// It has FNV-1a's offset basis and shape, but multiplies by
/// `0x1_0000_0000_01b3` rather than the FNV prime of
/// [`crate::wire::fnv1a`]. The two agree only in their low 40 bits, so
/// swapping one for the other keeps power-of-two shard counts but moves
/// keys between shards at any other count.
#[must_use]
pub fn shard_hash(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3)
    })
}

fn hash_key((program, config, workload): &RepoKey) -> u64 {
    let [program, config] = [program, config].map(|n| n.to_le_bytes());
    shard_hash(program.into_iter().chain(config).chain(workload.bytes()))
}

/// Bounding and sharding parameters of a [`SharedProfileRepo`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoConfig {
    /// Independently locked shards the fingerprint space is split
    /// across (clamped to ≥ 1). More shards, less lock contention.
    pub shards: usize,
    /// Total byte budget for held profiles (approximated by
    /// [`Profile::approx_bytes`]), split evenly across shards. When a
    /// merge pushes a shard over its slice, least-recently-used
    /// fingerprints are evicted until it fits again (the just-merged
    /// fingerprint is never the victim, so one oversized profile can
    /// keep its shard marginally over budget rather than thrash).
    /// `None` leaves the repository unbounded.
    pub capacity_bytes: Option<u64>,
    /// Expire fingerprints untouched for this many repository
    /// operations (each checkout or merge advances the logical clock by
    /// one). Expiry is enforced lazily at the next access of the shard.
    /// `None` disables TTL.
    pub ttl_ops: Option<u64>,
}

impl Default for RepoConfig {
    fn default() -> Self {
        RepoConfig {
            shards: 8,
            capacity_bytes: None,
            ttl_ops: None,
        }
    }
}

/// Monotonic activity counters of a [`SharedProfileRepo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepoStats {
    /// Checkout attempts.
    pub checkouts: u64,
    /// Checkouts that found a prior profile (warm).
    pub warm_checkouts: u64,
    /// Checkouts that found nothing (cold).
    pub cold_checkouts: u64,
    /// Completed-run merges.
    pub merges: u64,
    /// Fingerprints dropped by the capacity or TTL bound (total).
    pub evictions: u64,
    /// The TTL share of [`RepoStats::evictions`].
    pub ttl_evictions: u64,
}

struct Entry {
    profile: Profile,
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: BTreeMap<RepoKey, Entry>,
    bytes: u64,
}

/// The shared in-process repository. `Send + Sync`; share it between
/// worker threads behind an `Arc`.
pub struct SharedProfileRepo {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: Option<u64>,
    ttl_ops: Option<u64>,
    clock: AtomicU64,
    checkouts: AtomicU64,
    warm_checkouts: AtomicU64,
    cold_checkouts: AtomicU64,
    merges: AtomicU64,
    evictions: AtomicU64,
    ttl_evictions: AtomicU64,
}

impl std::fmt::Debug for SharedProfileRepo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedProfileRepo")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("ttl_ops", &self.ttl_ops)
            .field("len", &self.len())
            .finish()
    }
}

impl Default for SharedProfileRepo {
    fn default() -> Self {
        Self::with_config(RepoConfig::default())
    }
}

impl SharedProfileRepo {
    /// An empty, unbounded repository (default shard count).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty repository with explicit sharding and bounds.
    #[must_use]
    pub fn with_config(config: RepoConfig) -> Self {
        let shards = config.shards.max(1);
        SharedProfileRepo {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            // Round up so the slices never sum below the requested
            // total; a capacity smaller than the shard count still
            // gives every shard at least one byte of budget.
            shard_capacity: config.capacity_bytes.map(|c| c.div_ceil(shards as u64)),
            ttl_ops: config.ttl_ops,
            clock: AtomicU64::new(0),
            checkouts: AtomicU64::new(0),
            warm_checkouts: AtomicU64::new(0),
            cold_checkouts: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            ttl_evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &RepoKey) -> &Mutex<Shard> {
        &self.shards[(hash_key(key) % self.shards.len() as u64) as usize]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Drop every entry of `shard` whose idle time exceeds the TTL,
    /// except `keep` (the key being touched right now).
    fn expire(&self, shard: &mut Shard, now: u64, keep: Option<&RepoKey>) {
        let Some(ttl) = self.ttl_ops else { return };
        let dead: Vec<RepoKey> = shard
            .map
            .iter()
            .filter(|(k, e)| Some(*k) != keep && now.saturating_sub(e.last_used) > ttl)
            .map(|(k, _)| k.clone())
            .collect();
        for k in dead {
            if let Some(e) = shard.map.remove(&k) {
                shard.bytes = shard.bytes.saturating_sub(e.bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.ttl_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Evict least-recently-used entries (never `keep`) until the shard
    /// fits its capacity slice again.
    fn enforce_capacity(&self, shard: &mut Shard, keep: &RepoKey) {
        let Some(cap) = self.shard_capacity else {
            return;
        };
        while shard.bytes > cap {
            let victim = shard
                .map
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(k, e)| (e.last_used, (*k).clone()))
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(e) = shard.map.remove(&victim) {
                shard.bytes = shard.bytes.saturating_sub(e.bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Check out the current profile for `fp`, if any. The returned
    /// clone is the job's private warm-start input; the repository copy
    /// keeps evolving under other tenants' merges in the meantime. A
    /// fingerprint past its TTL is evicted here and reported cold.
    #[must_use]
    pub fn checkout(&self, fp: &Fingerprint) -> Option<Profile> {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        let now = self.tick();
        let key = key_of(fp);
        let got = {
            let mut shard = self.shard_of(&key).lock().unwrap();
            self.expire(&mut shard, now, None);
            match shard.map.get_mut(&key) {
                Some(entry) => {
                    entry.last_used = now;
                    Some(entry.profile.clone())
                }
                None => None,
            }
        };
        match &got {
            Some(_) => self.warm_checkouts.fetch_add(1, Ordering::Relaxed),
            None => self.cold_checkouts.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Merge one finished run's freshly measured profile (seeds already
    /// subtracted, **not** pre-merged) into the repository with
    /// exponential decay `decay`, keyed by the fresh profile's own
    /// fingerprint. The first merge for a fingerprint installs the
    /// fresh profile as-is. Capacity and TTL bounds are enforced here,
    /// after the merge; the merged fingerprint itself is never evicted.
    pub fn merge(&self, fresh: &Profile, decay: f64) {
        self.merges.fetch_add(1, Ordering::Relaxed);
        let now = self.tick();
        let key = key_of(&fresh.fingerprint);
        let mut shard = self.shard_of(&key).lock().unwrap();
        self.expire(&mut shard, now, Some(&key));
        match shard.map.get_mut(&key) {
            Some(entry) => {
                entry.profile.merge_run(fresh, decay);
                let bytes = entry.profile.approx_bytes();
                let old_bytes = std::mem::replace(&mut entry.bytes, bytes);
                entry.last_used = now;
                shard.bytes = shard.bytes.saturating_sub(old_bytes) + bytes;
            }
            None => {
                let bytes = fresh.approx_bytes();
                shard.map.insert(
                    key.clone(),
                    Entry {
                        profile: fresh.clone(),
                        bytes,
                        last_used: now,
                    },
                );
                shard.bytes += bytes;
            }
        }
        self.enforce_capacity(&mut shard, &key);
    }

    /// Number of distinct fingerprints held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Whether the repository holds nothing yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a profile for `fp` is currently held (TTL ignored: an
    /// expired-but-unswept entry still counts until its shard is next
    /// touched).
    #[must_use]
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        let key = key_of(fp);
        self.shard_of(&key).lock().unwrap().map.contains_key(&key)
    }

    /// Approximate bytes currently held across all shards.
    #[must_use]
    pub fn held_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unwrap().bytes).sum()
    }

    /// Runs merged into the profile for `fp` (0 when absent).
    #[must_use]
    pub fn runs_for(&self, fp: &Fingerprint) -> u32 {
        let key = key_of(fp);
        self.shard_of(&key)
            .lock()
            .unwrap()
            .map
            .get(&key)
            .map_or(0, |e| e.profile.runs)
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> RepoStats {
        RepoStats {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            warm_checkouts: self.warm_checkouts.load(Ordering::Relaxed),
            cold_checkouts: self.cold_checkouts.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ttl_evictions: self.ttl_evictions.load(Ordering::Relaxed),
        }
    }

    /// Write every held profile into `dir` (one `.hpmprof` file per
    /// fingerprint, named by its hashes), creating the directory as
    /// needed. Returns the number of files written. Iteration is in
    /// key order across all shards, so the file set is deterministic
    /// for a given held set.
    ///
    /// # Errors
    ///
    /// The first underlying I/O error.
    pub fn persist(&self, dir: &Path) -> io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let mut snapshot: BTreeMap<RepoKey, Profile> = BTreeMap::new();
        for s in &self.shards {
            let shard = s.lock().unwrap();
            for (k, e) in &shard.map {
                snapshot.insert(k.clone(), e.profile.clone());
            }
        }
        for p in snapshot.values() {
            ProfileStore::new(dir.join(file_name(&p.fingerprint))).save(p)?;
        }
        Ok(snapshot.len())
    }

    /// Load every decodable `.hpmprof` file in `dir` into the
    /// repository (skipping corrupt or unreadable files — a damaged
    /// spill directory must not stop the daemon). Returns how many
    /// profiles were installed. A missing directory installs zero.
    pub fn preload(&self, dir: &Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        let mut loaded = 0;
        let mut paths: Vec<_> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "hpmprof"))
            .collect();
        paths.sort();
        for path in paths {
            let Ok(p) = ProfileStore::new(&path).load_any() else {
                continue;
            };
            let now = self.tick();
            let key = key_of(&p.fingerprint);
            let bytes = p.approx_bytes();
            let mut shard = self.shard_of(&key).lock().unwrap();
            if let Some(old) = shard.map.insert(
                key.clone(),
                Entry {
                    profile: p,
                    bytes,
                    last_used: now,
                },
            ) {
                shard.bytes = shard.bytes.saturating_sub(old.bytes);
            }
            shard.bytes += bytes;
            self.enforce_capacity(&mut shard, &key);
            loaded += 1;
        }
        loaded
    }
}

/// Deterministic spill file name for a fingerprint. The workload label
/// is sanitized into `[A-Za-z0-9_-]` so it stays a portable path
/// component.
fn file_name(fp: &Fingerprint) -> String {
    let label: String = fp
        .workload
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!(
        "{:016x}-{:016x}-{label}.hpmprof",
        fp.program_hash, fp.config_hash
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::new(n, 2, "db")
    }

    fn fresh_run(fp_: Fingerprint, misses: u64) -> Profile {
        let mut p = Profile::new(fp_);
        p.record_field("String", "value", misses);
        p.seal_run();
        p
    }

    /// Every fingerprint in one shard: capacity and TTL tests become
    /// deterministic regardless of how keys hash.
    fn single_shard(capacity_bytes: Option<u64>, ttl_ops: Option<u64>) -> SharedProfileRepo {
        SharedProfileRepo::with_config(RepoConfig {
            shards: 1,
            capacity_bytes,
            ttl_ops,
        })
    }

    #[test]
    fn checkout_miss_then_merge_then_warm() {
        let repo = SharedProfileRepo::new();
        assert!(repo.checkout(&fp(1)).is_none());
        repo.merge(&fresh_run(fp(1), 100), 0.5);
        let warm = repo.checkout(&fp(1)).expect("warm after merge");
        assert_eq!(warm.field_weight("String", "value"), 100.0);
        assert_eq!(repo.runs_for(&fp(1)), 1);
        assert!(repo.contains(&fp(1)));
        assert!(repo.checkout(&fp(2)).is_none(), "other fingerprints cold");
        let stats = repo.stats();
        assert_eq!(stats.checkouts, 3);
        assert_eq!(stats.warm_checkouts, 1);
        assert_eq!(stats.cold_checkouts, 2);
        assert_eq!(stats.merges, 1);
        assert_eq!(stats.evictions, 0, "unbounded repo never evicts");
    }

    #[test]
    fn merge_applies_decay_like_the_file_store() {
        let repo = SharedProfileRepo::new();
        repo.merge(&fresh_run(fp(1), 100), 0.5);
        repo.merge(&fresh_run(fp(1), 10), 0.5);
        let p = repo.checkout(&fp(1)).unwrap();
        assert_eq!(p.field_weight("String", "value"), 60.0, "100*0.5 + 10");
        assert_eq!(p.runs, 2);
    }

    #[test]
    fn concurrent_checkout_merge_is_consistent() {
        let repo = SharedProfileRepo::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let repo = &repo;
                s.spawn(move || {
                    for i in 0..50 {
                        let _ = repo.checkout(&fp(t % 2));
                        repo.merge(&fresh_run(fp(t % 2), i + 1), 0.5);
                    }
                });
            }
        });
        assert_eq!(repo.len(), 2);
        let stats = repo.stats();
        assert_eq!(stats.checkouts, 200);
        assert_eq!(stats.merges, 200);
        // 100 merges per fingerprint, whatever the interleaving.
        assert_eq!(repo.runs_for(&fp(0)), 100);
        assert_eq!(repo.runs_for(&fp(1)), 100);
    }

    #[test]
    fn capacity_bound_evicts_lru_and_falls_back_to_cold() {
        let one = fresh_run(fp(1), 100).approx_bytes();
        // Room for one profile but not two.
        let repo = single_shard(Some(one + one / 2), None);
        repo.merge(&fresh_run(fp(1), 100), 0.5);
        repo.merge(&fresh_run(fp(2), 50), 0.5); // evicts fp(1): LRU
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.stats().evictions, 1);
        assert!(!repo.contains(&fp(1)), "LRU victim gone");
        assert!(repo.contains(&fp(2)), "just-merged survivor kept");
        assert!(repo.checkout(&fp(1)).is_none(), "evicted falls back cold");
        assert!(repo.checkout(&fp(2)).is_some());

        // Touch order decides the victim: warm fp(2) again, then merge
        // fp(3) twice the budget's worth — fp(2) was used more recently
        // than a re-merged fp(1), so fp(1) goes first.
        repo.merge(&fresh_run(fp(1), 10), 0.5);
        let _ = repo.checkout(&fp(2));
        repo.merge(&fresh_run(fp(3), 10), 0.5);
        assert!(!repo.contains(&fp(1)), "least recently used loses");
        assert!(repo.held_bytes() <= one + one / 2);
    }

    #[test]
    fn oversized_profile_is_kept_not_thrashed() {
        let repo = single_shard(Some(1), None);
        repo.merge(&fresh_run(fp(1), 100), 0.5);
        assert_eq!(repo.len(), 1, "the just-merged entry is never evicted");
        repo.merge(&fresh_run(fp(2), 100), 0.5);
        assert_eq!(repo.len(), 1, "but it is fair game for the next merge");
        assert!(repo.contains(&fp(2)));
    }

    #[test]
    fn ttl_expires_idle_fingerprints() {
        let repo = single_shard(None, Some(3));
        repo.merge(&fresh_run(fp(1), 100), 0.5); // op 1
        repo.merge(&fresh_run(fp(2), 100), 0.5); // op 2
                                                 // Keep fp(2) warm while fp(1) idles past the TTL.
        let _ = repo.checkout(&fp(2)); // op 3
        let _ = repo.checkout(&fp(2)); // op 4
        let _ = repo.checkout(&fp(2)); // op 5: fp(1) idle for 4 > 3 ops
        assert!(!repo.contains(&fp(1)), "idle fingerprint expired");
        assert!(repo.contains(&fp(2)), "active fingerprint survives");
        let stats = repo.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.ttl_evictions, 1);
        assert!(repo.checkout(&fp(1)).is_none(), "expired is cold");
    }

    #[test]
    fn key_hash_is_pinned() {
        // A changed value moves fingerprints between shards, and with
        // them every per-shard eviction.
        assert_eq!(
            hash_key(&(0x0123_4567_89ab_cdef, 42, "db".to_string())),
            0x9f57_b117_f4be_d979
        );
        assert_eq!(
            hash_key(&(7, u64::MAX, "hsqldb".to_string())),
            0x8fa0_bd5e_52ec_ace0
        );
    }

    #[test]
    fn sharding_preserves_totals() {
        let repo = SharedProfileRepo::with_config(RepoConfig {
            shards: 7,
            ..RepoConfig::default()
        });
        for n in 0..20 {
            repo.merge(&fresh_run(fp(n), n + 1), 0.5);
        }
        assert_eq!(repo.len(), 20);
        assert_eq!(repo.stats().merges, 20);
        for n in 0..20 {
            assert_eq!(repo.runs_for(&fp(n)), 1);
        }
    }

    #[test]
    fn persist_and_preload_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "hpmopt-shared-repo-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let repo = SharedProfileRepo::new();
        repo.merge(&fresh_run(fp(1), 100), 0.5);
        repo.merge(&fresh_run(fp(2), 50), 0.5);
        assert_eq!(repo.persist(&dir).unwrap(), 2);

        let back = SharedProfileRepo::new();
        assert_eq!(back.preload(&dir), 2);
        assert_eq!(back.len(), 2);
        assert_eq!(
            back.checkout(&fp(1))
                .unwrap()
                .field_weight("String", "value"),
            100.0
        );
        assert_eq!(back.preload(Path::new("/nonexistent/dir")), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
