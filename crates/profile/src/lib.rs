//! Persistent profile repository: cross-run warm start for the
//! co-allocation optimizer.
//!
//! The paper's online pipeline learns everything from scratch on every
//! VM invocation: PEBS samples accumulate until per-field miss counts
//! cross the decision threshold, so every run pays the full sampling
//! warm-up before the first optimization fires. This crate persists
//! what a run learned — per-class/per-field miss histograms, the policy
//! decision log, and a workload fingerprint — so the *next* run of the
//! same program can seed its monitor and policy at startup and install
//! co-allocation decisions at the first nursery collection. (The paper
//! has no persistence; see DESIGN.md for the deviation note.)
//!
//! Like `hpmopt-telemetry`, the crate is dependency-free: the on-disk
//! format is hand-rolled little-endian serialization
//! ([`wire`]/[`format`](mod@format)) with a magic number, a format version, and an
//! FNV-1a checksum over the payload. Loading is total: corruption,
//! truncation or version skew never panic — they degrade to a cold
//! start ([`store::LoadOutcome::Cold`]), as does a prior whose
//! fingerprint does not match the run, and the runtime surfaces both
//! through `profile.*` telemetry counters.
//!
//! The crate speaks *names* (class/field strings) and plain integers,
//! not `hpmopt-bytecode` ids: ids are only meaningful for the program
//! instance that issued them, while a profile must survive across
//! processes. `hpmopt-core` resolves names back to ids when seeding.
//!
//! ```
//! use hpmopt_profile::{DecisionKind, Fingerprint, Profile};
//!
//! let mut p = Profile::new(Fingerprint::new(0xfeed, 0xbeef, "db"));
//! p.record_field("String", "value", 120);
//! p.record_decision("String", "value", DecisionKind::Enabled, 40_000);
//! p.seal_run();
//!
//! let bytes = p.encode();
//! let back = Profile::decode(&bytes).expect("round trip");
//! assert_eq!(back, p);
//! assert_eq!(back.field_weight("String", "value"), 120.0);
//! ```

pub mod format;
pub mod inspect;
pub mod shared;
pub mod store;
pub mod wire;

pub use format::{ProfileError, FORMAT_VERSION, MAGIC};
pub use shared::{RepoConfig, RepoStats, SharedProfileRepo};
pub use store::{ColdReason, LoadOutcome, ProfileStore};

/// Identity of the (program, machine) a profile was measured on.
///
/// A profile is only valid warm-start input for a run with the *same*
/// fingerprint: miss histograms are meaningless for different code, and
/// decisions tuned for one cache geometry can hurt another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Hash of the program structure (classes, fields, method bodies).
    pub program_hash: u64,
    /// Hash of the heap + memory-hierarchy configuration.
    pub config_hash: u64,
    /// Human-readable workload label (informational, but also matched).
    pub workload: String,
}

impl Fingerprint {
    /// Build a fingerprint from its components.
    #[must_use]
    pub fn new(program_hash: u64, config_hash: u64, workload: &str) -> Self {
        Fingerprint {
            program_hash,
            config_hash,
            workload: workload.to_string(),
        }
    }
}

/// What the policy did, as recorded in the decision log of the most
/// recent run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DecisionKind {
    /// Adaptive decision enabled from live samples.
    Enabled = 0,
    /// Externally pinned decision (the Figure 8 experiment).
    Pinned = 1,
    /// Decision reverted by the feedback assessor.
    Reverted = 2,
    /// Decision installed at startup from this repository.
    WarmStarted = 3,
}

impl DecisionKind {
    /// Decode from the wire byte.
    #[must_use]
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(DecisionKind::Enabled),
            1 => Some(DecisionKind::Pinned),
            2 => Some(DecisionKind::Reverted),
            3 => Some(DecisionKind::WarmStarted),
            _ => None,
        }
    }

    /// Stable lowercase name for rendering.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::Enabled => "enabled",
            DecisionKind::Pinned => "pinned",
            DecisionKind::Reverted => "reverted",
            DecisionKind::WarmStarted => "warm_started",
        }
    }
}

/// One entry of the persisted decision log.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Class name the decision concerns.
    pub class: String,
    /// Field name (empty for class-wide actions like reverts).
    pub field: String,
    /// What happened.
    pub kind: DecisionKind,
    /// Simulated cycle of the event within its run.
    pub cycles: u64,
}

/// Decay-merged miss history of one reference field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldProfile {
    /// Owning class name.
    pub class: String,
    /// Field name within the class.
    pub field: String,
    /// Exponentially decayed sampled-miss weight across runs. After a
    /// merge with decay `d`: `weight = old_weight * d + latest_misses`.
    pub weight: f64,
    /// Raw sampled misses of the most recent run (undecayed, for
    /// inspect/diff).
    pub last_run_misses: u64,
}

/// The decay every merge applies ([`Profile::merge_run`]): the runtime's
/// disk save, the shared repository's merges in the serve daemon and its
/// load generator, and the default of `hpmopt-profile merge --decay`.
pub const MERGE_DECAY: f64 = 0.5;

/// A complete persisted profile: fingerprint, run count, per-field miss
/// histogram, and the most recent run's decision log.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Which (program, config) this was measured on.
    pub fingerprint: Fingerprint,
    /// Number of runs merged into [`FieldProfile::weight`].
    pub runs: u32,
    /// Per-field decayed miss histogram, hottest first after
    /// [`Profile::seal_run`].
    pub fields: Vec<FieldProfile>,
    /// Decision log of the most recent run.
    pub decisions: Vec<DecisionRecord>,
    /// Methods the tiered JIT promoted past baseline in the most recent
    /// run (bare method names). A warm start folds these into the VM's
    /// compilation plan so hot methods skip the tier-1 warm-up. Format
    /// v1 files load with this empty.
    pub hot_methods: Vec<String>,
}

impl Profile {
    /// An empty profile for `fingerprint` (zero runs).
    #[must_use]
    pub fn new(fingerprint: Fingerprint) -> Self {
        Profile {
            fingerprint,
            runs: 0,
            fields: Vec::new(),
            decisions: Vec::new(),
            hot_methods: Vec::new(),
        }
    }

    /// Record a method the JIT promoted past baseline this run
    /// (deduplicated, insertion order preserved).
    pub fn record_hot_method(&mut self, name: &str) {
        if !self.hot_methods.iter().any(|m| m == name) {
            self.hot_methods.push(name.to_string());
        }
    }

    /// Record (or accumulate) one field's sampled misses for the
    /// current run.
    pub fn record_field(&mut self, class: &str, field: &str, misses: u64) {
        match self.field_mut(class, field) {
            Some(f) => {
                f.weight += misses as f64;
                f.last_run_misses += misses;
            }
            None => self.fields.push(FieldProfile {
                class: class.to_string(),
                field: field.to_string(),
                weight: misses as f64,
                last_run_misses: misses,
            }),
        }
    }

    /// Append one decision-log entry.
    pub fn record_decision(&mut self, class: &str, field: &str, kind: DecisionKind, cycles: u64) {
        self.decisions.push(DecisionRecord {
            class: class.to_string(),
            field: field.to_string(),
            kind,
            cycles,
        });
    }

    /// Close the current run: bump the run count and sort fields
    /// hottest-first (ties broken by name for determinism).
    pub fn seal_run(&mut self) {
        self.runs += 1;
        self.sort_fields();
    }

    fn sort_fields(&mut self) {
        self.fields.sort_by(|a, b| {
            b.weight
                .total_cmp(&a.weight)
                .then_with(|| a.class.cmp(&b.class))
                .then_with(|| a.field.cmp(&b.field))
        });
    }

    fn field_mut(&mut self, class: &str, field: &str) -> Option<&mut FieldProfile> {
        self.fields
            .iter_mut()
            .find(|f| f.class == class && f.field == field)
    }

    /// Deterministic approximation of this profile's in-memory
    /// footprint, used by [`SharedProfileRepo`]'s byte-capacity bound.
    /// Counts struct sizes plus owned string bytes; deliberately
    /// ignores allocator overhead and `Vec` spare capacity so the same
    /// logical profile always reports the same size on every platform.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        let mut bytes = std::mem::size_of::<Profile>() as u64;
        bytes += self.fingerprint.workload.len() as u64;
        for f in &self.fields {
            bytes += std::mem::size_of::<FieldProfile>() as u64;
            bytes += (f.class.len() + f.field.len()) as u64;
        }
        for d in &self.decisions {
            bytes += std::mem::size_of::<DecisionRecord>() as u64;
            bytes += (d.class.len() + d.field.len()) as u64;
        }
        for m in &self.hot_methods {
            bytes += std::mem::size_of::<String>() as u64 + m.len() as u64;
        }
        bytes
    }

    /// Current decayed weight of a field (0 when unknown).
    #[must_use]
    pub fn field_weight(&self, class: &str, field: &str) -> f64 {
        self.fields
            .iter()
            .find(|f| f.class == class && f.field == field)
            .map_or(0.0, |f| f.weight)
    }

    /// Classes whose *last* decision-log entry is a revert: their
    /// decisions regressed and must not be re-seeded next run.
    #[must_use]
    pub fn reverted_classes(&self) -> Vec<&str> {
        let mut last: Vec<(&str, DecisionKind)> = Vec::new();
        for d in &self.decisions {
            match last.iter_mut().find(|(c, _)| *c == d.class) {
                Some(slot) => slot.1 = d.kind,
                None => last.push((&d.class, d.kind)),
            }
        }
        last.iter()
            .filter(|(_, k)| *k == DecisionKind::Reverted)
            .map(|(c, _)| *c)
            .collect()
    }

    /// Merge a freshly measured run into this (prior) profile with
    /// exponential decay: old weights are multiplied by `decay`
    /// (clamped to `[0, 1]`), then the fresh run's misses are added.
    /// The decision log and `last_run_misses` are replaced by the fresh
    /// run's; the run count accumulates.
    pub fn merge_run(&mut self, fresh: &Profile, decay: f64) {
        let decay = decay.clamp(0.0, 1.0);
        for f in &mut self.fields {
            f.weight *= decay;
            f.last_run_misses = 0;
        }
        for f in &fresh.fields {
            match self.field_mut(&f.class, &f.field) {
                Some(prior) => {
                    prior.weight += f.last_run_misses as f64;
                    prior.last_run_misses = f.last_run_misses;
                }
                None => self.fields.push(FieldProfile {
                    class: f.class.clone(),
                    field: f.field.clone(),
                    weight: f.last_run_misses as f64,
                    last_run_misses: f.last_run_misses,
                }),
            }
        }
        self.decisions = fresh.decisions.clone();
        self.hot_methods = fresh.hot_methods.clone();
        self.runs += 1;
        self.sort_fields();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint::new(1, 2, "db")
    }

    #[test]
    fn record_accumulates_and_seal_sorts() {
        let mut p = Profile::new(fp());
        p.record_field("A", "x", 5);
        p.record_field("B", "y", 20);
        p.record_field("A", "x", 5);
        p.seal_run();
        assert_eq!(p.runs, 1);
        assert_eq!(p.fields[0].class, "B", "hottest first");
        assert_eq!(p.field_weight("A", "x"), 10.0);
        assert_eq!(p.fields[1].last_run_misses, 10);
    }

    #[test]
    fn merge_decays_prior_weight() {
        let mut prior = Profile::new(fp());
        prior.record_field("A", "x", 100);
        prior.record_field("A", "gone", 40);
        prior.seal_run();

        let mut fresh = Profile::new(fp());
        fresh.record_field("A", "x", 10);
        fresh.record_field("B", "new", 30);
        fresh.record_decision("A", "x", DecisionKind::Enabled, 7);
        fresh.seal_run();

        prior.merge_run(&fresh, 0.5);
        assert_eq!(prior.runs, 2);
        assert_eq!(prior.field_weight("A", "x"), 60.0, "100*0.5 + 10");
        assert_eq!(prior.field_weight("A", "gone"), 20.0, "decays toward 0");
        assert_eq!(prior.field_weight("B", "new"), 30.0);
        assert_eq!(prior.decisions.len(), 1, "log replaced by fresh run");
    }

    #[test]
    fn reverted_classes_use_last_entry() {
        let mut p = Profile::new(fp());
        p.record_decision("A", "x", DecisionKind::Enabled, 1);
        p.record_decision("A", "", DecisionKind::Reverted, 2);
        p.record_decision("B", "y", DecisionKind::Enabled, 3);
        p.record_decision("C", "", DecisionKind::Reverted, 4);
        p.record_decision("C", "z", DecisionKind::Enabled, 5);
        assert_eq!(p.reverted_classes(), vec!["A"], "B active, C re-enabled");
    }

    #[test]
    fn decision_kind_round_trips() {
        for kind in [
            DecisionKind::Enabled,
            DecisionKind::Pinned,
            DecisionKind::Reverted,
            DecisionKind::WarmStarted,
        ] {
            assert_eq!(DecisionKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(DecisionKind::from_u8(200), None);
    }
}
