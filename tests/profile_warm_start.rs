//! End-to-end warm start through the facade crate: a profile saved by
//! one run seeds the next, and a damaged profile degrades to a cold
//! start instead of an error.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use hpmopt::core::runtime::{HpmRuntime, RunConfig, RunReport};
use hpmopt::core::{warmstart, ProfileOptions};
use hpmopt::gc::{CollectorKind, HeapConfig};
use hpmopt::hpm::{HpmConfig, SamplingInterval};
use hpmopt::profile::{LoadOutcome, ProfileStore};
use hpmopt::telemetry::{MetricId, Telemetry, DEFAULT_TRACE_CAPACITY};
use hpmopt::vm::VmConfig;
use hpmopt::workloads::{self, Size, Workload};

/// A collision-free scratch path for one test.
fn temp_profile(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "hpmopt-e2e-{tag}-{}-{}.hpmprof",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn config(w: &Workload, profile: ProfileOptions, telemetry: Telemetry) -> RunConfig {
    let vm = VmConfig {
        heap: HeapConfig {
            heap_bytes: w.min_heap_bytes * 4,
            nursery_bytes: 256 * 1024,
            los_bytes: 64 * 1024 * 1024,
            collector: CollectorKind::GenMs,
            ..Default::default()
        },
        ..VmConfig::default()
    };
    RunConfig {
        vm,
        hpm: HpmConfig {
            interval: SamplingInterval::Fixed(1024),
            buffer_capacity: 256,
            cpu_hz: 100_000_000,
            ..HpmConfig::default()
        },
        coalloc: true,
        profile,
        telemetry,
        ..RunConfig::default()
    }
}

/// Run `w` labelled `workload`, warm-starting from the profile at
/// `path` and saving the merged profile back, as `hpmopt-report
/// --profile` does.
fn run(w: &Workload, path: &Path, workload: &str, telemetry: Telemetry) -> RunReport {
    let store = ProfileStore::new(path);
    let prior = store
        .load_any()
        .map_or_else(LoadOutcome::Cold, LoadOutcome::Warm);
    let profile = ProfileOptions {
        workload: workload.into(),
        prior: prior.clone(),
    };
    let report = HpmRuntime::new(config(w, profile, telemetry.clone()))
        .run(&w.program)
        .expect("run succeeds");
    warmstart::save_run(&store, prior, &report, &telemetry);
    report
}

#[test]
fn warm_start_reaches_first_decision_strictly_sooner() {
    let w = workloads::by_name("db", Size::Tiny).unwrap();
    let path = temp_profile("warm");

    let cold = run(&w, &path, "db", Telemetry::disabled());
    assert!(!cold.warm_start, "no profile exists yet");
    let cold_first = cold
        .cycles_to_first_decision()
        .expect("cold db run enables co-allocation");

    let warm = run(&w, &path, "db", Telemetry::disabled());
    assert!(warm.warm_start, "second run loads the saved profile");
    let warm_first = warm
        .cycles_to_first_decision()
        .expect("warm run has seeded decisions");
    assert!(
        warm_first < cold_first,
        "warm start must beat cold to the first decision: warm={warm_first} cold={cold_first}"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_profile_degrades_to_cold_start_with_telemetry() {
    let w = workloads::by_name("db", Size::Tiny).unwrap();
    let path = temp_profile("corrupt");

    // Seed a valid profile, then destroy its payload.
    let seeded = run(&w, &path, "db", Telemetry::disabled());
    assert!(!seeded.warm_start);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let telemetry = Telemetry::enabled(DEFAULT_TRACE_CAPACITY);
    let report = run(&w, &path, "db", telemetry.clone());
    assert!(!report.warm_start, "corrupt profile must not warm-start");
    assert_eq!(telemetry.get(MetricId::ProfileColdStarts), 1);
    assert_eq!(telemetry.get(MetricId::ProfileLoadCorrupt), 1);
    assert_eq!(telemetry.get(MetricId::ProfileWarmStarts), 0);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn fingerprint_mismatch_degrades_to_cold_start_with_telemetry() {
    let w = workloads::by_name("db", Size::Tiny).unwrap();
    let path = temp_profile("mismatch");

    // Save under one workload tag, reload under another: the stored
    // fingerprint no longer matches, so the run must start cold.
    let seeded = run(&w, &path, "db", Telemetry::disabled());
    assert!(!seeded.warm_start);

    let telemetry = Telemetry::enabled(DEFAULT_TRACE_CAPACITY);
    let report = run(&w, &path, "other", telemetry.clone());
    assert!(!report.warm_start, "mismatched profile must not warm-start");
    assert_eq!(telemetry.get(MetricId::ProfileColdStarts), 1);
    assert_eq!(telemetry.get(MetricId::ProfileLoadMismatch), 1);

    let _ = std::fs::remove_file(&path);
}
