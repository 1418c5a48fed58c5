//! Integration round-trip tests against the public API, including the
//! deliberately-damaged-file cases CI gates on: a profile written to
//! disk and then corrupted, truncated, or version-bumped must load as a
//! clean cold start, never a panic.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use hpmopt_profile::{ColdReason, DecisionKind, Fingerprint, Profile, ProfileError, ProfileStore};

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "hpmopt-roundtrip-{}-{tag}-{n}.hpmprof",
        std::process::id()
    ))
}

fn sample() -> Profile {
    let mut p = Profile::new(Fingerprint::new(0xfeed_f00d, 0xc0ff_ee00, "db"));
    p.record_field("String", "value", 321);
    p.record_field("Entry", "key", 44);
    p.record_field("Entry", "items", 7);
    p.record_decision("String", "value", DecisionKind::Enabled, 40_123);
    p.record_decision("Entry", "key", DecisionKind::Enabled, 55_000);
    p.record_decision("Entry", "", DecisionKind::Reverted, 90_001);
    p.seal_run();
    p
}

#[test]
fn disk_round_trip_preserves_everything() {
    let p = sample();
    let path = temp_path("ok");
    let store = ProfileStore::new(&path);
    store.save(&p).unwrap();
    match store.load_any() {
        Ok(back) => assert_eq!(back, p),
        Err(reason) => panic!("expected warm, got cold: {reason}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_file_loads_cold() {
    let p = sample();
    let path = temp_path("truncated");
    let bytes = p.encode();
    // Every strict prefix must be rejected; spot-check a spread of
    // truncation points including mid-header and mid-payload.
    for len in [0, 3, 10, 16, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..len]).unwrap();
        let store = ProfileStore::new(&path);
        match store.load_any() {
            Err(ColdReason::Format(ProfileError::Truncated | ProfileError::Malformed)) => {}
            other => panic!("prefix of {len} bytes gave {other:?}"),
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupted_file_loads_cold() {
    let p = sample();
    let path = temp_path("corrupt");
    let mut bytes = p.encode();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        ProfileStore::new(&path).load_any(),
        Err(ColdReason::Format(ProfileError::ChecksumMismatch))
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn future_version_loads_cold() {
    let p = sample();
    let path = temp_path("version");
    let mut bytes = p.encode();
    bytes[4] = bytes[4].wrapping_add(1); // bump the u32 LE version field
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        ProfileStore::new(&path).load_any(),
        Err(ColdReason::Format(ProfileError::UnsupportedVersion))
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn merge_chain_keeps_files_loadable() {
    // Simulate three runs persisting through the same store, as the
    // runtime does at shutdown.
    let path = temp_path("chain");
    let store = ProfileStore::new(&path);
    let fp = sample().fingerprint.clone();

    let mut on_disk = Profile::new(fp.clone());
    for _ in 0..3 {
        let fresh = sample();
        on_disk.merge_run(&fresh, 0.5);
        store.save(&on_disk).unwrap();
        match store.load_any() {
            Ok(back) => on_disk = back,
            Err(reason) => panic!("chain broke: {reason}"),
        }
    }
    assert_eq!(on_disk.runs, 3);
    // 321 + decayed history: 321*0.25 + 321*0.5 + 321 = 561.75.
    assert!((on_disk.field_weight("String", "value") - 561.75).abs() < 1e-9);
    std::fs::remove_file(&path).unwrap();
}
