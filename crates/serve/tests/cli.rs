//! `hpmopt-serve` rejects bad arguments while it parses them: it prints
//! its usage and exits 2 before it runs any job.

use std::process::Command;

/// Run `hpmopt-serve args`, assert it is a usage error that ran
/// nothing, and return its stderr.
fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hpmopt-serve"))
        .args(args)
        .output()
        .expect("hpmopt-serve starts");
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("usage: hpmopt-serve"), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: ran before rejecting:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    stderr
}

#[test]
fn unknown_workload_is_a_usage_error() {
    for list in ["nope", "db,nope"] {
        let stderr = usage_error(&["run", "--workloads", list]);
        assert!(
            stderr.contains("unknown workload \"nope\""),
            "run --workloads {list:?}: stderr does not name \"nope\":\n{stderr}"
        );
    }
}

/// `bench` runs two fixed presets and takes only `--workers` and
/// `--check`.
#[test]
fn bench_rejects_other_flags() {
    usage_error(&["bench", "--seed", "1"]);
    usage_error(&["bench", "--qps", "400"]);
}
