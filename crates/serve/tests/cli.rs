//! `hpmopt-serve` rejects a bad `--workloads` list while it parses its
//! arguments: it names the workload, prints its usage and exits 2
//! before it runs any job.

use std::process::Command;

#[test]
fn unknown_workload_is_a_usage_error() {
    for cmd in ["run", "bench"] {
        for list in ["nope", "db,nope"] {
            let out = Command::new(env!("CARGO_BIN_EXE_hpmopt-serve"))
                .args([cmd, "--workloads", list])
                .output()
                .expect("hpmopt-serve starts");
            assert_eq!(out.status.code(), Some(2), "{cmd} --workloads {list:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("unknown workload \"nope\""),
                "{cmd} --workloads {list:?}: stderr does not name \"nope\":\n{stderr}"
            );
            assert!(stderr.contains("usage: hpmopt-serve"), "{stderr}");
            assert!(
                out.stdout.is_empty(),
                "{cmd} --workloads {list:?}: ran before rejecting:\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
}
