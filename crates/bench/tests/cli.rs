//! `hpmopt-bench` rejects a bad `--workloads` list while it parses its
//! arguments: it names the workload, prints its usage and exits 1
//! before it measures anything.

use std::process::Command;

#[test]
fn unknown_or_empty_workload_is_a_usage_error() {
    for (list, bad) in [("nope", "nope"), ("", ""), ("db,nope", "nope")] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpmopt-bench"))
            .args(["--check", "--no-serve", "--workloads", list])
            .output()
            .expect("hpmopt-bench starts");
        let code = out.status.code();
        assert!(
            matches!(code, Some(c) if c != 0 && c != 101),
            "--workloads {list:?}: exit code {code:?}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown workload {bad:?}")),
            "--workloads {list:?}: stderr does not name {bad:?}:\n{stderr}"
        );
        assert!(stderr.contains("usage: hpmopt-bench"), "{stderr}");
        assert!(
            out.stdout.is_empty(),
            "--workloads {list:?}: measured before rejecting:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
