//! `hpmopt-profile` — inspect, diff, and merge persisted profile files.
//!
//! ```text
//! hpmopt-profile inspect FILE
//! hpmopt-profile diff A B
//! hpmopt-profile merge -o OUT [--decay D] PRIOR FRESH
//! ```
//!
//! `merge` applies the same exponential decay the runtime uses at
//! shutdown: `PRIOR` weights are multiplied by `D` (default
//! [`MERGE_DECAY`], 0.5), then `FRESH`'s last-run misses are added; the
//! result is written to `OUT`.
//! Merging requires matching fingerprints — profiles of different
//! programs or machine configurations must not be blended.

use std::process::ExitCode;

use hpmopt_profile::{inspect, Profile, ProfileStore, MERGE_DECAY};

fn usage() -> ExitCode {
    eprintln!("usage: hpmopt-profile inspect FILE");
    eprintln!("       hpmopt-profile diff A B");
    eprintln!("       hpmopt-profile merge -o OUT [--decay D] PRIOR FRESH");
    ExitCode::FAILURE
}

fn load(path: &str) -> Result<Profile, ExitCode> {
    ProfileStore::new(path).load_any().map_err(|reason| {
        eprintln!("{path}: {reason}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("inspect") => {
            let [_, file] = args.as_slice() else {
                return usage();
            };
            match load(file) {
                Ok(p) => {
                    print!("{}", inspect::render(&p));
                    ExitCode::SUCCESS
                }
                Err(code) => code,
            }
        }
        Some("diff") => {
            let [_, a, b] = args.as_slice() else {
                return usage();
            };
            match (load(a), load(b)) {
                (Ok(pa), Ok(pb)) => {
                    print!("{}", inspect::diff(&pa, &pb));
                    ExitCode::SUCCESS
                }
                (Err(code), _) | (_, Err(code)) => code,
            }
        }
        Some("merge") => {
            let mut out: Option<&str> = None;
            let mut decay = MERGE_DECAY;
            let mut files: Vec<&str> = Vec::new();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "-o" | "--out" => match it.next() {
                        Some(p) => out = Some(p),
                        None => return usage(),
                    },
                    "--decay" => match it.next().and_then(|d| d.parse::<f64>().ok()) {
                        Some(d) if (0.0..=1.0).contains(&d) => decay = d,
                        _ => {
                            eprintln!("--decay expects a number in [0, 1]");
                            return usage();
                        }
                    },
                    f => files.push(f),
                }
            }
            let (Some(out), [prior_path, fresh_path]) = (out, files.as_slice()) else {
                return usage();
            };
            let (prior, fresh) = match (load(prior_path), load(fresh_path)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(code), _) | (_, Err(code)) => return code,
            };
            if prior.fingerprint != fresh.fingerprint {
                eprintln!("refusing to merge: fingerprints differ");
                eprintln!("{}", inspect::diff(&prior, &fresh));
                return ExitCode::FAILURE;
            }
            let mut merged = prior;
            merged.merge_run(&fresh, decay);
            match ProfileStore::new(out).save(&merged) {
                Ok(bytes) => {
                    println!(
                        "wrote {out} ({bytes} bytes, {} runs, {} fields)",
                        merged.runs,
                        merged.fields.len()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot write {out}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
