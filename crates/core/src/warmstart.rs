//! Warm start: connecting the persistent profile repository
//! (`hpmopt-profile`) to the live monitoring pipeline.
//!
//! The profile crate speaks class/field *names*; the live pipeline
//! speaks `hpmopt-bytecode` ids. This module is the translation layer:
//! it fingerprints the current (program, machine configuration) pair,
//! turns a loaded [`Profile`] into monitor/policy seeds, and turns a
//! finished run's counters and decision log back into a [`Profile`] for
//! persistence. Everything here is a deviation from the paper — the
//! PLDI 2007 system learns from scratch on every invocation — motivated
//! by its own observation that decisions stabilize early and stay valid
//! for the rest of the run.

use std::path::PathBuf;

use hpmopt_bytecode::{ClassId, FieldId, MethodId, Program};
use hpmopt_prim::Fnv1a;
use hpmopt_profile::{DecisionKind, Fingerprint, Profile};
use hpmopt_vm::VmConfig;

use crate::policy::PolicyEvent;

/// How (and whether) a run uses the profile repository.
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Profile file to load at startup and save at shutdown; `None`
    /// disables persistence entirely (the paper's behavior).
    pub path: Option<PathBuf>,
    /// Exponential decay applied to prior weights when merging this
    /// run's measurements at shutdown (`weight = old * decay + fresh`).
    pub decay: f64,
    /// Whether to persist the merged profile at shutdown. Disable for
    /// read-only consumers like the report tool's control run.
    pub save: bool,
    /// Workload label baked into the fingerprint.
    pub workload: String,
    /// In-memory prior profile checked out from a shared repository
    /// (the serve daemon's fleet-wide warm start). Takes precedence
    /// over `path` for loading; a checkout whose fingerprint does not
    /// match the run degrades to a cold start exactly like a stale
    /// file. The run's own measurements come back in
    /// [`crate::runtime::RunReport::fresh_profile`] for the caller to
    /// merge, so the repository — not the run — owns the decay-merge.
    pub checkout: Option<Profile>,
    /// Build and report the run's fresh profile even with no `path`
    /// and no `checkout` — a cold first job under a shared repository
    /// still has to hand its measurements back for merging.
    pub report_fresh: bool,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            path: None,
            decay: 0.5,
            save: true,
            workload: String::new(),
            checkout: None,
            report_fresh: false,
        }
    }
}

impl ProfileOptions {
    /// Persist to (and warm-start from) `path`, labeled `workload`.
    #[must_use]
    pub fn at(path: impl Into<PathBuf>, workload: &str) -> Self {
        ProfileOptions {
            path: Some(path.into()),
            workload: workload.to_string(),
            ..ProfileOptions::default()
        }
    }

    /// Warm-start from an in-memory checkout (possibly `None` for a
    /// cold first run) and report the run's fresh profile back without
    /// touching the filesystem — the serve daemon's configuration.
    #[must_use]
    pub fn from_checkout(checkout: Option<Profile>, workload: &str) -> Self {
        ProfileOptions {
            save: false,
            workload: workload.to_string(),
            checkout,
            report_fresh: true,
            ..ProfileOptions::default()
        }
    }
}

/// Fingerprint the (program structure, machine configuration) pair.
///
/// The program hash covers class/field layout and every method body, so
/// any code or layout change invalidates prior profiles; the config
/// hash covers heap sizing/collector and memory-hierarchy geometry, so
/// a profile measured on one simulated machine is not applied to
/// another.
#[must_use]
pub fn fingerprint(program: &Program, vm: &VmConfig, workload: &str) -> Fingerprint {
    let mut h = Fnv1a::new();
    for class in program.classes() {
        h.write_str(class.name());
        for field in class.fields() {
            h.write_str(field.name());
            h.write_str(&format!("{:?}", field.ty()));
            h.write_u64(field.offset());
        }
    }
    for method in program.methods() {
        h.write_str(method.name());
        h.write_u64(u64::from(method.params()));
        h.write_u64(u64::from(method.locals()));
        // Instr derives Debug deterministically; hashing the rendered
        // body avoids a hand-written encoder per opcode.
        h.write_str(&format!("{:?}", method.body()));
    }
    h.write_u64(u64::from(program.entry().0));
    let program_hash = h.finish();

    let mut h = Fnv1a::new();
    h.write_str(&format!("{:?}", vm.heap));
    h.write_str(&format!("{:?}", vm.mem));
    let config_hash = h.finish();

    Fingerprint::new(program_hash, config_hash, workload)
}

/// Monitor/policy seed state derived from a loaded profile, with names
/// resolved back to this program instance's ids.
#[derive(Debug, Clone, Default)]
pub struct Seeds {
    /// Per-field miss counts to seed into the monitor's totals
    /// (rounded decayed weights).
    pub counts: Vec<(FieldId, u64)>,
    /// Co-allocation decisions to install at cycle 0: the hottest field
    /// per class among fields that crossed the decision threshold.
    pub decisions: Vec<(ClassId, FieldId)>,
    /// Methods the prior run's tiered JIT promoted past baseline, to be
    /// folded into the VM's compilation plan so this run opt-compiles
    /// them on first execution instead of re-paying the tier-1 warm-up.
    pub hot_methods: Vec<MethodId>,
}

/// Translate a profile into seeds for this program instance.
///
/// Fields that no longer resolve (the profile outlived a rename) are
/// skipped silently — the fingerprint normally prevents this, but seeds
/// must never fail. Classes whose last logged action was a revert are
/// excluded from decision seeding: the feedback loop already judged
/// that decision harmful.
#[must_use]
pub fn compute_seeds(program: &Program, profile: &Profile, min_field_misses: u64) -> Seeds {
    let reverted = profile.reverted_classes();
    let mut seeds = Seeds::default();
    let mut best: Vec<(ClassId, FieldId, u64)> = Vec::new();
    for fp in &profile.fields {
        let Some(class) = program.class_by_name(&fp.class) else {
            continue;
        };
        let Some(field) = program.field_by_name(class, &fp.field) else {
            continue;
        };
        let weight = fp.weight.round() as u64;
        if weight == 0 {
            continue;
        }
        seeds.counts.push((field, weight));
        if weight < min_field_misses || reverted.contains(&fp.class.as_str()) {
            continue;
        }
        match best.iter_mut().find(|(c, _, _)| *c == class) {
            Some(slot) if weight > slot.2 => *slot = (class, field, weight),
            Some(_) => {}
            None => best.push((class, field, weight)),
        }
    }
    seeds.decisions = best.into_iter().map(|(c, f, _)| (c, f)).collect();
    seeds.hot_methods = profile
        .hot_methods
        .iter()
        .filter_map(|name| program.method_by_name(name))
        .collect();
    seeds
}

/// Build the persistable profile of a finished run from the monitor's
/// per-field totals (with any warm-start seed already subtracted — a
/// profile must record what *this* run measured) and the policy's
/// decision log.
#[must_use]
pub fn build_profile(
    program: &Program,
    fingerprint: Fingerprint,
    field_totals: &[(FieldId, u64)],
    events: &[PolicyEvent],
    hot_methods: &[MethodId],
) -> Profile {
    let mut profile = Profile::new(fingerprint);
    for &m in hot_methods {
        profile.record_hot_method(program.method(m).name());
    }
    for &(field, misses) in field_totals {
        if misses == 0 {
            continue;
        }
        let (class, name) = split_field_name(program, field);
        profile.record_field(&class, &name, misses);
    }
    for event in events {
        match *event {
            PolicyEvent::Enabled {
                cycles,
                class,
                field,
            } => {
                let (c, f) = (class_name(program, class), short_field_name(program, field));
                profile.record_decision(&c, &f, DecisionKind::Enabled, cycles);
            }
            PolicyEvent::WarmStarted {
                cycles,
                class,
                field,
            } => {
                let (c, f) = (class_name(program, class), short_field_name(program, field));
                profile.record_decision(&c, &f, DecisionKind::WarmStarted, cycles);
            }
            PolicyEvent::Pinned { cycles, class, .. } => {
                profile.record_decision(
                    &class_name(program, class),
                    "",
                    DecisionKind::Pinned,
                    cycles,
                );
            }
            PolicyEvent::Reverted { cycles, class } => {
                profile.record_decision(
                    &class_name(program, class),
                    "",
                    DecisionKind::Reverted,
                    cycles,
                );
            }
        }
    }
    profile.seal_run();
    profile
}

fn class_name(program: &Program, class: ClassId) -> String {
    program.class(class).name().to_string()
}

fn short_field_name(program: &Program, field: FieldId) -> String {
    let info = program.field(field);
    program.class(info.class).fields()[info.index]
        .name()
        .to_string()
}

fn split_field_name(program: &Program, field: FieldId) -> (String, String) {
    let info = program.field(field);
    (
        class_name(program, info.class),
        short_field_name(program, field),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
    use hpmopt_bytecode::FieldType;

    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A", &[("x", FieldType::Ref), ("i", FieldType::Int)]);
        pb.add_class("B", &[("y", FieldType::Ref)]);
        let x = pb.field_id(a, "x").unwrap();
        let mut m = MethodBuilder::new("main", 0, 1, false);
        m.new_object(a);
        m.store(0);
        m.load(0);
        m.get_field(x);
        m.pop();
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let p = program();
        let vm = VmConfig::test();
        let a = fingerprint(&p, &vm, "db");
        assert_eq!(a, fingerprint(&p, &vm, "db"), "deterministic");
        assert_ne!(
            a,
            fingerprint(&p, &vm, "jess"),
            "workload label is part of identity"
        );

        let mut other_vm = VmConfig::test();
        other_vm.heap.nursery_bytes *= 2;
        let b = fingerprint(&p, &other_vm, "db");
        assert_eq!(a.program_hash, b.program_hash);
        assert_ne!(a.config_hash, b.config_hash, "heap sizing matters");

        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("A", &[("renamed", FieldType::Ref)]);
        let _ = c;
        let mut m = MethodBuilder::new("main", 0, 0, false);
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        let other = pb.finish().unwrap();
        assert_ne!(
            a.program_hash,
            fingerprint(&other, &vm, "db").program_hash,
            "program structure matters"
        );
    }

    #[test]
    fn seeds_resolve_names_and_respect_threshold() {
        let p = program();
        let a = p.class_by_name("A").unwrap();
        let x = p.field_by_name(a, "x").unwrap();
        let b = p.class_by_name("B").unwrap();
        let y = p.field_by_name(b, "y").unwrap();

        let mut prof = Profile::new(Fingerprint::new(1, 2, "t"));
        prof.record_field("A", "x", 100);
        prof.record_field("B", "y", 3); // below threshold
        prof.record_field("Gone", "z", 50); // no longer resolves
        prof.seal_run();

        let seeds = compute_seeds(&p, &prof, 8);
        assert_eq!(seeds.counts, vec![(x, 100), (y, 3)]);
        assert_eq!(seeds.decisions, vec![(a, x)], "only A::x crossed 8");
    }

    #[test]
    fn seeds_skip_reverted_classes() {
        let p = program();
        let mut prof = Profile::new(Fingerprint::new(1, 2, "t"));
        prof.record_field("A", "x", 100);
        prof.record_decision("A", "x", DecisionKind::Enabled, 10);
        prof.record_decision("A", "", DecisionKind::Reverted, 20);
        prof.seal_run();

        let seeds = compute_seeds(&p, &prof, 8);
        assert_eq!(seeds.counts.len(), 1, "history still seeds the monitor");
        assert!(seeds.decisions.is_empty(), "no decision for reverted class");
    }

    #[test]
    fn build_profile_names_fields_and_logs_events() {
        let p = program();
        let a = p.class_by_name("A").unwrap();
        let x = p.field_by_name(a, "x").unwrap();
        let prof = build_profile(
            &p,
            Fingerprint::new(1, 2, "t"),
            &[(x, 42)],
            &[
                PolicyEvent::WarmStarted {
                    cycles: 0,
                    class: a,
                    field: x,
                },
                PolicyEvent::Reverted {
                    cycles: 900,
                    class: a,
                },
            ],
            &[p.entry()],
        );
        assert_eq!(prof.field_weight("A", "x"), 42.0);
        assert_eq!(prof.runs, 1);
        assert_eq!(prof.decisions.len(), 2);
        assert_eq!(prof.decisions[0].kind, DecisionKind::WarmStarted);
        assert_eq!(prof.reverted_classes(), vec!["A"]);
        assert_eq!(prof.hot_methods, vec!["main"]);
    }

    #[test]
    fn hot_method_seeds_resolve_and_skip_unknown_names() {
        let p = program();
        let mut prof = Profile::new(Fingerprint::new(1, 2, "t"));
        prof.record_hot_method("main");
        prof.record_hot_method("renamed_away");
        prof.seal_run();
        let seeds = compute_seeds(&p, &prof, 8);
        assert_eq!(seeds.hot_methods, vec![p.entry()]);
    }
}
