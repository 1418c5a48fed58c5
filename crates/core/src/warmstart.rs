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

use hpmopt_bytecode::{ClassId, FieldId, MethodId, Program};
use hpmopt_prim::Fnv1a;
use hpmopt_profile::{ColdReason, Fingerprint, LoadOutcome, Profile, ProfileStore, MERGE_DECAY};
use hpmopt_telemetry::{MetricId, Telemetry};
use hpmopt_vm::VmConfig;

use crate::policy::PolicyEvent;
use crate::runtime::RunReport;

/// How (and whether) a run uses the profile repository. The run reads
/// no file and writes none: it takes one prior profile and hands its
/// fresh one back in [`crate::runtime::RunReport::fresh_profile`], and
/// its caller persists ([`save_run`] for a file, the shared
/// repository's merge for the serve daemon).
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Workload label baked into the fingerprint. Empty means no
    /// profile work at all (the paper's behavior): no prior is read, no
    /// `profile.*` counter moves and no fresh profile is built.
    pub workload: String,
    /// The prior profile, or why there is none. A prior whose
    /// fingerprint does not match the run starts it cold, like a
    /// corrupt or missing file, and each reason is counted.
    pub prior: LoadOutcome,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            workload: String::new(),
            prior: LoadOutcome::Cold(ColdReason::Missing),
        }
    }
}

impl ProfileOptions {
    /// Warm-start from an in-memory checkout (`None` for a cold first
    /// run) and report the run's fresh profile back: the serve daemon's
    /// configuration.
    #[must_use]
    pub fn from_checkout(checkout: Option<Profile>, workload: &str) -> Self {
        ProfileOptions {
            workload: workload.to_string(),
            prior: checkout.map_or(LoadOutcome::Cold(ColdReason::Missing), LoadOutcome::Warm),
        }
    }
}

/// Persist a finished run: decay-merge its fresh profile into `prior`
/// when `prior` is the profile the run warm-started from (same
/// fingerprint), else keep the fresh profile alone, and save the result
/// to `store`. Counts `profile.saves` and sets `profile.runs`, or counts
/// `profile.save_errors`. A run with no fresh profile (no workload
/// label) saves nothing.
pub fn save_run(
    store: &ProfileStore,
    prior: LoadOutcome,
    report: &RunReport,
    telemetry: &Telemetry,
) {
    let Some(fresh) = &report.fresh_profile else {
        return;
    };
    let merged = match prior {
        LoadOutcome::Warm(mut p) if p.fingerprint == fresh.fingerprint => {
            p.merge_run(fresh, MERGE_DECAY);
            p
        }
        _ => fresh.clone(),
    };
    match store.save(&merged) {
        Ok(_) => {
            telemetry.incr(MetricId::ProfileSaves);
            telemetry.set_gauge(MetricId::ProfileRuns, u64::from(merged.runs));
        }
        Err(_) => telemetry.incr(MetricId::ProfileSaveErrors),
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
    for e in events {
        let field = e
            .field
            .map_or_else(String::new, |f| short_field_name(program, f));
        profile.record_decision(&class_name(program, e.class), &field, e.kind, e.cycles);
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
    use hpmopt_profile::DecisionKind;

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
                PolicyEvent {
                    cycles: 0,
                    class: a,
                    kind: DecisionKind::WarmStarted,
                    field: Some(x),
                    gap_bytes: 0,
                },
                PolicyEvent {
                    cycles: 900,
                    class: a,
                    kind: DecisionKind::Reverted,
                    field: None,
                    gap_bytes: 0,
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
