//! The adaptive co-allocation policy.
//!
//! Turns the monitor's per-class hottest-field lists into the
//! [`CoallocPolicy`] the GenMS collector consults while tracing the
//! nursery (Section 5.4). Decisions can also be *pinned* externally —
//! the Figure 8 experiment pins a deliberately bad decision (a cache line
//! of padding between parent and child) to exercise the feedback loop —
//! and *blocked* by the feedback assessor so a reverted decision is not
//! immediately re-enabled.

use std::collections::{BTreeMap, BTreeSet};

use hpmopt_bytecode::{ClassId, FieldId, Program};
use hpmopt_gc::policy::{CoallocDecision, CoallocPolicy};
pub use hpmopt_profile::DecisionKind;

use crate::monitor::OnlineMonitor;

/// Something the policy did, with its cycle timestamp (the report's
/// decision log). `kind` is the profile repository's own decision kind,
/// so the log persists as recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyEvent {
    /// When (0 for a warm start, installed before the first bytecode).
    pub cycles: u64,
    /// Which class.
    pub class: ClassId,
    /// What the policy did.
    pub kind: DecisionKind,
    /// The field co-allocated through: set when a decision is enabled
    /// or warm-started, `None` for a pin or a revert, which act on the
    /// class.
    pub field: Option<FieldId>,
    /// Padding between parent and child of a pin; 0 otherwise.
    pub gap_bytes: u64,
}

/// Policy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyConfig {
    /// Minimum sampled misses on a field before its class is co-allocated
    /// (too few samples are statistically meaningless).
    pub min_field_misses: u64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            min_field_misses: 8,
        }
    }
}

/// Miss-driven co-allocation decisions, refreshed from the monitor after
/// every batch.
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    config: PolicyConfig,
    decisions: BTreeMap<ClassId, (FieldId, CoallocDecision)>,
    pinned: BTreeMap<ClassId, CoallocDecision>,
    blocked: BTreeSet<ClassId>,
    events: Vec<PolicyEvent>,
}

impl AdaptivePolicy {
    /// Create an empty policy.
    #[must_use]
    pub fn new(config: PolicyConfig) -> Self {
        AdaptivePolicy {
            config,
            decisions: BTreeMap::new(),
            pinned: BTreeMap::new(),
            blocked: BTreeSet::new(),
            events: Vec::new(),
        }
    }

    /// Re-derive decisions from the monitor's counters: each class
    /// co-allocates its hottest reference field once that field crossed
    /// the miss threshold.
    pub fn refresh(&mut self, program: &Program, monitor: &OnlineMonitor, cycles: u64) {
        for (class, (field, misses)) in monitor.hottest_field_per_class(program) {
            if misses < self.config.min_field_misses || self.blocked.contains(&class) {
                continue;
            }
            let decision = CoallocDecision {
                field_offset: program.field(field).offset,
                gap_bytes: 0,
            };
            let is_new = match self.decisions.get(&class) {
                Some((old_field, _)) => *old_field != field,
                None => true,
            };
            if is_new {
                self.decisions.insert(class, (field, decision));
                self.log(cycles, class, DecisionKind::Enabled, Some(field), 0);
            }
        }
    }

    /// Install a decision from a persisted profile at startup. Skipped
    /// if the class is blocked or already decided; the adaptive
    /// `refresh` treats a warm-seeded `(class, field)` as current, so
    /// it will not emit a duplicate `Enabled` event for the same pair.
    pub fn warm_start(&mut self, program: &Program, class: ClassId, field: FieldId, cycles: u64) {
        if self.blocked.contains(&class) || self.decisions.contains_key(&class) {
            return;
        }
        let decision = CoallocDecision {
            field_offset: program.field(field).offset,
            gap_bytes: 0,
        };
        self.decisions.insert(class, (field, decision));
        self.log(cycles, class, DecisionKind::WarmStarted, Some(field), 0);
    }

    /// Pin a decision that overrides the adaptive one (Figure 8's bad
    /// placement).
    pub fn pin(&mut self, class: ClassId, decision: CoallocDecision, cycles: u64) {
        self.pinned.insert(class, decision);
        self.log(
            cycles,
            class,
            DecisionKind::Pinned,
            None,
            decision.gap_bytes,
        );
    }

    /// Revert a class's decision (feedback): removes pin and adaptive
    /// decision and blocks re-enablement.
    pub fn revert(&mut self, class: ClassId, cycles: u64) {
        let had = self.pinned.remove(&class).is_some() | self.decisions.remove(&class).is_some();
        if had {
            self.log(cycles, class, DecisionKind::Reverted, None, 0);
        }
        // A pinned bad decision reverts to the adaptive path; an adaptive
        // decision that regressed must not come back.
        if !self.blocked.contains(&class) && !self.decisions.contains_key(&class) {
            self.blocked.insert(class);
        }
    }

    /// Remove only a pin, letting the adaptive decision (if any) resume.
    pub fn unpin(&mut self, class: ClassId, cycles: u64) {
        if self.pinned.remove(&class).is_some() {
            self.log(cycles, class, DecisionKind::Reverted, None, 0);
        }
    }

    fn log(
        &mut self,
        cycles: u64,
        class: ClassId,
        kind: DecisionKind,
        field: Option<FieldId>,
        gap_bytes: u64,
    ) {
        self.events.push(PolicyEvent {
            cycles,
            class,
            kind,
            field,
            gap_bytes,
        });
    }

    /// Classes with an active (pinned or adaptive) decision.
    #[must_use]
    pub fn active_classes(&self) -> Vec<ClassId> {
        let mut v: Vec<ClassId> = self
            .pinned
            .keys()
            .chain(self.decisions.keys())
            .copied()
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The configuration in force (the provenance trail records its
    /// threshold alongside each decision).
    #[must_use]
    pub fn config(&self) -> PolicyConfig {
        self.config
    }

    /// The decision log.
    #[must_use]
    pub fn events(&self) -> &[PolicyEvent] {
        &self.events
    }

    /// Current adaptive decisions as `(class, field)` pairs.
    #[must_use]
    pub fn decisions(&self) -> Vec<(ClassId, FieldId)> {
        self.decisions.iter().map(|(&c, &(f, _))| (c, f)).collect()
    }
}

impl CoallocPolicy for AdaptivePolicy {
    fn coalloc_child(&self, class: ClassId) -> Option<CoallocDecision> {
        if let Some(d) = self.pinned.get(&class) {
            return Some(*d);
        }
        self.decisions.get(&class).map(|&(_, d)| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::OnlineMonitor;
    use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
    use hpmopt_bytecode::FieldType;
    use hpmopt_hpm::Sample;
    use hpmopt_memsim::EventKind;
    use hpmopt_vm::compiler::compile;
    use hpmopt_vm::Tier;

    fn setup() -> (hpmopt_bytecode::Program, FieldId, OnlineMonitor, u64) {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A", &[("y", FieldType::Ref), ("i", FieldType::Int)]);
        let y = pb.field_id(a, "y").unwrap();
        let i = pb.field_id(a, "i").unwrap();
        let mut m = MethodBuilder::new("main", 0, 1, false);
        m.new_object(a);
        m.store(0);
        m.load(0);
        m.get_field(y);
        m.get_field(i); // bc 4: of interest
        m.pop();
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let code = compile(&p, p.entry(), Tier::Opt, 0x4000_0000, true);
        let hot_pc = code.mem_pc(4);
        let mut mon = OnlineMonitor::new();
        mon.register_artifact(&p, &code);
        (p, y, mon, hot_pc)
    }

    fn feed(mon: &mut OnlineMonitor, pc: u64, n: usize) {
        let s = Sample {
            pc,
            data_addr: 0,
            event: EventKind::L1DMiss,
            cycles: 0,
            epoch: 0,
        };
        mon.process_batch(&vec![s; n], 0);
    }

    #[test]
    fn refresh_enables_decision_above_threshold() {
        let (p, y, mut mon, hot) = setup();
        let class = p.field(y).class;
        let mut pol = AdaptivePolicy::new(PolicyConfig {
            min_field_misses: 8,
        });
        feed(&mut mon, hot, 5);
        pol.refresh(&p, &mon, 100);
        assert!(pol.coalloc_child(class).is_none(), "below threshold");

        feed(&mut mon, hot, 5);
        pol.refresh(&p, &mon, 200);
        let d = pol.coalloc_child(class).expect("enabled");
        assert_eq!(d.field_offset, p.field(y).offset);
        assert_eq!(d.gap_bytes, 0);
        assert_eq!(pol.events().len(), 1);
        // Idempotent: refresh again does not duplicate events.
        pol.refresh(&p, &mon, 300);
        assert_eq!(pol.events().len(), 1);
    }

    #[test]
    fn pin_overrides_and_unpin_restores() {
        let (p, y, mut mon, hot) = setup();
        let class = p.field(y).class;
        let mut pol = AdaptivePolicy::new(PolicyConfig::default());
        feed(&mut mon, hot, 20);
        pol.refresh(&p, &mon, 0);
        let bad = CoallocDecision {
            field_offset: p.field(y).offset,
            gap_bytes: 128,
        };
        pol.pin(class, bad, 500);
        assert_eq!(pol.coalloc_child(class).unwrap().gap_bytes, 128);
        pol.unpin(class, 600);
        assert_eq!(
            pol.coalloc_child(class).unwrap().gap_bytes,
            0,
            "adaptive resumes"
        );
    }

    #[test]
    fn revert_blocks_reenablement() {
        let (p, y, mut mon, hot) = setup();
        let class = p.field(y).class;
        let mut pol = AdaptivePolicy::new(PolicyConfig::default());
        feed(&mut mon, hot, 20);
        pol.refresh(&p, &mon, 0);
        assert!(pol.coalloc_child(class).is_some());
        pol.revert(class, 1000);
        assert!(pol.coalloc_child(class).is_none());
        pol.refresh(&p, &mon, 2000);
        assert!(pol.coalloc_child(class).is_none(), "blocked after revert");
    }

    #[test]
    fn warm_start_installs_before_any_sample() {
        let (p, y, mon, _) = setup();
        let class = p.field(y).class;
        let mut pol = AdaptivePolicy::new(PolicyConfig::default());
        pol.warm_start(&p, class, y, 0);
        let d = pol.coalloc_child(class).expect("installed at cycle 0");
        assert_eq!(d.field_offset, p.field(y).offset);
        assert_eq!(
            pol.events(),
            &[PolicyEvent {
                cycles: 0,
                class,
                kind: DecisionKind::WarmStarted,
                field: Some(y),
                gap_bytes: 0,
            }]
        );
        // The adaptive refresh sees the same (class, field) as current
        // and does not emit a duplicate Enabled event.
        pol.refresh(&p, &mon, 100);
        assert_eq!(pol.events().len(), 1);
        // Re-seeding is a no-op once a decision exists.
        pol.warm_start(&p, class, y, 0);
        assert_eq!(pol.events().len(), 1);
    }

    #[test]
    fn warm_start_respects_blocked_classes() {
        let (p, y, mut mon, hot) = setup();
        let class = p.field(y).class;
        let mut pol = AdaptivePolicy::new(PolicyConfig::default());
        feed(&mut mon, hot, 20);
        pol.refresh(&p, &mon, 0);
        pol.revert(class, 1000);
        pol.warm_start(&p, class, y, 0);
        assert!(pol.coalloc_child(class).is_none(), "blocked stays blocked");
    }

    #[test]
    fn active_classes_lists_pins_and_decisions() {
        let (p, y, mut mon, hot) = setup();
        let class = p.field(y).class;
        let mut pol = AdaptivePolicy::new(PolicyConfig::default());
        assert!(pol.active_classes().is_empty());
        feed(&mut mon, hot, 20);
        pol.refresh(&p, &mon, 0);
        assert_eq!(pol.active_classes(), vec![class]);
    }
}
