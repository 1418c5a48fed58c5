//! Differential and invariant oracles.
//!
//! A scenario is run through seven arms, every arm with post-collection
//! heap verification enabled ([`VmConfig::verify_heap_every_gc`]):
//!
//! | arm | tier                  | collector | monitoring                    |
//! |-----|-----------------------|-----------|-------------------------------|
//! | A   | interpreter           | GenMS     | off                           |
//! | B   | all-opt plan          | GenMS     | off                           |
//! | C   | interpreter           | GenCopy   | off                           |
//! | D   | all-opt plan          | GenMS     | PEBS Fixed(512), co-alloc on  |
//! | E   | all-opt plan          | GenMS     | [`HpmConfig::disabled`]       |
//! | F   | all-opt, IC off       | GenMS     | off                           |
//! | G   | tiered, 4 KiB cache   | GenMS     | PEBS Fixed(512), co-alloc on  |
//!
//! Arm G runs the full tiered pipeline — timer-driven tier-1 promotion,
//! back-edge-driven tier-2 region compilation with deoptimization, and a
//! code cache small enough that LRU eviction and address-range reuse
//! happen constantly — under monitoring, so late samples hit freed
//! ranges and must go stale rather than misattribute.
//!
//! Invariants checked:
//!
//! 1. **Differential**: all seven arms finish cleanly and produce the
//!    same placement-independent state digest — compiled code agrees
//!    with the interpreter, GenMS agrees with GenCopy, monitoring (which
//!    may move objects via co-allocation) perturbs nothing
//!    program-visible, inline caches ([`VmConfig::inline_caches`])
//!    change only the cost model, and tier churn (recompilation,
//!    deoptimization, eviction) never changes program state.
//! 2. **Heap integrity**: `Heap::verify` holds after every collection in
//!    every arm (surfaced as [`VmError::HeapCorrupt`](hpmopt_vm::VmError::HeapCorrupt)).
//! 3. **Attribution**: with full machine-code maps, no sample in a
//!    monitored arm is foreign or unmapped — every sampled PC resolves
//!    or (in arm G, where code is freed under the sampler) is counted
//!    stale and dropped.
//!
//! Arm G's eviction count is surfaced as
//! [`ScenarioOutcome::tiered_evictions`] rather than gated per scenario
//! — a tiny program legitimately never outgrows the cache — and the
//! pinned clean-seed suite asserts the standard seeds do evict, so the
//! reuse path cannot silently stop being exercised.
//!
//! Any panic inside an arm (for example [`TypeTag`](hpmopt_gc::TypeTag) decoding tripping
//! over a corrupted header) is caught and reported as a failure rather
//! than tearing the shard runner down.

use std::panic::{self, AssertUnwindSafe};

use hpmopt_core::{HpmRuntime, RunConfig};
use hpmopt_gc::{CollectorKind, HeapConfig};
use hpmopt_hpm::{HpmConfig, SamplingInterval};
use hpmopt_vm::{CompilationPlan, NoHooks, Vm, VmConfig};

use crate::genprog::{generate, GeneratedProgram};
use crate::scenario::{Expect, Scenario};

/// Outcome of running one scenario through every oracle.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// True when every oracle held.
    pub pass: bool,
    /// One line per violated oracle (empty on pass).
    pub failures: Vec<String>,
    /// Digest of arm A (0 when arm A itself failed) — stable fingerprint
    /// for the deterministic summary.
    pub digest: u64,
    /// Simulated cycles of arm A (0 when arm A failed) — the scenario's
    /// deterministic baseline cost, the perf counterpart of `digest`.
    pub cycles: u64,
    /// Simulated cycles of the monitored arm D (0 when it failed);
    /// `hpmopt-bench` consumes this as the pinned-shard perf arm.
    pub monitored_cycles: u64,
    /// Capacity evictions arm G's bounded code cache performed (0 when
    /// the arm failed or the scenario's code never outgrew the cache).
    pub tiered_evictions: u64,
}

impl ScenarioOutcome {
    /// Whether the outcome matches the scenario's `expect` line.
    #[must_use]
    pub fn matches_expectation(&self) -> bool {
        match self.scenario.expect {
            Expect::Pass => self.pass,
            Expect::Fail => !self.pass,
        }
    }
}

/// Heap sizing used by all stress arms: small enough that every scenario
/// exercises minor and major collections, large enough that the bounded
/// live set (see `genprog`) never legitimately overflows.
fn stress_heap(collector: CollectorKind, fault_skip_zeroing: bool) -> HeapConfig {
    HeapConfig {
        heap_bytes: 512 * 1024,
        nursery_bytes: 32 * 1024,
        los_bytes: 4 * 1024 * 1024,
        collector,
        fault_skip_zeroing,
        ..HeapConfig::small()
    }
}

fn stress_vm(collector: CollectorKind, plan: Option<CompilationPlan>, fault: bool) -> VmConfig {
    let mut vm = VmConfig::test();
    vm.heap = stress_heap(collector, fault);
    vm.jit.tier1_enabled = false;
    vm.plan = plan;
    vm.full_mcmaps = true;
    vm.verify_heap_every_gc = true;
    vm.step_limit = Some(200_000_000);
    vm
}

/// Run `body`, converting a panic into an `Err` line.
fn guarded<T>(arm: &str, body: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match panic::catch_unwind(AssertUnwindSafe(body)) {
        Ok(r) => r.map_err(|e| format!("arm {arm}: {e}")),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("arm {arm}: panic: {msg}"))
        }
    }
}

fn vm_arm(arm: &str, gp: &GeneratedProgram, config: VmConfig) -> Result<(u64, u64), String> {
    guarded(arm, || {
        let mut vm = Vm::new(&gp.program, config);
        let summary = vm.run(&mut NoHooks).map_err(|e| format!("VmError: {e}"))?;
        Ok((vm.state_digest(), summary.cycles))
    })
}

/// The tiered-churn arm's VM configuration: aggressive tier-1 sampling,
/// low-threshold tier-2 region compilation, and a code cache far smaller
/// than any generated program's code footprint so eviction and range
/// reuse are continuous.
fn tiered_vm(fault: bool) -> VmConfig {
    let mut vm = stress_vm(CollectorKind::GenMs, None, fault);
    vm.jit.tier1_enabled = true;
    vm.jit.sample_period_cycles = 50_000;
    vm.jit.tier1_threshold = 2;
    vm.jit.tier2_enabled = true;
    vm.jit.tier2_threshold = 64;
    vm.jit.code_cache_capacity_bytes = Some(4 * 1024);
    vm
}

fn runtime_arm(
    arm: &str,
    gp: &GeneratedProgram,
    vm: VmConfig,
    hpm: HpmConfig,
) -> Result<(u64, hpmopt_core::RunReport), String> {
    let config = RunConfig {
        vm,
        hpm,
        coalloc: true,
        ..RunConfig::default()
    };
    guarded(arm, || {
        let report = HpmRuntime::new(config)
            .run(&gp.program)
            .map_err(|e| format!("VmError: {e}"))?;
        Ok((report.result_digest, report))
    })
}

/// Monitored-arm HPM configuration: an aggressive fixed interval and a
/// small buffer so even short scenarios deliver plenty of samples and
/// buffer-overflow interrupts.
#[must_use]
pub fn monitored_hpm() -> HpmConfig {
    HpmConfig {
        interval: SamplingInterval::Fixed(512),
        buffer_capacity: 64,
        ..HpmConfig::default()
    }
}

/// Run every oracle over `scenario`.
#[must_use]
pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
    let gp = generate(scenario.seed, scenario.knobs);
    let fault = scenario.fault_skip_zeroing;
    let mut failures = Vec::new();

    let a = vm_arm(
        "A/interp-genms",
        &gp,
        stress_vm(CollectorKind::GenMs, None, fault),
    );
    let b = vm_arm(
        "B/opt-genms",
        &gp,
        stress_vm(
            CollectorKind::GenMs,
            Some(CompilationPlan::new(gp.all_methods.clone())),
            fault,
        ),
    );
    let c = vm_arm(
        "C/interp-gencopy",
        &gp,
        stress_vm(CollectorKind::GenCopy, None, fault),
    );
    let all_opt = || {
        stress_vm(
            CollectorKind::GenMs,
            Some(CompilationPlan::new(gp.all_methods.clone())),
            fault,
        )
    };
    let d = runtime_arm("D/monitored", &gp, all_opt(), monitored_hpm());
    let e = runtime_arm("E/monitor-off", &gp, all_opt(), HpmConfig::disabled());
    let f = vm_arm("F/opt-ic-off", &gp, {
        let mut vm = stress_vm(
            CollectorKind::GenMs,
            Some(CompilationPlan::new(gp.all_methods.clone())),
            fault,
        );
        vm.inline_caches = false;
        vm
    });
    let g = runtime_arm("G/tiered-evicting", &gp, tiered_vm(fault), monitored_hpm());

    let mut digests: Vec<(&str, u64)> = Vec::new();
    match &a {
        Ok((d, _)) => digests.push(("A", *d)),
        Err(msg) => failures.push(msg.clone()),
    }
    match &b {
        Ok((d, _)) => digests.push(("B", *d)),
        Err(msg) => failures.push(msg.clone()),
    }
    match &c {
        Ok((d, _)) => digests.push(("C", *d)),
        Err(msg) => failures.push(msg.clone()),
    }
    match &d {
        Ok((digest, report)) => {
            digests.push(("D", *digest));
            if report.attribution.foreign != 0 || report.attribution.unmapped != 0 {
                failures.push(format!(
                    "attribution: {} foreign / {} unmapped samples with full maps",
                    report.attribution.foreign, report.attribution.unmapped
                ));
            }
        }
        Err(msg) => failures.push(msg.clone()),
    }
    match &e {
        Ok((digest, _)) => digests.push(("E", *digest)),
        Err(msg) => failures.push(msg.clone()),
    }
    match &f {
        Ok((digest, _)) => digests.push(("F", *digest)),
        Err(msg) => failures.push(msg.clone()),
    }
    match &g {
        Ok((digest, report)) => {
            digests.push(("G", *digest));
            // Stale samples are expected (code is freed under the
            // sampler); foreign or unmapped ones are not.
            if report.attribution.foreign != 0 || report.attribution.unmapped != 0 {
                failures.push(format!(
                    "attribution (tiered): {} foreign / {} unmapped samples with full maps",
                    report.attribution.foreign, report.attribution.unmapped
                ));
            }
        }
        Err(msg) => failures.push(msg.clone()),
    }

    if let Some((first_arm, first)) = digests.first().copied() {
        for &(arm, digest) in &digests[1..] {
            if digest != first {
                failures.push(format!(
                    "differential: arm {arm} digest {digest:#018x} != arm {first_arm} {first:#018x}"
                ));
            }
        }
    }

    ScenarioOutcome {
        scenario: *scenario,
        pass: failures.is_empty(),
        failures,
        digest: a.as_ref().map_or(0, |&(d, _)| d),
        cycles: a.as_ref().map_or(0, |&(_, c)| c),
        monitored_cycles: d.as_ref().map_or(0, |(_, r)| r.cycles),
        tiered_evictions: g.as_ref().map_or(0, |(_, r)| r.vm.code_evictions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn clean_scenarios_pass_all_oracles() {
        for seed in [0u64, 1, 2, 3] {
            let out = run_scenario(&Scenario::from_seed(seed));
            assert!(out.pass, "seed {seed} failed: {:?}", out.failures);
            assert_ne!(out.digest, 0, "seed {seed} produced the trivial digest");
            assert!(
                out.tiered_evictions > 0,
                "seed {seed}: arm G's 4 KiB cache never evicted — the reuse \
                 path stopped being exercised"
            );
        }
    }

    #[test]
    fn outcomes_are_deterministic() {
        let s = Scenario::from_seed(9);
        let x = run_scenario(&s);
        let y = run_scenario(&s);
        assert_eq!(x.digest, y.digest);
        assert_eq!(x.pass, y.pass);
        assert_eq!(x.failures, y.failures);
    }

    #[test]
    fn injected_zeroing_fault_is_detected() {
        // The fault leaves stale bytes in published-but-uninitialized
        // fields; the heap verifier (or the tracer) must notice in at
        // least one seed of a small batch — a single seed may by chance
        // never collect inside the vulnerable window.
        let caught = (0..8).any(|seed| {
            let mut s = Scenario::from_seed(seed);
            s.fault_skip_zeroing = true;
            !run_scenario(&s).pass
        });
        assert!(
            caught,
            "skip-zeroing fault escaped all oracles over 8 seeds"
        );
    }
}
