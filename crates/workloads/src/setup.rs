//! Shared run-configuration and plan-caching machinery.

use std::collections::HashMap;
use std::sync::Mutex;
use std::sync::OnceLock;

use hpmopt_core::runtime::{HpmRuntime, RunConfig, RunReport};
use hpmopt_gc::{CollectorKind, HeapConfig};
use hpmopt_hpm::{HpmConfig, SamplingInterval};
use hpmopt_vm::{CompilationPlan, VmConfig};

use crate::{Size, Workload};

/// The monitoring clock at simulation scale. The paper's collector
/// thread polls every 10-1000 ms of a minutes-long run; our runs are four
/// orders of magnitude shorter, so the monitoring stack is told the CPU
/// runs at 100 MHz, which scales the poll periods (and auto-mode rate
/// conversion) to the simulated run lengths while keeping the algorithms
/// untouched.
pub const MONITOR_CPU_HZ: u64 = 100_000_000;

/// The auto-mode sample-rate target at simulation scale (see
/// [`MONITOR_CPU_HZ`]): ~10 samples per simulated 10 ms poll.
pub const AUTO_TARGET_PER_SEC: u64 = 1_000;

/// Kernel sample-buffer capacity at simulation scale (the paper's 80 KB /
/// 2000-sample buffer scaled to the smaller sample volume).
pub const BUFFER_CAPACITY: usize = 256;

fn plan_cache() -> &'static Mutex<HashMap<(String, Size), CompilationPlan>> {
    static CACHE: OnceLock<Mutex<HashMap<(String, Size), CompilationPlan>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The pseudo-adaptive compilation plan for a workload: generated once by
/// a profiling run with the timer-driven AOS (Section 6.1's
/// "pre-generated compilation plan"), then cached for the process.
#[must_use]
pub fn plan_for(w: &Workload, size: Size) -> CompilationPlan {
    let key = (w.name.to_string(), size);
    if let Some(p) = plan_cache().lock().unwrap().get(&key) {
        return p.clone();
    }
    let mut vm = VmConfig {
        heap: heap_config(w, 4, 1, CollectorKind::GenMs),
        ..VmConfig::default()
    };
    // A tight tier-1 timer so even the short simulated runs promote
    // their hot methods to the optimizing tier, as the paper's long
    // runs do.
    vm.jit.sample_period_cycles = 200_000;
    vm.jit.tier1_threshold = 2;
    let mut plan = HpmRuntime::generate_plan(&w.program, vm).expect("plan profiling run completes");
    // The entry method drives every workload; guarantee it is in the plan
    // even if the profiling run spent most samples in callees.
    if !plan.contains(w.program.entry()) {
        let mut methods = plan.methods().to_vec();
        methods.push(w.program.entry());
        plan = CompilationPlan::new(methods);
    }
    plan_cache().lock().unwrap().insert(key, plan.clone());
    plan
}

/// Heap configuration for a workload at `num/den ×` its minimum heap.
#[must_use]
pub fn heap_config(w: &Workload, num: u64, den: u64, collector: CollectorKind) -> HeapConfig {
    HeapConfig {
        heap_bytes: w.min_heap_bytes * num / den,
        nursery_bytes: 256 * 1024,
        los_bytes: 64 * 1024 * 1024,
        collector,
        ..Default::default()
    }
}

/// Full run configuration for one experiment cell.
#[must_use]
pub fn run_config(
    w: &Workload,
    size: Size,
    heap: HeapConfig,
    sampling: SamplingInterval,
    coalloc: bool,
) -> RunConfig {
    let mut vm = VmConfig {
        heap,
        plan: Some(plan_for(w, size)),
        step_limit: Some(3_000_000_000),
        ..VmConfig::default()
    };
    vm.jit.tier1_enabled = false;
    RunConfig {
        vm,
        hpm: HpmConfig {
            interval: sampling,
            buffer_capacity: BUFFER_CAPACITY,
            cpu_hz: MONITOR_CPU_HZ,
            ..HpmConfig::default()
        },
        coalloc,
        policy: hpmopt_core::policy::PolicyConfig {
            // Sample volume is ~10^3 smaller than the paper's; the
            // decision threshold scales with it.
            min_field_misses: 4,
        },
        ..RunConfig::default()
    }
}

/// The auto sampling mode at simulation scale.
#[must_use]
pub fn auto_interval() -> SamplingInterval {
    SamplingInterval::Auto {
        target_per_sec: AUTO_TARGET_PER_SEC,
    }
}

/// Execute one configured run.
///
/// # Panics
///
/// Panics if the workload fails (experiment configurations are sized to
/// succeed; a failure is a harness bug worth crashing on).
#[must_use]
pub fn run(w: &Workload, config: RunConfig) -> RunReport {
    HpmRuntime::new(config)
        .run(&w.program)
        .unwrap_or_else(|e| panic!("workload {} failed: {e}", w.name))
}

/// Convenience: the unmonitored GenMS baseline the figures normalize to.
#[must_use]
pub fn baseline_report(w: &Workload, size: Size, num: u64, den: u64) -> RunReport {
    let heap = heap_config(w, num, den, CollectorKind::GenMs);
    let cfg = run_config(w, size, heap, SamplingInterval::Off, false);
    run(w, cfg)
}

/// Digest cache key: workload name + size + heap fraction.
type DigestKey = (String, Size, u64, u64);

fn digest_cache() -> &'static Mutex<HashMap<DigestKey, u64>> {
    static CACHE: OnceLock<Mutex<HashMap<DigestKey, u64>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Placement-independent state digest of the *unmonitored* run at this
/// heap point, cached per process. Monitored runs of the same workload
/// and heap must reproduce it exactly — the zero-perturbation oracle
/// the stress engine checks per seed and the serve bench checks per
/// job.
#[must_use]
pub fn baseline_digest(w: &Workload, size: Size, num: u64, den: u64) -> u64 {
    let key = (w.name.to_string(), size, num, den);
    if let Some(&d) = digest_cache().lock().unwrap().get(&key) {
        return d;
    }
    let d = baseline_report(w, size, num, den).result_digest;
    digest_cache().lock().unwrap().insert(key, d);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;

    #[test]
    fn plans_are_cached_and_contain_entry() {
        let w = by_name("fop", Size::Tiny).unwrap();
        let a = plan_for(&w, Size::Tiny);
        let b = plan_for(&w, Size::Tiny);
        assert_eq!(a, b);
        assert!(a.contains(w.program.entry()));
    }

    #[test]
    fn baseline_runs() {
        let w = by_name("fop", Size::Tiny).unwrap();
        let r = baseline_report(&w, Size::Tiny, 4, 1);
        assert!(r.cycles > 0);
        assert_eq!(r.hpm.samples, 0, "baseline is unmonitored");
    }
}
