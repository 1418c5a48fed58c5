//! Shared run-configuration and plan-caching machinery.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

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

/// One cell per workload and size: the first caller of a key runs the
/// profiling run, and callers that ask for it meanwhile wait for that run
/// instead of making their own.
type PlanCell = Arc<OnceLock<CompilationPlan>>;

fn plan_cache() -> &'static Mutex<HashMap<(String, Size), PlanCell>> {
    static CACHE: OnceLock<Mutex<HashMap<(String, Size), PlanCell>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Keys profiled in this process, in order.
#[cfg(test)]
static PROFILED: Mutex<Vec<(String, Size)>> = Mutex::new(Vec::new());

/// The pseudo-adaptive compilation plan for a workload: generated once
/// per process by a profiling run with the timer-driven AOS (Section
/// 6.1's "pre-generated compilation plan"), which ends as soon as the
/// plan holds every method ([`HpmRuntime::generate_plan`]).
#[must_use]
pub fn plan_for(w: &Workload, size: Size) -> CompilationPlan {
    let key = (w.name.to_string(), size);
    let cell = Arc::clone(
        plan_cache()
            .lock()
            .expect("the plan cache lock is held only to find or insert a cell")
            .entry(key)
            .or_default(),
    );
    cell.get_or_init(|| {
        #[cfg(test)]
        PROFILED.lock().unwrap().push((w.name.to_string(), size));
        let mut vm = VmConfig {
            heap: heap_config(w, 4, 1, CollectorKind::GenMs),
            ..VmConfig::default()
        };
        // A tight tier-1 timer so even the short simulated runs promote
        // their hot methods to the optimizing tier, as the paper's long
        // runs do.
        vm.jit.sample_period_cycles = 200_000;
        vm.jit.tier1_threshold = 2;
        HpmRuntime::generate_plan(&w.program, vm).expect("plan profiling run completes")
    })
    .clone()
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

/// Switch `vm` to the tiered-churn shape (the `jython+tiered`
/// trajectory row and the jython-tiered benchmark): no plan, the
/// tier-1 timer, back-edge tier 2, and a 512-byte code cache, well under
/// any program's code footprint, so every compile must fight for space
/// and eviction and range reuse run constantly.
pub fn tiered(vm: &mut VmConfig) {
    vm.plan = None;
    vm.jit.tier1_enabled = true;
    vm.jit.sample_period_cycles = 200_000;
    vm.jit.tier1_threshold = 2;
    vm.jit.tier2_enabled = true;
    vm.jit.tier2_threshold = 64;
    vm.jit.code_cache_capacity_bytes = Some(512);
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
    use std::sync::Barrier;

    #[test]
    fn plans_are_cached_and_contain_entry() {
        let w = by_name("fop", Size::Tiny).unwrap();
        let a = plan_for(&w, Size::Tiny);
        let b = plan_for(&w, Size::Tiny);
        assert_eq!(a, b);
        assert!(a.contains(w.program.entry()));
        // The plan-profiling run decides by tier-1 timer ticks: a tick
        // that moved would change a plan, and with it the cycles of
        // every planned run. Pinned for every Tiny program and for the
        // two Small programs the benchmark plans: db, whose plan holds
        // every method early in its run, and jython, whose plan never
        // does.
        let pinned: [(&str, Size, &[u32]); 18] = [
            ("compress", Size::Tiny, &[0, 1]),
            ("jess", Size::Tiny, &[0, 1, 2]),
            ("db", Size::Tiny, &[0, 1, 2]),
            ("javac", Size::Tiny, &[0, 1, 2]),
            ("mpegaudio", Size::Tiny, &[0, 1]),
            ("mtrt", Size::Tiny, &[0, 1]),
            ("jack", Size::Tiny, &[0, 1, 2]),
            ("pseudojbb", Size::Tiny, &[0, 1, 2]),
            ("antlr", Size::Tiny, &[0, 1, 2]),
            ("bloat", Size::Tiny, &[0, 1, 2]),
            ("fop", Size::Tiny, &[0]),
            ("hsqldb", Size::Tiny, &[0, 1, 2, 3]),
            ("jython", Size::Tiny, &[0, 1, 6, 96, 97, 98]),
            ("luindex", Size::Tiny, &[0, 1, 2]),
            ("lusearch", Size::Tiny, &[0, 1, 2]),
            ("pmd", Size::Tiny, &[0, 1, 2]),
            ("db", Size::Small, &[0, 1, 2]),
            ("jython", Size::Small, &[0, 1, 3, 6, 7, 96, 97, 98]),
        ];
        for (name, size, methods) in pinned {
            let w = by_name(name, size).unwrap();
            let plan = plan_for(&w, size);
            let got: Vec<u32> = plan.methods().iter().map(|m| m.0).collect();
            assert_eq!(got, methods, "{name} {size} plan");
        }
    }

    #[test]
    fn plans_are_profiled_once_under_concurrent_first_requests() {
        // No other test asks for this key, so all four requests are
        // first requests.
        let key = ("lusearch".to_string(), Size::Small);
        let w = by_name(&key.0, key.1).unwrap();
        let start = Barrier::new(4);
        let plans: Vec<CompilationPlan> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        plan_for(&w, key.1)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(plans.windows(2).all(|p| p[0] == p[1]));
        let runs = PROFILED
            .lock()
            .unwrap()
            .iter()
            .filter(|k| **k == key)
            .count();
        assert_eq!(runs, 1, "one profiling run for four concurrent requests");
    }

    #[test]
    fn baseline_runs() {
        let w = by_name("fop", Size::Tiny).unwrap();
        let r = baseline_report(&w, Size::Tiny, 4, 1);
        assert!(r.cycles > 0);
        assert_eq!(r.hpm.samples, 0, "baseline is unmonitored");
    }
}
