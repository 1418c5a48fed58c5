//! Integration tests for the multi-tenant service: admission control,
//! clean cycle-budget kills, tenant isolation (one tenant's misbehavior
//! never perturbs another's digests), fleet warm start, the worker-count
//! independence of the deterministic load generator, bounded-repository
//! eviction (evicted fingerprints fall back to a clean cold start), the
//! shutdown-vs-Drop asymmetry, and open-loop tenant fairness.

use hpmopt_profile::RepoConfig;
use hpmopt_serve::job::fingerprint_of;
use hpmopt_serve::{
    run_load, JobOutcome, JobSpec, LoadConfig, RejectReason, Service, ServiceConfig, TenantCaps,
};
use hpmopt_telemetry::{MetricId, Telemetry};
use hpmopt_workloads::setup;

fn one_worker() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// Over-cap submissions come back as `JobRejected` synchronously: they
/// never consume a queue slot, a worker, or a telemetry completion.
#[test]
fn over_cap_submission_is_rejected_synchronously() {
    let service = Service::start(one_worker());
    service.set_caps(
        "greedy",
        TenantCaps {
            max_live_jobs: 0,
            ..TenantCaps::default()
        },
    );
    service.set_caps(
        "hoarder",
        TenantCaps {
            max_heap_bytes: 1,
            ..TenantCaps::default()
        },
    );

    assert_eq!(
        service.submit(JobSpec::new("greedy", "hsqldb")),
        Err(RejectReason::LiveJobCap { live: 0, cap: 0 })
    );
    let spec = JobSpec::new("hoarder", "hsqldb");
    let w = spec.resolve().unwrap();
    assert_eq!(
        service.submit(spec.clone()),
        Err(RejectReason::HeapCap {
            requested_bytes: spec.heap_bytes(&w),
            cap_bytes: 1
        })
    );
    assert!(matches!(
        service.submit(JobSpec::new("greedy", "no-such-program")),
        Err(RejectReason::UnknownWorkload(_))
    ));

    let snap = service.snapshot();
    assert_eq!(snap.get(MetricId::ServeJobsSubmitted), 3);
    assert_eq!(snap.get(MetricId::ServeJobsRejected), 3);
    assert_eq!(snap.get(MetricId::ServeJobsCompleted), 0);
    assert_eq!(service.shutdown(), 0, "nothing ran, nothing to persist");
}

/// A job that exceeds its tenant's cycle cap is killed cleanly at the
/// simulated-cycle budget — and a concurrent tenant's jobs complete
/// with digests identical to the unmonitored baseline, so the kill
/// perturbed nobody. The killed run merges nothing back: the shared
/// repository only ever holds the victim tenant's program.
#[test]
fn cycle_budget_kill_is_clean_and_perturbs_no_other_tenant() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    const BUDGET: u64 = 1_000_000;
    service.set_caps(
        "greedy",
        TenantCaps {
            max_cycles_per_job: Some(BUDGET),
            ..TenantCaps::default()
        },
    );

    let greedy = service.submit(JobSpec::new("greedy", "db")).unwrap();
    let victim_a = service.submit(JobSpec::new("victim", "hsqldb")).unwrap();
    let victim_b = service.submit(JobSpec::new("victim", "hsqldb")).unwrap();

    let killed = service.wait(greedy);
    assert_eq!(killed.outcome, JobOutcome::Killed);
    assert_eq!(killed.cycles, BUDGET, "kill lands exactly on the budget");

    let spec = JobSpec::new("victim", "hsqldb");
    let w = spec.resolve().unwrap();
    let baseline = setup::baseline_digest(&w, spec.size, spec.heap_mult, 1);
    for id in [victim_a, victim_b] {
        let report = service.wait(id);
        assert_eq!(report.outcome, JobOutcome::Completed);
        assert_eq!(
            report.digest, baseline,
            "victim digest must equal the unmonitored baseline"
        );
    }

    assert_eq!(
        service.repo().len(),
        1,
        "killed runs merge nothing: only the victim's profile exists"
    );
    let snap = service.snapshot();
    assert_eq!(snap.get(MetricId::ServeJobsKilled), 1);
    assert_eq!(snap.get(MetricId::ServeJobsCompleted), 2);
    service.shutdown();
}

/// Fleet warm start through the live daemon: N sequential jobs of the
/// same program show monotonically non-increasing cycles-to-first-
/// decision, and every job after the first seeds from the shared
/// repository (first decision in force at cycle 0) — the PR 3 ablation
/// (cold vs warm), replayed through the service.
#[test]
fn sequential_jobs_warm_start_monotonically() {
    let service = Service::start(one_worker());
    let spec = JobSpec::new("t0", "hsqldb");
    let w = spec.resolve().unwrap();
    let baseline = setup::baseline_digest(&w, spec.size, spec.heap_mult, 1);

    let mut firsts = Vec::new();
    for n in 0..4 {
        let id = service.submit(spec.clone()).unwrap();
        let report = service.wait(id);
        assert_eq!(report.outcome, JobOutcome::Completed);
        assert_eq!(report.warm, n > 0, "first job cold, rest warm");
        assert_eq!(report.digest, baseline, "warm start never perturbs state");
        firsts.push(
            report
                .first_decision_cycles
                .expect("hsqldb decides at Tiny size"),
        );
    }

    assert!(
        firsts.windows(2).all(|w| w[1] <= w[0]),
        "cycles-to-first-decision must be non-increasing: {firsts:?}"
    );
    assert!(firsts[0] > 0, "cold run must pay the monitoring ramp");
    assert_eq!(
        *firsts.last().unwrap(),
        0,
        "warm runs start with decisions already in force"
    );

    let snap = service.snapshot();
    assert_eq!(snap.get(MetricId::ServeColdJobs), 1);
    assert_eq!(snap.get(MetricId::ServeWarmJobs), 3);
    assert_eq!(snap.get(MetricId::ServeRepoMerges), 4);
    service.shutdown();
}

/// The load generator's summary is byte-identical across worker
/// counts: same jobs, same checkouts, same merges, same text.
#[test]
fn bench_summary_is_worker_count_independent() {
    let config = LoadConfig {
        workers: 1,
        jobs: vec![JobSpec::new("t0", "hsqldb"); 4],
        qps: None,
        wave: 2,
        repo: RepoConfig::default(),
    };
    let solo = run_load(&config);
    let pooled = run_load(&LoadConfig {
        workers: 3,
        ..config
    });

    assert_eq!(
        solo.summary, pooled.summary,
        "summary must not depend on worker count"
    );
    assert_eq!(solo.point.perturbation_deltas, 0);
    assert_eq!(
        solo.warm_beats_cold,
        Some(true),
        "warm mean must beat cold mean:\n{}",
        solo.summary
    );
    assert!(solo.check() && pooled.check());
}

/// A single-shard repository small enough for one profile but not two.
/// fop's tiny profile is ~156 bytes and jess's ~452, so 512 holds
/// either alone and evicts the LRU entry when the second one merges.
fn tiny_repo() -> RepoConfig {
    RepoConfig {
        shards: 1,
        capacity_bytes: Some(512),
        ttl_ops: None,
    }
}

/// Killed jobs merge nothing — even while capacity eviction is churning
/// the repository underneath them. The victim's fingerprint must never
/// appear, and the filler tenant's merges must still evict normally.
#[test]
fn killed_jobs_never_merge_even_under_eviction_pressure() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        repo: tiny_repo(),
        ..ServiceConfig::default()
    });
    service.set_caps(
        "greedy",
        TenantCaps {
            max_cycles_per_job: Some(1_000_000),
            ..TenantCaps::default()
        },
    );

    let greedy = service.submit(JobSpec::new("greedy", "db")).unwrap();
    // Filler traffic over two distinct fingerprints keeps the bounded
    // repo at capacity and forces evictions while the kill lands.
    let mut fillers = Vec::new();
    for n in 0..4 {
        let workload = if n % 2 == 0 { "fop" } else { "jess" };
        fillers.push(service.submit(JobSpec::new("filler", workload)).unwrap());
    }

    assert_eq!(service.wait(greedy).outcome, JobOutcome::Killed);
    for id in fillers {
        assert_eq!(service.wait(id).outcome, JobOutcome::Completed);
    }

    let spec = JobSpec::new("greedy", "db");
    let fp = fingerprint_of(&spec, &spec.resolve().unwrap());
    assert!(
        !service.repo().contains(&fp),
        "a killed run must never merge its fingerprint"
    );
    let stats = service.repo().stats();
    assert!(
        stats.evictions >= 1,
        "the filler churn must actually evict: {stats:?}"
    );
    service.shutdown();
}

/// The shutdown-vs-Drop asymmetry, observed through the spill
/// directory: `shutdown` drains and persists the repository, `Drop`
/// abandons the backlog and persists nothing.
#[test]
fn shutdown_persists_but_drop_abandons() {
    let base = std::env::temp_dir().join(format!("hpmopt-serve-drop-{}", std::process::id()));
    let graceful_dir = base.join("graceful");
    let dropped_dir = base.join("dropped");

    let graceful = Service::start(ServiceConfig {
        workers: 1,
        spill_dir: Some(graceful_dir.clone()),
        ..ServiceConfig::default()
    });
    let id = graceful.submit(JobSpec::new("t0", "fop")).unwrap();
    assert_eq!(graceful.wait(id).outcome, JobOutcome::Completed);
    assert_eq!(graceful.shutdown(), 1, "shutdown persists the profile");
    assert_eq!(std::fs::read_dir(&graceful_dir).unwrap().count(), 1);

    let dropped = Service::start(ServiceConfig {
        workers: 1,
        spill_dir: Some(dropped_dir.clone()),
        ..ServiceConfig::default()
    });
    let id = dropped.submit(JobSpec::new("t0", "fop")).unwrap();
    assert_eq!(dropped.wait(id).outcome, JobOutcome::Completed);
    // Queue more work, then drop: the backlog is abandoned at the next
    // poll boundary and nothing is persisted.
    for _ in 0..4 {
        dropped.submit(JobSpec::new("t0", "jess")).unwrap();
    }
    drop(dropped);
    assert!(
        !dropped_dir.exists() || std::fs::read_dir(&dropped_dir).unwrap().count() == 0,
        "Drop must not persist profiles"
    );

    std::fs::remove_dir_all(&base).ok();
}

/// Capacity eviction falls back to a clean cold start: evict a warm
/// fingerprint by merging a competitor into a full single-shard repo,
/// resubmit the victim, and the rerun is cold with an unperturbed
/// digest — and the eviction shows up in `serve.repo_evictions`.
#[test]
fn evicted_fingerprint_resubmits_as_clean_cold_start() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        repo: tiny_repo(),
        ..ServiceConfig::default()
    });
    let fop = JobSpec::new("t0", "fop");
    let fop_w = fop.resolve().unwrap();
    let fop_fp = fingerprint_of(&fop, &fop_w);

    let id = service.submit(fop.clone()).unwrap();
    assert!(!service.wait(id).warm, "first run is cold");
    assert!(service.repo().contains(&fop_fp), "fop is warm in the repo");

    // jess's merge overflows the 512-byte shard and evicts fop (LRU).
    let id = service.submit(JobSpec::new("t0", "jess")).unwrap();
    assert_eq!(service.wait(id).outcome, JobOutcome::Completed);
    assert!(
        !service.repo().contains(&fop_fp),
        "fop must be evicted by jess's merge"
    );
    assert_eq!(service.repo().stats().evictions, 1);

    let rerun = service.submit(fop).unwrap();
    let report = service.wait(rerun);
    assert!(!report.warm, "an evicted fingerprint restarts cold");
    assert_eq!(report.outcome, JobOutcome::Completed);
    let baseline = setup::baseline_digest(&fop_w, report.spec.size, report.spec.heap_mult, 1);
    assert_eq!(report.digest, baseline, "the cold restart is clean");

    let snap = service.snapshot();
    assert!(
        snap.get(MetricId::ServeRepoEvictions) >= 1,
        "the eviction must be visible in serve.repo_evictions"
    );
    service.shutdown();
}

/// One heavy tenant (3 jess jobs per fop job) and one light tenant
/// under QPS-paced open-loop load: nobody starves, and DRR keeps the
/// light tenant's p99 queue wait well under the FIFO control where
/// heavy jobs queued first simply win.
#[test]
fn open_loop_fairness_bounds_light_tenant_and_starves_nobody() {
    let report = run_load(&LoadConfig::open_loop(4));
    assert!(report.check(), "open-loop contract:\n{}", report.summary);
    assert!(
        report.point.repo_evictions >= 1,
        "the bounded repo must churn"
    );

    let light = report
        .tenants
        .iter()
        .find(|t| t.tenant == "light")
        .expect("light tenant row");
    for t in &report.tenants {
        assert!(
            t.completed > 0,
            "tenant {} starved:\n{}",
            t.tenant,
            report.summary
        );
    }
    assert!(
        light.p99_wait_fair * 2 < light.p99_wait_fifo,
        "fair dispatch must at least halve the light tenant's p99 wait: \
         {} fair vs {} fifo",
        light.p99_wait_fair,
        light.p99_wait_fifo
    );
}

/// `serve.queue_depth` is a gauge: `Telemetry::absorb` folds it by max,
/// and a single busy worker with a backlog records a nonzero depth.
#[test]
fn queue_depth_gauge_is_recorded_and_folds_by_max() {
    let fleet = Telemetry::enabled(0);
    let shard = Telemetry::enabled(0);
    fleet.set_gauge(MetricId::ServeQueueDepth, 3);
    shard.set_gauge(MetricId::ServeQueueDepth, 5);
    fleet.absorb(&shard.snapshot(0));
    assert_eq!(fleet.get(MetricId::ServeQueueDepth), 5, "absorb takes max");
    shard.set_gauge(MetricId::ServeQueueDepth, 2);
    fleet.absorb(&shard.snapshot(0));
    assert_eq!(fleet.get(MetricId::ServeQueueDepth), 5, "max never lowers");

    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let ids: Vec<u64> = (0..4)
        .map(|_| service.submit(JobSpec::new("t0", "jess")).unwrap())
        .collect();
    for id in ids {
        assert_eq!(service.wait(id).outcome, JobOutcome::Completed);
    }
    assert!(
        service.snapshot().get(MetricId::ServeQueueDepth) >= 1,
        "a backlog behind one worker must register queue depth"
    );
    service.shutdown();
}
