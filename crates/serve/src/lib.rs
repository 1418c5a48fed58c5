//! Multi-tenant VM service with a shared warm-start profile repository.
//!
//! This crate promotes the one-shot monitored run
//! ([`hpmopt_core::runtime::HpmRuntime`]) into a long-lived daemon:
//! many concurrent guest executions multiplexed over a `std::thread`
//! worker pool, each job fully isolated (its own heap, VM, HPM unit,
//! and telemetry handle), all of them sharing one concurrently updated
//! in-process profile repository
//! ([`hpmopt_profile::SharedProfileRepo`]). A job checks out a warm
//! profile keyed by its program+config fingerprint at admission and
//! decay-merges its freshly measured results back on completion, so one
//! tenant's finished run is the next tenant's warm start and
//! cycles-to-first-decision drops fleet-wide as traffic flows.
//!
//! Four layers:
//!
//! - [`job`] — the isolated execution unit and its vocabulary
//!   ([`JobSpec`], [`JobOutcome`], [`JobReport`]);
//! - [`scheduler`] — sharded per-worker run queues with
//!   seed-deterministic work stealing and deficit-round-robin
//!   tenant fairness;
//! - [`tenant`] + [`service`] — admission control (live-job, heap, and
//!   cycle caps → [`RejectReason`] / killed jobs) and the live
//!   scheduler-and-workers daemon over a *bounded* profile repository
//!   (LRU+TTL byte-capacity eviction);
//! - [`bench`](mod@bench) + [`openloop`] — the deterministic load generators:
//!   closed-loop rounds for throughput/warm-start, and a QPS-paced
//!   open-loop run for queue-wait tails and tenant fairness. Both
//!   summaries are byte-identical for any worker count (CI diffs 1
//!   worker against N).
//!
//! Fleet observability reuses the workspace telemetry: per-job
//! snapshots are absorbed into `serve.*` counters and histograms
//! ([`hpmopt_telemetry::Telemetry::absorb`]) and exported through the
//! existing Prometheus exposition.

pub mod bench;
pub mod job;
pub mod openloop;
pub mod scheduler;
pub mod service;
pub mod tenant;

pub use bench::{run_bench, BenchConfig, BenchReport};
pub use job::{run_job, JobOutcome, JobReport, JobRun, JobSpec, RejectReason};
pub use openloop::{run_openloop, OpenLoopConfig, OpenLoopReport};
pub use scheduler::{DrrQueue, SchedulerConfig, ShardedScheduler};
pub use service::{Service, ServiceConfig};
pub use tenant::{TenantBook, TenantCaps};
