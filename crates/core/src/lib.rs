//! Online-optimization infrastructure driven by hardware performance
//! monitoring — the primary contribution of *Schneider, Payer, Gross:
//! "Online Optimizations Driven by Hardware Performance Monitoring"
//! (PLDI 2007)*, reproduced over the substrates in this workspace.
//!
//! The pipeline (paper Sections 4–5):
//!
//! 1. The VM reports every heap access; the PEBS unit in `hpmopt-hpm`
//!    samples every *n*-th cache miss with its exact PC.
//! 2. [`mapping::SampleResolver`] maps a sampled PC through the sorted
//!    method table and the per-method machine-code maps back to a
//!    bytecode instruction (Section 4.2).
//! 3. [`interest::analyze_method`] walks use-def chains of opt-compiled
//!    methods to find *instructions of interest*: heap accesses whose base
//!    object was itself loaded from a reference field `f`, yielding
//!    `(S, f)` tuples (Section 5.2, Figure 1).
//! 4. [`monitor::OnlineMonitor`] processes sample batches, attributing
//!    misses to reference fields and maintaining per-field counts and
//!    rate histories (Section 5.3).
//! 5. [`policy::AdaptivePolicy`] turns the per-class hottest-field lists
//!    into co-allocation decisions the GenMS collector consults while
//!    tracing the nursery (Section 5.4).
//! 6. [`feedback::Assessor`] watches post-decision miss rates and reverts
//!    decisions that hurt (Section 6.4, Figure 8).
//! 7. [`warmstart`] bridges the persistent profile repository
//!    (`hpmopt-profile`): prior-run miss histograms seed the monitor and
//!    policy at startup so decisions are in force from cycle 0 (a
//!    deviation from the paper, which learns from scratch every run).
//!
//! [`runtime::HpmRuntime`] wires everything to the VM behind one call.
//!
//! # Example
//!
//! ```
//! use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
//! use hpmopt_core::runtime::{HpmRuntime, RunConfig};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut m = MethodBuilder::new("main", 0, 1, false);
//! m.const_i(64);
//! m.new_array(hpmopt_bytecode::ElemKind::I64);
//! m.store(0);
//! m.ret();
//! let id = pb.add_method(m);
//! pb.set_entry(id);
//! let program = pb.finish()?;
//!
//! let report = HpmRuntime::new(RunConfig::default()).run(&program).unwrap();
//! assert!(report.cycles > 0);
//! # Ok::<(), hpmopt_bytecode::VerifyError>(())
//! ```

pub mod feedback;
pub mod interest;
pub mod mapping;
pub mod monitor;
pub mod phases;
pub mod policy;
pub mod runtime;
pub mod warmstart;

pub use interest::InterestMap;
pub use mapping::SampleResolver;
pub use monitor::OnlineMonitor;
pub use phases::{PhaseChange, PhaseDetector};
pub use policy::AdaptivePolicy;
pub use runtime::{HpmRuntime, RunConfig, RunReport};
pub use warmstart::ProfileOptions;
