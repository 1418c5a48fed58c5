//! Per-tenant resource caps and admission control.
//!
//! Admission is the only gate: once a job is admitted, nothing it does
//! can starve another tenant, because every resource it touches (heap,
//! VM, HPM unit, telemetry) is private and its simulated-cycle budget
//! was fixed at admission. The book therefore only has to track *live
//! job counts* per tenant and answer three questions at submit time:
//! is the tenant under its concurrency cap, is the requested heap under
//! its per-job heap cap, and what cycle budget applies.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::job::RejectReason;

/// Resource caps applied to one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantCaps {
    /// Maximum jobs live (queued or running) at once.
    pub max_live_jobs: usize,
    /// Maximum heap bytes one job may reserve.
    pub max_heap_bytes: u64,
    /// Cycle budget imposed on every job; combined with the job's own
    /// requested budget by taking the minimum. `None` imposes nothing.
    pub max_cycles_per_job: Option<u64>,
}

impl Default for TenantCaps {
    fn default() -> Self {
        TenantCaps {
            max_live_jobs: 8,
            max_heap_bytes: 256 * 1024 * 1024,
            max_cycles_per_job: None,
        }
    }
}

#[derive(Debug, Default)]
struct TenantState {
    caps: Option<TenantCaps>,
    live: usize,
}

/// The admission book: per-tenant caps and live-job counts.
#[derive(Debug, Default)]
pub struct TenantBook {
    default_caps: TenantCaps,
    tenants: Mutex<BTreeMap<String, TenantState>>,
}

impl TenantBook {
    /// A book applying `default_caps` to tenants with no explicit caps.
    #[must_use]
    pub fn new(default_caps: TenantCaps) -> Self {
        TenantBook {
            default_caps,
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// Install explicit caps for one tenant (replacing any prior caps).
    pub fn set_caps(&self, tenant: &str, caps: TenantCaps) {
        self.tenants
            .lock()
            .unwrap()
            .entry(tenant.to_string())
            .or_default()
            .caps = Some(caps);
    }

    /// Admit one job: check the tenant's caps against the request and,
    /// on success, count the job live and return the effective cycle
    /// budget (minimum of the tenant cap and the job's own request).
    ///
    /// # Errors
    ///
    /// The [`RejectReason`] when a cap would be exceeded; the live
    /// count is untouched.
    pub fn admit(
        &self,
        tenant: &str,
        heap_bytes: u64,
        requested_budget: Option<u64>,
    ) -> Result<Option<u64>, RejectReason> {
        let mut book = self.tenants.lock().unwrap();
        let state = book.entry(tenant.to_string()).or_default();
        let caps = state.caps.unwrap_or(self.default_caps);
        if state.live >= caps.max_live_jobs {
            return Err(RejectReason::LiveJobCap {
                live: state.live,
                cap: caps.max_live_jobs,
            });
        }
        if heap_bytes > caps.max_heap_bytes {
            return Err(RejectReason::HeapCap {
                requested_bytes: heap_bytes,
                cap_bytes: caps.max_heap_bytes,
            });
        }
        state.live += 1;
        Ok(match (caps.max_cycles_per_job, requested_budget) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        })
    }

    /// Release one live-job slot after the job reaches a terminal
    /// state.
    pub fn release(&self, tenant: &str) {
        let mut book = self.tenants.lock().unwrap();
        if let Some(state) = book.get_mut(tenant) {
            state.live = state.live.saturating_sub(1);
        }
    }

    /// Jobs currently live for a tenant.
    #[must_use]
    pub fn live(&self, tenant: &str) -> usize {
        self.tenants
            .lock()
            .unwrap()
            .get(tenant)
            .map_or(0, |t| t.live)
    }

    /// Tenants the book has seen.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_job_cap_rejects_then_release_readmits() {
        let book = TenantBook::new(TenantCaps {
            max_live_jobs: 2,
            ..TenantCaps::default()
        });
        assert!(book.admit("a", 1, None).is_ok());
        assert!(book.admit("a", 1, None).is_ok());
        assert_eq!(
            book.admit("a", 1, None),
            Err(RejectReason::LiveJobCap { live: 2, cap: 2 })
        );
        assert!(book.admit("b", 1, None).is_ok(), "caps are per tenant");
        book.release("a");
        assert!(book.admit("a", 1, None).is_ok());
        assert_eq!(book.live("a"), 2);
        assert_eq!(book.tenant_count(), 2);
    }

    #[test]
    fn heap_cap_rejects_without_consuming_a_slot() {
        let book = TenantBook::new(TenantCaps {
            max_heap_bytes: 100,
            ..TenantCaps::default()
        });
        assert_eq!(
            book.admit("a", 101, None),
            Err(RejectReason::HeapCap {
                requested_bytes: 101,
                cap_bytes: 100
            })
        );
        assert_eq!(book.live("a"), 0);
    }

    #[test]
    fn budget_is_the_minimum_of_cap_and_request() {
        let book = TenantBook::new(TenantCaps::default());
        book.set_caps(
            "a",
            TenantCaps {
                max_cycles_per_job: Some(500),
                ..TenantCaps::default()
            },
        );
        assert_eq!(book.admit("a", 1, Some(900)).unwrap(), Some(500));
        assert_eq!(book.admit("a", 1, Some(200)).unwrap(), Some(200));
        assert_eq!(book.admit("a", 1, None).unwrap(), Some(500));
        assert_eq!(book.admit("b", 1, Some(900)).unwrap(), Some(900));
        assert_eq!(book.admit("b", 1, None).unwrap(), None);
    }
}
