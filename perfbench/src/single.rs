//! `db-coalloc` and `jython-tiered`: one monitored program run back to
//! back (a closed loop of one) for the measuring window.

use std::time::Instant;

use hpmopt_core::RunReport;

use crate::calib::Calibrator;
use crate::output::Outcome;
use crate::units::{checked, timed_run, Setup};

/// What the window measured.
pub struct SingleWindow {
    /// Seconds of each monitored run at reference speed.
    pub times: Vec<f64>,
    /// Raw host seconds of each monitored run.
    pub raw_times: Vec<f64>,
    /// The first run's report (every run must match it exactly).
    pub first: RunReport,
}

/// Run the unit's monitored configuration until `seconds` have passed
/// (at least once), checking every run's digest against the reference
/// and its simulated cycles against the first run.
pub fn run(setup: &Setup, seconds: f64, cal: &mut Calibrator, out: &mut Outcome) -> SingleWindow {
    let (unit, reference) = (&setup.units[0], &setup.references[0]);
    let start = Instant::now();
    let (mut times, mut raw_times) = (Vec::new(), Vec::new());
    let mut first: Option<RunReport> = None;
    while first.is_none() || start.elapsed().as_secs_f64() < seconds {
        let ((r, raw), s) = cal.run(|| {
            let (r, raw) = timed_run("core", unit, unit.monitored.clone());
            ((r, raw), raw)
        });
        let r = checked(r, unit, reference, "monitored", out);
        times.push(s);
        raw_times.push(raw);
        match &first {
            Some(f) => out.check(r.cycles == f.cycles, || {
                format!(
                    "{} is not deterministic: {} cycles, then {}",
                    unit.label, f.cycles, r.cycles
                )
            }),
            None => first = Some(r),
        }
    }
    SingleWindow {
        times,
        raw_times,
        first: first.expect("the window runs at least once"),
    }
}
