//! Perfmon-style kernel module.
//!
//! Owns the PEBS unit and its sample buffer, hides the "hardware" details
//! from the runtime, and raises the overflow interrupt when the buffer
//! reaches its fill mark — the role the HP perfmon kernel module plays in
//! the paper's system (Section 4.1, part 1).

use crate::pebs::PebsUnit;
use crate::userlib::UserBuffer;

/// Buffer fill (percent of capacity) that raises the overflow interrupt.
pub const INTERRUPT_MARK_PCT: usize = 90;

/// The kernel side of the monitoring stack.
#[derive(Debug, Clone)]
pub struct PerfmonModule {
    unit: PebsUnit,
    interrupt_mark: usize,
}

impl PerfmonModule {
    /// Initialize the module with the unit's interval, seed and buffer
    /// capacity; the interrupt fires at [`INTERRUPT_MARK_PCT`] fill.
    #[must_use]
    pub fn new(interval: u64, seed: u64, capacity: usize) -> Self {
        PerfmonModule {
            unit: PebsUnit::new(interval, seed, capacity),
            interrupt_mark: capacity * INTERRUPT_MARK_PCT / 100,
        }
    }

    /// The PEBS unit (hardware access, read-only).
    #[must_use]
    pub fn unit(&self) -> &PebsUnit {
        &self.unit
    }

    /// The PEBS unit (hardware access).
    pub fn unit_mut(&mut self) -> &mut PebsUnit {
        &mut self.unit
    }

    /// Whether the buffer reached the fill mark ("an interrupt is
    /// generated only when this buffer is filled to a specified mark").
    #[must_use]
    pub fn interrupt_pending(&self) -> bool {
        self.unit.buffered() >= self.interrupt_mark.max(1)
    }

    /// Current buffer fill as a percentage of capacity.
    #[must_use]
    pub fn fill_pct(&self) -> u8 {
        (self.unit.buffered() * 100 / self.unit.capacity().max(1)) as u8
    }

    /// Copy all buffered samples into the user-space transfer array;
    /// returns the number copied (bounded by the array's capacity — the
    /// library sizes it to the kernel buffer, so nothing is lost).
    pub fn read_samples(&mut self, user: &mut UserBuffer) -> usize {
        let n = user.fill(self.unit.samples());
        self.unit.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmopt_memsim::EventKind;

    #[test]
    fn interrupt_fires_at_mark() {
        let mut k = PerfmonModule::new(1, 1, 10);
        for i in 0..8u64 {
            k.unit_mut().observe(i, 0, EventKind::L1DMiss, i);
        }
        assert!(!k.interrupt_pending(), "8 < mark of 9");
        k.unit_mut().observe(8, 0, EventKind::L1DMiss, 8);
        assert!(k.interrupt_pending());
        assert_eq!(k.fill_pct(), 90);
    }

    #[test]
    fn read_samples_transfers_and_clears() {
        let mut k = PerfmonModule::new(1, 1, 10);
        for i in 0..5u64 {
            k.unit_mut().observe(i, 0, EventKind::L1DMiss, i);
        }
        let mut user = UserBuffer::new(10);
        assert_eq!(k.read_samples(&mut user), 5);
        assert_eq!(k.unit().buffered(), 0);
        assert_eq!(user.len(), 5);
    }
}
