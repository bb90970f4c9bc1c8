//! Data-carrying buffer with per-cycle port accounting.

use serde::{Deserialize, Serialize};

use crate::conflict::ConflictModel;
use crate::stats::AccessStats;
use crate::BufferSpec;

/// A functional model of one logical 2-D buffer: it stores actual element
/// values and tracks, per simulated cycle, which lines were touched so that
/// bank-conflict stalls can be charged.
///
/// Access pattern: call [`FunctionalBuffer::begin_cycle`] at the start of each
/// simulated cycle, then perform reads/writes; the buffer accumulates the set
/// of lines touched and charges the appropriate slowdown when the next cycle
/// begins (or when [`FunctionalBuffer::flush_cycle`] is called).
///
/// # Lane striping
///
/// A buffer built with [`FunctionalBuffer::with_lanes`] stores `lanes`
/// independent copies of every cell, laid out structure-of-arrays (the lane
/// stripe of one cell is contiguous). This backs the executor's conv core at
/// any lane count: every batch sample occupies one lane, the access
/// *pattern* is identical across lanes, so the stripe accessors account each
/// access **once** — element/line counters and the per-cycle bank-conflict
/// assessment model a single sample's traffic exactly while the data of all
/// lanes moves. The
/// scalar accessors keep addressing lane 0 and a `lanes == 1` buffer is
/// bit-identical to one built with [`FunctionalBuffer::new`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionalBuffer<T> {
    spec: BufferSpec,
    lanes: usize,
    data: Vec<Option<T>>,
    stats: AccessStats,
    // Distinct lines touched this cycle. A handful of lines per cycle is the
    // norm, so a linear-scanned Vec (capacity retained across cycles) beats a
    // node-allocating set in the replay hot path.
    cycle_read_lines: Vec<usize>,
    cycle_write_lines: Vec<usize>,
    in_cycle: bool,
}

impl<T: Copy> FunctionalBuffer<T> {
    /// Creates an empty buffer of the given shape.
    pub fn new(spec: BufferSpec) -> Self {
        FunctionalBuffer::with_lanes(spec, 1)
    }

    /// Creates an empty buffer holding `lanes` data lanes per cell (see the
    /// type docs). `lanes` is clamped to at least 1.
    pub fn with_lanes(spec: BufferSpec, lanes: usize) -> Self {
        let lanes = lanes.max(1);
        FunctionalBuffer {
            spec,
            lanes,
            data: vec![None; spec.capacity() * lanes],
            stats: AccessStats::new(),
            cycle_read_lines: Vec::new(),
            cycle_write_lines: Vec::new(),
            in_cycle: false,
        }
    }

    /// Number of data lanes per cell.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The buffer specification.
    pub fn spec(&self) -> &BufferSpec {
        &self.spec
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Clears all stored data (keeps statistics).
    pub fn clear(&mut self) {
        self.data.fill(None);
    }

    /// Forks the buffer for a parallel worker: same spec and data, zeroed
    /// statistics and cycle state. Workers simulate disjoint slices of a
    /// layer on their forks and the owner merges them back with
    /// [`FunctionalBuffer::absorb`], so the parallel run's data *and*
    /// statistics are bit-identical to the serial run's.
    pub fn fork(&self) -> Self {
        FunctionalBuffer {
            spec: self.spec,
            lanes: self.lanes,
            data: self.data.clone(),
            stats: AccessStats::new(),
            cycle_read_lines: Vec::new(),
            cycle_write_lines: Vec::new(),
            in_cycle: false,
        }
    }

    /// Merges a [`FunctionalBuffer::fork`]ed worker back: every cell the
    /// worker changed — relative to `base`, the pristine pre-fork content all
    /// workers started from — is copied over, and the worker's statistics are
    /// added. Workers of one layer write disjoint cells, so absorb order
    /// never matters; diffing against the shared `base` (not this buffer's
    /// progressively-updated content) is what keeps one worker's merge from
    /// reverting another's.
    ///
    /// # Panics
    /// Panics if the worker's or base's geometry differs (they cannot have
    /// been forked from this buffer).
    pub fn absorb(&mut self, worker: &FunctionalBuffer<T>, base: &FunctionalBuffer<T>)
    where
        T: PartialEq,
    {
        for other in [worker, base] {
            assert!(
                other.spec.num_lines == self.spec.num_lines
                    && other.spec.line_size == self.spec.line_size
                    && other.lanes == self.lanes,
                "absorb requires identical geometry: {}x{}x{} vs {}x{}x{}",
                self.spec.num_lines,
                self.spec.line_size,
                self.lanes,
                other.spec.num_lines,
                other.spec.line_size,
                other.lanes
            );
        }
        for ((mine, theirs), orig) in self.data.iter_mut().zip(&worker.data).zip(&base.data) {
            if theirs != orig {
                *mine = *theirs;
            }
        }
        self.stats.merge(&worker.stats);
    }

    /// Switches the conflict-accounting discipline (banking/ports) without
    /// touching the stored data or statistics. The line geometry must be
    /// unchanged — this models the *same* SRAM being accessed under a
    /// different role, e.g. a StaB half that was the BIRRD write target of
    /// layer `i` becoming the read side of layer `i + 1` after a ping/pong
    /// swap.
    ///
    /// # Panics
    /// Panics if `spec` changes `num_lines` or `line_size` (that would
    /// invalidate the stored addresses; use [`FunctionalBuffer::reshape`]).
    pub fn rebank(&mut self, spec: BufferSpec) {
        assert!(
            spec.num_lines == self.spec.num_lines && spec.line_size == self.spec.line_size,
            "rebank must preserve geometry: {}x{} -> {}x{}",
            self.spec.num_lines,
            self.spec.line_size,
            spec.num_lines,
            spec.line_size
        );
        self.flush_cycle();
        self.spec = spec;
    }

    /// Re-provisions the buffer for a new tenant: adopts the new spec
    /// (including a different line geometry), discards all stored data, and
    /// keeps the accumulated statistics. This is what happens to the shadow
    /// StaB half at a layer boundary — the previous layer's stale iActs are
    /// dead and the half is redrawn for the next layer's oAct layout.
    pub fn reshape(&mut self, spec: BufferSpec) {
        self.flush_cycle();
        self.spec = spec;
        self.data.clear();
        self.data.resize(spec.capacity() * self.lanes, None);
    }

    /// Writes one element without recording an access — the counterpart of
    /// [`FunctionalBuffer::peek`]. Used for operations that are architecturally
    /// free, e.g. the quantization module rescaling accumulators in place on
    /// the way into the StaB (§III-C.4).
    ///
    /// # Panics
    /// Panics if the location is out of bounds.
    #[inline]
    pub fn poke(&mut self, line: usize, offset: usize, value: T) {
        assert!(
            line < self.spec.num_lines && offset < self.spec.line_size,
            "poke out of bounds: line {line}, offset {offset} (buffer is {}x{})",
            self.spec.num_lines,
            self.spec.line_size
        );
        let idx = self.flat(line, offset);
        self.data[idx] = Some(value);
    }

    /// Index of a cell's lane-0 slot; the cell's stripe occupies
    /// `flat..flat + lanes`.
    #[inline]
    fn flat(&self, line: usize, offset: usize) -> usize {
        (line * self.spec.line_size + offset) * self.lanes
    }

    /// Begins a new simulated cycle: charges the previous cycle's conflicts.
    #[inline]
    pub fn begin_cycle(&mut self) {
        self.flush_cycle();
        self.in_cycle = true;
    }

    /// Ends the current cycle, charging conflict stalls for the lines touched.
    pub fn flush_cycle(&mut self) {
        let touched = !self.cycle_read_lines.is_empty() || !self.cycle_write_lines.is_empty();
        if !self.in_cycle && !touched {
            return;
        }
        if touched {
            self.stats.active_cycles += 1;
            // When the distinct lines touched fit within the ports, no bank
            // can exceed its ports either (max_lines_per_bank <= total lines),
            // so the slowdown is exactly 1.0 and the full assessment — which
            // groups lines by bank — can be skipped. This is the common case
            // in the replay hot path.
            if self.cycle_read_lines.len() > self.spec.read_ports.max(1)
                || self.cycle_write_lines.len() > self.spec.write_ports.max(1)
            {
                let model = ConflictModel::new(self.spec);
                let read = model.assess_reads(self.cycle_read_lines.iter().copied());
                let write = model.assess_writes(self.cycle_write_lines.iter().copied());
                let slowdown = read.slowdown.max(write.slowdown);
                // A slowdown of e.g. 2.0 means the accesses of this cycle
                // actually take 2 cycles: one nominal + one stall.
                self.stats.conflict_stall_cycles += (slowdown.ceil() as u64).saturating_sub(1);
            }
        }
        self.cycle_read_lines.clear();
        self.cycle_write_lines.clear();
        self.in_cycle = false;
    }

    /// Writes one element at `(line, offset)`.
    ///
    /// # Panics
    /// Panics if the location is out of bounds.
    #[inline]
    pub fn write(&mut self, line: usize, offset: usize, value: T) {
        assert!(
            line < self.spec.num_lines && offset < self.spec.line_size,
            "write out of bounds: line {line}, offset {offset} (buffer is {}x{})",
            self.spec.num_lines,
            self.spec.line_size
        );
        let idx = self.flat(line, offset);
        self.data[idx] = Some(value);
        self.stats.element_writes += 1;
        if !self.cycle_write_lines.contains(&line) {
            self.cycle_write_lines.push(line);
            self.stats.line_writes += 1;
        }
    }

    /// Reads one element, returning `None` if it was never written.
    ///
    /// # Panics
    /// Panics if the location is out of bounds.
    #[inline]
    pub fn read(&mut self, line: usize, offset: usize) -> Option<T> {
        assert!(
            line < self.spec.num_lines && offset < self.spec.line_size,
            "read out of bounds: line {line}, offset {offset} (buffer is {}x{})",
            self.spec.num_lines,
            self.spec.line_size
        );
        let idx = self.flat(line, offset);
        self.stats.element_reads += 1;
        if !self.cycle_read_lines.contains(&line) {
            self.cycle_read_lines.push(line);
            self.stats.line_reads += 1;
        }
        self.data[idx]
    }

    /// Reads a cell's whole lane stripe, accounted as **one** element read:
    /// every lane performs the same access in the same cycle, so a single
    /// sample's counters (and conflict assessment) describe all of them.
    ///
    /// # Panics
    /// Panics if the location is out of bounds.
    #[inline(always)]
    pub fn read_stripe(&mut self, line: usize, offset: usize) -> &[Option<T>] {
        assert!(
            line < self.spec.num_lines && offset < self.spec.line_size,
            "read out of bounds: line {line}, offset {offset} (buffer is {}x{})",
            self.spec.num_lines,
            self.spec.line_size
        );
        let idx = self.flat(line, offset);
        self.stats.element_reads += 1;
        if !self.cycle_read_lines.contains(&line) {
            self.cycle_read_lines.push(line);
            self.stats.line_reads += 1;
        }
        &self.data[idx..idx + self.lanes]
    }

    /// Returns a cell's whole lane stripe for writing, accounted as **one**
    /// element write (see [`FunctionalBuffer::read_stripe`]). The caller
    /// fills the returned slice; lanes left `None` stay absent.
    ///
    /// # Panics
    /// Panics if the location is out of bounds.
    #[inline(always)]
    pub fn write_stripe(&mut self, line: usize, offset: usize) -> &mut [Option<T>] {
        assert!(
            line < self.spec.num_lines && offset < self.spec.line_size,
            "write out of bounds: line {line}, offset {offset} (buffer is {}x{})",
            self.spec.num_lines,
            self.spec.line_size
        );
        let idx = self.flat(line, offset);
        self.stats.element_writes += 1;
        if !self.cycle_write_lines.contains(&line) {
            self.cycle_write_lines.push(line);
            self.stats.line_writes += 1;
        }
        &mut self.data[idx..idx + self.lanes]
    }

    /// Peeks at a cell's whole lane stripe without recording an access.
    ///
    /// # Panics
    /// Panics if the location is out of bounds.
    #[inline]
    pub fn peek_stripe(&self, line: usize, offset: usize) -> &[Option<T>] {
        let idx = self.flat(line, offset);
        &self.data[idx..idx + self.lanes]
    }

    /// Returns a cell's whole lane stripe for writing without recording an
    /// access — the stripe counterpart of [`FunctionalBuffer::poke`].
    ///
    /// # Panics
    /// Panics if the location is out of bounds.
    #[inline]
    pub fn poke_stripe(&mut self, line: usize, offset: usize) -> &mut [Option<T>] {
        assert!(
            line < self.spec.num_lines && offset < self.spec.line_size,
            "poke out of bounds: line {line}, offset {offset} (buffer is {}x{})",
            self.spec.num_lines,
            self.spec.line_size
        );
        let idx = self.flat(line, offset);
        &mut self.data[idx..idx + self.lanes]
    }

    /// Reads a whole line (missing elements come back as `None`).
    pub fn read_line(&mut self, line: usize) -> Vec<Option<T>> {
        (0..self.spec.line_size)
            .map(|offset| self.read(line, offset))
            .collect()
    }

    /// Writes a whole line starting at offset 0.
    ///
    /// # Panics
    /// Panics if `values.len()` exceeds the line size.
    pub fn write_line(&mut self, line: usize, values: &[T]) {
        assert!(
            values.len() <= self.spec.line_size,
            "line write of {} elements exceeds line size {}",
            values.len(),
            self.spec.line_size
        );
        for (offset, v) in values.iter().enumerate() {
            self.write(line, offset, *v);
        }
    }

    /// Peeks at a value without recording an access (for assertions in tests).
    #[inline]
    pub fn peek(&self, line: usize, offset: usize) -> Option<T> {
        self.data.get(self.flat(line, offset)).copied().flatten()
    }

    /// Number of elements currently holding data.
    pub fn occupancy(&self) -> usize {
        self.data.iter().filter(|v| v.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Banking;

    fn buf() -> FunctionalBuffer<i8> {
        FunctionalBuffer::new(BufferSpec::new(16, 4, 4, Banking::VerticalBlocked).with_ports(2, 2))
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut b = buf();
        b.begin_cycle();
        b.write(3, 2, 42);
        b.begin_cycle();
        assert_eq!(b.read(3, 2), Some(42));
        assert_eq!(b.read(3, 3), None);
        assert_eq!(b.peek(3, 2), Some(42));
        assert_eq!(b.occupancy(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_panics() {
        let mut b = buf();
        b.write(99, 0, 1);
    }

    #[test]
    fn line_level_stats() {
        let mut b = buf();
        b.begin_cycle();
        b.write_line(0, &[1, 2, 3, 4]);
        b.begin_cycle();
        let line = b.read_line(0);
        assert_eq!(line, vec![Some(1), Some(2), Some(3), Some(4)]);
        b.flush_cycle();
        assert_eq!(b.stats().line_writes, 1);
        assert_eq!(b.stats().line_reads, 1);
        assert_eq!(b.stats().element_reads, 4);
        assert_eq!(b.stats().element_writes, 4);
        assert_eq!(b.stats().active_cycles, 2);
        assert_eq!(b.stats().conflict_stall_cycles, 0);
    }

    #[test]
    fn conflicting_reads_accumulate_stalls() {
        // All of lines 0..4 live in bank 0 (conflict_depth=4): reading 4 lines
        // in one cycle with dual ports costs one extra cycle.
        let mut b = buf();
        for line in 0..4 {
            b.begin_cycle();
            b.write(line, 0, line as i8);
        }
        b.flush_cycle();
        let stalls_after_writes = b.stats().conflict_stall_cycles;
        assert_eq!(stalls_after_writes, 0);
        b.begin_cycle();
        for line in 0..4 {
            b.read(line, 0);
        }
        b.flush_cycle();
        assert_eq!(b.stats().conflict_stall_cycles, 1);
    }

    #[test]
    fn conflict_free_reads_do_not_stall() {
        let mut b = buf();
        b.begin_cycle();
        for line in [0usize, 4, 8, 12] {
            b.write(line, 0, 1);
        }
        b.begin_cycle();
        for line in [0usize, 4, 8, 12] {
            b.read(line, 0);
        }
        b.flush_cycle();
        assert_eq!(b.stats().conflict_stall_cycles, 0);
    }

    #[test]
    fn rebank_keeps_data_reshape_keeps_stats() {
        let mut b = buf();
        b.begin_cycle();
        b.write(2, 1, 9);
        b.flush_cycle();
        // Same geometry, different banking: data survives.
        b.rebank(BufferSpec::new(16, 4, 4, Banking::Horizontal));
        assert_eq!(b.peek(2, 1), Some(9));
        assert_eq!(b.spec().banking, Banking::Horizontal);
        // New geometry: data is gone, stats survive.
        b.reshape(BufferSpec::new(8, 8, 8, Banking::Horizontal));
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.spec().line_size, 8);
        assert_eq!(b.stats().element_writes, 1);
    }

    #[test]
    #[should_panic(expected = "rebank must preserve geometry")]
    fn rebank_rejects_geometry_change() {
        let mut b = buf();
        b.rebank(BufferSpec::new(8, 4, 4, Banking::Horizontal));
    }

    #[test]
    fn fork_and_absorb_merge_disjoint_workers_exactly() {
        let mut main = buf();
        main.begin_cycle();
        main.write(0, 0, 7); // pre-existing data both workers inherit
        main.flush_cycle();
        let base = main.fork();
        assert_eq!(base.stats().element_writes, 0);
        assert_eq!(base.peek(0, 0), Some(7));

        // Two workers write disjoint cells; worker B also overwrites a
        // pre-existing cell.
        let mut a = base.fork();
        let mut b = base.fork();
        a.begin_cycle();
        a.write(1, 0, 10);
        a.flush_cycle();
        b.begin_cycle();
        b.write(2, 3, 20);
        b.write(0, 0, 9);
        b.flush_cycle();

        // Absorb order must not matter: A's write survives B's merge because
        // diffs are taken against the shared base, not the updated main.
        main.absorb(&a, &base);
        main.absorb(&b, &base);
        assert_eq!(main.peek(1, 0), Some(10));
        assert_eq!(main.peek(2, 3), Some(20));
        assert_eq!(main.peek(0, 0), Some(9));
        assert_eq!(main.stats().element_writes, 1 + 1 + 2);
        assert_eq!(main.stats().active_cycles, 1 + 1 + 1);
    }

    #[test]
    fn poke_stores_without_accounting() {
        let mut b = buf();
        b.poke(1, 1, 5);
        assert_eq!(b.peek(1, 1), Some(5));
        assert_eq!(b.stats().element_writes, 0);
        assert_eq!(b.stats().line_writes, 0);
    }

    #[test]
    fn striped_buffer_accounts_like_one_solo_buffer() {
        // The batched-replay contract: a lanes=4 buffer driven through the
        // stripe accessors produces *exactly* the stats of one scalar buffer
        // driven through the scalar accessors with the same access pattern —
        // including the bank-conflict assessment, which runs once per cycle
        // regardless of lane count.
        let spec = BufferSpec::new(16, 4, 4, Banking::VerticalBlocked).with_ports(2, 2);
        let mut solo = FunctionalBuffer::<i8>::new(spec);
        let mut striped = FunctionalBuffer::<i8>::with_lanes(spec, 4);
        assert_eq!(striped.lanes(), 4);

        // Conflict-heavy pattern: lines 0..4 all live in bank 0.
        solo.begin_cycle();
        striped.begin_cycle();
        for line in 0..4 {
            solo.write(line, 1, line as i8);
            for (lane, slot) in striped.write_stripe(line, 1).iter_mut().enumerate() {
                *slot = Some(line as i8 + lane as i8);
            }
        }
        solo.begin_cycle();
        striped.begin_cycle();
        for line in 0..4 {
            assert_eq!(solo.read(line, 1), Some(line as i8));
            let stripe = striped.read_stripe(line, 1).to_vec();
            for (lane, v) in stripe.into_iter().enumerate() {
                assert_eq!(v, Some(line as i8 + lane as i8));
            }
        }
        solo.flush_cycle();
        striped.flush_cycle();
        assert_eq!(striped.stats(), solo.stats());
        assert!(solo.stats().conflict_stall_cycles > 0);
    }

    #[test]
    fn stripe_peek_and_poke_are_unaccounted() {
        let mut b =
            FunctionalBuffer::<i8>::with_lanes(BufferSpec::new(4, 4, 1, Banking::Horizontal), 2);
        b.poke_stripe(1, 2).fill(Some(9));
        assert_eq!(b.peek_stripe(1, 2), &[Some(9), Some(9)]);
        assert_eq!(b.stats(), &AccessStats::new());
        // Scalar accessors address lane 0 of the stripe.
        assert_eq!(b.peek(1, 2), Some(9));
    }

    #[test]
    fn clear_keeps_stats() {
        let mut b = buf();
        b.begin_cycle();
        b.write(0, 0, 7);
        b.flush_cycle();
        b.clear();
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.stats().element_writes, 1);
    }
}
