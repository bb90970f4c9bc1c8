//! A tensor stored in a [`FunctionalBuffer`] under a [`Layout`], addressed by
//! logical coordinates.

use std::collections::BTreeMap;

use feather_arch::layout::{Layout, Location};
use feather_arch::Dim;
use serde::{Deserialize, Serialize};

use crate::buffer::FunctionalBuffer;
use crate::stats::AccessStats;
use crate::BufferSpec;

/// Couples a [`Layout`] with a [`FunctionalBuffer`], so simulators can read
/// and write by *tensor coordinate* and the store takes care of computing the
/// physical `(line, offset)` and accounting for conflicts.
///
/// # Example
/// ```
/// use std::collections::BTreeMap;
/// use feather_arch::{Dim, layout::Layout};
/// use feather_memsim::{BufferSpec, Banking};
/// use feather_memsim::store::LayoutStore;
///
/// let layout: Layout = "HWC_C4".parse().unwrap();
/// let dims: BTreeMap<Dim, usize> = [(Dim::C, 4), (Dim::H, 2), (Dim::W, 2)].into_iter().collect();
/// let spec = BufferSpec::new(8, 4, 4, Banking::Horizontal);
/// let mut store = LayoutStore::<i8>::new(spec, layout, dims);
/// store.write_coord(&[(Dim::C, 1), (Dim::H, 0), (Dim::W, 0)].into_iter().collect(), 42);
/// assert_eq!(store.read_coord(&[(Dim::C, 1), (Dim::H, 0), (Dim::W, 0)].into_iter().collect()), Some(42));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutStore<T> {
    buffer: FunctionalBuffer<T>,
    layout: Layout,
    dim_sizes: BTreeMap<Dim, usize>,
}

impl<T: Copy> LayoutStore<T> {
    /// Creates a store with the given physical buffer, layout and tensor extents.
    pub fn new(spec: BufferSpec, layout: Layout, dim_sizes: BTreeMap<Dim, usize>) -> Self {
        LayoutStore {
            buffer: FunctionalBuffer::new(spec),
            layout,
            dim_sizes,
        }
    }

    /// The layout governing this store.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The tensor extents.
    pub fn dim_sizes(&self) -> &BTreeMap<Dim, usize> {
        &self.dim_sizes
    }

    /// Accumulated access statistics of the underlying buffer.
    pub fn stats(&self) -> &AccessStats {
        self.buffer.stats()
    }

    /// Mutable access to the underlying buffer (e.g. for cycle bookkeeping).
    pub fn buffer_mut(&mut self) -> &mut FunctionalBuffer<T> {
        &mut self.buffer
    }

    /// Physical location of a coordinate under this store's layout.
    pub fn location(&self, coord: &BTreeMap<Dim, usize>) -> Location {
        self.layout.location(coord, &self.dim_sizes)
    }

    /// Begins a new simulated cycle on the underlying buffer.
    pub fn begin_cycle(&mut self) {
        self.buffer.begin_cycle();
    }

    /// Flushes the current cycle's conflict accounting.
    pub fn flush_cycle(&mut self) {
        self.buffer.flush_cycle();
    }

    /// Writes a value at a logical coordinate.
    pub fn write_coord(&mut self, coord: &BTreeMap<Dim, usize>, value: T) {
        let loc = self.location(coord);
        self.buffer.write(loc.line, loc.offset, value);
    }

    /// Reads the value at a logical coordinate (`None` if never written).
    pub fn read_coord(&mut self, coord: &BTreeMap<Dim, usize>) -> Option<T> {
        let loc = self.location(coord);
        self.buffer.read(loc.line, loc.offset)
    }

    /// Peeks without recording an access.
    pub fn peek_coord(&self, coord: &BTreeMap<Dim, usize>) -> Option<T> {
        let loc = self.layout.location(coord, &self.dim_sizes);
        self.buffer.peek(loc.line, loc.offset)
    }

    /// Number of lines this tensor occupies under its layout.
    pub fn total_lines(&self) -> usize {
        self.layout.total_lines(&self.dim_sizes)
    }

    /// Number of elements currently stored.
    pub fn occupancy(&self) -> usize {
        self.buffer.occupancy()
    }

    /// A borrowed layout-addressed view of this store's buffer.
    pub fn view_mut(&mut self) -> LayoutView<'_, T> {
        LayoutView {
            buffer: &mut self.buffer,
            layout: &self.layout,
            dim_sizes: &self.dim_sizes,
        }
    }
}

/// A borrowed, layout-addressed view over a [`FunctionalBuffer`] someone else
/// owns. This is how simulators address a *shared* physical buffer — e.g. one
/// half of the StaB [`PingPong`](crate::pingpong::PingPong) — by tensor
/// coordinate for the duration of one layer, without moving the buffer out of
/// its owner: the layout and extents belong to the layer, the SRAM (data and
/// statistics) belongs to the accelerator.
#[derive(Debug)]
pub struct LayoutView<'a, T> {
    buffer: &'a mut FunctionalBuffer<T>,
    layout: &'a Layout,
    dim_sizes: &'a BTreeMap<Dim, usize>,
}

impl<'a, T: Copy> LayoutView<'a, T> {
    /// Creates a view of `buffer` addressed by `layout` over `dim_sizes`.
    pub fn new(
        buffer: &'a mut FunctionalBuffer<T>,
        layout: &'a Layout,
        dim_sizes: &'a BTreeMap<Dim, usize>,
    ) -> Self {
        LayoutView {
            buffer,
            layout,
            dim_sizes,
        }
    }

    /// The layout governing this view.
    pub fn layout(&self) -> &Layout {
        self.layout
    }

    /// The tensor extents.
    pub fn dim_sizes(&self) -> &BTreeMap<Dim, usize> {
        self.dim_sizes
    }

    /// Accumulated access statistics of the underlying buffer.
    pub fn stats(&self) -> &AccessStats {
        self.buffer.stats()
    }

    /// Number of data lanes per cell of the underlying buffer (see
    /// [`FunctionalBuffer::lanes`]).
    pub fn lanes(&self) -> usize {
        self.buffer.lanes()
    }

    /// Physical location of a coordinate under this view's layout.
    pub fn location(&self, coord: &BTreeMap<Dim, usize>) -> Location {
        self.layout.location(coord, self.dim_sizes)
    }

    /// Begins a new simulated cycle on the underlying buffer.
    #[inline]
    pub fn begin_cycle(&mut self) {
        self.buffer.begin_cycle();
    }

    /// Flushes the current cycle's conflict accounting.
    #[inline]
    pub fn flush_cycle(&mut self) {
        self.buffer.flush_cycle();
    }

    /// Writes a value at a logical coordinate.
    #[inline]
    pub fn write_coord(&mut self, coord: &BTreeMap<Dim, usize>, value: T) {
        let loc = self.location(coord);
        self.buffer.write(loc.line, loc.offset, value);
    }

    /// Reads the value at a logical coordinate (`None` if never written).
    #[inline]
    pub fn read_coord(&mut self, coord: &BTreeMap<Dim, usize>) -> Option<T> {
        let loc = self.location(coord);
        self.buffer.read(loc.line, loc.offset)
    }

    /// Peeks without recording an access.
    #[inline]
    pub fn peek_coord(&self, coord: &BTreeMap<Dim, usize>) -> Option<T> {
        let loc = self.location(coord);
        self.buffer.peek(loc.line, loc.offset)
    }

    /// Writes without recording an access (see
    /// [`FunctionalBuffer::poke`](crate::buffer::FunctionalBuffer::poke)).
    #[inline]
    pub fn poke_coord(&mut self, coord: &BTreeMap<Dim, usize>, value: T) {
        let loc = self.location(coord);
        self.buffer.poke(loc.line, loc.offset, value);
    }

    // --- Location-addressed fast path -----------------------------------
    //
    // Hot loops precompute `Location`s (e.g. via
    // `feather_arch::layout::LocationPlan4`) instead of building a coordinate
    // map per element; these accessors are the matching buffer entry points.

    /// Reads at a precomputed location (`None` if never written).
    #[inline]
    pub fn read_at(&mut self, loc: Location) -> Option<T> {
        self.buffer.read(loc.line, loc.offset)
    }

    /// Writes at a precomputed location.
    #[inline]
    pub fn write_at(&mut self, loc: Location, value: T) {
        self.buffer.write(loc.line, loc.offset, value);
    }

    /// Peeks at a precomputed location without recording an access.
    #[inline]
    pub fn peek_at(&self, loc: Location) -> Option<T> {
        self.buffer.peek(loc.line, loc.offset)
    }

    /// Writes at a precomputed location without recording an access.
    #[inline]
    pub fn poke_at(&mut self, loc: Location, value: T) {
        self.buffer.poke(loc.line, loc.offset, value);
    }

    // --- Lane-stripe accessors (the executor's conv core) ----------------
    //
    // One accounted access moves a whole batch's worth of data; see
    // `FunctionalBuffer::read_stripe` for the accounting contract.

    /// Reads the lane stripe at a precomputed location, accounted as one
    /// element read.
    #[inline]
    pub fn read_stripe_at(&mut self, loc: Location) -> &[Option<T>] {
        self.buffer.read_stripe(loc.line, loc.offset)
    }

    /// Returns the lane stripe at a precomputed location for writing,
    /// accounted as one element write.
    #[inline]
    pub fn write_stripe_at(&mut self, loc: Location) -> &mut [Option<T>] {
        self.buffer.write_stripe(loc.line, loc.offset)
    }

    /// Peeks at the lane stripe at a precomputed location without recording
    /// an access.
    #[inline]
    pub fn peek_stripe_at(&self, loc: Location) -> &[Option<T>] {
        self.buffer.peek_stripe(loc.line, loc.offset)
    }

    /// Returns the lane stripe at a precomputed location for writing without
    /// recording an access.
    #[inline]
    pub fn poke_stripe_at(&mut self, loc: Location) -> &mut [Option<T>] {
        self.buffer.poke_stripe(loc.line, loc.offset)
    }

    /// Forks the underlying buffer for a parallel worker (see
    /// [`FunctionalBuffer::fork`]); pair with [`LayoutView::absorb`].
    pub fn fork_buffer(&self) -> FunctionalBuffer<T> {
        self.buffer.fork()
    }

    /// Merges a forked worker buffer back into the underlying buffer (see
    /// [`FunctionalBuffer::absorb`]); `base` is the pristine pre-fork copy
    /// the workers' changes are diffed against.
    pub fn absorb(&mut self, worker: &FunctionalBuffer<T>, base: &FunctionalBuffer<T>)
    where
        T: PartialEq,
    {
        self.buffer.absorb(worker, base);
    }
}

/// Convenience constructor: sizes the buffer exactly to the tensor under the
/// layout, using FEATHER's StaB-style horizontal banking.
pub fn store_for_tensor<T: Copy>(
    layout: Layout,
    dim_sizes: BTreeMap<Dim, usize>,
) -> LayoutStore<T> {
    let lines = layout.total_lines(&dim_sizes).max(1);
    let spec = BufferSpec::new(
        lines,
        layout.line_size(),
        layout.line_size(),
        crate::Banking::Horizontal,
    );
    LayoutStore::new(spec, layout, dim_sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Banking;

    fn coord(pairs: &[(Dim, usize)]) -> BTreeMap<Dim, usize> {
        pairs.iter().copied().collect()
    }

    fn dims() -> BTreeMap<Dim, usize> {
        [(Dim::C, 8), (Dim::H, 4), (Dim::W, 4)]
            .into_iter()
            .collect()
    }

    #[test]
    fn roundtrip_all_coordinates() {
        let layout: Layout = "HWC_C8".parse().unwrap();
        let mut store = store_for_tensor::<i32>(layout, dims());
        let mut value = 0i32;
        for h in 0..4 {
            for w in 0..4 {
                for c in 0..8 {
                    store.write_coord(&coord(&[(Dim::C, c), (Dim::H, h), (Dim::W, w)]), value);
                    value += 1;
                }
            }
        }
        assert_eq!(store.occupancy(), 128);
        let mut value = 0i32;
        for h in 0..4 {
            for w in 0..4 {
                for c in 0..8 {
                    assert_eq!(
                        store.read_coord(&coord(&[(Dim::C, c), (Dim::H, h), (Dim::W, w)])),
                        Some(value)
                    );
                    value += 1;
                }
            }
        }
    }

    #[test]
    fn distinct_coordinates_never_collide() {
        // Two different coordinates must map to different physical locations.
        let layout: Layout = "CHW_W4H2C2".parse().unwrap();
        let store = store_for_tensor::<i8>(layout, dims());
        let mut seen = std::collections::BTreeSet::new();
        for h in 0..4 {
            for w in 0..4 {
                for c in 0..8 {
                    let loc = store.location(&coord(&[(Dim::C, c), (Dim::H, h), (Dim::W, w)]));
                    assert!(
                        seen.insert((loc.line, loc.offset)),
                        "collision at C{c} H{h} W{w} -> {loc:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn store_tracks_conflicts_of_discordant_access() {
        // Row-major layout, channel-parallel reads: 4 distinct lines per cycle
        // in a single-bank buffer with 2 ports → 1 stall cycle per access cycle.
        let layout: Layout = "HCW_W4".parse().unwrap();
        let d = dims();
        let lines = layout.total_lines(&d);
        let spec = BufferSpec::new(lines, 4, 1, Banking::VerticalBlocked).with_ports(2, 2);
        let mut store = LayoutStore::<i8>::new(spec, layout, d);
        for c in 0..4 {
            store.begin_cycle();
            store.write_coord(&coord(&[(Dim::C, c), (Dim::H, 0), (Dim::W, 0)]), c as i8);
        }
        store.flush_cycle();
        assert_eq!(store.stats().conflict_stall_cycles, 0);
        store.begin_cycle();
        for c in 0..4 {
            store.read_coord(&coord(&[(Dim::C, c), (Dim::H, 0), (Dim::W, 0)]));
        }
        store.flush_cycle();
        assert_eq!(store.stats().conflict_stall_cycles, 1);
    }

    #[test]
    fn view_addresses_shared_buffer_like_the_store() {
        // Writing through a store and reading through a borrowed view of the
        // same buffer finds the same physical cells.
        let layout: Layout = "HWC_C8".parse().unwrap();
        let mut store = store_for_tensor::<i32>(layout, dims());
        store.write_coord(&coord(&[(Dim::C, 3), (Dim::H, 1), (Dim::W, 2)]), 77);
        let mut view = store.view_mut();
        assert_eq!(
            view.read_coord(&coord(&[(Dim::C, 3), (Dim::H, 1), (Dim::W, 2)])),
            Some(77)
        );
        view.poke_coord(&coord(&[(Dim::C, 0), (Dim::H, 0), (Dim::W, 0)]), 5);
        let writes = view.stats().element_writes;
        assert_eq!(
            view.peek_coord(&coord(&[(Dim::C, 0), (Dim::H, 0), (Dim::W, 0)])),
            Some(5)
        );
        // poke is unaccounted.
        assert_eq!(view.stats().element_writes, writes);
    }

    #[test]
    fn horizontal_banked_store_line_reads_are_free_of_conflicts() {
        let layout: Layout = "HWC_C8".parse().unwrap();
        let mut store = store_for_tensor::<i8>(layout, dims());
        for c in 0..8 {
            store.write_coord(&coord(&[(Dim::C, c), (Dim::H, 0), (Dim::W, 0)]), c as i8);
        }
        store.begin_cycle();
        for c in 0..8 {
            store.read_coord(&coord(&[(Dim::C, c), (Dim::H, 0), (Dim::W, 0)]));
        }
        store.flush_cycle();
        // All eight elements share one line → no conflict.
        assert_eq!(store.stats().conflict_stall_cycles, 0);
    }
}
