//! A slab allocator for cells: fixed-size slots, index handles, zero
//! steady-state heap traffic.
//!
//! The per-cell fast path (segmentation → link → reassembly) must not
//! allocate per cell — the same discipline the paper's hardware path
//! applies to per-cell protocol work. [`CellSlab`] owns a growable pool
//! of 53-octet cell slots (5-octet header + the fixed 48-octet payload);
//! callers hold [`CellRef`] index handles and move `&[CellRef]` slices
//! between batched entry points instead of owned `Vec<Cell>`s.
//!
//! Growth only happens when the free list is empty; a warmed-up slab
//! (every slot visited once) never grows again, which
//! [`CellSlab::growth_events`] lets tests assert.

use crate::cell::Cell;

/// An index handle into a [`CellSlab`].
///
/// Handles are plain indices: cheap to copy, cheap to move in slices,
/// and stable for the lifetime of the slot (until [`CellSlab::free`]).
/// A handle is only meaningful against the slab that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellRef(u32);

impl CellRef {
    /// The raw slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A growable arena of cell slots with a free list.
///
/// `alloc` pops the free list when possible and only extends the
/// backing storage when it is empty. `free` pushes the slot back. The
/// slab never shrinks; `high_water` and `growth_events` expose the
/// allocation behaviour for perf assertions.
#[derive(Debug, Default)]
pub struct CellSlab {
    slots: Vec<Cell>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
    growth_events: u64,
}

impl CellSlab {
    /// An empty slab. The first allocations grow it.
    pub fn new() -> Self {
        CellSlab::default()
    }

    /// A slab pre-warmed with `capacity` slots, so the first `capacity`
    /// concurrent cells cause no growth.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut slab = CellSlab {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            live: 0,
            high_water: 0,
            growth_events: 0,
        };
        for i in 0..capacity {
            slab.slots.push(Cell::idle());
            slab.free.push(i as u32);
        }
        slab
    }

    /// Allocate a slot initialised with `cell`'s bytes.
    pub fn alloc(&mut self, cell: Cell) -> CellRef {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = cell;
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.growth_events += 1;
                self.slots.push(cell);
                idx
            }
        };
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        CellRef(idx)
    }

    /// Allocate an uninitialised (idle-patterned) slot and hand back a
    /// mutable reference for in-place construction.
    pub fn alloc_mut(&mut self) -> (CellRef, &mut Cell) {
        let r = self.alloc(Cell::idle());
        let cell = &mut self.slots[r.index()];
        (r, cell)
    }

    /// Read a slot.
    pub fn get(&self, r: CellRef) -> &Cell {
        &self.slots[r.index()]
    }

    /// Return a slot to the free list.
    pub fn free(&mut self, r: CellRef) {
        debug_assert!(r.index() < self.slots.len());
        self.free.push(r.0);
        self.live -= 1;
    }

    /// Return every slot in `refs` to the free list.
    pub fn free_all(&mut self, refs: &[CellRef]) {
        for &r in refs {
            self.free(r);
        }
    }

    /// Currently allocated (live) slots.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no slots are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever created (live + free).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Maximum simultaneously-live slots observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Times the slab had to grow because the free list was empty. A
    /// steady-state workload on a warmed-up slab keeps this constant.
    pub fn growth_events(&self) -> u64 {
        self.growth_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{HeaderRepr, PAYLOAD_SIZE};
    use crate::vc::VcId;

    fn cell(tag: u8) -> Cell {
        let payload = [tag; PAYLOAD_SIZE];
        Cell::new(&HeaderRepr::data(VcId::new(0, 64), false), &payload).unwrap()
    }

    #[test]
    fn alloc_get_free_roundtrip() {
        let mut slab = CellSlab::new();
        let a = slab.alloc(cell(1));
        let b = slab.alloc(cell(2));
        assert_eq!(slab.get(a).payload()[0], 1);
        assert_eq!(slab.get(b).payload()[0], 2);
        assert_eq!(slab.len(), 2);
        slab.free(a);
        assert_eq!(slab.len(), 1);
        // The freed slot is recycled.
        let c = slab.alloc(cell(3));
        assert_eq!(c, a);
        assert_eq!(slab.get(c).payload()[0], 3);
    }

    #[test]
    fn warmed_slab_never_grows() {
        let mut slab = CellSlab::with_capacity(8);
        assert_eq!(slab.growth_events(), 0);
        assert_eq!(slab.capacity(), 8);
        for round in 0..100 {
            let refs: Vec<_> = (0..8).map(|i| slab.alloc(cell(round ^ i))).collect();
            assert_eq!(slab.len(), 8);
            slab.free_all(&refs);
        }
        assert_eq!(slab.growth_events(), 0);
        assert_eq!(slab.capacity(), 8);
        assert_eq!(slab.high_water(), 8);
    }

    #[test]
    fn cold_slab_grows_once_then_stabilises() {
        let mut slab = CellSlab::new();
        // Warm-up round: every slot is a growth event.
        let refs: Vec<_> = (0..16).map(|i| slab.alloc(cell(i))).collect();
        assert_eq!(slab.growth_events(), 16);
        slab.free_all(&refs);
        // Steady state: no further growth.
        for round in 0..50 {
            let refs: Vec<_> = (0..16).map(|i| slab.alloc(cell(round ^ i))).collect();
            slab.free_all(&refs);
        }
        assert_eq!(slab.growth_events(), 16);
        assert_eq!(slab.high_water(), 16);
    }

    #[test]
    fn alloc_mut_in_place_construction() {
        let mut slab = CellSlab::new();
        let (r, c) = slab.alloc_mut();
        c.payload_mut()[0] = 0xAB;
        assert_eq!(slab.get(r).payload()[0], 0xAB);
    }
}
