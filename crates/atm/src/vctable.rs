//! The million-VC connection table: a sharded, cache-conscious map from
//! the packed VPI/VCI key to per-connection state.
//!
//! The paper answers "which connection owns this cell?" every ~708 ns
//! with a small CAM — all entries compared in parallel, bounded
//! capacity, a handful of VCs. Scaling that question three orders of
//! magnitude (the ROADMAP's "millions of users") needs a software
//! structure with the same properties the CAM bought in silicon:
//! *flat* lookup cost regardless of population, *bounded* memory per
//! idle connection, and *O(1)* open/close so connection churn never
//! stalls the cell path. `std::collections::HashMap` gives none of
//! these guarantees per entry: SipHash per probe, ~48+ bytes of
//! overhead per occupied bucket, and amortised-but-spiky growth.
//!
//! [`VcTable`] provides them with three pieces:
//!
//! * **Open addressing with an 8-bit tag array.** Each shard keeps a
//!   separate `tags` byte array (one byte per slot: empty, or occupied
//!   with a 7-bit key fingerprint). A probe touches the dense tag
//!   array first — one cache line filters 64 slots, the same
//!   SIMD-friendly layout Swiss tables use — and only compares the
//!   full key on a fingerprint match. Linear probing with
//!   backward-shift deletion keeps probe chains short with no
//!   tombstone accumulation.
//! * **Slab arenas with generation-counted handles.** Connection state
//!   lives in a flat entry arena; the index arrays store 32-bit entry
//!   ids. Closing a connection pushes its entry on a free list and
//!   bumps the entry's generation, so a [`VcHandle`] held across a
//!   close/reopen can never alias the new occupant (no ABA): a stale
//!   handle simply misses.
//! * **Power-of-two sharding by key hash.** The key space is split
//!   across [`SHARDS`] independent sub-tables selected by the low
//!   hash bits. Today this bounds rehash pauses (a shard doubles, not
//!   the world); tomorrow it is the unit of ownership for multi-lane
//!   parallel simulation (one lane owns a shard subset, no sharing).
//!
//! Keys are `u64` so one table type serves both the 24-bit
//! [`crate::VcId::cam_key`] space and composite keys like AAL3/4's
//! (VC, MID) pairs. The hash is a fixed SplitMix64 finalizer —
//! deterministic across runs, platforms and worker counts, which the
//! byte-identical-report contract requires (a `HashMap`'s per-process
//! random seed would at minimum randomise iteration order).

/// Number of independent shards (power of two).
pub const SHARDS: usize = 16;

/// Slots a fresh shard starts with (power of two).
const MIN_SHARD_SLOTS: usize = 8;

/// Grow a shard once it is more than 7/8 full.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

/// Tag byte for an empty slot. Occupied slots store `0x80 | fp7`.
const EMPTY: u8 = 0;

/// SplitMix64 finalizer: the fixed, seedless mix every key goes
/// through. Full-avalanche, so the low bits (shard select) and the
/// remaining bits (slot index, fingerprint) are independent.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// 7-bit key fingerprint with the occupancy bit set.
#[inline]
fn fingerprint(h: u64) -> u8 {
    ((h >> 57) as u8) | 0x80
}

/// A generation-counted handle to an entry in a [`VcTable`].
///
/// Handles stay valid until the connection they name is removed; after
/// that they *miss* forever, even if the arena slot is recycled for a
/// new connection (the generation check). Cheap to copy and store —
/// eight bytes — so data paths can hold handles instead of re-probing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VcHandle {
    idx: u32,
    gen: u32,
}

impl VcHandle {
    /// The raw arena index (stable for the handle's lifetime).
    pub fn index(self) -> usize {
        self.idx as usize
    }
    /// The generation this handle was issued under.
    pub fn generation(self) -> u32 {
        self.gen
    }
}

/// One arena entry: the slot's current generation plus the value.
/// `val` is `None` only while the entry sits on the free list.
struct Entry<T> {
    gen: u32,
    val: Option<T>,
}

/// One open-addressing sub-table: parallel tag/key/entry-id arrays.
struct Shard {
    tags: Vec<u8>,
    keys: Vec<u64>,
    ids: Vec<u32>,
    len: usize,
}

impl Shard {
    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        Shard {
            tags: vec![EMPTY; slots],
            keys: vec![0; slots],
            ids: vec![0; slots],
            len: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.tags.len() - 1
    }

    /// Home slot for a hashed key (the shard-select bits are the low
    /// bits of `h`; slot position uses the bits above them).
    #[inline]
    fn home(&self, h: u64) -> usize {
        ((h >> SHARDS.trailing_zeros()) as usize) & self.mask()
    }

    /// Probe for `key`. Returns `(slot, probes)` where `slot` is
    /// `Ok(i)` on a hit and `Err(i)` at the first empty slot on a miss.
    #[inline]
    fn probe(&self, h: u64, key: u64) -> (Result<usize, usize>, u64) {
        let fp = fingerprint(h);
        let mask = self.mask();
        let mut i = self.home(h);
        let mut probes = 1u64;
        loop {
            let tag = self.tags[i];
            if tag == EMPTY {
                return (Err(i), probes);
            }
            if tag == fp && self.keys[i] == key {
                return (Ok(i), probes);
            }
            i = (i + 1) & mask;
            probes += 1;
        }
    }

    /// Insert into a slot `probe` reported empty.
    fn fill(&mut self, slot: usize, h: u64, key: u64, id: u32) {
        debug_assert_eq!(self.tags[slot], EMPTY);
        self.tags[slot] = fingerprint(h);
        self.keys[slot] = key;
        self.ids[slot] = id;
        self.len += 1;
    }

    /// Remove the occupant of `slot` with backward-shift deletion:
    /// subsequent probe-chain members whose home slot precedes the gap
    /// slide back one position, so chains stay dense and no tombstones
    /// are needed.
    fn evict(&mut self, slot: usize) -> u32 {
        let id = self.ids[slot];
        let mask = self.mask();
        let mut gap = slot;
        let mut i = (slot + 1) & mask;
        while self.tags[i] != EMPTY {
            let home = self.home(mix64(self.keys[i]));
            // Distance from the occupant's home to its current slot,
            // and to the gap; if the gap is on the way home, shift.
            let cur_dist = i.wrapping_sub(home) & mask;
            let gap_dist = gap.wrapping_sub(home) & mask;
            if gap_dist <= cur_dist {
                self.tags[gap] = self.tags[i];
                self.keys[gap] = self.keys[i];
                self.ids[gap] = self.ids[i];
                gap = i;
            }
            i = (i + 1) & mask;
        }
        self.tags[gap] = EMPTY;
        self.len -= 1;
        id
    }

    /// Whether one more entry would push past the load factor.
    #[inline]
    fn needs_growth(&self) -> bool {
        (self.len + 1) * LOAD_DEN > self.tags.len() * LOAD_NUM
    }

    /// Double the slot count and re-place every occupant.
    fn grow(&mut self) {
        let new_slots = self.tags.len() * 2;
        let old_tags = std::mem::replace(&mut self.tags, vec![EMPTY; new_slots]);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_slots]);
        let old_ids = std::mem::replace(&mut self.ids, vec![0; new_slots]);
        self.len = 0;
        for (i, &tag) in old_tags.iter().enumerate() {
            if tag != EMPTY {
                let key = old_keys[i];
                let h = mix64(key);
                let (slot, _) = self.probe(h, key);
                let slot = slot.expect_err("rehash target must be empty");
                self.fill(slot, h, key, old_ids[i]);
            }
        }
    }

    fn slot_bytes(&self) -> usize {
        self.tags.len()
            * (std::mem::size_of::<u8>() + std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }
}

/// Aggregate table statistics (for reports and shape tests).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TableStats {
    /// Entries currently installed.
    pub len: usize,
    /// Lookups performed (hits and misses).
    pub lookups: u64,
    /// Total probe steps across all lookups (`probes / lookups` is the
    /// mean probe-chain length; 1.0 means every lookup hit its home
    /// slot).
    pub probes: u64,
    /// Arena entries recycled off the free list (each is one
    /// generation bump — an open that reused a closed connection's
    /// slot in O(1)).
    pub recycled: u64,
    /// Resident bytes: index arrays plus entry arena plus free list.
    pub memory_bytes: usize,
}

impl TableStats {
    /// Mean probe steps per lookup (1.0 = every lookup home-slot direct).
    pub fn mean_probes(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.probes as f64 / self.lookups as f64
        }
    }
}

/// Sharded open-addressing map: packed VC key → connection state.
///
/// See the [module docs](self) for the design. Unless constructed with
/// [`VcTable::bounded`], the table grows shard-by-shard as needed; a
/// bounded table refuses inserts past its capacity — the CAM semantics
/// `hni_core::cam::Cam` builds on.
pub struct VcTable<T> {
    shards: Vec<Shard>,
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    max_entries: Option<usize>,
    lookups: u64,
    probes: u64,
    recycled: u64,
}

impl<T> Default for VcTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> VcTable<T> {
    /// An empty, unbounded table (grows as connections open).
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An unbounded table pre-sized so the first `capacity` inserts
    /// trigger no shard growth.
    pub fn with_capacity(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS);
        // Smallest power of two that keeps `per_shard` under load.
        let mut slots = MIN_SHARD_SLOTS;
        while per_shard * LOAD_DEN > slots * LOAD_NUM {
            slots *= 2;
        }
        VcTable {
            shards: (0..SHARDS).map(|_| Shard::with_slots(slots)).collect(),
            entries: Vec::with_capacity(capacity),
            free: Vec::new(),
            max_entries: None,
            lookups: 0,
            probes: 0,
            recycled: 0,
        }
    }

    /// A capacity-bounded table: inserts of new keys fail once
    /// `max_entries` connections are installed (the CAM's "full"
    /// condition).
    pub fn bounded(max_entries: usize) -> Self {
        let mut t = Self::with_capacity(max_entries);
        t.max_entries = Some(max_entries);
        t
    }

    /// Entries currently installed.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len).sum()
    }

    /// Whether no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.len == 0)
    }

    #[inline]
    fn shard_of(h: u64) -> usize {
        (h as usize) & (SHARDS - 1)
    }

    /// Look up `key`, returning a generation-counted handle on a hit.
    /// Counts one lookup and its probe steps.
    #[inline]
    pub fn find(&mut self, key: u64) -> Option<VcHandle> {
        let h = mix64(key);
        let shard = &self.shards[Self::shard_of(h)];
        let (slot, probes) = shard.probe(h, key);
        self.lookups += 1;
        self.probes += probes;
        match slot {
            Ok(i) => {
                let idx = shard.ids[i];
                Some(VcHandle {
                    idx,
                    gen: self.entries[idx as usize].gen,
                })
            }
            Err(_) => None,
        }
    }

    /// Look up `key` and borrow its state.
    #[inline]
    pub fn get_by_key(&mut self, key: u64) -> Option<&T> {
        let h = self.find(key)?;
        self.entries[h.idx as usize].val.as_ref()
    }

    /// Look up `key` and mutably borrow its state.
    #[inline]
    pub fn get_mut_by_key(&mut self, key: u64) -> Option<&mut T> {
        let h = self.find(key)?;
        self.entries[h.idx as usize].val.as_mut()
    }

    /// Dereference a handle. Returns `None` if the connection it names
    /// has been closed since (generation mismatch), even if the arena
    /// slot now holds a different connection — the no-ABA guarantee.
    #[inline]
    pub fn get(&self, h: VcHandle) -> Option<&T> {
        let e = self.entries.get(h.idx as usize)?;
        if e.gen == h.gen {
            e.val.as_ref()
        } else {
            None
        }
    }

    /// Install `key → val`, replacing any existing state for the key
    /// in place (same handle, same generation). Returns `None` — and
    /// installs nothing — only when the key is new and the table is at
    /// its capacity bound.
    pub fn insert(&mut self, key: u64, val: T) -> Option<VcHandle> {
        let h = mix64(key);
        let si = Self::shard_of(h);
        let (slot, probes) = self.shards[si].probe(h, key);
        self.lookups += 1;
        self.probes += probes;
        match slot {
            Ok(i) => {
                let idx = self.shards[si].ids[i];
                let e = &mut self.entries[idx as usize];
                e.val = Some(val);
                Some(VcHandle { idx, gen: e.gen })
            }
            Err(mut empty) => {
                if let Some(max) = self.max_entries {
                    if self.len() >= max {
                        return None;
                    }
                }
                if self.shards[si].needs_growth() {
                    self.shards[si].grow();
                    let (slot, _) = self.shards[si].probe(h, key);
                    empty = slot.expect_err("key cannot appear during growth");
                }
                let handle = match self.free.pop() {
                    Some(idx) => {
                        self.recycled += 1;
                        let e = &mut self.entries[idx as usize];
                        debug_assert!(e.val.is_none());
                        e.val = Some(val);
                        VcHandle { idx, gen: e.gen }
                    }
                    None => {
                        let idx = self.entries.len() as u32;
                        self.entries.push(Entry {
                            gen: 0,
                            val: Some(val),
                        });
                        VcHandle { idx, gen: 0 }
                    }
                };
                self.shards[si].fill(empty, h, key, handle.idx);
                Some(handle)
            }
        }
    }

    /// Borrow `key`'s state, installing `default()` first if absent.
    /// `None` only at a capacity bound (like [`VcTable::insert`]).
    pub fn get_or_insert_with(
        &mut self,
        key: u64,
        default: impl FnOnce() -> T,
    ) -> Option<(VcHandle, &mut T)> {
        let h = match self.find(key) {
            Some(h) => h,
            None => self.insert(key, default())?,
        };
        let e = &mut self.entries[h.idx as usize];
        Some((h, e.val.as_mut().expect("live entry has state")))
    }

    /// Close a connection: remove `key`, returning its state. The
    /// arena entry's generation is bumped and the entry joins the free
    /// list, so the next open recycles it in O(1) and every
    /// outstanding handle to the old connection goes stale.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let h = mix64(key);
        let si = Self::shard_of(h);
        let (slot, probes) = self.shards[si].probe(h, key);
        self.lookups += 1;
        self.probes += probes;
        let slot = slot.ok()?;
        let idx = self.shards[si].evict(slot);
        let e = &mut self.entries[idx as usize];
        e.gen = e.gen.wrapping_add(1);
        let val = e.val.take();
        self.free.push(idx);
        val
    }

    /// Iterate `(key, &state)` in deterministic shard/slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.shards.iter().flat_map(move |s| {
            s.tags.iter().enumerate().filter_map(move |(i, &tag)| {
                if tag == EMPTY {
                    None
                } else {
                    let e = &self.entries[s.ids[i] as usize];
                    Some((s.keys[i], e.val.as_ref().expect("occupied slot has state")))
                }
            })
        })
    }

    /// Snapshot of the table's accounting counters and memory.
    pub fn stats(&self) -> TableStats {
        TableStats {
            len: self.len(),
            lookups: self.lookups,
            probes: self.probes,
            recycled: self.recycled,
            memory_bytes: self.memory_bytes(),
        }
    }

    /// Resident bytes: every shard's index arrays, the entry arena and
    /// the free list. This is the number the "bytes per idle VC"
    /// figure divides — *state* memory, not transient allocator slack.
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(Shard::slot_bytes).sum::<usize>()
            + self.entries.capacity() * std::mem::size_of::<Entry<T>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut t: VcTable<u32> = VcTable::new();
        let h = t.insert(0x00AB_CDEF, 7).unwrap();
        assert_eq!(t.get(h), Some(&7));
        assert_eq!(t.get_by_key(0x00AB_CDEF), Some(&7));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(0x00AB_CDEF), Some(7));
        assert_eq!(t.get(h), None, "stale handle must miss");
        assert_eq!(t.get_by_key(0x00AB_CDEF), None);
        assert!(t.is_empty());
    }

    #[test]
    fn upsert_replaces_in_place_with_same_handle() {
        let mut t: VcTable<u32> = VcTable::new();
        let a = t.insert(42, 1).unwrap();
        let b = t.insert(42, 2).unwrap();
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(a), Some(&2));
    }

    #[test]
    fn capacity_bound_enforced_but_upsert_allowed() {
        let mut t: VcTable<u32> = VcTable::bounded(2);
        assert!(t.insert(1, 10).is_some());
        assert!(t.insert(2, 20).is_some());
        assert!(t.insert(3, 30).is_none(), "third key must be refused");
        assert!(t.insert(1, 11).is_some(), "upsert at capacity is allowed");
        assert_eq!(t.len(), 2);
        // Freeing one slot re-admits a new key.
        assert_eq!(t.remove(2), Some(20));
        assert!(t.insert(3, 30).is_some());
    }

    #[test]
    fn generation_counters_kill_stale_handles_across_recycle() {
        let mut t: VcTable<u64> = VcTable::new();
        let h_old = t.insert(100, 0xAAAA).unwrap();
        t.remove(100);
        // Recycles the same arena entry for a different connection.
        let h_new = t.insert(200, 0xBBBB).unwrap();
        assert_eq!(h_old.index(), h_new.index(), "slot must be recycled");
        assert_ne!(h_old.generation(), h_new.generation());
        assert_eq!(t.get(h_old), None, "stale handle must never alias");
        assert_eq!(t.get(h_new), Some(&0xBBBB));
        assert_eq!(t.stats().recycled, 1);
    }

    #[test]
    fn grows_past_initial_capacity_when_unbounded() {
        let mut t: VcTable<usize> = VcTable::new();
        let n = 10_000;
        for k in 0..n {
            t.insert(k as u64 * 2654435761, k).unwrap();
        }
        assert_eq!(t.len(), n);
        for k in 0..n {
            assert_eq!(t.get_by_key(k as u64 * 2654435761), Some(&k), "key {k}");
        }
    }

    #[test]
    fn backward_shift_deletion_keeps_chains_reachable() {
        // Force collisions into a tiny table by inserting many keys,
        // then delete half and verify the rest still resolve.
        let mut t: VcTable<u64> = VcTable::new();
        let keys: Vec<u64> = (0..2000u64).map(|k| k.wrapping_mul(0x9E37_79B9)).collect();
        for &k in &keys {
            t.insert(k, k ^ 0xFFFF).unwrap();
        }
        for &k in keys.iter().step_by(2) {
            assert_eq!(t.remove(k), Some(k ^ 0xFFFF));
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(t.get_by_key(k), None);
            } else {
                assert_eq!(t.get_by_key(k), Some(&(k ^ 0xFFFF)), "key {k}");
            }
        }
    }

    #[test]
    fn probe_accounting_counts_lookups() {
        let mut t: VcTable<u8> = VcTable::new();
        t.insert(1, 1);
        t.insert(2, 2);
        let before = t.stats();
        t.get_by_key(1);
        t.get_by_key(3);
        let after = t.stats();
        assert_eq!(after.lookups - before.lookups, 2);
        assert!(after.probes > before.probes);
        assert!(after.mean_probes() >= 1.0);
    }

    #[test]
    fn iteration_is_deterministic_and_complete() {
        let build = || {
            let mut t: VcTable<u64> = VcTable::new();
            for k in 0..500u64 {
                t.insert(k * 7919, k);
            }
            t.remove(7919 * 3);
            t
        };
        let a: Vec<(u64, u64)> = build().iter().map(|(k, &v)| (k, v)).collect();
        let b: Vec<(u64, u64)> = build().iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(a, b, "iteration order must be a pure function of history");
        assert_eq!(a.len(), 499);
    }

    #[test]
    fn memory_accounting_is_positive_and_scales() {
        let mut small: VcTable<u64> = VcTable::with_capacity(100);
        for k in 0..100u64 {
            small.insert(k, k);
        }
        let mut big: VcTable<u64> = VcTable::with_capacity(100_000);
        for k in 0..100_000u64 {
            big.insert(k, k);
        }
        assert!(small.memory_bytes() > 0);
        assert!(big.memory_bytes() > small.memory_bytes());
        // Bytes per entry stays bounded (the idle-VC memory claim).
        let per = big.memory_bytes() as f64 / 100_000.0;
        assert!(per < 128.0, "bytes/entry {per}");
    }

    #[test]
    fn full_24_bit_corner_keys_stay_distinct() {
        // The cam_key corners: max VPI, max VCI, and the 16/24-bit
        // boundaries — the hash must not truncate any of them.
        let corners: [u64; 6] = [
            0x0000_0000,
            0x0000_FFFF,
            0x0001_0000,
            0x00FF_0000,
            0x00FF_FFFF,
            0x0100_0000,
        ];
        let mut t: VcTable<u64> = VcTable::new();
        for (i, &k) in corners.iter().enumerate() {
            t.insert(k, i as u64);
        }
        assert_eq!(t.len(), corners.len());
        for (i, &k) in corners.iter().enumerate() {
            assert_eq!(t.get_by_key(k), Some(&(i as u64)), "corner {k:#x}");
        }
    }
}
