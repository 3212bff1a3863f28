//! Bounded-cardinality per-VC metrics: sharded counters + a
//! space-saving top-K heavy-hitter tracker.
//!
//! At the ROADMAP's million-VC scale a `HashMap<VcId, Counter>` is the
//! wrong shape twice over: it allocates on first touch of every VC (so
//! the hot path is no longer zero-alloc) and its memory is O(#VCs). The
//! telemetry plane instead keeps:
//!
//! * [`VcShards`] — a small fixed power-of-two array of counters,
//!   indexed by a mix of the VC id. Total cell/byte volume is exact
//!   (every cell lands in exactly one shard); per-shard totals give a
//!   coarse skew picture at O(shards) memory.
//! * [`TopK`] — the *space-saving* algorithm (Metwally, Agrawal &
//!   El Abbadi 2005): K slots of `(key, count, overestimate)`. A hit on
//!   a tracked key increments it; a miss on a full table evicts the
//!   current minimum and inherits its count as the new key's
//!   overestimate bound. Guarantees: any key whose true count exceeds
//!   count_min is in the table, and each reported count overshoots
//!   the true count by at most the slot's recorded `err`.
//!
//! Both structures are deterministic (no hashing randomness — the shard
//! mix is a fixed integer permutation), allocation-free after
//! construction, and `merge`-able in the weaker heavy-hitter sense
//! (counts add; error bounds add conservatively).

use crate::sampler::mix64;

/// Number of counter shards in [`VcShards`]. Power of two so the mix
/// reduces with a mask.
pub const VC_SHARDS: usize = 64;

/// Default number of heavy-hitter slots tracked by the pipeline.
pub const DEFAULT_TOP_K: usize = 16;

/// Exact total-volume accounting sharded across [`VC_SHARDS`] buckets.
#[derive(Clone, Debug)]
pub struct VcShards {
    cells: [u64; VC_SHARDS],
    bytes: [u64; VC_SHARDS],
}

impl Default for VcShards {
    fn default() -> Self {
        Self::new()
    }
}

impl VcShards {
    /// New zeroed shard set.
    pub fn new() -> Self {
        Self {
            cells: [0; VC_SHARDS],
            bytes: [0; VC_SHARDS],
        }
    }

    /// Shard index for a VC id: a mask of the splitmix64 finalizer, so
    /// sequential VC ids spread across shards, deterministically.
    #[inline]
    pub fn shard_of(vc: u32) -> usize {
        (mix64(vc as u64) & (VC_SHARDS as u64 - 1)) as usize
    }

    /// Account one cell of `bytes` payload for `vc`.
    #[inline]
    pub fn record(&mut self, vc: u32, bytes: u64) {
        let s = Self::shard_of(vc);
        self.cells[s] += 1;
        self.bytes[s] += bytes;
    }

    /// Exact total cells across all shards.
    pub fn total_cells(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// Exact total bytes across all shards.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Largest single-shard cell count.
    pub fn max_shard_cells(&self) -> u64 {
        self.cells.iter().copied().max().unwrap_or(0)
    }

    /// Fold another shard set in (exact: counters add).
    pub fn merge(&mut self, other: &VcShards) {
        for i in 0..VC_SHARDS {
            self.cells[i] += other.cells[i];
            self.bytes[i] += other.bytes[i];
        }
    }
}

/// One heavy-hitter slot: reported `count` overshoots the true count by
/// at most `err`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopEntry {
    /// Tracked key (VC id).
    pub key: u32,
    /// Estimated count (true count ≤ `count` ≤ true count + `err`).
    pub count: u64,
    /// Overestimate bound inherited at eviction time.
    pub err: u64,
}

/// Space-saving top-K tracker: O(K) memory regardless of key
/// cardinality, zero allocation after `new`.
///
/// K is small (tens), so a linear scan beats any pointer-chasing
/// structure: the whole table is one or two cache lines. A one-entry
/// "last hit" cache short-circuits the common bursty case where
/// consecutive cells belong to the same VC.
#[derive(Clone, Debug)]
pub struct TopK {
    slots: Vec<TopEntry>,
    k: usize,
    last_idx: usize,
    total: u64,
}

impl TopK {
    /// New tracker with `k` slots (clamped to ≥1). Allocates the slot
    /// table once, here, never again.
    pub fn new(k: usize) -> Self {
        let k = k.max(1);
        Self {
            slots: Vec::with_capacity(k),
            k,
            last_idx: 0,
            total: 0,
        }
    }

    /// Tracker with [`DEFAULT_TOP_K`] slots.
    pub fn with_default_k() -> Self {
        Self::new(DEFAULT_TOP_K)
    }

    /// Offer one observation of `key` with weight `w` (cells use 1).
    #[inline]
    pub fn offer(&mut self, key: u32, w: u64) {
        self.total += w;
        // Bursty traffic hits the same VC back-to-back; check the last
        // slot touched before scanning.
        if let Some(e) = self.slots.get_mut(self.last_idx) {
            if e.key == key {
                e.count += w;
                return;
            }
        }
        if let Some(i) = self.slots.iter().position(|e| e.key == key) {
            self.slots[i].count += w;
            self.last_idx = i;
            return;
        }
        if self.slots.len() < self.k {
            self.last_idx = self.slots.len();
            self.slots.push(TopEntry {
                key,
                count: w,
                err: 0,
            });
            return;
        }
        // Space-saving eviction: replace the minimum, inherit its count
        // as the overestimate bound for the newcomer.
        let (mi, min) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.count)
            .map(|(i, e)| (i, e.count))
            .expect("k >= 1");
        self.slots[mi] = TopEntry {
            key,
            count: min + w,
            err: min,
        };
        self.last_idx = mi;
    }

    /// Total weight offered directly to this tracker (exact); a merge
    /// adds the other tracker's *tracked* weight.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of slots configured.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Entries sorted by estimated count descending, key ascending on
    /// ties — a deterministic order suitable for golden reports.
    pub fn top(&self) -> Vec<TopEntry> {
        let mut v = self.slots.clone();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        v
    }

    /// Any key whose true count exceeds this threshold is guaranteed to
    /// be present in the table (the space-saving min-count bound).
    pub fn guaranteed_threshold(&self) -> u64 {
        if self.slots.len() < self.k {
            0
        } else {
            self.slots.iter().map(|e| e.count).min().unwrap_or(0)
        }
    }

    /// Fold another tracker in: counts for shared keys add exactly;
    /// distinct keys are re-offered with their (count, err) carried as
    /// a conservative bound. The result keeps the heavy-hitter
    /// guarantee with error bounds at most `err_a + err_b + min_count`.
    pub fn merge(&mut self, other: &TopK) {
        for e in other.top() {
            self.offer_with_err(e.key, e.count, e.err);
        }
    }

    fn offer_with_err(&mut self, key: u32, w: u64, err: u64) {
        self.total += w;
        if let Some(i) = self.slots.iter().position(|e| e.key == key) {
            self.slots[i].count += w;
            self.slots[i].err += err;
            self.last_idx = i;
            return;
        }
        if self.slots.len() < self.k {
            self.last_idx = self.slots.len();
            self.slots.push(TopEntry { key, count: w, err });
            return;
        }
        let (mi, min) = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.count)
            .map(|(i, e)| (i, e.count))
            .expect("k >= 1");
        self.slots[mi] = TopEntry {
            key,
            count: min + w,
            err: min + err,
        };
        self.last_idx = mi;
    }
}

/// The per-VC metrics bundle the pipeline carries: exact sharded
/// volume plus heavy-hitter cells and bytes trackers.
#[derive(Clone, Debug)]
pub struct VcMetrics {
    /// Exact sharded cell/byte volume.
    pub shards: VcShards,
    /// Heavy hitters by cell count.
    pub top_cells: TopK,
}

impl Default for VcMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl VcMetrics {
    /// Default-K bundle.
    pub fn new() -> Self {
        Self {
            shards: VcShards::new(),
            top_cells: TopK::with_default_k(),
        }
    }

    /// Account one cell of `bytes` for `vc`. O(K), no allocation.
    #[inline]
    pub fn record_cell(&mut self, vc: u32, bytes: u64) {
        self.shards.record(vc, bytes);
        self.top_cells.offer(vc, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_tracking_below_k() {
        let mut t = TopK::new(8);
        for vc in 0..5u32 {
            for _ in 0..=vc {
                t.offer(vc, 1);
            }
        }
        let top = t.top();
        assert_eq!(top.len(), 5);
        assert_eq!(
            top[0],
            TopEntry {
                key: 4,
                count: 5,
                err: 0
            }
        );
        assert_eq!(
            top[4],
            TopEntry {
                key: 0,
                count: 1,
                err: 0
            }
        );
        assert_eq!(t.total(), 1 + 2 + 3 + 4 + 5);
        assert_eq!(t.guaranteed_threshold(), 0);
    }

    #[test]
    fn heavy_hitters_survive_a_long_uniform_tail() {
        let mut t = TopK::new(8);
        // Two elephants...
        for _ in 0..10_000 {
            t.offer(7, 1);
            t.offer(42, 1);
        }
        // ...then a mice parade, one cell each. 10k mice over 8 slots
        // keeps the space-saving minimum (~10k/6 per mouse slot) well
        // under the elephants' 10k true counts, so the guarantee that
        // any key with true count > min stays tracked applies to them.
        for vc in 1_000..11_000u32 {
            t.offer(vc, 1);
        }
        let top = t.top();
        assert_eq!(top[0].key, 7, "tie on 10k broken by ascending key");
        let keys: Vec<u32> = top.iter().map(|e| e.key).collect();
        assert!(
            keys.contains(&7) && keys.contains(&42),
            "elephants evicted: {keys:?}"
        );
        // Space-saving bound: estimate >= true count, overshoot <= err.
        for e in top.iter().filter(|e| e.key == 7 || e.key == 42) {
            assert!(e.count >= 10_000);
            assert!(e.count - 10_000 <= e.err, "overshoot beyond bound: {e:?}");
        }
    }

    #[test]
    fn top_order_is_deterministic_on_ties() {
        let mut t = TopK::new(4);
        for vc in [9u32, 3, 7, 1] {
            t.offer(vc, 5);
        }
        let keys: Vec<u32> = t.top().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 3, 7, 9]);
    }

    #[test]
    fn merge_preserves_totals_and_shared_keys_add() {
        let mut a = TopK::new(4);
        let mut b = TopK::new(4);
        for _ in 0..100 {
            a.offer(1, 1);
            b.offer(1, 1);
            b.offer(2, 1);
        }
        let (ta, tb) = (a.total(), b.total());
        a.merge(&b);
        assert_eq!(a.total(), ta + tb);
        let top = a.top();
        assert_eq!(
            top[0],
            TopEntry {
                key: 1,
                count: 200,
                err: 0
            }
        );
        assert_eq!(
            top[1],
            TopEntry {
                key: 2,
                count: 100,
                err: 0
            }
        );
    }

    #[test]
    fn shards_total_is_exact_and_merge_adds() {
        let mut s = VcShards::new();
        for vc in 0..1000u32 {
            s.record(vc, 53);
        }
        assert_eq!(s.total_cells(), 1000);
        assert_eq!(s.total_bytes(), 53_000);
        let mut t = VcShards::new();
        t.record(5, 48);
        t.merge(&s);
        assert_eq!(t.total_cells(), 1001);
        assert_eq!(t.total_bytes(), 53_048);
        // Same VC always lands in the same shard.
        assert_eq!(VcShards::shard_of(5), VcShards::shard_of(5));
    }

    #[test]
    fn vc_metrics_bundle_records_both_views() {
        let mut m = VcMetrics::new();
        for _ in 0..10 {
            m.record_cell(3, 48);
        }
        m.record_cell(9, 48);
        assert_eq!(m.shards.total_cells(), 11);
        assert_eq!(m.top_cells.top()[0].key, 3);
    }
}
