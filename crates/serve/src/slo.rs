//! Per-tenant SLO accounting: latency histograms and burn-rate windows.
//!
//! alserve tracks three latencies per tenant — **queue wait** (accept →
//! dequeue), **solve** (dequeue → terminal), and **end-to-end** (accept →
//! terminal) — in fixed-bucket histograms, plus a sliding-window
//! **burn rate** over the end-to-end SLO target. The burn rate feeds two
//! consumers: the `alserve_slo_*` metric families on the scrape endpoint,
//! and the quota `retry_after` ramp (a tenant burning its error budget is
//! told to back off harder).
//!
//! # Determinism
//!
//! Everything here is a pure fold over `(value)` / `(slot, good)` events:
//! histogram merge is bucket-wise addition (commutative, associative) and
//! the burn window is keyed by a caller-supplied discrete slot index, so
//! replaying the same observations in any order yields bit-identical
//! state. The property tests below pin both.

use std::collections::{BTreeMap, HashMap};

/// Upper bounds (µs) of the SLO latency buckets; the implicit final
/// bucket is `+Inf`. Geometric ×4 steps spanning 100 µs … ~1.6 s.
pub const SLO_BUCKETS_US: [u64; 8] = [100, 400, 1_600, 6_400, 25_600, 102_400, 409_600, 1_638_400];

/// A fixed-bucket latency histogram with order-independent merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloHistogram {
    counts: [u64; SLO_BUCKETS_US.len() + 1],
    sum_us: u64,
    count: u64,
}

impl Default for SloHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl SloHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        SloHistogram {
            counts: [0; SLO_BUCKETS_US.len() + 1],
            sum_us: 0,
            count: 0,
        }
    }

    /// Records one latency observation in microseconds.
    pub fn observe(&mut self, us: u64) {
        let idx = SLO_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(SLO_BUCKETS_US.len());
        self.counts[idx] += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.count += 1;
    }

    /// Bucket-wise merge; commutative and associative, so shard-local
    /// histograms can be combined in any order.
    pub fn merge(&mut self, other: &SloHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.count += other.count;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values (µs), saturating.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Cumulative count at or below each bound in [`SLO_BUCKETS_US`],
    /// ending with the `+Inf` total — the Prometheus bucket series.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }
}

/// A sliding window of good/total counts over discrete time slots.
///
/// The caller supplies the slot index (alserve uses seconds since server
/// start), which keeps the fold deterministic: state is a map keyed by
/// slot, pruned to the `window` most recent slots relative to the
/// **maximum slot seen** — never the wall clock — so replay order cannot
/// change the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurnWindow {
    window: u64,
    slots: BTreeMap<u64, (u64, u64)>, // slot -> (bad, total)
    max_slot: u64,
}

impl BurnWindow {
    /// A window spanning `window` slots (clamped to ≥1).
    pub fn new(window: u64) -> Self {
        BurnWindow {
            window: window.max(1),
            slots: BTreeMap::new(),
            max_slot: 0,
        }
    }

    /// Records one request outcome in `slot` (`good` = met the SLO).
    pub fn record(&mut self, slot: u64, good: bool) {
        let entry = self.slots.entry(slot).or_insert((0, 0));
        entry.1 += 1;
        if !good {
            entry.0 += 1;
        }
        self.max_slot = self.max_slot.max(slot);
        let horizon = self.max_slot.saturating_sub(self.window - 1);
        self.slots = self.slots.split_off(&horizon);
    }

    /// Fraction of requests inside the window that **missed** the SLO,
    /// in `[0, 1]`; `0.0` when the window is empty.
    pub fn burn_rate(&self) -> f64 {
        let horizon = self.max_slot.saturating_sub(self.window - 1);
        let (bad, total) = self
            .slots
            .range(horizon..)
            .fold((0u64, 0u64), |(b, t), (_, &(bad, total))| {
                (b + bad, t + total)
            });
        if total == 0 {
            0.0
        } else {
            bad as f64 / total as f64
        }
    }

    /// Requests seen inside the current window.
    pub fn window_total(&self) -> u64 {
        let horizon = self.max_slot.saturating_sub(self.window - 1);
        self.slots.range(horizon..).map(|(_, &(_, t))| t).sum()
    }
}

/// One tenant's SLO state.
#[derive(Debug, Clone)]
pub struct TenantSlo {
    /// Accept → dequeue.
    pub queue_wait: SloHistogram,
    /// Dequeue → terminal.
    pub solve: SloHistogram,
    /// Accept → terminal.
    pub e2e: SloHistogram,
    /// Sliding-window burn over the end-to-end target.
    pub burn: BurnWindow,
}

/// Per-tenant SLO table; the server holds one behind its state mutex.
#[derive(Debug)]
pub struct SloTable {
    target_e2e_us: u64,
    window_slots: u64,
    tenants: HashMap<String, TenantSlo>,
}

impl SloTable {
    /// A table judging end-to-end latency against `target_e2e_us` over a
    /// burn window of `window_slots` slots.
    pub fn new(target_e2e_us: u64, window_slots: u64) -> Self {
        SloTable {
            target_e2e_us,
            window_slots,
            tenants: HashMap::new(),
        }
    }

    fn tenant(&mut self, tenant: &str) -> &mut TenantSlo {
        let window = self.window_slots;
        self.tenants
            .entry(tenant.to_owned())
            .or_insert_with(|| TenantSlo {
                queue_wait: SloHistogram::new(),
                solve: SloHistogram::new(),
                e2e: SloHistogram::new(),
                burn: BurnWindow::new(window),
            })
    }

    /// Records a queue-wait latency.
    pub fn observe_queue_wait(&mut self, tenant: &str, us: u64) {
        self.tenant(tenant).queue_wait.observe(us);
    }

    /// Records a solve latency.
    pub fn observe_solve(&mut self, tenant: &str, us: u64) {
        self.tenant(tenant).solve.observe(us);
    }

    /// Records an end-to-end latency and charges the burn window for
    /// `slot` (good = under the configured target).
    pub fn observe_e2e(&mut self, tenant: &str, us: u64, slot: u64) {
        let target = self.target_e2e_us;
        let t = self.tenant(tenant);
        t.e2e.observe(us);
        t.burn.record(slot, us <= target);
    }

    /// Current burn rate for `tenant` (`0.0` for unknown tenants).
    pub fn burn_rate(&self, tenant: &str) -> f64 {
        self.tenants.get(tenant).map_or(0.0, |t| t.burn.burn_rate())
    }

    /// The configured end-to-end target (µs).
    pub fn target_e2e_us(&self) -> u64 {
        self.target_e2e_us
    }

    /// Tenants with recorded state, sorted for deterministic iteration.
    pub fn tenants(&self) -> Vec<(&str, &TenantSlo)> {
        let mut rows: Vec<_> = self
            .tenants
            .iter()
            .map(|(name, slo)| (name.as_str(), slo))
            .collect();
        rows.sort_by_key(|&(name, _)| name);
        rows
    }

    /// Multiplier for the quota `retry_after` ramp: `1` when the tenant
    /// is inside its error budget, growing with the burn rate and capped
    /// at 8× so a fully-burning tenant backs off an order of magnitude
    /// without the hint becoming unbounded.
    pub fn retry_scale(&self, tenant: &str) -> u32 {
        let burn = self.burn_rate(tenant);
        // 0.0 → 1×, 1.0 → 8×, linear in between; exact at the endpoints.
        1 + (burn * 7.0).round() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn histogram_observe_and_cumulative() {
        let mut h = SloHistogram::new();
        h.observe(50); // bucket 0 (≤100)
        h.observe(100); // bucket 0 boundary
        h.observe(101); // bucket 1
        h.observe(u64::MAX); // +Inf
        assert_eq!(h.count(), 4);
        let cum = h.cumulative();
        assert_eq!(cum[0], 2);
        assert_eq!(cum[1], 3);
        assert_eq!(*cum.last().unwrap(), 4);
    }

    #[test]
    fn burn_window_slides_and_prunes() {
        let mut w = BurnWindow::new(3);
        w.record(0, false);
        w.record(1, true);
        assert!((w.burn_rate() - 0.5).abs() < 1e-12);
        // Slot 3 pushes slot 0 out of the 3-slot window [1, 3].
        w.record(3, true);
        assert!((w.burn_rate() - 0.0).abs() < 1e-12);
        assert_eq!(w.window_total(), 2);
    }

    #[test]
    fn retry_scale_endpoints() {
        let mut t = SloTable::new(100, 4);
        assert_eq!(t.retry_scale("ghost"), 1);
        t.observe_e2e("hot", 1_000, 0); // miss
        assert_eq!(t.retry_scale("hot"), 8);
        t.observe_e2e("cool", 10, 0); // hit
        assert_eq!(t.retry_scale("cool"), 1);
    }

    proptest! {
        /// Histogram merge is order-independent: folding observations one
        /// by one equals observing a permutation directly, and merging
        /// shard histograms in either order gives identical state.
        #[test]
        fn histogram_merge_is_order_independent(
            values in proptest::collection::vec(0u64..3_000_000, 0..64),
            split in 0usize..64,
        ) {
            let split = split.min(values.len());
            let mut whole = SloHistogram::new();
            for &v in &values {
                whole.observe(v);
            }
            let (left, right) = values.split_at(split);
            let mut a = SloHistogram::new();
            let mut b = SloHistogram::new();
            for &v in left { a.observe(v); }
            for &v in right { b.observe(v); }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            prop_assert_eq!(&ab, &whole);
        }

        /// Burn windows are a deterministic fold: any permutation of the
        /// same (slot, good) events yields the same burn rate and the
        /// same retained state.
        #[test]
        fn burn_window_is_order_independent(
            raw_events in proptest::collection::vec((0u64..32, 0u8..2), 1..48),
            window in 1u64..8,
            seed in 0u64..u64::MAX,
        ) {
            let events: Vec<(u64, bool)> =
                raw_events.iter().map(|&(slot, g)| (slot, g == 1)).collect();
            let mut forward = BurnWindow::new(window);
            for &(slot, good) in &events {
                forward.record(slot, good);
            }
            // Deterministic shuffle via the shared splitmix64 stream.
            let mut shuffled = events.clone();
            let mut state = seed;
            for i in (1..shuffled.len()).rev() {
                let j = (alrescha::util::splitmix64(&mut state) % (i as u64 + 1)) as usize;
                shuffled.swap(i, j);
            }
            let mut permuted = BurnWindow::new(window);
            for &(slot, good) in &shuffled {
                permuted.record(slot, good);
            }
            prop_assert_eq!(&forward, &permuted);
            prop_assert!((forward.burn_rate() - permuted.burn_rate()).abs() < 1e-12);
        }
    }
}
