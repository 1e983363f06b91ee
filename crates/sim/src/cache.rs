//! The RCU's local cache (Table 5: 1 KB, 64-byte lines, 4-cycle access).
//!
//! The cache holds the addressable vector operands — `xᵗ⁻¹`, `xᵗ`, `b`, and
//! for SymGS the extracted diagonal of `A` (§4.3). The paper's key cache
//! claim is *locality by construction*: the locally-dense format consumes a
//! whole ω-element chunk of the vector per block, so the values of one cache
//! line are used in succeeding cycles and each element of the vector operand
//! is fetched only once per `n/ω` pass (§4.2).

use crate::config::SimConfig;
use crate::fault::FaultInjector;

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the word was resident.
    pub hit: bool,
    /// Cycles charged for this access (hit latency, plus the memory round
    /// trip on a miss).
    pub cycles: u64,
}

/// A set-associative local cache over 64-bit words, addressed by word
/// index (direct-mapped when `cache_ways` is 1, the paper configuration).
///
/// Word addresses are an abstract vector-element space managed by the
/// caller; the cache maps them onto lines of `values_per_line` words.
/// Replacement within a set is LRU.
#[derive(Debug, Clone)]
pub struct LocalCache {
    values_per_line: usize,
    num_sets: usize,
    ways: usize,
    hit_latency: u64,
    miss_latency: u64,
    /// `num_sets × ways` tags (`usize::MAX` = invalid), LRU-ordered within
    /// each set: position 0 is most recent.
    tags: Vec<usize>,
    hits: u64,
    misses: u64,
    writes: u64,
    faults: Option<FaultInjector>,
}

impl LocalCache {
    /// Builds the cache from a simulator configuration.
    pub fn new(config: &SimConfig) -> Self {
        let lines = config.cache_lines();
        let ways = config.cache_ways.clamp(1, lines);
        LocalCache {
            values_per_line: config.values_per_line(),
            num_sets: (lines / ways).max(1),
            ways,
            hit_latency: config.cache_latency,
            miss_latency: config.cache_latency + config.mem_latency_cycles,
            tags: vec![usize::MAX; lines],
            hits: 0,
            misses: 0,
            writes: 0,
            faults: None,
        }
    }

    /// Attaches (or detaches) a fault injector for parity-error modeling.
    pub fn attach_injector(&mut self, injector: Option<FaultInjector>) {
        self.faults = injector;
    }

    /// Probes a line address; returns hit/miss and makes the line resident
    /// and most-recently-used.
    fn touch(&mut self, line_addr: usize) -> bool {
        let set = line_addr % self.num_sets;
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(pos) = slots.iter().position(|&t| t == line_addr) {
            slots[..=pos].rotate_right(1);
            true
        } else {
            slots.rotate_right(1);
            slots[0] = line_addr;
            false
        }
    }

    /// Reads one word; fills the line on a miss.
    ///
    /// With a fault injector attached, a hit line may suffer a parity error:
    /// detection is transparent and the line is refetched, so the access is
    /// accounted (and billed) as a miss.
    pub fn read(&mut self, word_addr: usize) -> CacheAccess {
        let hit = self.touch(word_addr / self.values_per_line);
        if hit {
            if let Some(inj) = &self.faults {
                if inj.cache_parity_on_hit() {
                    self.misses += 1;
                    return CacheAccess {
                        hit: false,
                        cycles: self.miss_latency,
                    };
                }
            }
            self.hits += 1;
            CacheAccess {
                hit: true,
                cycles: self.hit_latency,
            }
        } else {
            self.misses += 1;
            CacheAccess {
                hit: false,
                cycles: self.miss_latency,
            }
        }
    }

    /// Writes one word (write-allocate: the line becomes resident).
    pub fn write(&mut self, word_addr: usize) -> CacheAccess {
        let hit = self.touch(word_addr / self.values_per_line);
        self.writes += 1;
        CacheAccess {
            hit,
            cycles: self.hit_latency,
        }
    }

    /// Reads the `len` consecutive words starting at `start`; returns
    /// whether any of them missed.
    ///
    /// Counters and tag/LRU state end exactly as after `len` calls to
    /// [`LocalCache::read`], with one tag probe per line instead of per
    /// word: a just-touched line is most-recently-used in its set, so the
    /// rest of its words in the run always hit. With a fault injector
    /// attached every hit may draw a parity error, so the run falls back
    /// to the per-word loop to keep the injector's draw sequence.
    pub fn read_run(&mut self, start: usize, len: usize) -> bool {
        let mut missed = false;
        if self.faults.is_some() {
            for word in start..start + len {
                missed |= !self.read(word).hit;
            }
            return missed;
        }
        self.for_each_line(start, len, |cache, hit, words| {
            if hit {
                cache.hits += words;
            } else {
                cache.misses += 1;
                cache.hits += words - 1;
                missed = true;
            }
        });
        missed
    }

    /// Writes the `len` consecutive words starting at `start`, with the
    /// counters and tag/LRU state of `len` calls to [`LocalCache::write`]
    /// (writes never draw from the injector).
    pub fn write_run(&mut self, start: usize, len: usize) {
        self.writes += len as u64;
        self.for_each_line(start, len, |_, _, _| {});
    }

    /// Touches each line of the word run `[start, start + len)` once, in
    /// order, passing whether it hit and how many of the run's words it
    /// holds.
    fn for_each_line(&mut self, start: usize, len: usize, mut f: impl FnMut(&mut Self, bool, u64)) {
        let end = start + len;
        let mut word = start;
        while word < end {
            let line = word / self.values_per_line;
            let next = ((line + 1) * self.values_per_line).min(end);
            let hit = self.touch(line);
            f(self, hit, (next - word) as u64);
            word = next;
        }
    }

    /// Invalidates every line (e.g. between kernels).
    pub fn flush(&mut self) {
        self.tags.fill(usize::MAX);
    }

    /// Returns the cache to its just-built state: contents flushed, hit and
    /// miss counters zeroed, injector detached. Keeps the tag storage
    /// allocation (geometry is config-derived and unchanged).
    pub fn reset(&mut self) {
        self.flush();
        self.hits = 0;
        self.misses = 0;
        self.writes = 0;
        self.faults = None;
    }

    /// Read hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Read misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Writes so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses + self.writes
    }

    /// Read hit rate in `[0, 1]` (1.0 when no reads happened).
    pub fn hit_rate(&self) -> f64 {
        let reads = self.hits + self.misses;
        if reads == 0 {
            1.0
        } else {
            self.hits as f64 / reads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> LocalCache {
        LocalCache::new(&SimConfig::paper())
    }

    #[test]
    fn first_access_misses_then_line_hits() {
        let mut c = cache();
        let miss = c.read(0);
        assert!(!miss.hit);
        assert_eq!(miss.cycles, 4 + 250);
        // Remaining 7 words of the 64-byte line are resident.
        for w in 1..8 {
            let a = c.read(w);
            assert!(a.hit, "word {w}");
            assert_eq!(a.cycles, 4);
        }
        assert_eq!(c.hits(), 7);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = cache();
        // 16 lines x 8 words = 128 words; word 0 and word 1024 share set 0 (1024/8=128, 128%16=0).
        assert!(!c.read(0).hit);
        assert!(!c.read(1024).hit);
        assert!(!c.read(0).hit, "line must have been evicted");
    }

    #[test]
    fn sequential_chunk_reads_have_high_hit_rate() {
        let mut c = cache();
        for w in 0..128 {
            c.read(w);
        }
        // 16 misses (one per line), 112 hits.
        assert_eq!(c.misses(), 16);
        assert!((c.hit_rate() - 112.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn write_allocates() {
        let mut c = cache();
        c.write(8);
        assert!(c.read(8).hit);
        assert_eq!(c.writes(), 1);
        assert_eq!(c.accesses(), 2);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = cache();
        c.read(0);
        c.flush();
        assert!(!c.read(0).hit);
    }

    #[test]
    fn empty_cache_hit_rate_is_one() {
        assert_eq!(cache().hit_rate(), 1.0);
    }

    #[test]
    fn parity_fault_converts_hit_into_recovered_miss() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut c = cache();
        let inj = FaultInjector::new(FaultPlan::inert(1).with_cache_fault_rate(1.0));
        c.attach_injector(Some(inj.clone()));
        assert!(!c.read(0).hit, "cold miss");
        let again = c.read(0);
        assert!(!again.hit, "parity error forces a refetch");
        assert_eq!(again.cycles, 4 + 250);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 0);
        let counters = inj.counters();
        assert_eq!(counters.injected, 1);
        assert_eq!(counters.detected, 1);
        assert_eq!(counters.recovered, 1);
    }
}

#[cfg(test)]
mod associativity_tests {
    use super::*;

    #[test]
    fn two_way_survives_the_direct_mapped_conflict() {
        let config = SimConfig::paper().with_cache_ways(2);
        let mut c = LocalCache::new(&config);
        // Words 0 and 1024 conflict in the direct-mapped layout; with two
        // ways both stay resident.
        assert!(!c.read(0).hit);
        assert!(!c.read(1024).hit);
        assert!(c.read(0).hit);
        assert!(c.read(1024).hit);
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        let config = SimConfig::paper().with_cache_ways(2);
        let mut c = LocalCache::new(&config);
        // Three lines mapping to one set (8 sets at 2 ways): line addresses
        // 0, 8, 16 all hit set 0.
        c.read(0); // line 0
        c.read(64); // line 8
        c.read(128); // line 16 -> evicts line 0 (LRU)
        assert!(!c.read(0).hit, "line 0 must have been evicted");
        assert!(c.read(128).hit, "line 16 must survive");
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let config = SimConfig::paper().with_cache_ways(16);
        let mut c = LocalCache::new(&config);
        for line in 0..16 {
            c.read(line * 8);
        }
        for line in 0..16 {
            assert!(c.read(line * 8).hit, "line {line}");
        }
        // The 17th distinct line evicts exactly one resident line.
        c.read(16 * 8);
        let resident = (0..17)
            .filter(|&l| {
                let mut probe = c.clone();
                probe.read(l * 8).hit
            })
            .count();
        assert_eq!(resident, 16);
    }

    #[test]
    #[should_panic(expected = "invalid associativity")]
    fn zero_ways_rejected() {
        let _ = SimConfig::paper().with_cache_ways(0);
    }
}

#[cfg(test)]
mod run_tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultPlan};
    use proptest::prelude::*;

    /// A run of `(is_write, start, len)` word accesses as an ω-wide engine
    /// issues them: starts chunk-aligned or skewed across a line boundary,
    /// lengths up to ω (shorter for a padded tail).
    type Run = (bool, usize, usize);

    fn cases() -> impl Strategy<Value = (usize, Vec<Run>)> {
        (0usize..3, 0usize..3).prop_flat_map(|(o, w)| {
            let (omega, ways) = ([4, 8, 16][o], [1, 2, 4][w]);
            let run = (0u8..2, 0usize..256, 0..omega, 0..=omega)
                .prop_map(move |(write, chunk, skew, len)| (write == 1, chunk * omega + skew, len));
            (Just(ways), proptest::collection::vec(run, 1..64))
        })
    }

    /// Replays `runs` on a fresh cache, per word or per run; returns the
    /// cache, each read run's "any word missed" flag, and the injector.
    fn replay(
        ways: usize,
        plan: Option<FaultPlan>,
        runs: &[Run],
        per_word: bool,
    ) -> (LocalCache, Vec<bool>, Option<FaultInjector>) {
        let mut cache = LocalCache::new(&SimConfig::paper().with_cache_ways(ways));
        let inj = plan.map(FaultInjector::new);
        cache.attach_injector(inj.clone());
        let mut missed = Vec::new();
        for &(write, start, len) in runs {
            match (write, per_word) {
                (true, true) => (start..start + len).for_each(|w| {
                    cache.write(w);
                }),
                (true, false) => cache.write_run(start, len),
                (false, true) => {
                    // Every word is read: no short-circuit on the first miss.
                    let hits: Vec<bool> = (start..start + len).map(|w| cache.read(w).hit).collect();
                    missed.push(hits.contains(&false));
                }
                (false, false) => missed.push(cache.read_run(start, len)),
            }
        }
        (cache, missed, inj)
    }

    proptest! {
        #[test]
        fn run_accounting_matches_the_per_word_loop(
            (ways, runs) in cases(),
            seed in 0u64..u64::MAX,
        ) {
            let plans = [None, Some(FaultPlan::inert(seed).with_cache_fault_rate(0.25))];
            for plan in plans {
                let (word, word_missed, word_inj) = replay(ways, plan.clone(), &runs, true);
                let (run, run_missed, run_inj) = replay(ways, plan, &runs, false);
                prop_assert_eq!(&word.tags, &run.tags, "tag/LRU state");
                prop_assert_eq!(word.hits(), run.hits());
                prop_assert_eq!(word.misses(), run.misses());
                prop_assert_eq!(word.writes(), run.writes());
                prop_assert_eq!(word_missed, run_missed);
                prop_assert_eq!(
                    word_inj.map(|i| i.counters()),
                    run_inj.map(|i| i.counters())
                );
            }
        }
    }
}
