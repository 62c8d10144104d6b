//! Shared seed-index cache: in-memory residency and persistence.
//!
//! A service front end seeds every request against the same registered
//! target genome; rebuilding the k-mer index per request is the tall
//! pole of stage 1 at service scale. This cache makes the index a
//! build-once artifact:
//!
//! * **In-memory residency** — the first acquisition per
//!   `(genome id, shape, shard count)` key builds (or loads) the
//!   [`ShardedSeedIndex`]; every later acquisition is a hit against the
//!   resident copy.
//! * **Persistence** — with a directory configured, cold acquisitions
//!   go through [`ShardedSeedIndex::load_or_build`]: a validated
//!   artifact on disk is a warm load; otherwise the build is saved for
//!   the next process.
//!
//! Counters surface through `obs::names` with the service's
//! zero-emission discipline: [`AlignService`](crate::AlignService)
//! emits every index series as zero on every observed run, and
//! [`IndexCache::record_metrics`] overlays the real values when a cache
//! is in play — the exported series set never depends on configuration.

use fastz_genome::Sequence;
use fastz_obs::{names, MetricsSink};
use fastz_seed::{IndexOrigin, PersistError, SeedShape, ShardedSeedIndex};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Cache configuration.
#[derive(Clone, Debug)]
pub struct IndexCacheConfig {
    /// Artifact directory for persistence (`None` = in-memory only).
    pub dir: Option<PathBuf>,
    /// Target-interval shards per index (clamped to ≥ 1).
    pub shards: usize,
}

impl Default for IndexCacheConfig {
    fn default() -> Self {
        IndexCacheConfig {
            dir: None,
            shards: 4,
        }
    }
}

/// Running acquisition statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IndexCacheStats {
    /// Acquisitions served by a resident in-memory index.
    pub hits: u64,
    /// Acquisitions that validated and loaded a persisted artifact.
    pub disk_loads: u64,
    /// Acquisitions that built the index from the sequence.
    pub builds: u64,
}

/// A shared seed-index cache keyed by `(genome id, shape, shards)`.
pub struct IndexCache {
    cfg: IndexCacheConfig,
    // BTreeMap, not HashMap: resident_shards() iterates the values, and
    // the bit-identity contract wants that walk (and any future series
    // derived from it) in key order.
    resident: BTreeMap<String, ShardedSeedIndex>,
    stats: IndexCacheStats,
}

/// What one acquisition produced: a borrowed resident index and where
/// it came from.
pub struct Acquired<'c> {
    /// The resident sharded index.
    pub index: &'c ShardedSeedIndex,
    /// Hit / disk load / cold build for this acquisition.
    pub origin: AcquireOrigin,
}

/// Where an acquisition was satisfied from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcquireOrigin {
    /// Already resident in memory.
    Resident,
    /// Validated artifact loaded from the persistence directory.
    LoadedFromDisk,
    /// Built from the sequence (and saved when persistence is on).
    Built,
}

impl IndexCache {
    /// An empty cache under `cfg`.
    pub fn new(cfg: IndexCacheConfig) -> IndexCache {
        IndexCache {
            cfg,
            resident: BTreeMap::new(),
            stats: IndexCacheStats::default(),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &IndexCacheConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &IndexCacheStats {
        &self.stats
    }

    /// Number of resident indexes.
    pub fn resident_indexes(&self) -> usize {
        self.resident.len()
    }

    /// Shards resident in memory: every shard of every resident index.
    pub fn resident_shards(&self) -> usize {
        self.resident.values().map(|i| i.n_shards()).sum()
    }

    /// Acquires the index for `target` under `shape`, building or
    /// loading it on the first use and reusing the resident copy after.
    pub fn acquire(
        &mut self,
        target: &Sequence,
        shape: SeedShape,
    ) -> Result<Acquired<'_>, PersistError> {
        let shards = self.cfg.shards.max(1);
        let key = ShardedSeedIndex::artifact_name(target.name(), &shape, shards);
        let origin = if self.resident.contains_key(&key) {
            self.stats.hits += 1;
            AcquireOrigin::Resident
        } else {
            let (index, from) = match &self.cfg.dir {
                Some(dir) => ShardedSeedIndex::load_or_build(dir, target, shape, shards)?,
                None => (
                    ShardedSeedIndex::build(target, shape, shards)?,
                    IndexOrigin::Built,
                ),
            };
            self.resident.insert(key.clone(), index);
            match from {
                IndexOrigin::LoadedFromDisk => {
                    self.stats.disk_loads += 1;
                    AcquireOrigin::LoadedFromDisk
                }
                IndexOrigin::Built => {
                    self.stats.builds += 1;
                    AcquireOrigin::Built
                }
            }
        };

        Ok(Acquired {
            index: &self.resident[&key],
            origin,
        })
    }

    /// Emits the cache series (overlaying the zeros the service emits —
    /// counters are additive, gauges last-write-wins, so record this
    /// *after* the service run's emission).
    pub fn record_metrics<S: MetricsSink>(&self, sink: &mut S) {
        if !S::ENABLED {
            return;
        }
        sink.counter_add(names::INDEX_CACHE_HITS_TOTAL, self.stats.hits);
        sink.counter_add(names::INDEX_CACHE_DISK_LOADS_TOTAL, self.stats.disk_loads);
        sink.counter_add(names::INDEX_CACHE_BUILDS_TOTAL, self.stats.builds);
        sink.gauge_set(names::INDEX_RESIDENT_SHARDS, self.resident_shards() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastz_genome::evolve::random_sequence;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fastz-serve-idx-{tag}"));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn repeat_acquisitions_hit_and_keep_shards_resident() {
        let t = random_sequence("svc-genome", 4_000, 0.5, 9);
        let mut cache = IndexCache::new(IndexCacheConfig {
            shards: 6,
            ..IndexCacheConfig::default()
        });
        let first = cache.acquire(&t, SeedShape::lastz_12of19()).unwrap();
        assert_eq!(first.origin, AcquireOrigin::Built);
        let fp = first.index.fingerprint();
        for _ in 0..7 {
            let again = cache.acquire(&t, SeedShape::lastz_12of19()).unwrap();
            assert_eq!(again.origin, AcquireOrigin::Resident);
            assert_eq!(again.index.fingerprint(), fp);
        }
        let s = cache.stats();
        assert_eq!(s.builds, 1);
        assert_eq!(s.hits, 7);
        assert_eq!(s.disk_loads, 0);
        assert_eq!(cache.resident_shards(), 6);
    }

    #[test]
    fn persistence_turns_cold_starts_into_disk_loads() {
        let dir = tmpdir("persist");
        let t = random_sequence("svc-genome", 3_000, 0.5, 21);
        let cfg = IndexCacheConfig {
            dir: Some(dir.clone()),
            shards: 3,
        };
        // First process: builds and saves.
        let mut warmup = IndexCache::new(cfg.clone());
        let a = warmup.acquire(&t, SeedShape::exact(12)).unwrap();
        assert_eq!(a.origin, AcquireOrigin::Built);
        let fp = a.index.fingerprint();
        drop(warmup);
        // Second process: loads the artifact instead of rebuilding.
        let mut cache = IndexCache::new(cfg);
        let b = cache.acquire(&t, SeedShape::exact(12)).unwrap();
        assert_eq!(b.origin, AcquireOrigin::LoadedFromDisk);
        assert_eq!(b.index.fingerprint(), fp, "identity survives the disk trip");
        assert_eq!(cache.stats().disk_loads, 1);
        assert_eq!(cache.stats().builds, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_are_distinct_residents() {
        let t1 = random_sequence("genome-one", 2_000, 0.5, 1);
        let t2 = random_sequence("genome-two", 2_000, 0.5, 2);
        let mut cache = IndexCache::new(IndexCacheConfig::default());
        cache.acquire(&t1, SeedShape::exact(10)).unwrap();
        cache.acquire(&t2, SeedShape::exact(10)).unwrap();
        cache.acquire(&t1, SeedShape::lastz_12of19()).unwrap();
        assert_eq!(cache.resident_indexes(), 3);
        assert_eq!(cache.stats().builds, 3);
        assert_eq!(cache.stats().hits, 0);
    }
}
