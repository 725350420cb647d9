//! Content-addressed cache of trained VVD models.
//!
//! Training a VVD CNN dominates end-to-end evaluation wall-clock, and
//! sweeps multiply the number of (scenario × estimator × combination)
//! trainings — many of which are *identical*: same variant, same
//! hyper-parameters, same training data.  [`ModelCache`] turns those
//! repeats into lookups.  Entries are keyed by [`ModelKey`], a digest of
//! the full training provenance (variant, architecture, training
//! configuration, dataset
//! content), so a hit is guaranteed to hand back a model that a fresh
//! training would have reproduced bit for bit — cached and fresh results
//! are indistinguishable.
//!
//! The cache is two-level: an in-memory map (optionally LRU-bounded) and an
//! optional on-disk directory of `<key>.vvdm` files, each one wire frame
//! written with [`VvdModel::to_frame`] (weights as raw `f32` bits), which
//! persists trainings across processes.  A file that does not decode, or
//! that decodes to a model filed under another key, is a plain miss: the
//! model retrains and the file is overwritten.  All operations are `&self`
//! behind a mutex, so one cache can be shared across the worker threads of
//! a sweep.  Hit/miss/eviction counters are exposed through
//! [`ModelCache::stats`] and surfaced in sweep reports.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::Mutex;
use vvd_core::{ModelKey, VvdModel, VvdTrainingReport};

/// Counters describing how a [`ModelCache`] has been used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups answered from the on-disk store.
    pub disk_hits: u64,
    /// Lookups that had to train.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Models currently held in memory.
    pub entries: usize,
}

vvd_dsp::wire_struct!(ModelCacheStats {
    hits,
    disk_hits,
    misses,
    evictions,
    entries
});

impl ModelCacheStats {
    /// Total lookups served.
    pub fn lookups(&self) -> u64 {
        self.hits + self.disk_hits + self.misses
    }

    /// Accumulates another cache's counters — the cluster-wide view of a
    /// serve run whose worker processes each hold their own `ModelCache`
    /// over one shared disk directory.  `entries` sums resident models
    /// across the absorbed caches (they live in different processes).
    pub fn absorb(&mut self, other: &ModelCacheStats) {
        self.hits += other.hits;
        self.disk_hits += other.disk_hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.entries += other.entries;
    }
}

impl std::fmt::Display for ModelCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} lookups: {} hits, {} disk hits, {} misses ({} trained), {} evictions, {} resident",
            self.lookups(),
            self.hits,
            self.disk_hits,
            self.misses,
            self.misses,
            self.evictions,
            self.entries
        )
    }
}

struct CacheInner {
    map: BTreeMap<ModelKey, VvdModel>,
    /// Keys in least-recently-used-first order.
    lru: VecDeque<ModelKey>,
    stats: ModelCacheStats,
}

/// A thread-safe, content-addressed store of trained [`VvdModel`]s.
pub struct ModelCache {
    inner: Mutex<CacheInner>,
    /// 0 = unbounded.
    capacity: usize,
    disk_dir: Option<PathBuf>,
}

impl ModelCache {
    /// An unbounded in-memory cache.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An in-memory cache holding at most `capacity` models (`0` =
    /// unbounded), evicting least-recently-used entries.
    pub fn with_capacity(capacity: usize) -> Self {
        ModelCache {
            inner: Mutex::new(CacheInner {
                map: BTreeMap::new(),
                lru: VecDeque::new(),
                stats: ModelCacheStats::default(),
            }),
            capacity,
            disk_dir: None,
        }
    }

    /// Adds an on-disk layer: misses consult `dir/<key>.vvdm` before
    /// training, and freshly trained models are written there (best
    /// effort — I/O errors fall back to memory-only operation).
    pub fn with_disk_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_dir = Some(dir.into());
        self
    }

    /// Returns the model for `key`, training it with `train` on a miss.
    ///
    /// The training report is returned only when a training actually ran
    /// (callers surface reports once per distinct training, exactly like
    /// the pre-cache harness did).  Models handed out are `Arc`-shared
    /// clones: no weight duplication.
    ///
    /// Training runs outside the cache lock, so concurrent misses on
    /// *different* keys train in parallel.  Two racing misses on the same
    /// key both train — deterministically to bit-identical weights, so
    /// whichever insert wins, every caller sees the same model.
    pub fn get_or_train(
        &self,
        key: ModelKey,
        train: impl FnOnce() -> (VvdModel, VvdTrainingReport),
    ) -> (VvdModel, Option<VvdTrainingReport>) {
        {
            let mut inner = self.inner.lock().expect("model cache poisoned");
            if let Some(model) = inner.map.get(&key).cloned() {
                inner.stats.hits += 1;
                touch(&mut inner.lru, key);
                return (model, None);
            }
        }

        if let Some(model) = self.load_from_disk(key) {
            let mut inner = self.inner.lock().expect("model cache poisoned");
            inner.stats.disk_hits += 1;
            self.insert_locked(&mut inner, key, model.clone());
            return (model, None);
        }

        let (model, report) = train();
        self.store_to_disk(key, &model);
        let mut inner = self.inner.lock().expect("model cache poisoned");
        inner.stats.misses += 1;
        self.insert_locked(&mut inner, key, model.clone());
        (model, Some(report))
    }

    /// A snapshot of the usage counters.
    pub fn stats(&self) -> ModelCacheStats {
        self.inner.lock().expect("model cache poisoned").stats
    }

    /// Number of models resident in memory.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("model cache poisoned").map.len()
    }

    /// `true` when no model is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn insert_locked(&self, inner: &mut CacheInner, key: ModelKey, model: VvdModel) {
        if inner.map.insert(key, model).is_none() {
            inner.lru.push_back(key);
        } else {
            touch(&mut inner.lru, key);
        }
        if self.capacity > 0 {
            while inner.map.len() > self.capacity {
                let Some(oldest) = inner.lru.pop_front() else {
                    break;
                };
                inner.map.remove(&oldest);
                inner.stats.evictions += 1;
            }
        }
        inner.stats.entries = inner.map.len();
    }

    fn disk_path(&self, key: ModelKey) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|dir| dir.join(format!("{}.vvdm", key.to_hex())))
    }

    /// The model filed under `key`, if its file decodes to a model with
    /// that key: a file copied or renamed into place is a miss, so a hit
    /// always equals a fresh training.
    fn load_from_disk(&self, key: ModelKey) -> Option<VvdModel> {
        let bytes = std::fs::read(self.disk_path(key)?).ok()?;
        VvdModel::from_frame(&bytes)
            .ok()
            .filter(|model| model.key() == key)
    }

    fn store_to_disk(&self, key: ModelKey, model: &VvdModel) {
        let Some(path) = self.disk_path(key) else {
            return;
        };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        // Publish atomically (write + rename) so concurrent writers
        // sharing the directory — worker threads of this process or other
        // worker *processes* — never observe a torn file.  The temp name
        // must be unique per publish, not just per process: two handles in
        // one process racing the same key with a pid-only suffix would
        // interleave writes into one temp file and rename a torn document
        // into place.
        static PUBLISH_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = PUBLISH_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp-{}-{seq}", std::process::id()));
        let Ok(frame) = model.to_frame() else {
            return;
        };
        if std::fs::write(&tmp, frame).is_ok() && std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

impl Default for ModelCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Moves `key` to the most-recently-used end.
fn touch(lru: &mut VecDeque<ModelKey>, key: ModelKey) {
    if let Some(pos) = lru.iter().position(|k| *k == key) {
        lru.remove(pos);
    }
    lru.push_back(key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vvd_core::{VvdConfig, VvdDataset, VvdSample, VvdVariant};
    use vvd_dsp::wire::{write_frame, WireError};
    use vvd_dsp::{Complex, FirFilter};
    use vvd_vision::DepthImage;

    fn dataset(n: usize, offset: usize) -> VvdDataset {
        let mut ds = VvdDataset::new();
        for k in 0..n {
            let mut img = DepthImage::filled(30, 26, 0.8);
            img.set(4, (k * 3 + offset) % 20, 0.2);
            let mut taps = vec![Complex::ZERO; 3];
            taps[1] = Complex::new(1e-3 + 1e-5 * k as f64, -5e-4);
            ds.push(VvdSample {
                image: img,
                target_cir: FirFilter::from_taps(&taps),
            });
        }
        ds
    }

    fn config() -> VvdConfig {
        let mut cfg = VvdConfig::quick();
        cfg.conv_filters = 2;
        cfg.dense_units = 8;
        cfg.channel_taps = 3;
        cfg.epochs = 1;
        cfg
    }

    fn train_pair(offset: usize) -> (ModelKey, VvdModel, VvdTrainingReport) {
        let cfg = config();
        let train = dataset(6, offset);
        let key = ModelKey::for_training(VvdVariant::Current, &cfg, &train, &VvdDataset::new());
        let (model, report) =
            VvdModel::train(VvdVariant::Current, &cfg, &train, &VvdDataset::new());
        (key, model, report)
    }

    #[test]
    fn second_lookup_is_a_hit_with_identical_predictions() {
        let cache = ModelCache::new();
        let (key, model, report) = train_pair(0);
        let probe = dataset(1, 0).samples[0].image.clone();

        let (first, first_report) = cache.get_or_train(key, || (model.clone(), report.clone()));
        assert!(first_report.is_some(), "first lookup trains");
        let (second, second_report) = cache.get_or_train(key, || panic!("hit must not retrain"));
        assert!(second_report.is_none(), "second lookup hits");
        assert_eq!(
            first.predict_cir(&probe).taps(),
            second.predict_cir(&probe).taps()
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let cache = ModelCache::with_capacity(1);
        let (key_a, model_a, report_a) = train_pair(0);
        let (key_b, model_b, report_b) = train_pair(1);
        assert_ne!(key_a, key_b);
        let _ = cache.get_or_train(key_a, || (model_a.clone(), report_a.clone()));
        let _ = cache.get_or_train(key_b, || (model_b.clone(), report_b.clone()));
        assert_eq!(cache.len(), 1);
        // key_a was evicted: looking it up again must retrain.
        let (_, retrained) = cache.get_or_train(key_a, || (model_a.clone(), report_a.clone()));
        assert!(retrained.is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn disk_layer_survives_a_new_cache_instance() {
        let dir = std::env::temp_dir().join(format!("vvd-model-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (key, model, report) = train_pair(2);
        let probe = dataset(1, 2).samples[0].image.clone();
        let expected = model.predict_cir(&probe);

        let warm = ModelCache::new().with_disk_dir(&dir);
        let _ = warm.get_or_train(key, || (model.clone(), report.clone()));
        assert_eq!(warm.stats().misses, 1);

        // A fresh cache over the same directory loads from disk.
        let cold = ModelCache::new().with_disk_dir(&dir);
        let (loaded, loaded_report) =
            cold.get_or_train(key, || panic!("disk hit must not retrain"));
        assert!(loaded_report.is_none());
        assert_eq!(cold.stats().disk_hits, 1);
        assert_eq!(
            loaded.predict_cir(&probe).taps(),
            expected.taps(),
            "disk-loaded model must predict bit-identically"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_display_is_informative() {
        let cache = ModelCache::new();
        let s = cache.stats().to_string();
        assert!(s.contains("0 lookups"));
    }

    #[test]
    fn capacity_zero_is_unbounded() {
        let cache = ModelCache::with_capacity(0);
        for offset in 0..3 {
            let (key, model, report) = train_pair(offset);
            let _ = cache.get_or_train(key, || (model.clone(), report.clone()));
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0, "capacity 0 must never evict");
        assert_eq!(stats.entries, 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn capacity_one_keeps_exactly_the_last_model_and_repeat_lookups_hit() {
        let cache = ModelCache::with_capacity(1);
        let (key, model, report) = train_pair(0);
        let _ = cache.get_or_train(key, || (model.clone(), report.clone()));
        // Re-looking-up the resident key must not evict it.
        for _ in 0..3 {
            let (_, retrained) = cache.get_or_train(key, || panic!("hit must not retrain"));
            assert!(retrained.is_none());
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (3, 1, 0));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn lru_order_follows_recency_of_use() {
        let cache = ModelCache::with_capacity(2);
        let (key_a, model_a, report_a) = train_pair(0);
        let (key_b, model_b, report_b) = train_pair(1);
        let (key_c, model_c, report_c) = train_pair(2);
        let _ = cache.get_or_train(key_a, || (model_a.clone(), report_a.clone()));
        let _ = cache.get_or_train(key_b, || (model_b.clone(), report_b.clone()));
        // Touch A so that B becomes the least recently used entry …
        let _ = cache.get_or_train(key_a, || panic!("A is resident"));
        // … and C's insertion must evict B, not A.
        let _ = cache.get_or_train(key_c, || (model_c.clone(), report_c.clone()));
        let (_, a_again) = cache.get_or_train(key_a, || panic!("A must have survived"));
        assert!(a_again.is_none());
        let (_, b_again) = cache.get_or_train(key_b, || (model_b.clone(), report_b.clone()));
        assert!(b_again.is_some(), "B was evicted and must retrain");
    }

    #[test]
    fn corrupt_and_truncated_disk_entries_degrade_to_misses() {
        let dir = std::env::temp_dir().join(format!(
            "vvd-model-cache-corrupt-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (key, model, report) = train_pair(3);
        let probe = dataset(1, 3).samples[0].image.clone();
        let expected = model.predict_cir(&probe);
        let path = dir.join(format!("{}.vvdm", key.to_hex()));

        let full = model.to_frame().unwrap();
        // A frame of the checkpoint kind (0x0100) holding an empty engine
        // checkpoint: ticks, three batch counters, no sessions.
        let mut checkpoint = Vec::new();
        write_frame(&mut checkpoint, 0x0100, &[0; 36]).unwrap();
        // The model frame with its first parameter one weight short, and
        // the length prefixes of that parameter and of the frame to match:
        // well-formed bytes, but weights that do not fit the architecture.
        let mut short = full.clone();
        let tag = short.windows(8).position(|w| w == b"vvd-cnn:").unwrap();
        let tag_len = u32::from_le_bytes(short[tag - 4..tag].try_into().unwrap()) as usize;
        let at = tag + tag_len + 4;
        let weights = u32::from_le_bytes(short[at..at + 4].try_into().unwrap());
        short[at..at + 4].copy_from_slice(&(weights - 1).to_le_bytes());
        let last = at + 4 * weights as usize;
        short.drain(last..last + 4);
        let payload_len = (short.len() - 12) as u32;
        short[8..12].copy_from_slice(&payload_len.to_le_bytes());
        assert!(matches!(
            VvdModel::from_frame(&short),
            Err(WireError::Malformed { .. })
        ));

        let cases: [(&str, &[u8]); 5] = [
            ("an empty file", b""),
            ("bytes that are not a frame", b"not a frame at all"),
            ("a truncated model frame", &full[..full.len() / 2]),
            ("a checkpoint frame", &checkpoint),
            ("a parameter one weight short", &short),
        ];
        for (case, bytes) in cases {
            std::fs::write(&path, bytes).unwrap();
            let cache = ModelCache::new().with_disk_dir(&dir);
            let (loaded, retrained) = cache.get_or_train(key, || (model.clone(), report.clone()));
            assert!(retrained.is_some(), "{case} must retrain, not panic");
            let stats = cache.stats();
            assert_eq!(
                (stats.hits, stats.disk_hits, stats.misses),
                (0, 0, 1),
                "{case} counts as a plain miss"
            );
            assert_eq!(loaded.predict_cir(&probe).taps(), expected.taps());

            // Retraining healed the on-disk entry.
            let healed = ModelCache::new().with_disk_dir(&dir);
            let (_, from_disk) = healed.get_or_train(key, || panic!("healed entry must load"));
            assert!(from_disk.is_none(), "{case} was not healed");
            assert_eq!(healed.stats().disk_hits, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_model_filed_under_another_key_is_a_miss() {
        let dir =
            std::env::temp_dir().join(format!("vvd-model-cache-key-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (key_a, model_a, report_a) = train_pair(5);
        let (key_b, model_b, report_b) = train_pair(6);
        let file = |key: ModelKey| dir.join(format!("{}.vvdm", key.to_hex()));

        let warm = ModelCache::new().with_disk_dir(&dir);
        let _ = warm.get_or_train(key_a, || (model_a.clone(), report_a.clone()));
        std::fs::copy(file(key_a), file(key_b)).unwrap();

        // B's file holds A: serving it would hand out another provenance.
        let cold = ModelCache::new().with_disk_dir(&dir);
        let (loaded, retrained) = cold.get_or_train(key_b, || (model_b.clone(), report_b.clone()));
        assert!(retrained.is_some(), "a model filed under B's key is not B");
        assert_eq!(loaded.key(), key_b);
        let stats = cold.stats();
        assert_eq!((stats.hits, stats.disk_hits, stats.misses), (0, 0, 1));

        // The retraining overwrote the file with B itself.
        let healed = ModelCache::new().with_disk_dir(&dir);
        let (from_disk, report) = healed.get_or_train(key_b, || panic!("B's file must load"));
        assert!(report.is_none());
        assert_eq!(from_disk.key(), key_b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_handles_on_one_disk_dir_publish_consistently() {
        // Two independent cache handles over ONE disk directory — the
        // in-process model of two worker processes sharing
        // `VVD_MODEL_CACHE_DIR`.  Both race publish/load on the same key
        // from several threads; whichever publish wins the rename, the
        // on-disk file must stay a complete, loadable document (atomic
        // publishes with per-publish temp names), and every handle's
        // counters must account each lookup exactly once.
        let dir =
            std::env::temp_dir().join(format!("vvd-model-cache-race-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (key, model, report) = train_pair(4);
        let probe = dataset(1, 4).samples[0].image.clone();
        let expected = model.predict_cir(&probe);

        let handle_a = ModelCache::new().with_disk_dir(&dir);
        let handle_b = ModelCache::new().with_disk_dir(&dir);
        let rounds = 8;
        std::thread::scope(|scope| {
            for cache in [&handle_a, &handle_b] {
                for _ in 0..2 {
                    scope.spawn(|| {
                        for _ in 0..rounds {
                            let (m, _) =
                                cache.get_or_train(key, || (model.clone(), report.clone()));
                            assert_eq!(m.predict_cir(&probe).taps(), expected.taps());
                        }
                    });
                }
            }
        });

        for cache in [&handle_a, &handle_b] {
            let stats = cache.stats();
            assert_eq!(
                stats.lookups(),
                2 * rounds,
                "every lookup is exactly one of hit/disk-hit/miss: {stats}"
            );
            assert_eq!(stats.entries, 1);
            assert_eq!(stats.evictions, 0);
        }

        // The loser of every publish race left no torn state behind: the
        // file loads, predicts bit-identically, and no temp files linger.
        let fresh = ModelCache::new().with_disk_dir(&dir);
        let (winner, retrained) = fresh.get_or_train(key, || panic!("published file must load"));
        assert!(retrained.is_none());
        assert_eq!(fresh.stats().disk_hits, 1);
        assert_eq!(winner.predict_cir(&probe).taps(), expected.taps());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| !name.ends_with(".vvdm"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "publish races must clean up temp files: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_absorb_sums_per_worker_counters() {
        let mut total = ModelCacheStats::default();
        total.absorb(&ModelCacheStats {
            hits: 3,
            disk_hits: 1,
            misses: 2,
            evictions: 0,
            entries: 2,
        });
        total.absorb(&ModelCacheStats {
            hits: 1,
            disk_hits: 4,
            misses: 0,
            evictions: 1,
            entries: 1,
        });
        assert_eq!(
            total,
            ModelCacheStats {
                hits: 4,
                disk_hits: 5,
                misses: 2,
                evictions: 1,
                entries: 3,
            }
        );
        assert_eq!(total.lookups(), 11);
    }

    #[test]
    fn counters_stay_consistent_across_mixed_traffic() {
        let cache = ModelCache::with_capacity(1);
        let (key_a, model_a, report_a) = train_pair(0);
        let (key_b, model_b, report_b) = train_pair(1);
        let mut expected_lookups = 0u64;
        for _ in 0..3 {
            let _ = cache.get_or_train(key_a, || (model_a.clone(), report_a.clone()));
            let _ = cache.get_or_train(key_b, || (model_b.clone(), report_b.clone()));
            expected_lookups += 2;
        }
        let stats = cache.stats();
        assert_eq!(stats.lookups(), expected_lookups);
        assert_eq!(
            stats.hits + stats.disk_hits + stats.misses,
            expected_lookups
        );
        // Thrashing between two keys with capacity 1: every lookup misses
        // and every insert beyond the first evicts.
        assert_eq!(stats.misses, 6);
        assert_eq!(stats.evictions, 5);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.entries, cache.len());
        assert!(!cache.is_empty());
    }
}
