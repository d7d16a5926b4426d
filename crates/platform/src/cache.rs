//! The kernel image cache (§3.1's rebuild-skip optimization).
//!
//! "The build task can be skipped if the differences between the current
//! configuration to explore and the previous one only relate to runtime
//! parameters": two configurations with equal compile+boot fingerprints
//! share an image. The cache is bounded (images are gigabytes on a real
//! platform) with least-recently-used eviction.

use std::collections::HashMap;
use std::sync::Mutex;
use wf_ossim::KernelImage;

/// A bounded LRU cache of built kernel images keyed by stage fingerprint.
#[derive(Debug)]
pub struct ImageCache {
    capacity: usize,
    map: HashMap<u64, (KernelImage, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ImageCache {
    /// Creates a cache holding at most `capacity` images.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ImageCache {
            capacity,
            map: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks an image up, refreshing its recency on hit.
    pub fn get(&mut self, fingerprint: u64) -> Option<KernelImage> {
        self.tick += 1;
        match self.map.get_mut(&fingerprint) {
            Some((img, stamp)) => {
                *stamp = self.tick;
                self.hits += 1;
                Some(img.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly built image, evicting the least recently used
    /// entry when full.
    pub fn insert(&mut self, image: KernelImage) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&image.fingerprint) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(image.fingerprint, (image, self.tick));
    }

    /// Number of cached images.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// An [`ImageCache`] shared across evaluation workers behind a lock.
///
/// Every operation takes the lock for its full duration, so the LRU
/// order, the bound `len() <= capacity`, and the invariant
/// `hits + misses == total lookups` hold under arbitrary interleavings —
/// a lookup and the insert that follows it are two separate critical
/// sections, exactly like the real platform where two workers may race to
/// build the same image (both miss, both build, last insert wins).
#[derive(Debug)]
pub struct SharedImageCache {
    inner: Mutex<ImageCache>,
}

impl SharedImageCache {
    /// Creates a shared cache holding at most `capacity` images.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        SharedImageCache {
            inner: Mutex::new(ImageCache::new(capacity)),
        }
    }

    /// Looks an image up, refreshing its recency on hit.
    pub fn get(&self, fingerprint: u64) -> Option<KernelImage> {
        self.lock().get(fingerprint)
    }

    /// Inserts a freshly built image, evicting the LRU entry when full.
    pub fn insert(&self, image: KernelImage) {
        self.lock().insert(image)
    }

    /// Number of cached images.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        self.lock().stats()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ImageCache> {
        // A worker panicking mid-operation cannot leave the map in a
        // broken state (every ImageCache method is atomic over its own
        // fields), so a poisoned lock is recoverable.
        crate::sync::lock_recover(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(fp: u64) -> KernelImage {
        KernelImage {
            fingerprint: fp,
            image_mb: 100.0,
            enabled_options: 10,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut c = ImageCache::new(4);
        assert!(c.get(1).is_none());
        c.insert(image(1));
        assert_eq!(c.get(1).unwrap().fingerprint, 1);
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = ImageCache::new(2);
        c.insert(image(1));
        c.insert(image(2));
        let _ = c.get(1); // refresh 1
        c.insert(image(3)); // evicts 2
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_none());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_same_fingerprint_does_not_evict() {
        let mut c = ImageCache::new(2);
        c.insert(image(1));
        c.insert(image(2));
        c.insert(image(2));
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_some());
    }

    #[test]
    fn shared_cache_survives_a_concurrent_hammer() {
        // 8 threads × 400 lookups over 24 overlapping fingerprints against
        // a 16-entry cache: every lookup must be counted exactly once
        // (hits + misses == total lookups) and eviction must never lose an
        // update that would let the map outgrow its capacity.
        const THREADS: u64 = 8;
        const LOOKUPS: u64 = 400;
        const CAPACITY: usize = 16;
        let cache = SharedImageCache::new(CAPACITY);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..LOOKUPS {
                        // Interleave thread-local and shared fingerprints
                        // so hits, misses, inserts, and evictions all race.
                        let fp = (t * 3 + i) % 24;
                        if cache.get(fp).is_none() {
                            cache.insert(image(fp));
                        }
                    }
                });
            }
        });
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, THREADS * LOOKUPS, "lost or doubled lookups");
        assert!(misses > 0, "cold lookups must miss");
        assert!(hits > 0, "warm lookups must hit");
        assert!(cache.len() <= CAPACITY, "len {} > capacity", cache.len());
        assert!(!cache.is_empty());
    }
}
