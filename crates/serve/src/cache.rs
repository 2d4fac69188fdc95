//! The content-addressed result cache.
//!
//! Values are the *exact* compact-JSON bytes of a scenario's result,
//! keyed by the scenario fingerprint
//! ([`ScenarioSpec::fingerprint`](crate::proto::ScenarioSpec::fingerprint)).
//! A hit replays those bytes verbatim, so a cached response is
//! byte-identical to the fresh run that populated it. Capacity is
//! bounded with least-recently-used eviction, and every lookup is
//! counted (hits, misses, evictions) — the daemon mirrors the counts
//! into its [`hierbus_obs::MetricsRegistry`].
//!
//! The cache can persist itself as a versioned JSON index (atomic
//! temp-file + rename). An index records
//! the database fingerprint it was built against; loading under a
//! different characterization (or index version) starts empty instead
//! of replaying stale energies.

use hierbus_campaign::Json;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Version of the persisted index format; bumped on layout changes so
/// an old index is discarded, never misread.
pub const CACHE_INDEX_VERSION: u64 = 1;

/// A bounded LRU map from scenario fingerprint to serialized result.
///
/// Entries are indexed by key; recency is a monotone stamp per entry,
/// mirrored in an ordered stamp → key map whose first entry is the
/// least recently used. A hit is one hash lookup, a re-stamp and a
/// reference count on the shared result bytes; an eviction pops the
/// oldest stamp.
#[derive(Debug, Clone)]
pub struct ResultCache {
    capacity: usize,
    /// Key → (recency stamp, result bytes).
    entries: HashMap<String, (u64, Arc<str>)>,
    /// Recency stamp → key, oldest first.
    order: BTreeMap<u64, String>,
    /// The stamp the next touched entry gets.
    next_stamp: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            order: BTreeMap::new(),
            next_stamp: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The eviction bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted to respect the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up a fingerprint, counting the hit or miss and refreshing
    /// the entry's recency on a hit. The bytes come back shared, not
    /// copied.
    pub(crate) fn get_shared(&mut self, key: &str) -> Option<Arc<str>> {
        let Some((stamp, value)) = self.entries.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let owned = self.order.remove(stamp).expect("every entry has a stamp");
        *stamp = self.next_stamp;
        self.order.insert(self.next_stamp, owned);
        self.next_stamp += 1;
        Some(Arc::clone(value))
    }

    /// Looks up a fingerprint like the daemon's lookup does (counting
    /// the hit or miss, refreshing recency on a hit) and copies the
    /// bytes out.
    pub fn get(&mut self, key: &str) -> Option<String> {
        self.get_shared(key).map(|value| value.to_string())
    }

    /// Inserts (or refreshes) an entry as most recently used, evicting
    /// the least recently used entry if the cache is full.
    pub(crate) fn insert_shared(&mut self, key: &str, value: Arc<str>) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                let owned = self
                    .order
                    .remove(&entry.0)
                    .expect("every entry has a stamp");
                self.order.insert(stamp, owned);
                *entry = (stamp, value);
            }
            None => {
                self.entries.insert(key.to_owned(), (stamp, value));
                self.order.insert(stamp, key.to_owned());
            }
        }
        while self.entries.len() > self.capacity {
            let (_, oldest) = self.order.pop_first().expect("a full cache has entries");
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
    }

    /// Inserts (or refreshes) an entry as most recently used, evicting
    /// the least recently used entry if the cache is full.
    pub fn insert(&mut self, key: &str, value: String) {
        self.insert_shared(key, value.into());
    }

    /// The persisted form: version, database fingerprint, entries in
    /// LRU order (oldest first, so a load replays recency exactly).
    pub fn to_json(&self, db_fingerprint: &str) -> Json {
        Json::Obj(vec![
            ("version".to_owned(), Json::Num(CACHE_INDEX_VERSION as f64)),
            ("db".to_owned(), Json::Str(db_fingerprint.to_owned())),
            (
                "entries".to_owned(),
                Json::Arr(
                    self.order
                        .values()
                        .map(|k| {
                            let (_, v) = &self.entries[k];
                            Json::Obj(vec![
                                ("key".to_owned(), Json::Str(k.clone())),
                                ("result".to_owned(), Json::parse(v).unwrap_or(Json::Null)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a cache from a persisted index; `None` when the index
    /// version or the database fingerprint does not match.
    pub fn from_json(json: &Json, capacity: usize, db_fingerprint: &str) -> Option<Self> {
        if json.get("version")?.as_u64()? != CACHE_INDEX_VERSION {
            return None;
        }
        if json.get("db")?.as_str()? != db_fingerprint {
            return None;
        }
        let mut cache = ResultCache::new(capacity);
        for entry in json.get("entries")?.as_arr()? {
            let key = entry.get("key")?.as_str()?;
            let result = entry.get("result")?;
            if matches!(result, Json::Null) {
                continue;
            }
            cache.insert(key, result.to_string_compact());
        }
        cache.evictions = 0;
        Some(cache)
    }

    /// Writes the index atomically (temp file + rename), creating
    /// parent directories as needed.
    pub fn save(&self, path: &Path, db_fingerprint: &str) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json(db_fingerprint).to_string_pretty())?;
        std::fs::rename(&tmp, path)
    }

    /// Loads an index if one exists and matches; `Ok(None)` for a
    /// missing file, an unparsable index, or a version/database
    /// mismatch — all of which mean "start empty", not "fail".
    pub fn load(path: &Path, capacity: usize, db_fingerprint: &str) -> io::Result<Option<Self>> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(Json::parse(&text)
            .ok()
            .and_then(|json| ResultCache::from_json(&json, capacity, db_fingerprint)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(n: u64) -> String {
        Json::Obj(vec![("cycles".to_owned(), Json::Num(n as f64))]).to_string_compact()
    }

    #[test]
    fn counts_hits_and_misses() {
        let mut c = ResultCache::new(4);
        assert_eq!(c.get("a"), None);
        c.insert("a", value(1));
        assert_eq!(c.get("a"), Some(value(1)));
        assert_eq!(c.get("b"), None);
        assert_eq!((c.hits(), c.misses()), (1, 2));
    }

    #[test]
    fn evicts_least_recently_used_at_capacity() {
        let mut c = ResultCache::new(2);
        c.insert("a", value(1));
        c.insert("b", value(2));
        // Touch "a" so "b" is the LRU entry.
        assert!(c.get("a").is_some());
        c.insert("c", value(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.get("b").is_none(), "LRU entry should have been evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
    }

    #[test]
    fn reinsert_refreshes_instead_of_growing() {
        let mut c = ResultCache::new(2);
        c.insert("a", value(1));
        c.insert("b", value(2));
        c.insert("a", value(9));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get("a"), Some(value(9)));
        // "b" became LRU; the next insert evicts it, not "a".
        c.insert("c", value(3));
        assert!(c.get("b").is_none());
    }

    #[test]
    fn index_roundtrips_bytes_and_recency() {
        let mut c = ResultCache::new(3);
        c.insert("a", value(1));
        c.insert("b", value(2));
        c.insert("c", value(3));
        assert!(c.get("a").is_some()); // recency order now b, c, a
        let json = c.to_json("db-fp");
        let mut back = ResultCache::from_json(&json, 3, "db-fp").unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get("b"), Some(value(2)));
        // Recency survived: after touching "b", LRU is "c".
        back.insert("d", value(4));
        assert!(back.get("c").is_none());
        assert_eq!(back.get("a"), Some(value(1)));
    }

    #[test]
    fn index_rejects_version_and_db_mismatch() {
        let mut c = ResultCache::new(2);
        c.insert("a", value(1));
        let json = c.to_json("db-fp");
        assert!(ResultCache::from_json(&json, 2, "other-db").is_none());
        let mut wrong = json.clone();
        wrong.set("version", Json::Num(99.0));
        assert!(ResultCache::from_json(&wrong, 2, "db-fp").is_none());
    }

    #[test]
    fn save_and_load_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join("hierbus_serve_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("cache.index.json");
        let mut c = ResultCache::new(8);
        c.insert("a", value(1));
        c.save(&path, "db-fp").unwrap();
        let mut back = ResultCache::load(&path, 8, "db-fp").unwrap().unwrap();
        assert_eq!(back.get("a"), Some(value(1)));
        assert!(ResultCache::load(&path, 8, "other").unwrap().is_none());
        assert!(ResultCache::load(&dir.join("missing.json"), 8, "db-fp")
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The obvious LRU: a `Vec` oldest-first, scanned and shifted.
    struct NaiveLru {
        capacity: usize,
        entries: Vec<(String, String)>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl NaiveLru {
        fn get(&mut self, key: &str) -> Option<String> {
            match self.entries.iter().position(|(k, _)| k == key) {
                Some(i) => {
                    self.hits += 1;
                    let entry = self.entries.remove(i);
                    let value = entry.1.clone();
                    self.entries.push(entry);
                    Some(value)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: &str, value: String) {
            self.entries.retain(|(k, _)| k != key);
            self.entries.push((key.to_owned(), value));
            while self.entries.len() > self.capacity {
                self.entries.remove(0);
                self.evictions += 1;
            }
        }
    }

    /// The index's `(key, result bytes)` pairs in file order.
    fn index_entries(json: &Json) -> Vec<(String, String)> {
        json.get("entries")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                (
                    e.get("key").and_then(Json::as_str).unwrap().to_owned(),
                    e.get("result").unwrap().to_string_compact(),
                )
            })
            .collect()
    }

    #[test]
    fn matches_a_naive_lru_reference() {
        for capacity in [1usize, 2, 17, 1024] {
            let keys = 3 * capacity as u64;
            // SplitMix64, seeded per capacity.
            let mut state = 0x5eed_0000 + capacity as u64;
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let mut cache = ResultCache::new(capacity);
            let mut reference = NaiveLru {
                capacity,
                entries: Vec::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            };
            for step in 0..10_000u64 {
                let key = format!("k{}", next() % keys);
                if next() % 2 == 0 {
                    assert_eq!(
                        cache.get(&key),
                        reference.get(&key),
                        "capacity {capacity}, step {step}: get({key})"
                    );
                } else {
                    cache.insert(&key, value(step));
                    reference.insert(&key, value(step));
                }
                assert_eq!(
                    (cache.hits(), cache.misses(), cache.evictions()),
                    (reference.hits, reference.misses, reference.evictions),
                    "capacity {capacity}, step {step}: counters"
                );
                assert_eq!(cache.len(), reference.entries.len());
                if step % 100 == 0 {
                    assert_eq!(
                        index_entries(&cache.to_json("db-fp")),
                        reference.entries,
                        "capacity {capacity}, step {step}: index order"
                    );
                }
            }
            assert_eq!(cache.len(), capacity, "the sequence fills the cache");
            let json = cache.to_json("db-fp");
            let back = ResultCache::from_json(&json, capacity, "db-fp").unwrap();
            assert_eq!(back.evictions(), 0);
            assert_eq!(index_entries(&back.to_json("db-fp")), reference.entries);
        }
    }
}
