//! Memos of a pure function of a `(u32, u32)` key, shared by every thread
//! and every net whose rate closures compute that function.
//!
//! A [`PairMemo`] holds one function's values. Lookups take no lock and
//! hash with one multiplication: the table is an open-addressing array of
//! atomic (key, value) slots. Only an insert takes the lock. A full table
//! is never resized in place; it is copied into one twice as large, and the
//! old one stays readable until the memo is dropped, so a reader that
//! loaded it just before the swap still sees a consistent (if smaller) set.
//! Memory grows with the keys actually inserted: at most half of the newest
//! table's slots are used, and all older tables together are smaller than
//! the newest.
//!
//! A [`MemoTable`] hands out one `Arc<PairMemo>` per function key, so nets
//! built for the same function start with warm values. Its lock is taken
//! once per memo handed out, never per lookup. **Memory bound:** a table
//! keeps at most [`TABLE_CAPACITY`] (16) memos and drops the oldest first;
//! a holder of a dropped memo's `Arc` keeps using it, and the memo is freed
//! with its last holder. The table is a `Vec` scanned in insertion order,
//! so eviction is deterministic.
//!
//! Results are deterministic because the memoized function is pure: a
//! lookup that misses (or races an insert of the same key) computes the
//! very value the memo would have returned.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Key bits of an empty slot. The pair `(u32::MAX, u32::MAX)` encodes to
/// it as well, so that one key is computed on every call, never stored.
const EMPTY: u64 = u64::MAX;
/// Slots in the first table, as a power of two.
const FIRST_BITS: u32 = 6;
/// Number of table sizes: 2^6 … 2^37 slots, far above the `(good, bad)`
/// vote splits of any valid configuration (`node_count ≤ 100 000`).
const GENERATIONS: usize = 32;

struct Slot {
    key: AtomicU64,
    value: AtomicU64,
}

/// One table: a power-of-two slot array.
type Table = Box<[Slot]>;

fn new_table(bits: u32) -> Table {
    (0..1usize << bits)
        .map(|_| Slot {
            key: AtomicU64::new(EMPTY),
            value: AtomicU64::new(0),
        })
        .collect()
}

/// Home slot of `key` in a table of `len` slots (Fibonacci hashing).
fn home(key: u64, len: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - len.trailing_zeros())) as usize
}

/// The value stored for `key`, if `table` holds it. Probing stops at the
/// first empty slot; a table is never more than half full, so one exists.
fn find(table: &[Slot], key: u64) -> Option<f64> {
    let mask = table.len() - 1;
    let mut i = home(key, table.len());
    loop {
        // Acquire pairs with the Release store in `place`: a visible key
        // implies its value is visible too.
        match table[i].key.load(Ordering::Acquire) {
            k if k == key => return Some(f64::from_bits(table[i].value.load(Ordering::Relaxed))),
            EMPTY => return None,
            _ => i = (i + 1) & mask,
        }
    }
}

/// Store `(key, value)` in the first empty slot of its probe sequence.
/// Callers hold the insert lock and have checked that `key` is absent.
fn place(table: &[Slot], key: u64, value: u64) {
    let mask = table.len() - 1;
    let mut i = home(key, table.len());
    while table[i].key.load(Ordering::Relaxed) != EMPTY {
        i = (i + 1) & mask;
    }
    table[i].value.store(value, Ordering::Relaxed);
    table[i].key.store(key, Ordering::Release);
}

/// Memo of a pure `(u32, u32) → f64` function; see the module docs.
pub(crate) struct PairMemo {
    /// Table generation `g` has `2^(FIRST_BITS + g)` slots; only the
    /// newest receives inserts, older ones are kept for in-flight readers.
    tables: [OnceLock<Table>; GENERATIONS],
    /// Index of the newest table. Every stored pair is in it.
    newest: AtomicUsize,
    /// Pairs in the newest table; the lock every insert holds.
    len: Mutex<usize>,
}

impl PairMemo {
    pub(crate) fn new() -> Self {
        let tables: [OnceLock<Table>; GENERATIONS] = std::array::from_fn(|_| OnceLock::new());
        tables[0].get_or_init(|| new_table(FIRST_BITS));
        Self {
            tables,
            newest: AtomicUsize::new(0),
            len: Mutex::new(0),
        }
    }

    /// `f()` for `key`, computed at most once per key while the memo has
    /// room (concurrent first calls may each compute it).
    pub(crate) fn get_or_insert_with(&self, key: (u32, u32), f: impl FnOnce() -> f64) -> f64 {
        let key = (u64::from(key.0) << 32) | u64::from(key.1);
        if key == EMPTY {
            return f();
        }
        if let Some(v) = find(self.table(self.newest.load(Ordering::Acquire)), key) {
            return v;
        }
        let value = f();
        self.insert(key, value);
        value
    }

    fn table(&self, generation: usize) -> &[Slot] {
        self.tables[generation]
            .get()
            .expect("the newest table generation is always initialised")
    }

    fn insert(&self, key: u64, value: f64) {
        // The lock guards no invariant a panic could break: slots are
        // written with single atomic stores.
        let mut len = self.len.lock().unwrap_or_else(PoisonError::into_inner);
        // Only the lock holder stores `newest` and slot keys, so inside the
        // lock Relaxed loads see the latest values.
        let mut generation = self.newest.load(Ordering::Relaxed);
        let mut table = self.table(generation);
        if find(table, key).is_some() {
            return;
        }
        if 2 * (*len + 1) > table.len() {
            if generation + 1 == GENERATIONS {
                // Out of table sizes: keep computing, stop storing.
                return;
            }
            let bigger = new_table(FIRST_BITS + generation as u32 + 1);
            for slot in table.iter() {
                let k = slot.key.load(Ordering::Relaxed);
                if k != EMPTY {
                    place(&bigger, k, slot.value.load(Ordering::Relaxed));
                }
            }
            generation += 1;
            table = self.tables[generation].get_or_init(|| bigger);
            // Publish the filled table: Release pairs with the Acquire
            // load in `get_or_insert_with`.
            self.newest.store(generation, Ordering::Release);
        }
        place(table, key, value.to_bits());
        *len += 1;
    }
}

/// Memos a [`MemoTable`] keeps before it drops the oldest.
pub(crate) const TABLE_CAPACITY: usize = 16;

/// Up to [`TABLE_CAPACITY`] memos, one per function key `K`; see the
/// module docs.
pub(crate) struct MemoTable<K> {
    /// (key, memo) pairs, oldest first.
    memos: Mutex<Vec<(K, Arc<PairMemo>)>>,
}

impl<K: PartialEq> MemoTable<K> {
    pub(crate) const fn new() -> Self {
        Self {
            memos: Mutex::new(Vec::new()),
        }
    }

    /// The memo of `key`'s function: the kept one, or a new empty one
    /// that replaces the oldest when the table is full.
    pub(crate) fn get(&self, key: K) -> Arc<PairMemo> {
        // A panic cannot break the table: pairs are pushed and removed
        // whole, so a poisoned lock is recovered.
        let mut memos = self.memos.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, memo)) = memos.iter().find(|(k, _)| *k == key) {
            return Arc::clone(memo);
        }
        if memos.len() == TABLE_CAPACITY {
            memos.remove(0);
        }
        let memo = Arc::new(PairMemo::new());
        memos.push((key, Arc::clone(&memo)));
        memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn f(a: u32, b: u32) -> f64 {
        (f64::from(a) + 0.5).ln() * f64::from(b).sqrt()
    }

    #[test]
    fn computes_each_key_once_across_growth() {
        let memo = PairMemo::new();
        let calls = AtomicUsize::new(0);
        let keys: Vec<(u32, u32)> = (0..300u32).flat_map(|a| [(a, 7), (7, a)]).collect();
        for _ in 0..3 {
            for &(a, b) in &keys {
                let v = memo.get_or_insert_with((a, b), || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    f(a, b)
                });
                assert_eq!(v.to_bits(), f(a, b).to_bits());
            }
        }
        // (7, 7) occurs twice in `keys`; every distinct pair is computed
        // once although 599 pairs outgrow the 64-slot first table.
        assert_eq!(calls.load(Ordering::Relaxed), 599);
        assert!(memo.newest.load(Ordering::Relaxed) >= 4);
    }

    #[test]
    fn concurrent_lookups_return_the_function_value() {
        // Four threads start together on overlapping keys, so lookups race
        // inserts and table growth.
        let memo = PairMemo::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let (memo, start) = (&memo, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..2000u32 {
                        let (a, b) = ((round * 7 + t) % 97, round % 31);
                        let v = memo.get_or_insert_with((a, b), || f(a, b));
                        assert_eq!(v.to_bits(), f(a, b).to_bits());
                    }
                });
            }
        });
    }

    #[test]
    fn the_empty_key_is_computed_not_stored() {
        let memo = PairMemo::new();
        let calls = AtomicUsize::new(0);
        for _ in 0..2 {
            let v = memo.get_or_insert_with((u32::MAX, u32::MAX), || {
                calls.fetch_add(1, Ordering::Relaxed);
                1.5
            });
            assert_eq!(v, 1.5);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }
}
