//! The one cap policy of every per-run record stream (flit trace,
//! ordered commits, transaction spans). A [`Capped`] stream keeps its
//! first `limit` records and counts the rest as dropped; it is handed on
//! as `(kept records, dropped count)`, so a plain slice joins uncapped as
//! `(slice, 0)`. [`merge`] concatenates streams in the caller's order,
//! stable-sorts them by the caller's key (ties keep stream order, then
//! push order) and keeps the first `limit`, adding the overflow to the
//! dropped count; [`totals`] gives the same `(kept, dropped)` without
//! building the list. When every stream is in key order the merge is an
//! *exact prefix* of the merged uncapped streams: a record a stream
//! dropped sorts after the `limit` records it kept.
//!
//! ```
//! use scorpio_sim::capped::{self, Capped};
//!
//! let mut a = Capped::new(2);
//! [1, 4, 6].into_iter().for_each(|t| a.push(t)); // keeps 1, 4; drops 6
//! let streams = [a.stream(), (&[2, 3][..], 0)];
//! assert_eq!(capped::merge(streams, 3, |&t| t), (vec![1, 2, 3], 2));
//! assert_eq!(capped::totals(streams, 3), (3, 2));
//! ```

/// A record stream that keeps its first `limit` records and counts the
/// rest as dropped.
#[derive(Debug, Clone)]
pub struct Capped<T> {
    records: Vec<T>,
    limit: usize,
    dropped: u64,
}

impl<T> Capped<T> {
    /// An empty stream keeping at most `limit` records.
    pub fn new(limit: usize) -> Capped<T> {
        Capped {
            records: Vec::new(),
            limit,
            dropped: 0,
        }
    }

    /// Keeps `record`, or counts it as dropped once `limit` are kept.
    #[inline]
    pub fn push(&mut self, record: T) {
        if self.records.len() < self.limit {
            self.records.push(record);
        } else {
            self.dropped += 1;
        }
    }

    /// The kept records in push order, and the count dropped.
    pub fn stream(&self) -> (&[T], u64) {
        (&self.records, self.dropped)
    }

    /// Empties the stream: nothing kept, nothing dropped.
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
    }
}

/// The `(kept, dropped)` counts [`merge`] returns, from lengths alone.
pub fn totals<'a, T: 'a>(
    streams: impl IntoIterator<Item = (&'a [T], u64)>,
    limit: usize,
) -> (usize, u64) {
    let (kept, dropped) = streams
        .into_iter()
        .fold((0, 0), |(k, d), (records, dropped)| {
            (k + records.len(), d + dropped)
        });
    let merged = kept.min(limit);
    (merged, dropped + (kept - merged) as u64)
}

/// The first `limit` records of `streams` in stable `key` order, and the
/// number dropped by the streams' caps and by this one.
pub fn merge<'a, T, K, S>(streams: S, limit: usize, key: impl FnMut(&T) -> K) -> (Vec<T>, u64)
where
    T: Clone + 'a,
    K: Ord,
    S: IntoIterator<Item = (&'a [T], u64)> + Clone,
{
    let (kept, dropped) = totals(streams.clone(), limit);
    let mut all: Vec<T> = Vec::new();
    for (records, _) in streams {
        all.extend_from_slice(records);
    }
    all.sort_by_key(key);
    all.truncate(kept);
    (all, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn push_keeps_the_first_limit_and_counts_the_rest() {
        let mut s = Capped::new(3);
        (0..5).for_each(|i| s.push(i));
        assert_eq!(s.stream(), (&[0, 1, 2][..], 2));
        s.clear();
        assert_eq!(s.stream(), (&[][..], 0));
        let mut off: Capped<u8> = Capped::new(0);
        off.push(1);
        assert_eq!(off.stream(), (&[][..], 1));
    }

    /// Seeded streams of `(key, stream, position)` records, each in key
    /// order with many key ties inside and across streams, capped per
    /// stream and merged, against the oracle: sort every record of the
    /// uncapped streams by key (stream order, then push order, on ties)
    /// and keep the first `limit`.
    #[test]
    fn merge_is_the_exact_prefix_of_the_uncapped_merge() {
        let mut rng = SimRng::seed_from(0x5eed);
        for _ in 0..200 {
            let count = 1 + rng.gen_range_usize(5);
            let limit = rng.gen_range_usize(40);
            let uncapped: Vec<Vec<(u64, usize, usize)>> = (0..count)
                .map(|s| {
                    let mut key = 0;
                    (0..rng.gen_range_usize(30))
                        .map(|i| {
                            key += rng.gen_range_u64(3);
                            (key, s, i)
                        })
                        .collect()
                })
                .collect();
            let capped: Vec<Capped<(u64, usize, usize)>> = uncapped
                .iter()
                .map(|records| {
                    let mut c = Capped::new(limit);
                    records.iter().for_each(|&r| c.push(r));
                    c
                })
                .collect();
            let mut all: Vec<_> = uncapped.concat();
            all.sort();
            let oracle = &all[..limit.min(all.len())];
            let streams = capped.iter().map(Capped::stream);
            let (merged, dropped) = merge(streams.clone(), limit, |r| r.0);
            assert_eq!(merged, oracle);
            assert_eq!(dropped, (all.len() - oracle.len()) as u64);
            assert_eq!(totals(streams, limit), (merged.len(), dropped));
        }
    }
}
