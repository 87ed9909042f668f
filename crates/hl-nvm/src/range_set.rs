//! Sorted, coalescing set of byte ranges.
//!
//! Used to track which byte ranges of an NVM arena are *dirty* — written
//! through a volatile cache (NIC or CPU) but not yet flushed to the
//! durable medium. Ranges are half-open `[start, end)`.

/// A set of non-overlapping, non-adjacent, sorted half-open ranges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if no bytes are covered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of disjoint ranges (after coalescing).
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Total number of bytes covered.
    pub fn covered_bytes(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// Insert `[start, end)`. Zero-length inserts are ignored.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // Find insertion window: all ranges overlapping or adjacent to
        // [start, end) get merged.
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let hi = self.ranges.partition_point(|&(s, _)| s <= end);
        let mut new_start = start;
        let mut new_end = end;
        if lo < hi {
            new_start = new_start.min(self.ranges[lo].0);
            new_end = new_end.max(self.ranges[hi - 1].1);
        }
        self.ranges.splice(lo..hi, [(new_start, new_end)]);
    }

    /// Remove `[start, end)` from the set, splitting ranges as needed.
    /// In place: only the ranges overlapping `[start, end)` are touched,
    /// and the set allocates only if a split outgrows its capacity.
    pub fn remove(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // Overlapping window: ranges ending after `start` and starting
        // before `end`. Only its first range can keep a piece on the
        // left, and only its last a piece on the right.
        let lo = self.ranges.partition_point(|&(_, e)| e <= start);
        let hi = self.ranges.partition_point(|&(s, _)| s < end);
        if lo >= hi {
            return;
        }
        let (first_start, _) = self.ranges[lo];
        let (_, last_end) = self.ranges[hi - 1];
        let left = (first_start < start).then_some((first_start, start));
        let right = (last_end > end).then_some((end, last_end));
        self.ranges.splice(lo..hi, left.into_iter().chain(right));
    }

    /// Does the set intersect `[start, end)`?
    pub fn intersects(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return false;
        }
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        self.ranges.get(i).is_some_and(|&(s, _)| s < end)
    }

    /// Is `[start, end)` fully covered by the set?
    pub fn contains(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        self.ranges
            .get(i)
            .is_some_and(|&(s, e)| s <= start && end <= e)
    }

    /// Intersection of the set with `[start, end)`, as concrete ranges
    /// in ascending order (an iterator: nothing is allocated).
    pub fn intersection(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let lo = self.ranges.partition_point(|&(_, e)| e <= start);
        self.ranges[lo..]
            .iter()
            .take_while(move |&&(s, _)| s < end)
            .map(move |&(s, e)| (s.max(start), e.min(end)))
            .filter(|&(l, h)| l < h)
    }

    /// Iterate all ranges.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().copied()
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        for w in self.ranges.windows(2) {
            assert!(w[0].1 < w[1].0, "ranges must be sorted & non-adjacent");
        }
        for &(s, e) in &self.ranges {
            assert!(s < e, "empty range stored");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_and_coalesce() {
        let mut rs = RangeSet::new();
        rs.insert(10, 20);
        rs.insert(30, 40);
        assert_eq!(rs.len(), 2);
        rs.insert(20, 30); // adjacent on both sides -> coalesce all
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.iter().next(), Some((10, 40)));
        rs.check_invariants();
    }

    #[test]
    fn insert_overlapping() {
        let mut rs = RangeSet::new();
        rs.insert(10, 20);
        rs.insert(15, 25);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(10, 25)]);
        rs.insert(5, 12);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(5, 25)]);
        rs.check_invariants();
    }

    #[test]
    fn remove_splits() {
        let mut rs = RangeSet::new();
        rs.insert(0, 100);
        rs.remove(40, 60);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(0, 40), (60, 100)]);
        assert_eq!(rs.covered_bytes(), 80);
        rs.check_invariants();
    }

    #[test]
    fn remove_edges_and_all() {
        let mut rs = RangeSet::new();
        rs.insert(10, 20);
        rs.remove(0, 15);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(15, 20)]);
        rs.remove(0, 100);
        assert!(rs.is_empty());
    }

    #[test]
    fn queries() {
        let mut rs = RangeSet::new();
        rs.insert(10, 20);
        rs.insert(30, 40);
        assert!(rs.intersects(15, 35));
        assert!(rs.intersects(19, 20));
        assert!(!rs.intersects(20, 30));
        assert!(rs.contains(12, 18));
        assert!(!rs.contains(12, 25));
        assert!(!rs.contains(25, 28));
        assert_eq!(
            rs.intersection(15, 35).collect::<Vec<_>>(),
            vec![(15, 20), (30, 35)]
        );
        assert_eq!(rs.intersection(20, 30).count(), 0);
        assert_eq!(rs.intersection(35, 12).count(), 0);
    }

    #[test]
    fn zero_length_noop() {
        let mut rs = RangeSet::new();
        rs.insert(5, 5);
        assert!(rs.is_empty());
        assert!(!rs.intersects(5, 5));
        assert!(rs.contains(5, 5));
    }

    /// Brute-force model: a bitmap over a small domain.
    fn model_ops(ops: &[(bool, u8, u8)]) {
        const N: usize = 64;
        let mut rs = RangeSet::new();
        let mut bits = [false; N];
        for &(insert, a, b) in ops {
            let (s, e) = ((a as u64) % N as u64, (b as u64) % (N as u64 + 1));
            if insert {
                rs.insert(s, e);
                for i in s..e.min(N as u64) {
                    bits[i as usize] = true;
                }
            } else {
                rs.remove(s, e);
                for i in s..e.min(N as u64) {
                    bits[i as usize] = false;
                }
            }
            rs.check_invariants();
        }
        for i in 0..N as u64 {
            assert_eq!(
                rs.intersects(i, i + 1),
                bits[i as usize],
                "mismatch at byte {i}"
            );
        }
        assert_eq!(
            rs.covered_bytes(),
            bits.iter().filter(|&&b| b).count() as u64
        );
        for (a, b) in [(0, N as u64), (7, 23), (31, 32), (40, 10)] {
            let got: u64 = rs.intersection(a, b).map(|(l, h)| h - l).sum();
            let want = (a..b.max(a)).filter(|&i| bits[i as usize]).count() as u64;
            assert_eq!(got, want, "intersection of [{a}, {b})");
        }
    }

    proptest! {
        #[test]
        fn matches_bitmap_model(ops in proptest::collection::vec(
            (any::<bool>(), any::<u8>(), any::<u8>()), 0..50)) {
            model_ops(&ops);
        }
    }
}
