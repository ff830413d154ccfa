//! Balanced partitions (paper Section 4): partitions of `[n]` into `p`
//! parts "which are balanced, meaning their parts differ in size by at
//! most one". Parts are contiguous ranges; the first `n mod p` parts get
//! the extra element.

use std::ops::Range;

/// Sizes of the `p` parts of a balanced partition of `0..n`.
/// The first `n % p` parts have size `⌈n/p⌉`, the rest `⌊n/p⌋`.
pub fn balanced_sizes(n: usize, p: usize) -> Vec<usize> {
    assert!(p >= 1, "need at least one part");
    let q = n / p;
    let r = n % p;
    (0..p).map(|i| if i < r { q + 1 } else { q }).collect()
}

/// Part `k` of the balanced partition of `0..n` into `p` parts, in
/// closed form: `balanced_ranges(n, p)[k]` without building the list.
pub fn balanced_range(n: usize, p: usize, k: usize) -> Range<usize> {
    assert!(k < p, "part {k} out of range 0..{p}");
    let q = n / p;
    let r = n % p;
    let start = k * q + k.min(r);
    start..start + q + usize::from(k < r)
}

/// The `p` contiguous ranges of a balanced partition of `0..n`.
pub fn balanced_ranges(n: usize, p: usize) -> Vec<Range<usize>> {
    assert!(p >= 1, "need at least one part");
    (0..p).map(|k| balanced_range(n, p, k)).collect()
}

/// Which part of the balanced partition of `0..n` into `p` parts owns
/// index `i`. Inverse of [`balanced_ranges`].
pub fn part_of(i: usize, n: usize, p: usize) -> usize {
    assert!(i < n, "index {i} out of range 0..{n}");
    let q = n / p;
    let r = n % p;
    let boundary = r * (q + 1);
    if i < boundary {
        i / (q + 1)
    } else {
        r + (i - boundary) / q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_sum_and_balance() {
        for n in [0usize, 1, 7, 16, 100] {
            for p in [1usize, 2, 3, 7, 16] {
                let s = balanced_sizes(n, p);
                assert_eq!(s.len(), p);
                assert_eq!(s.iter().sum::<usize>(), n);
                let max = *s.iter().max().unwrap();
                let min = *s.iter().min().unwrap();
                assert!(max - min <= 1, "parts differ by at most one");
            }
        }
    }

    #[test]
    fn ranges_tile_the_interval() {
        let r = balanced_ranges(10, 3);
        assert_eq!(r, vec![0..4, 4..7, 7..10]);
        let r = balanced_ranges(6, 3);
        assert_eq!(r, vec![0..2, 2..4, 4..6]);
        let r = balanced_ranges(2, 4);
        assert_eq!(r, vec![0..1, 1..2, 2..2, 2..2]);
    }

    #[test]
    fn closed_form_range_matches_the_prefix_sums() {
        for n in [0usize, 1, 2, 7, 16, 31, 100] {
            for p in [1usize, 2, 3, 7, 16, 40] {
                let mut start = 0;
                for (k, size) in balanced_sizes(n, p).into_iter().enumerate() {
                    assert_eq!(
                        balanced_range(n, p, k),
                        start..start + size,
                        "n={n} p={p} k={k}"
                    );
                    start += size;
                }
                assert_eq!(start, n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn balanced_range_rejects_a_part_beyond_p() {
        let _ = balanced_range(10, 3, 3);
    }

    #[test]
    fn part_of_inverts_ranges() {
        for n in [1usize, 5, 12, 31] {
            for p in [1usize, 2, 5, 8] {
                let ranges = balanced_ranges(n, p);
                for i in 0..n {
                    let part = part_of(i, n, p);
                    assert!(
                        ranges[part].contains(&i),
                        "i={i} n={n} p={p}: part {part} range {:?}",
                        ranges[part]
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn part_of_out_of_range() {
        let _ = part_of(5, 5, 2);
    }

    #[test]
    fn more_parts_than_elements() {
        let s = balanced_sizes(2, 5);
        assert_eq!(s, vec![1, 1, 0, 0, 0]);
        assert_eq!(part_of(1, 2, 5), 1);
    }
}
