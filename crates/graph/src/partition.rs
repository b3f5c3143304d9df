//! Work partitioning: contiguous range splitting and LPT bin packing, for
//! the multi-GPU cluster simulation, the serve router and the CPU baseline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Splits `0..total` into `parts` contiguous ranges whose lengths differ by
/// at most one. Returns exactly `parts` ranges (some possibly empty when
/// `total < parts`).
pub fn even_ranges(total: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0, "parts must be positive");
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Longest-processing-time-first assignment: greedily gives each item
/// (in descending weight order) to the currently lightest bin. Returns the
/// bin index for each item, preserving the input order of `weights`.
/// This is how the cluster simulation balances BFS groups across devices.
///
/// The lightest bin is popped from a min-heap keyed on `(load, bin index)`,
/// so each placement is O(log bins) instead of a rescan of every bin, and
/// ties on load still go to the lowest bin index — the exact assignment the
/// historical linear scan produced.
pub fn lpt_assign(weights: &[u64], bins: usize) -> Vec<usize> {
    assert!(bins > 0, "bins must be positive");
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_unstable_by_key(|&i| std::cmp::Reverse(weights[i]));
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..bins).map(|b| Reverse((0u64, b))).collect();
    let mut assignment = vec![0usize; weights.len()];
    for i in order {
        let Reverse((load, bin)) = heap.pop().unwrap();
        assignment[i] = bin;
        heap.push(Reverse((load + weights[i], bin)));
    }
    assignment
}

/// The per-bin total weights implied by an assignment.
pub fn bin_loads(weights: &[u64], assignment: &[usize], bins: usize) -> Vec<u64> {
    let mut load = vec![0u64; bins];
    for (i, &b) in assignment.iter().enumerate() {
        load[b] += weights[i];
    }
    load
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfs_util::prop::Prop;

    #[test]
    fn even_ranges_cover_everything_exactly_once() {
        for total in [0usize, 1, 7, 100] {
            for parts in [1usize, 3, 8] {
                let rs = even_ranges(total, parts);
                assert_eq!(rs.len(), parts);
                let mut covered = 0;
                let mut expected_start = 0;
                for r in &rs {
                    assert_eq!(r.start, expected_start);
                    expected_start = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, total);
                let lens: Vec<usize> = rs.iter().map(|r| r.len()).collect();
                let max = lens.iter().max().unwrap();
                let min = lens.iter().min().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn lpt_balances_better_than_worst_case() {
        let weights = vec![10, 9, 8, 7, 6, 5, 4, 3, 2, 1];
        let a = lpt_assign(&weights, 3);
        let loads = bin_loads(&weights, &a, 3);
        let total: u64 = weights.iter().sum();
        let max = *loads.iter().max().unwrap();
        // LPT guarantees makespan <= 4/3 OPT; OPT >= total/bins = 18.33.
        assert!(max <= 25, "makespan {max}");
        assert_eq!(loads.iter().sum::<u64>(), total);
    }

    #[test]
    fn lpt_single_bin_takes_all() {
        let weights = vec![3, 1, 4];
        let a = lpt_assign(&weights, 1);
        assert_eq!(a, vec![0, 0, 0]);
    }

    #[test]
    fn lpt_more_bins_than_items() {
        let weights = vec![5, 2];
        let a = lpt_assign(&weights, 4);
        let loads = bin_loads(&weights, &a, 4);
        assert_eq!(loads.iter().filter(|&&l| l > 0).count(), 2);
    }

    /// Reference implementation of the historical linear-scan LPT, kept to
    /// pin the heap version to the exact same assignments (lowest bin index
    /// wins load ties).
    fn lpt_assign_scan(weights: &[u64], bins: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(weights[i]));
        let mut load = vec![0u64; bins];
        let mut assignment = vec![0usize; weights.len()];
        for i in order {
            let bin = (0..bins).min_by_key(|&b| load[b]).unwrap();
            load[bin] += weights[i];
            assignment[i] = bin;
        }
        assignment
    }

    #[test]
    fn lpt_heap_matches_linear_scan_tie_breaks() {
        Prop::new("lpt_heap_matches_linear_scan").cases(128).run(|rng| {
            let n = rng.gen_range(0..40u64) as usize;
            let bins = rng.gen_range(1..9u64) as usize;
            // Small weight range forces frequent load ties.
            let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(0..4u64)).collect();
            assert_eq!(lpt_assign(&weights, bins), lpt_assign_scan(&weights, bins));
        });
    }

    #[test]
    #[should_panic(expected = "parts must be positive")]
    fn even_ranges_rejects_zero_parts() {
        even_ranges(10, 0);
    }
}
