#pragma once
/// \file select.hpp
/// \brief Sequential selection algorithms (CLRS [5], cited by the paper).
///
/// `quickselect` is the randomized selection algorithm whose distributed
/// analogue is the paper's Algorithm 1; `mom_select` is the deterministic
/// worst-case-linear median-of-medians algorithm.  Both are ground truth
/// for the distributed implementations and baselines in their own right.

#include <algorithm>
#include <span>
#include <vector>

#include "rng/rng.hpp"
#include "support/panic.hpp"

namespace dknn {

namespace detail {

/// Three-way partition of [lo, hi) around the value at pivot_index.
/// Returns [eq_begin, eq_end): the final positions of elements == pivot.
template <typename T>
std::pair<std::size_t, std::size_t> partition3(std::vector<T>& a, std::size_t lo, std::size_t hi,
                                               std::size_t pivot_index) {
  const T pivot = a[pivot_index];
  std::size_t lt = lo, i = lo, gt = hi;
  while (i < gt) {
    if (a[i] < pivot) {
      std::swap(a[i], a[lt]);
      ++lt;
      ++i;
    } else if (pivot < a[i]) {
      --gt;
      std::swap(a[i], a[gt]);
    } else {
      ++i;
    }
  }
  return {lt, gt};
}

template <typename T>
T mom_select_impl(std::vector<T>& a, std::size_t lo, std::size_t hi, std::size_t rank);

/// Median-of-medians pivot: median of the ⌈n/5⌉ group medians.
template <typename T>
std::size_t mom_pivot_index(std::vector<T>& a, std::size_t lo, std::size_t hi) {
  const std::size_t n = hi - lo;
  if (n <= 5) {
    std::sort(a.begin() + static_cast<std::ptrdiff_t>(lo),
              a.begin() + static_cast<std::ptrdiff_t>(hi));
    return lo + n / 2;
  }
  // Move group medians to the front of the range.
  std::size_t write = lo;
  for (std::size_t group = lo; group < hi; group += 5) {
    const std::size_t group_end = std::min(group + 5, hi);
    std::sort(a.begin() + static_cast<std::ptrdiff_t>(group),
              a.begin() + static_cast<std::ptrdiff_t>(group_end));
    const std::size_t median = group + (group_end - group) / 2;
    std::swap(a[write], a[median]);
    ++write;
  }
  // Recursively select the median of the medians; find its index.
  std::vector<T> medians(a.begin() + static_cast<std::ptrdiff_t>(lo),
                         a.begin() + static_cast<std::ptrdiff_t>(write));
  const std::size_t m = medians.size();
  const T pivot_value = mom_select_impl(medians, 0, m, m / 2);
  for (std::size_t i = lo; i < write; ++i) {
    if (!(a[i] < pivot_value) && !(pivot_value < a[i])) return i;
  }
  panic("median-of-medians pivot not found");
}

template <typename T>
T mom_select_impl(std::vector<T>& a, std::size_t lo, std::size_t hi, std::size_t rank) {
  while (true) {
    DKNN_ASSERT(lo < hi && rank < hi - lo, "mom_select: rank out of range");
    if (hi - lo == 1) return a[lo];
    const std::size_t pivot_index = mom_pivot_index(a, lo, hi);
    const auto [eq_begin, eq_end] = partition3(a, lo, hi, pivot_index);
    const std::size_t below = eq_begin - lo;
    const std::size_t equal = eq_end - eq_begin;
    if (rank < below) {
      hi = eq_begin;
    } else if (rank < below + equal) {
      return a[eq_begin];
    } else {
      rank -= below + equal;
      lo = eq_end;
    }
  }
}

}  // namespace detail

/// The `rank`-th smallest element (0-based) by randomized quickselect.
/// Expected O(n); the vector is consumed as scratch.
template <typename T>
[[nodiscard]] T quickselect(std::vector<T> a, std::size_t rank, Rng& rng) {
  DKNN_REQUIRE(rank < a.size(), "quickselect: rank out of range");
  std::size_t lo = 0, hi = a.size();
  while (true) {
    if (hi - lo == 1) return a[lo];
    const std::size_t pivot_index = lo + static_cast<std::size_t>(rng.below(hi - lo));
    const auto [eq_begin, eq_end] = detail::partition3(a, lo, hi, pivot_index);
    const std::size_t below = eq_begin - lo;
    const std::size_t equal = eq_end - eq_begin;
    if (rank < below) {
      hi = eq_begin;
    } else if (rank < below + equal) {
      return a[eq_begin];
    } else {
      rank -= below + equal;
      lo = eq_end;
    }
  }
}

/// The `rank`-th smallest element (0-based) by deterministic
/// median-of-medians; worst-case O(n). The vector is consumed as scratch.
template <typename T>
[[nodiscard]] T mom_select(std::vector<T> a, std::size_t rank) {
  DKNN_REQUIRE(rank < a.size(), "mom_select: rank out of range");
  return detail::mom_select_impl(a, 0, a.size(), rank);
}

/// The `ell` smallest elements in ascending order (ell == 0 gives empty).
/// Bounded max-heap: O(n log ell) time, O(ell) space — this is each
/// machine's local pruning step in Algorithm 2 and the simple baseline.
/// Input that already is the answer (at most `ell` items, ascending: the
/// fused kernels' per-machine lists) is copied after one O(n) check.
template <typename T>
[[nodiscard]] std::vector<T> top_ell_smallest(std::span<const T> items, std::size_t ell) {
  if (ell == 0) return {};
  if (items.size() <= ell && std::is_sorted(items.begin(), items.end())) {
    return std::vector<T>(items.begin(), items.end());
  }
  std::vector<T> heap;  // max-heap of the current ell smallest
  heap.reserve(std::min(ell, items.size()));
  for (const T& item : items) {
    if (heap.size() < ell) {
      heap.push_back(item);
      std::push_heap(heap.begin(), heap.end());
    } else if (item < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = item;
      std::push_heap(heap.begin(), heap.end());
    }
  }
  std::sort_heap(heap.begin(), heap.end());
  return heap;
}

}  // namespace dknn
