// Byte-precise interprocedural access-interval analysis — the precision step
// the paper names as future work (§VI): instead of classifying a kernel
// pointer argument only as read/write (access_analysis.hpp), this second
// pass bounds WHICH byte sub-ranges of the pointed-to allocation each
// parameter may touch. The domain is a small set of half-open byte intervals
// with an explicit ⊤ ("whole allocation") element; offsets propagate through
// GEP arithmetic on known index ranges, phi nodes (loop back-edges widen
// non-converging bounds to ⊤) and nested/recursive calls by composing callee
// summaries with the caller's offset base. The fixpoint itself is the shared
// dataflow engine (dataflow.hpp); interval_analysis.cpp holds the lattice.
// ⊤ reproduces the paper's whole-range behaviour exactly, so the result is a
// strict refinement: consumers fall back to the whole TypeART allocation
// whenever a summary is ⊤.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "kir/ir.hpp"

namespace kir {

/// Half-open byte interval [lo, hi); empty when hi <= lo.
struct Interval {
  std::int64_t lo{0};
  std::int64_t hi{0};

  [[nodiscard]] constexpr bool empty() const { return hi <= lo; }
  [[nodiscard]] constexpr std::int64_t length() const { return empty() ? 0 : hi - lo; }

  friend constexpr bool operator==(Interval, Interval) = default;
};

/// Lattice element: a normalized (sorted, disjoint, coalesced) set of byte
/// intervals, with bottom = {} and an explicit ⊤ = "whole allocation".
/// Sets are capped at kMaxIntervals entries; inserting beyond the cap
/// coalesces the closest pair, so precision degrades gracefully instead of
/// growing unboundedly.
class IntervalSet {
 public:
  static constexpr std::size_t kMaxIntervals = 4;

  [[nodiscard]] static IntervalSet top() {
    IntervalSet set;
    set.top_ = true;
    return set;
  }
  [[nodiscard]] static IntervalSet bottom() { return IntervalSet{}; }
  [[nodiscard]] static IntervalSet of(Interval iv) {
    IntervalSet set;
    set.insert(iv);
    return set;
  }

  [[nodiscard]] bool is_top() const { return top_; }
  [[nodiscard]] bool is_empty() const { return !top_ && intervals_.empty(); }
  /// True when the set carries a usable bound (neither bottom nor ⊤).
  [[nodiscard]] bool is_bounded() const { return !top_ && !intervals_.empty(); }
  [[nodiscard]] const std::vector<Interval>& intervals() const { return intervals_; }

  /// Union with a single interval.
  void insert(Interval iv);
  /// Lattice join; returns true iff this set changed.
  bool merge(const IntervalSet& other);
  void widen_to_top() {
    top_ = true;
    intervals_.clear();
  }

  /// Minkowski sum with the inclusive offset range [lo, hi]: every interval
  /// [a, b) becomes [a + lo, b + hi). ⊤ stays ⊤; overflow widens to ⊤, as
  /// does exceeding kMaxIntervals after the sum (counted by widened_by_cap).
  [[nodiscard]] IntervalSet shifted(std::int64_t lo, std::int64_t hi) const;

  /// Build a set from raw (unsorted, possibly overlapping) intervals under
  /// the cap policy: sort + coalesce, and if more than kMaxIntervals disjoint
  /// intervals remain, the result is ⊤ and widened_by_cap() ticks — instead
  /// of silently coalescing precision away. Minkowski sums and affine-term
  /// resolution (affine_analysis.hpp) construct their results through this.
  [[nodiscard]] static IntervalSet from_raw_capped(std::vector<Interval> raw);

  /// ⊤ produced by the cap policy: ticks widened_by_cap(). For consumers
  /// (affine-term resolution) whose faithful result would exceed the cap
  /// without materializing every interval first.
  [[nodiscard]] static IntervalSet capped_top();

  /// Process-wide count of sets widened to ⊤ by the kMaxIntervals cap
  /// (precision telemetry; tests reset between cases).
  [[nodiscard]] static std::uint64_t widened_by_cap();
  static void reset_widened_by_cap();

  /// Total bytes covered (0 for bottom; meaningless for ⊤ — check is_top()).
  [[nodiscard]] std::int64_t byte_count() const;

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

 private:
  void normalize();

  bool top_{false};
  std::vector<Interval> intervals_;  ///< sorted by lo, pairwise disjoint
};

/// Rendered as "*" (⊤), "{}" (bottom) or "[0,8)u[16,24)".
[[nodiscard]] std::string to_string(const IntervalSet& set);

/// True when the two byte sets share at least one byte. ⊤ overlaps anything
/// non-empty — the conservative answer theorem 1's side condition S2
/// (disjoint resolved byte sets, affine_analysis.hpp) needs.
[[nodiscard]] bool overlaps(const IntervalSet& a, const IntervalSet& b);

/// Per-parameter summary: which byte offsets (relative to the pointer value
/// passed for the parameter) the function may read / write.
struct ParamIntervals {
  IntervalSet read;
  IntervalSet write;
};

class IntervalAnalysis {
 public:
  /// Runs the interprocedural fixpoint over the whole module.
  explicit IntervalAnalysis(const Module& module);

  /// Per-parameter access intervals for `fn` (indexed by parameter position;
  /// non-pointer parameters always carry bottom sets).
  [[nodiscard]] std::span<const ParamIntervals> intervals(const Function* fn) const;

  /// Summary for one parameter; nullptr for unknown functions/indices.
  [[nodiscard]] const ParamIntervals* param(const Function* fn, std::uint32_t param) const;

  /// Number of interprocedural fixpoint iterations (exposed for tests).
  [[nodiscard]] std::uint32_t iterations() const { return iterations_; }

 private:
  std::unordered_map<const Function*, std::vector<ParamIntervals>> summaries_;
  std::uint32_t iterations_{0};
};

}  // namespace kir
