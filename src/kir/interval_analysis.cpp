#include "kir/interval_analysis.hpp"

#include <algorithm>
#include <atomic>

#include "common/format.hpp"
#include "kir/dataflow.hpp"

namespace kir {
namespace {

using dataflow::add_overflows;
using dataflow::mul_overflows;

/// The byte-interval lattice for the dataflow engine: scalars are inclusive
/// value ranges, offsets and accessed bytes are IntervalSets.
struct IntervalDomain {
  /// Inclusive scalar value range for integer-valued instructions.
  struct Scalar {
    std::int64_t lo{0};
    std::int64_t hi{0};
    bool known{false};

    friend bool operator==(const Scalar&, const Scalar&) = default;
  };
  using Set = IntervalSet;
  using Summary = ParamIntervals;

  // A thread index is, for value-range purposes, just a scalar bounded by the
  // launch bounds — so every interval summary is at least as precise as with
  // bounded(); only the affine analysis additionally exploits that distinct
  // threads hold distinct values.
  static Scalar leaf(const Instr& instr) {
    return instr.has_range() ? Scalar{instr.imm_lo, instr.imm_hi, true} : Scalar{};
  }

  static Scalar join(const Scalar& a, const Scalar& b) {
    if (!a.known || !b.known) {
      return Scalar{};
    }
    return Scalar{std::min(a.lo, b.lo), std::max(a.hi, b.hi), true};
  }

  static Set origin() { return IntervalSet::of(Interval{0, 1}); }

  static Set shift(const Set& base, const Scalar& index, std::int64_t elem) {
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    if (mul_overflows(index.lo, elem, &lo) || mul_overflows(index.hi, elem, &hi)) {
      return IntervalSet::top();
    }
    return base.shifted(lo, hi);
  }

  /// Minkowski-compose pointer-start offsets with byte intervals relative to
  /// those starts: start interval [a, b) (possible start offsets a..b-1) x
  /// byte interval [c, d) -> accessed bytes [a+c, b+d-1).
  static Set compose(const Set& starts, const Set& bytes) {
    IntervalSet out;
    for (const Interval& s : starts.intervals()) {
      for (const Interval& b : bytes.intervals()) {
        std::int64_t lo = 0;
        std::int64_t hi_base = 0;
        std::int64_t hi = 0;
        if (add_overflows(s.lo, b.lo, &lo) || add_overflows(s.hi, b.hi, &hi_base) ||
            add_overflows(hi_base, -1, &hi)) {
          return IntervalSet::top();
        }
        out.insert(Interval{lo, hi});
      }
    }
    return out;
  }

  static Set window(const Set& starts, std::uint32_t width) {
    return compose(starts, IntervalSet::of(Interval{0, static_cast<std::int64_t>(width)}));
  }
};

}  // namespace

// -- IntervalSet -----------------------------------------------------------------

void IntervalSet::insert(Interval iv) {
  if (top_ || iv.empty()) {
    return;
  }
  intervals_.push_back(iv);
  normalize();
}

bool IntervalSet::merge(const IntervalSet& other) {
  if (top_) {
    return false;
  }
  if (other.top_) {
    widen_to_top();
    return true;
  }
  const auto before = intervals_;
  for (const Interval& iv : other.intervals_) {
    intervals_.push_back(iv);
  }
  normalize();
  return intervals_ != before;
}

void IntervalSet::normalize() {
  std::sort(intervals_.begin(), intervals_.end(),
            [](Interval a, Interval b) { return a.lo < b.lo || (a.lo == b.lo && a.hi < b.hi); });
  // Coalesce overlapping/adjacent intervals.
  std::vector<Interval> merged;
  for (const Interval& iv : intervals_) {
    if (iv.empty()) {
      continue;
    }
    if (!merged.empty() && iv.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, iv.hi);
    } else {
      merged.push_back(iv);
    }
  }
  // Bounded precision: fuse the closest pair until within the cap.
  while (merged.size() > kMaxIntervals) {
    std::size_t best = 0;
    std::int64_t best_gap = merged[1].lo - merged[0].hi;
    for (std::size_t i = 1; i + 1 < merged.size(); ++i) {
      const std::int64_t gap = merged[i + 1].lo - merged[i].hi;
      if (gap < best_gap) {
        best_gap = gap;
        best = i;
      }
    }
    merged[best].hi = merged[best + 1].hi;
    merged.erase(merged.begin() + static_cast<std::ptrdiff_t>(best) + 1);
  }
  intervals_ = std::move(merged);
}

namespace {
std::atomic<std::uint64_t> widened_by_cap_count{0};
}  // namespace

IntervalSet IntervalSet::from_raw_capped(std::vector<Interval> raw) {
  std::sort(raw.begin(), raw.end(),
            [](Interval a, Interval b) { return a.lo < b.lo || (a.lo == b.lo && a.hi < b.hi); });
  std::vector<Interval> merged;
  for (const Interval& iv : raw) {
    if (iv.empty()) {
      continue;
    }
    if (!merged.empty() && iv.lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, iv.hi);
    } else {
      merged.push_back(iv);
    }
  }
  if (merged.size() > kMaxIntervals) {
    widened_by_cap_count.fetch_add(1, std::memory_order_relaxed);
    return top();
  }
  IntervalSet out;
  out.intervals_ = std::move(merged);
  return out;
}

IntervalSet IntervalSet::capped_top() {
  widened_by_cap_count.fetch_add(1, std::memory_order_relaxed);
  return top();
}

std::uint64_t IntervalSet::widened_by_cap() {
  return widened_by_cap_count.load(std::memory_order_relaxed);
}

void IntervalSet::reset_widened_by_cap() {
  widened_by_cap_count.store(0, std::memory_order_relaxed);
}

IntervalSet IntervalSet::shifted(std::int64_t lo, std::int64_t hi) const {
  if (top_) {
    return top();
  }
  std::vector<Interval> moved;
  moved.reserve(intervals_.size());
  for (const Interval& iv : intervals_) {
    Interval m;
    if (add_overflows(iv.lo, lo, &m.lo) || add_overflows(iv.hi, hi, &m.hi)) {
      return top();
    }
    moved.push_back(m);
  }
  return from_raw_capped(std::move(moved));
}

std::int64_t IntervalSet::byte_count() const {
  std::int64_t total = 0;
  for (const Interval& iv : intervals_) {
    total += iv.length();
  }
  return total;
}

bool overlaps(const IntervalSet& a, const IntervalSet& b) {
  if (a.is_empty() || b.is_empty()) {
    return false;
  }
  if (a.is_top() || b.is_top()) {
    return true;
  }
  // Both sorted and disjoint: a linear sweep finds any shared byte.
  std::size_t i = 0;
  std::size_t j = 0;
  const auto& av = a.intervals();
  const auto& bv = b.intervals();
  while (i < av.size() && j < bv.size()) {
    if (av[i].hi <= bv[j].lo) {
      ++i;
    } else if (bv[j].hi <= av[i].lo) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

std::string to_string(const IntervalSet& set) {
  if (set.is_top()) {
    return "*";
  }
  if (set.is_empty()) {
    return "{}";
  }
  std::string out;
  for (const Interval& iv : set.intervals()) {
    if (!out.empty()) {
      out += 'u';
    }
    out += common::format("[{},{})", iv.lo, iv.hi);
  }
  return out;
}

// -- IntervalAnalysis ---------------------------------------------------------------

IntervalAnalysis::IntervalAnalysis(const Module& module) {
  iterations_ = dataflow::solve<IntervalDomain>(module, summaries_);
}

std::span<const ParamIntervals> IntervalAnalysis::intervals(const Function* fn) const {
  static const std::vector<ParamIntervals> kEmpty;
  const auto it = summaries_.find(fn);
  return it != summaries_.end() ? std::span<const ParamIntervals>(it->second)
                                : std::span<const ParamIntervals>(kEmpty);
}

const ParamIntervals* IntervalAnalysis::param(const Function* fn, std::uint32_t param) const {
  const auto span = intervals(fn);
  return param < span.size() ? &span[param] : nullptr;
}

}  // namespace kir
