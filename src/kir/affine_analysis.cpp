#include "kir/affine_analysis.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/format.hpp"
#include "kir/dataflow.hpp"

namespace kir {
namespace {

using dataflow::add_overflows;
using dataflow::mul_overflows;

/// Fold `delta_stride` along `dim` (with thread bounds) into `term`. Fails —
/// the caller widens to ⊤ — on mixed dimensions or stride overflow; strides
/// that cancel to zero canonicalize back to a thread-invariant term.
bool combine_stride(AffineTerm& term, std::int64_t delta_stride, std::uint32_t dim,
                    std::int64_t tid_lo, std::int64_t tid_hi) {
  if (delta_stride == 0) {
    return true;
  }
  if (term.stride == 0) {
    term.stride = delta_stride;
    term.dim = dim;
    term.tid_lo = tid_lo;
    term.tid_hi = tid_hi;
    return true;
  }
  if (term.dim != dim) {
    return false;
  }
  if (add_overflows(term.stride, delta_stride, &term.stride)) {
    return false;
  }
  term.tid_lo = std::min(term.tid_lo, tid_lo);
  term.tid_hi = std::max(term.tid_hi, tid_hi);
  if (term.stride == 0) {
    term.dim = 0;
    term.tid_lo = 0;
    term.tid_hi = 0;
  }
  return true;
}

/// The affine lattice for the dataflow engine: scalars are stride·t + [lo, hi],
/// offsets and accessed bytes are AffineSets.
struct AffineDomain {
  /// Scalar affine value: stride·t + c with c ∈ [lo, hi] (inclusive), t the
  /// thread index along `dim` bounded by [tid_lo, tid_hi]. stride == 0 is a
  /// plain bounded scalar.
  struct Scalar {
    bool known{false};
    std::int64_t stride{0};
    std::int64_t lo{0};
    std::int64_t hi{0};
    std::int64_t tid_lo{0};
    std::int64_t tid_hi{0};
    std::uint32_t dim{0};

    friend bool operator==(const Scalar&, const Scalar&) = default;
  };
  using Set = AffineSet;
  /// The engine fills read/write; the constructor then decides race_free.
  using Summary = ParamProof;

  /// Constants carry their range with stride zero; kThreadIdx is stride one
  /// along its dimension.
  static Scalar leaf(const Instr& instr) {
    if (instr.op == Opcode::kThreadIdx) {
      return Scalar{true, 1, 0, 0, instr.imm_lo, instr.imm_hi, instr.size};
    }
    return instr.has_range() ? Scalar{true, 0, instr.imm_lo, instr.imm_hi, 0, 0, 0} : Scalar{};
  }

  static Scalar join(const Scalar& a, const Scalar& b) {
    if (!a.known || !b.known || a.stride != b.stride) {
      return Scalar{};
    }
    if (a.stride != 0 && a.dim != b.dim) {
      return Scalar{};
    }
    Scalar out = a;
    out.lo = std::min(a.lo, b.lo);
    out.hi = std::max(a.hi, b.hi);
    if (a.stride != 0) {
      out.tid_lo = std::min(a.tid_lo, b.tid_lo);
      out.tid_hi = std::max(a.tid_hi, b.tid_hi);
    }
    return out;
  }

  static Set origin() { return AffineSet::of(AffineTerm{0, 0, 1, 0, 0, 0}); }

  static Set shift(const Set& base, const Scalar& index, std::int64_t elem) {
    std::int64_t delta_stride = 0;
    std::int64_t add_lo = 0;
    std::int64_t add_hi = 0;
    if (mul_overflows(index.stride, elem, &delta_stride) ||
        mul_overflows(index.lo, elem, &add_lo) || mul_overflows(index.hi, elem, &add_hi)) {
      return AffineSet::top();
    }
    AffineSet shifted;
    for (AffineTerm term : base.terms()) {
      if (!combine_stride(term, delta_stride, index.dim, index.tid_lo, index.tid_hi) ||
          add_overflows(term.lo, add_lo, &term.lo) || add_overflows(term.hi, add_hi, &term.hi)) {
        return AffineSet::top();
      }
      shifted.insert(term);
    }
    return shifted;
  }

  /// A start window [a, b) accessed with width w touches bytes
  /// [a, b − 1 + w) per term.
  static Set window(const Set& starts, std::uint32_t width) {
    AffineSet out;
    for (AffineTerm term : starts.terms()) {
      if (add_overflows(term.hi, static_cast<std::int64_t>(width) - 1, &term.hi)) {
        return AffineSet::top();
      }
      out.insert(term);
    }
    return out;
  }

  /// Caller start terms x callee byte-offset terms: starts [a, b) x bytes
  /// [c, d) -> bytes [a + c, b + d − 1); strides along the same dimension add
  /// (the callee is inlined device code running on the same thread), mixed
  /// dimensions widen to ⊤.
  static Set compose(const Set& starts, const Set& bytes) {
    AffineSet out;
    for (const AffineTerm& c : starts.terms()) {
      for (const AffineTerm& e : bytes.terms()) {
        AffineTerm term = c;
        std::int64_t hi = 0;
        if (!combine_stride(term, e.stride, e.dim, e.tid_lo, e.tid_hi) ||
            add_overflows(term.lo, e.lo, &term.lo) || add_overflows(term.hi, e.hi, &hi) ||
            add_overflows(hi, -1, &term.hi)) {
          return AffineSet::top();
        }
        out.insert(term);
      }
    }
    return out;
  }
};

}  // namespace

// -- AffineSet -----------------------------------------------------------------

void AffineSet::insert(AffineTerm term) {
  if (top_ || term.empty()) {
    return;
  }
  if (term.stride == 0) {
    term.dim = 0;
    term.tid_lo = 0;
    term.tid_hi = 0;
  }
  for (AffineTerm& existing : terms_) {
    if (existing.stride == term.stride && existing.dim == term.dim &&
        existing.tid_lo == term.tid_lo && existing.tid_hi == term.tid_hi) {
      existing.lo = std::min(existing.lo, term.lo);
      existing.hi = std::max(existing.hi, term.hi);
      return;
    }
    if (existing == term) {
      return;
    }
  }
  terms_.push_back(term);
  if (terms_.size() > kMaxTerms) {
    widen_to_top();
  }
}

bool AffineSet::merge(const AffineSet& other) {
  if (top_) {
    return false;
  }
  if (other.top_) {
    widen_to_top();
    return true;
  }
  const auto before = terms_;
  const bool was_top = top_;
  for (const AffineTerm& term : other.terms_) {
    insert(term);
    if (top_) {
      break;
    }
  }
  return top_ != was_top || terms_ != before;
}

IntervalSet AffineSet::resolve() const {
  if (top_) {
    return IntervalSet::top();
  }
  std::vector<Interval> raw;
  for (const AffineTerm& t : terms_) {
    if (t.empty()) {
      continue;
    }
    if (t.stride == 0) {
      raw.push_back(Interval{t.lo, t.hi});
      continue;
    }
    std::int64_t first = 0;
    std::int64_t last = 0;
    if (mul_overflows(t.stride, t.tid_lo, &first) || mul_overflows(t.stride, t.tid_hi, &last)) {
      return IntervalSet::top();
    }
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    if (add_overflows(std::min(first, last), t.lo, &lo) ||
        add_overflows(std::max(first, last), t.hi, &hi)) {
      return IntervalSet::top();
    }
    const std::int64_t count = t.tid_hi - t.tid_lo + 1;
    if (count <= 1 || std::abs(t.stride) <= t.window()) {
      // Per-thread windows tile or overlap: the hull is exact.
      raw.push_back(Interval{lo, hi});
      continue;
    }
    if (count <= static_cast<std::int64_t>(IntervalSet::kMaxIntervals)) {
      for (std::int64_t tid = t.tid_lo; tid <= t.tid_hi; ++tid) {
        const std::int64_t base = t.stride * tid;  // bounded by the checked ends
        raw.push_back(Interval{base + t.lo, base + t.hi});
      }
      continue;
    }
    // Gapped windows over more threads than the interval cap can represent:
    // a faithful Minkowski expansion would exceed kMaxIntervals, so the
    // whole set widens to ⊤ under the counted cap policy.
    return IntervalSet::capped_top();
  }
  return IntervalSet::from_raw_capped(std::move(raw));
}

std::string to_string(const AffineTerm& term) {
  std::string out;
  if (term.stride != 0) {
    const char* dims[] = {"tid", "tid.y", "tid.z"};
    out += common::format("{}·{}", term.stride, dims[term.dim < 3 ? term.dim : 0]);
    if (term.lo != 0 || term.hi != 0) {
      out += '+';
    }
  }
  if (term.stride == 0 || term.lo != 0 || term.hi != 0) {
    out += common::format("[{},{})", term.lo, term.hi);
  }
  if (term.stride != 0) {
    out += common::format(" t∈[{},{}]", term.tid_lo, term.tid_hi);
  }
  return out;
}

std::string to_string(const AffineSet& set) {
  if (set.is_top()) {
    return "*";
  }
  if (set.is_empty()) {
    return "{}";
  }
  std::string out;
  for (const AffineTerm& term : set.terms()) {
    if (!out.empty()) {
      out += " u ";
    }
    out += to_string(term);
  }
  return out;
}

// -- Theorem 1 -----------------------------------------------------------------

bool pair_disjoint_across_threads(const AffineTerm& x, const AffineTerm& y) {
  if (x.empty() || y.empty()) {
    return true;
  }
  // (S1) Equal nonzero stride along the same dimension, and the joint window
  // hull fits within one period: for t1 != t2 the byte offset difference
  // |stride·(t1−t2)| >= |stride| exceeds any in-hull window distance.
  if (x.stride != 0 && x.stride == y.stride && x.dim == y.dim) {
    const std::int64_t hull = std::max(x.hi, y.hi) - std::min(x.lo, y.lo);
    if (hull <= std::abs(x.stride)) {
      return true;
    }
  }
  // (S2) Bounded, disjoint concrete footprints: no byte is ever shared,
  // whatever the thread indices.
  const IntervalSet xs = AffineSet::of(x).resolve();
  const IntervalSet ys = AffineSet::of(y).resolve();
  return !xs.is_top() && !ys.is_top() && !overlaps(xs, ys);
}

namespace {

[[nodiscard]] bool param_race_free(const ParamProof& proof) {
  if (proof.write.is_empty()) {
    return true;  // read-only: read-read never races
  }
  if (proof.write.is_top() || proof.read.is_top()) {
    return false;
  }
  const auto& writes = proof.write.terms();
  for (std::size_t i = 0; i < writes.size(); ++i) {
    for (std::size_t j = i; j < writes.size(); ++j) {
      if (!pair_disjoint_across_threads(writes[i], writes[j])) {
        return false;
      }
    }
  }
  for (const AffineTerm& read : proof.read.terms()) {
    for (const AffineTerm& write : writes) {
      if (!pair_disjoint_across_threads(read, write)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

// -- AffineAnalysis ------------------------------------------------------------

AffineAnalysis::AffineAnalysis(const Module& module) {
  dataflow::Summaries<AffineDomain> summaries;
  iterations_ = dataflow::solve<AffineDomain>(module, summaries);
  // Evaluate the theorem-1 side conditions on the fixpoint summaries.
  for (const auto& fn : module.functions()) {
    ProofSummary proof;
    proof.params = std::move(summaries.at(fn.get()));
    proof.intra_race_free = true;
    for (std::uint32_t p = 0; p < fn->param_count(); ++p) {
      ParamProof& param = proof.params[p];
      param.race_free = !fn->param_is_pointer(p) || param_race_free(param);
      proof.intra_race_free = proof.intra_race_free && param.race_free;
    }
    proofs_.emplace(fn.get(), std::move(proof));
  }
}

const ProofSummary* AffineAnalysis::summary(const Function* fn) const {
  const auto it = proofs_.find(fn);
  return it != proofs_.end() ? &it->second : nullptr;
}

std::span<const ParamProof> AffineAnalysis::params(const Function* fn) const {
  static const std::vector<ParamProof> kEmpty;
  const auto it = proofs_.find(fn);
  return it != proofs_.end() ? std::span<const ParamProof>(it->second.params)
                             : std::span<const ParamProof>(kEmpty);
}

}  // namespace kir
