// Thread-index-aware affine access analysis — the prove-and-elide pass: for
// every kernel pointer parameter it derives symbolic summaries of the form
//   {stride·tid + [lo, hi) | tid ∈ [tid_lo, tid_hi]}
// by forward dataflow over gep/phi/call chains rooted at kThreadIdx. The
// dataflow is the engine the interval analysis runs too (dataflow.hpp), so
// both share every transfer, escape and call rule and the widening
// thresholds; only the lattices differ. The affine lattice can still go ⊤
// where the interval one stays bounded (mixed thread dimensions, more than
// kMaxTerms term shapes), which is why consumers fall back to the interval
// summary on ⊤.
//
// From the summaries, theorem 1 (explicit side conditions below) justifies
// replacing a parameter's shadow stores with a check-only scan plus a
// proven-region marker (see docs/architecture.md "Prove-and-elide"):
//
//  Theorem 1 (per-thread disjointness). For a parameter whose read/write
//  summaries are affine-bounded, if every pair of access terms (x, y) with at
//  least one write satisfies either
//    (S1) equal nonzero stride and dimension, and the joint window hull
//         max(x.hi, y.hi) − min(x.lo, y.lo) fits within one stride period
//         |stride|  — distinct thread indices can never touch the same byte;
//  or
//    (S2) the terms' resolved concrete byte sets are bounded and disjoint —
//         the accesses never share a byte at all;
//  then the kernel is free of internal write-write and read-write races on
//  that parameter, for every launch whose thread indices respect the declared
//  bounds. (Distinct parameters are assumed non-aliasing; the launch-time
//  alias guard in cusan::Runtime voids the proof otherwise.)
//
//  Theorem 2 (cross-stream disjointness). Proven footprints of launches on
//  different streams over the same allocation cannot race when their resolved
//  byte sets are disjoint (pairs with a write). No code evaluates it: each
//  proven launch's check-only scan (rsan::Runtime::proven_range) tests its
//  footprint against the cells and the proven regions of every other
//  context, so an overlapping unordered pair is reported, not assumed away.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "kir/interval_analysis.hpp"
#include "kir/ir.hpp"

namespace kir {

/// One affine access term: the byte set {stride·t + d | t ∈ [tid_lo, tid_hi],
/// d ∈ [lo, hi)} relative to the parameter's pointer value, where t is the
/// launch-bounded thread index along `dim`. stride == 0 encodes a
/// thread-invariant window [lo, hi) (tid_lo/tid_hi are meaningless then).
struct AffineTerm {
  std::int64_t stride{0};
  std::int64_t lo{0};
  std::int64_t hi{0};
  std::int64_t tid_lo{0};
  std::int64_t tid_hi{0};
  std::uint32_t dim{0};

  [[nodiscard]] constexpr bool thread_invariant() const { return stride == 0; }
  [[nodiscard]] constexpr std::int64_t window() const { return hi - lo; }
  [[nodiscard]] constexpr bool empty() const { return hi <= lo; }

  friend constexpr bool operator==(const AffineTerm&, const AffineTerm&) = default;
};

/// A small set of affine terms with an explicit ⊤ ("not affine — fall back to
/// the interval summary"). Same bounded-precision policy as IntervalSet:
/// joining beyond kMaxTerms widens to ⊤ rather than growing unboundedly.
class AffineSet {
 public:
  static constexpr std::size_t kMaxTerms = 4;

  [[nodiscard]] static AffineSet top() {
    AffineSet set;
    set.top_ = true;
    return set;
  }
  [[nodiscard]] static AffineSet bottom() { return AffineSet{}; }
  [[nodiscard]] static AffineSet of(AffineTerm term) {
    AffineSet set;
    set.insert(term);
    return set;
  }

  [[nodiscard]] bool is_top() const { return top_; }
  [[nodiscard]] bool is_empty() const { return !top_ && terms_.empty(); }
  [[nodiscard]] bool is_bounded() const { return !top_ && !terms_.empty(); }
  [[nodiscard]] const std::vector<AffineTerm>& terms() const { return terms_; }

  /// Union with one term. Terms of identical shape (stride, dim, tid range)
  /// join by window hull; beyond kMaxTerms the set widens to ⊤.
  void insert(AffineTerm term);
  /// Lattice join; returns true iff this set changed.
  bool merge(const AffineSet& other);
  void widen_to_top() {
    top_ = true;
    terms_.clear();
  }

  /// The concrete byte set: each term resolved over its thread-index range.
  /// Strided terms whose gaps would need more than IntervalSet::kMaxIntervals
  /// intervals widen to ⊤ through the widened_by_cap policy; ⊤ stays ⊤.
  [[nodiscard]] IntervalSet resolve() const;

  friend bool operator==(const AffineSet&, const AffineSet&) = default;

 private:
  bool top_{false};
  std::vector<AffineTerm> terms_;
};

/// "8·tid+[0,8)" / "[0,16)" (stride 0); the set joins terms with " u ",
/// rendering ⊤ as "*" and bottom as "{}".
[[nodiscard]] std::string to_string(const AffineTerm& term);
[[nodiscard]] std::string to_string(const AffineSet& set);

/// Theorem 1's pairwise side condition: can two *distinct* thread indices
/// within bounds ever touch a common byte through terms x and y? Returns true
/// when provably not (conditions S1/S2 above).
[[nodiscard]] bool pair_disjoint_across_threads(const AffineTerm& x, const AffineTerm& y);

/// Per-parameter affine summary plus the theorem-1 verdict for it.
struct ParamProof {
  AffineSet read;
  AffineSet write;
  /// Theorem 1 for this parameter: every access pair involving a write is
  /// disjoint across distinct thread indices. Read-only parameters are
  /// trivially race-free (read-read never races).
  bool race_free{false};
};

/// Kernel-level proof exposed through kir::KernelRegistry and consumed by
/// cusan::Runtime at launch time.
struct ProofSummary {
  std::vector<ParamProof> params;  ///< indexed by parameter position
  /// Theorem 1 for the whole kernel: every pointer parameter is race_free.
  bool intra_race_free{false};
};

class AffineAnalysis {
 public:
  /// Runs the interprocedural affine fixpoint over the whole module, then
  /// evaluates the theorem-1 side conditions per kernel.
  explicit AffineAnalysis(const Module& module);

  [[nodiscard]] const ProofSummary* summary(const Function* fn) const;
  [[nodiscard]] std::span<const ParamProof> params(const Function* fn) const;

  /// Number of interprocedural fixpoint iterations (exposed for tests).
  [[nodiscard]] std::uint32_t iterations() const { return iterations_; }

 private:
  std::unordered_map<const Function*, ProofSummary> proofs_;
  std::uint32_t iterations_{0};
};

}  // namespace kir
