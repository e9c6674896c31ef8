// The one interprocedural forward dataflow under the byte-interval
// (interval_analysis.hpp) and affine thread-index (affine_analysis.hpp)
// analyses — the paper's kernel-argument analysis (§IV-B1, Fig. 8) run over a
// richer lattice than AccessAnalysis's read/write modes. The engine owns every
// rule the two refined analyses share: the per-function scalar pass, the
// per-parameter derived-offset fixpoint, the load/store/escape and call rules,
// the interprocedural fixpoint, and where each of them widens. A domain only
// supplies its lattice (see Domain below), so both analyses widen at the same
// places. As long as a domain's shift, window and compose keep non-empty sets
// non-empty, both are refinements of the mode pass: a parameter's read
// (write) set is non-empty iff AccessAnalysis says it reads (writes).
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "kir/ir.hpp"

namespace kir::dataflow {

/// Widening thresholds: how many times a lattice element may grow before it
/// is forced to ⊤ (a scalar: to unknown). Loop back-edges that keep shifting
/// offsets (pointer-increment loops) and recursion over shifted bases hit
/// these.
inline constexpr std::uint32_t kIntraWidenThreshold = 4;
inline constexpr std::uint32_t kInterWidenThreshold = 8;

[[nodiscard]] inline bool add_overflows(std::int64_t a, std::int64_t b, std::int64_t* out) {
  return __builtin_add_overflow(a, b, out);
}

[[nodiscard]] inline bool mul_overflows(std::int64_t a, std::int64_t b, std::int64_t* out) {
  return __builtin_mul_overflow(a, b, out);
}

/// A lattice domain. `Scalar` is the value of an integer instruction
/// (`Scalar{}` is unknown); `Set` is a set of byte offsets relative to a
/// parameter's pointer value (default-constructed: bottom, plus an explicit
/// ⊤); `Summary` holds a parameter's `Set read, write`. The engine decides ⊤
/// and emptiness itself, so shift/window/compose only ever see bounded sets
/// and known scalars:
///   leaf(instr)             the value of a kConst or kThreadIdx;
///   join(a, b)              phi merge of two scalars;
///   origin()                the parameter's own start offset, 0 exactly;
///   shift(base, index, n)   gep: starts `base` advanced by `index`·n bytes;
///   window(starts, width)   bytes one access of `width` from `starts` touches;
///   compose(starts, bytes)  a callee's byte set seen through caller starts.
template <class D>
concept Domain = requires(const Instr& instr, const typename D::Scalar& scalar,
                          const typename D::Set& set, typename D::Summary& summary,
                          std::int64_t elem, std::uint32_t width) {
  { scalar.known } -> std::convertible_to<bool>;
  { scalar != scalar } -> std::convertible_to<bool>;
  { set.is_top() } -> std::convertible_to<bool>;
  { set.is_empty() } -> std::convertible_to<bool>;
  { set != set } -> std::convertible_to<bool>;
  { summary.read.merge(set) } -> std::convertible_to<bool>;
  { summary.write.widen_to_top() };
  { D::leaf(instr) } -> std::same_as<typename D::Scalar>;
  { D::join(scalar, scalar) } -> std::same_as<typename D::Scalar>;
  { D::origin() } -> std::same_as<typename D::Set>;
  { D::shift(set, scalar, elem) } -> std::same_as<typename D::Set>;
  { D::window(set, width) } -> std::same_as<typename D::Set>;
  { D::compose(set, set) } -> std::same_as<typename D::Set>;
};

template <Domain D>
using Summaries = std::unordered_map<const Function*, std::vector<typename D::Summary>>;

/// Per-function scalar values: constants and thread indices take the
/// domain's leaf value, phis join their incoming values (a value that keeps
/// growing widens to unknown), everything else is unknown.
template <Domain D>
[[nodiscard]] std::vector<typename D::Scalar> scalar_pass(const Function& fn) {
  using Scalar = typename D::Scalar;
  const auto& instrs = fn.instrs();
  std::vector<Scalar> values(instrs.size());
  std::vector<std::uint32_t> grew(instrs.size(), 0);
  const auto value_of = [&](Value v) {
    return v.kind == Value::Kind::kInstr ? values[v.index] : Scalar{};
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      const Instr& instr = instrs[i];
      Scalar next = values[i];
      switch (instr.op) {
        case Opcode::kConst:
        case Opcode::kThreadIdx:
          next = D::leaf(instr);
          break;
        case Opcode::kPhi: {
          if (instr.args.empty()) {
            break;
          }
          Scalar merged = value_of(instr.args.front());
          for (std::size_t a = 1; a < instr.args.size(); ++a) {
            merged = D::join(merged, value_of(instr.args[a]));
          }
          // First flow-in adopts the merged value; afterwards only grow.
          next = values[i].known ? D::join(values[i], merged) : merged;
          break;
        }
        default:
          break;  // arith/load/call results: opaque
      }
      if (next != values[i]) {
        if (++grew[i] > kIntraWidenThreshold) {
          next = Scalar{};  // unknown: absorbing, guarantees convergence
        }
        if (next != values[i]) {
          values[i] = next;
          changed = true;
        }
      }
    }
  }
  return values;
}

/// One intraprocedural pass for pointer parameter `param` of `fn` against the
/// current interprocedural `summaries`.
template <Domain D>
[[nodiscard]] typename D::Summary analyze_param(const Function& fn, std::uint32_t param,
                                                const std::vector<typename D::Scalar>& scalars,
                                                const Summaries<D>& summaries) {
  using Set = typename D::Set;
  const auto& instrs = fn.instrs();

  // offsets[i]: set when instruction i's result is a pointer derived from the
  // parameter; the Set holds the possible *start offsets* of that pointer.
  std::vector<std::optional<Set>> offsets(instrs.size());
  std::vector<std::uint32_t> grew(instrs.size(), 0);
  const auto offsets_of = [&](Value v) -> std::optional<Set> {
    if (v.kind == Value::Kind::kParam) {
      return v.index == param ? std::optional<Set>(D::origin()) : std::nullopt;
    }
    if (v.kind == Value::Kind::kInstr) {
      return offsets[v.index];
    }
    return std::nullopt;
  };

  // Phi back-edges may need several rounds; per-instruction widening bounds
  // them.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      const Instr& instr = instrs[i];
      std::optional<Set> next = offsets[i];
      switch (instr.op) {
        case Opcode::kGep: {
          const auto base = offsets_of(instr.a);
          if (!base.has_value()) {
            break;
          }
          Set derived = *base;
          if (!instr.b.is_none()) {
            const auto index = instr.b.kind == Value::Kind::kInstr ? scalars[instr.b.index]
                                                                   : typename D::Scalar{};
            derived = derived.is_top() || !index.known
                          ? Set::top()
                          : D::shift(derived, index, static_cast<std::int64_t>(instr.size));
          }
          next = next.has_value() ? *next : Set::bottom();
          next->merge(derived);
          break;
        }
        case Opcode::kArith:
          // Pointer arithmetic through an opaque op: derived, offsets unknown.
          if (offsets_of(instr.a).has_value() || offsets_of(instr.b).has_value()) {
            next = Set::top();
          }
          break;
        case Opcode::kPhi: {
          Set merged = next.has_value() ? *next : Set::bottom();
          bool any = next.has_value();
          for (const Value& incoming : instr.args) {
            if (const auto in = offsets_of(incoming); in.has_value()) {
              any = true;
              merged.merge(*in);
            }
          }
          if (any) {
            next = merged;
          }
          break;
        }
        default:
          break;
      }
      const auto differs = [&] {
        return next.has_value() && (!offsets[i].has_value() || *next != *offsets[i]);
      };
      if (differs()) {
        if (++grew[i] > kIntraWidenThreshold) {
          next->widen_to_top();
        }
        if (differs()) {
          offsets[i] = std::move(next);
          changed = true;
        }
      }
    }
  }

  const auto access = [](Set& into, const Set& starts, std::uint32_t width) {
    if (starts.is_top()) {
      into.widen_to_top();
    } else {
      into.merge(D::window(starts, width));
    }
  };
  // A callee that touches nothing through a parameter adds nothing, whatever
  // the caller passes: ⊤ here would claim an access the mode pass denies.
  const auto compose = [](Set& into, const Set& starts, const Set& callee) {
    if (callee.is_empty()) {
      return;
    }
    if (starts.is_top() || callee.is_top()) {
      into.widen_to_top();
    } else {
      into.merge(D::compose(starts, callee));
    }
  };

  typename D::Summary result;
  for (const Instr& instr : instrs) {
    switch (instr.op) {
      case Opcode::kLoad:
        if (const auto starts = offsets_of(instr.a); starts.has_value()) {
          access(result.read, *starts, instr.size);
        }
        break;
      case Opcode::kStore:
        if (const auto starts = offsets_of(instr.a); starts.has_value()) {
          access(result.write, *starts, instr.size);
        }
        // Storing the pointer itself escapes it: anything may happen to the
        // allocation afterwards (AccessAnalysis says read-write; we say ⊤).
        if (offsets_of(instr.b).has_value()) {
          result.read.widen_to_top();
          result.write.widen_to_top();
        }
        break;
      case Opcode::kCall:
        for (std::size_t arg = 0; arg < instr.args.size(); ++arg) {
          const auto starts = offsets_of(instr.args[arg]);
          if (!starts.has_value()) {
            continue;
          }
          const auto it =
              instr.callee != nullptr ? summaries.find(instr.callee) : summaries.end();
          if (it == summaries.end()) {
            // Unknown external callee or callee outside the module.
            result.read.widen_to_top();
            result.write.widen_to_top();
            break;
          }
          if (arg < it->second.size()) {
            compose(result.read, *starts, it->second[arg].read);
            compose(result.write, *starts, it->second[arg].write);
          }
        }
        break;
      default:
        break;
    }
  }
  return result;
}

/// Runs the interprocedural fixpoint over `module` into `summaries` (one
/// entry per function, one Summary per parameter; non-pointer parameters stay
/// bottom) and returns the number of rounds. Summaries only ever grow; one
/// that keeps growing through recursion over shifted bases widens to ⊤ after
/// kInterWidenThreshold growths, per parameter and direction.
template <Domain D>
std::uint32_t solve(const Module& module, Summaries<D>& summaries) {
  struct Growth {
    std::uint32_t read{0};
    std::uint32_t write{0};
  };
  std::vector<std::vector<typename D::Scalar>> scalars;
  std::vector<std::vector<Growth>> grew;
  for (const auto& fn : module.functions()) {
    summaries.emplace(fn.get(), std::vector<typename D::Summary>(fn->param_count()));
    scalars.push_back(scalar_pass<D>(*fn));
    grew.emplace_back(fn->param_count());
  }
  const auto grow = [](auto& into, const auto& update, std::uint32_t& count) {
    if (!into.merge(update)) {
      return false;
    }
    if (++count > kInterWidenThreshold) {
      into.widen_to_top();
    }
    return true;
  };

  std::uint32_t iterations = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ++iterations;
    for (std::size_t f = 0; f < module.functions().size(); ++f) {
      const Function& fn = *module.functions()[f];
      for (std::uint32_t p = 0; p < fn.param_count(); ++p) {
        if (!fn.param_is_pointer(p)) {
          continue;
        }
        const auto update = analyze_param<D>(fn, p, scalars[f], summaries);
        auto& summary = summaries.at(&fn)[p];
        changed = grow(summary.read, update.read, grew[f][p].read) || changed;
        changed = grow(summary.write, update.write, grew[f][p].write) || changed;
      }
    }
  }
  return iterations;
}

}  // namespace kir::dataflow
