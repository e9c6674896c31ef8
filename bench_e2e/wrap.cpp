// Link-time layer spans for bench_e2e_traced. The link wraps every symbol in
// wrap_table.inc (-Wl,--wrap=<sym>): calls to <sym> from other object files
// bind to __wrap_<sym>, and __real_<sym> binds to the original. Each
// __wrap_<sym> here is an ifunc that resolves to Thunk<...>::call, a function
// with the wrapped function's exact signature (deduced from its pointer) that
// opens a Span and forwards to __real_<sym>. No checker source changes.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "capi/cuda.hpp"
#include "capi/mpi.hpp"
#include "cusan/runtime.hpp"
#include "cusim/device.hpp"
#include "kir/registry.hpp"
#include "mpisim/comm.hpp"
#include "must/runtime.hpp"
#include "rsan/runtime.hpp"
#include "spans.hpp"
#include "typeart/runtime.hpp"
#include "wrap.hpp"

namespace bench_e2e {
namespace {

using VoidFn = void (*)();

template <auto Fn, Layer L, VoidFn Real>
struct Thunk;

template <class R, class C, class... A, R (C::*Fn)(A...), Layer L, VoidFn Real>
struct Thunk<Fn, L, Real> {
  static R call(C* self, A... args) {
    const Span span(L);
    return reinterpret_cast<R (*)(C*, A...)>(Real)(self, static_cast<A&&>(args)...);
  }
};

template <class R, class C, class... A, R (C::*Fn)(A...) const, Layer L, VoidFn Real>
struct Thunk<Fn, L, Real> {
  static R call(const C* self, A... args) {
    const Span span(L);
    return reinterpret_cast<R (*)(const C*, A...)>(Real)(self, static_cast<A&&>(args)...);
  }
};

template <class R, class... A, R (*Fn)(A...), Layer L, VoidFn Real>
struct Thunk<Fn, L, Real> {
  static R call(A... args) {
    const Span span(L);
    return reinterpret_cast<R (*)(A...)>(Real)(static_cast<A&&>(args)...);
  }
};

/// Constructors have no address to deduce from: the caller names the class
/// and parameter types (the mangled name fixes them, so a mismatch cannot
/// link).
template <class C, class... A>
struct CtorThunk {
  template <Layer L, VoidFn Real>
  static void call(C* self, A... args) {
    const Span span(L);
    reinterpret_cast<void (*)(C*, A...)>(Real)(self, static_cast<A&&>(args)...);
  }
};

/// Code address of a function or non-virtual member function pointer,
/// hidden from the optimizer: it assumes distinct functions have distinct
/// addresses and would fold the comparison in verify_wrap_table(), which the
/// link-time wrapping breaks on purpose.
template <class F>
const void* code_address(F fn) {
  const void* address = nullptr;
  std::memcpy(&address, &fn, sizeof(address));
  asm volatile("" : "+r"(address));
  return address;
}

}  // namespace
}  // namespace bench_e2e

// Resolvers must be extern "C" so the ifunc attribute can name them.
#define BENCH_WRAP(LAYER, SYM, FN)                                                         \
  extern "C" void __real_##SYM();                                                          \
  extern "C" bench_e2e::VoidFn bench_e2e_resolve_##SYM() {                                 \
    return reinterpret_cast<bench_e2e::VoidFn>(                                            \
        &bench_e2e::Thunk<FN, bench_e2e::Layer::k##LAYER, &__real_##SYM>::call);           \
  }                                                                                        \
  extern "C" void __wrap_##SYM() __attribute__((ifunc("bench_e2e_resolve_" #SYM)));
#define BENCH_WRAP_CTOR(LAYER, SYM, ...)                                                   \
  extern "C" void __real_##SYM();                                                          \
  extern "C" bench_e2e::VoidFn bench_e2e_resolve_##SYM() {                                 \
    return reinterpret_cast<bench_e2e::VoidFn>(                                            \
        &bench_e2e::CtorThunk<__VA_ARGS__>::template call<bench_e2e::Layer::k##LAYER,      \
                                                          &__real_##SYM>);                 \
  }                                                                                        \
  extern "C" void __wrap_##SYM() __attribute__((ifunc("bench_e2e_resolve_" #SYM)));
#include "wrap_table.inc"
#undef BENCH_WRAP
#undef BENCH_WRAP_CTOR

namespace bench_e2e {

void verify_wrap_table() {
  struct Entry {
    const char* symbol;
    const void* named;    // the table's function, as this file's link resolved it
    const void* wrapper;  // the thunk its symbol's wrapper resolves to
  };
  // Taking a function's address here is itself a wrapped reference, so it
  // lands on the thunk exactly when the table's symbol is that function's.
#define BENCH_WRAP(LAYER, SYM, FN) \
  Entry{#SYM, code_address(FN), code_address(bench_e2e_resolve_##SYM())},
#define BENCH_WRAP_CTOR(LAYER, SYM, ...)
  const Entry entries[] = {
#include "wrap_table.inc"
  };
#undef BENCH_WRAP
#undef BENCH_WRAP_CTOR
  for (const Entry& entry : entries) {
    if (entry.named != entry.wrapper) {
      std::fprintf(stderr, "bench_e2e_traced: wrap_table.inc entry %s names another function\n",
                   entry.symbol);
      std::abort();
    }
  }
}

}  // namespace bench_e2e
