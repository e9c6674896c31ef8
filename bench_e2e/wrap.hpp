// Link-time layer wrappers of the traced twin (wrap.cpp, wrap_table.inc).
#pragma once

namespace bench_e2e {

/// Abort unless every wrap_table.inc symbol belongs to the function its line
/// names. Only bench_e2e_traced links this.
void verify_wrap_table();

}  // namespace bench_e2e
