#include "common/thread_context.hpp"

namespace common::detail {

constinit thread_local ThreadContext t_thread_context;

}  // namespace common::detail
