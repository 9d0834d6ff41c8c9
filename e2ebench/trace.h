// The traced run: replays a workload's requests in-process against the
// linked libraries and times each layer's public entry point.

#ifndef VIEWAUTH_E2EBENCH_TRACE_H_
#define VIEWAUTH_E2EBENCH_TRACE_H_

#include <string>

#include "workload.h"

namespace e2ebench {

// Prints the per-layer metrics as the result line; returns the exit code.
int RunTraced(const Inputs& inputs, const std::string& workdir);

}  // namespace e2ebench

#endif  // VIEWAUTH_E2EBENCH_TRACE_H_
