// The traced run's in-process replay: the requests a server would receive,
// executed single-threaded against a ShardedStore built with the server's
// options, calling each layer's public function in the server's order and
// recording a span (name, start, end, parent) around every call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/common.hpp"
#include "workloads.hpp"

namespace spanners::bench {

struct ReplayStage {
  std::vector<double> call_us;  ///< one entry per request that made the call
  double self_us_total = 0;     ///< span time not covered by child spans
};

struct ReplayReport {
  std::map<std::string, ReplayStage> stages;  ///< by span name
  std::vector<double> query_stage_sum_us;     ///< per QUERY: sum of its stage spans
  std::vector<double> response_bytes;         ///< per QUERY: encoded response size
  std::vector<double> first_compile_us;       ///< Session::Compile at first sight
};

/// Ingests \p workload into a fresh durable ShardedStore at \p store_dir,
/// runs its warm pass, replays \p requests, and writes the spans of the
/// replayed requests to \p trace_path as Chrome trace-event JSON.
Expected<ReplayReport> RunReplay(const Workload& workload,
                                 const std::vector<Request>& requests,
                                 const std::string& store_dir,
                                 const std::string& trace_path);

}  // namespace spanners::bench
