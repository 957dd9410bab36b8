#ifndef MPCQP_SERVE_LOAD_DRIVER_H_
#define MPCQP_SERVE_LOAD_DRIVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/query_server.h"

namespace mpcqp {

// Closed-loop load generation against a QueryServer: K client threads
// each issue queries back to back (round-robin over the workload) until
// the request budget is spent, collecting per-request latencies. This is
// what `mpcqp_run --serve` and bench_serving drive.

struct LoadOptions {
  int clients = 1;            // Concurrent client threads.
  int64_t requests = 100;     // Total requests across all clients.
};

struct LoadReport {
  int clients = 0;
  int64_t completed = 0;
  int64_t errors = 0;         // Non-OK Executes (UNAVAILABLE etc.).
  // The same errors by status code, in code order; the counts sum to
  // `errors`.
  std::map<StatusCode, int64_t> errors_by_code;
  double wall_ms = 0.0;
  double qps = 0.0;           // completed / wall seconds.
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  // Server-side counter snapshots (taken after the run).
  int64_t executed = 0;       // Queries that actually ran the algorithm.
  int64_t result_cache_hits = 0;
  int64_t coalesced = 0;
  int64_t rejected_overload = 0;
  int64_t rejected_memory = 0;

  // "INVALID_ARGUMENT 2, UNAVAILABLE 1" (empty when there were none).
  std::string ErrorsByCode() const;
  std::string ToJson() const;
};

// Runs `options.requests` queries from `queries` against `server` using
// `options.clients` threads. Requests are numbered by a shared ticket
// counter and ticket t issues queries[t % queries.size()], so the issue
// counts per query are exact for any client count — and concurrent
// clients, holding consecutive tickets, overlap on the same few queries
// whenever the workload is shorter than the client count (deliberately
// cache- and coalesce-friendly, like real repeated traffic).
LoadReport RunLoad(QueryServer& server,
                   const std::vector<std::string>& queries,
                   const LoadOptions& options);

}  // namespace mpcqp

#endif  // MPCQP_SERVE_LOAD_DRIVER_H_
