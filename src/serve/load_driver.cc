#include "serve/load_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.h"

namespace mpcqp {
namespace {

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double position = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(position);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

LoadReport RunLoad(QueryServer& server,
                   const std::vector<std::string>& queries,
                   const LoadOptions& options) {
  MPCQP_CHECK(!queries.empty());
  MPCQP_CHECK_GE(options.clients, 1);

  std::atomic<int64_t> next_request{0};
  std::mutex collect_mutex;
  std::vector<double> latencies;
  int64_t errors = 0;
  std::map<StatusCode, int64_t> errors_by_code;
  int64_t cache_hits = 0;

  auto client = [&]() {
    std::vector<double> local_latencies;
    int64_t local_errors = 0;
    std::map<StatusCode, int64_t> local_codes;
    int64_t local_hits = 0;
    while (true) {
      const int64_t ticket = next_request.fetch_add(1);
      if (ticket >= options.requests) break;
      // Tickets walk the workload round-robin, so every query is issued
      // floor/ceil(requests / |queries|) times regardless of the client
      // count, and concurrent clients (holding consecutive tickets) still
      // overlap on the same few queries when the workload is short.
      const std::string& query =
          queries[static_cast<size_t>(ticket % queries.size())];
      const auto result = server.Execute(query);
      if (!result.ok()) {
        ++local_errors;
        ++local_codes[result.status().code()];
        continue;
      }
      local_latencies.push_back(result->latency_ms);
      if (result->result_cache_hit) ++local_hits;
    }
    std::lock_guard<std::mutex> lock(collect_mutex);
    latencies.insert(latencies.end(), local_latencies.begin(),
                     local_latencies.end());
    errors += local_errors;
    for (const auto& [code, count] : local_codes) {
      errors_by_code[code] += count;
    }
    cache_hits += local_hits;
  };

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(options.clients);
  for (int i = 0; i < options.clients; ++i) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  std::sort(latencies.begin(), latencies.end());
  LoadReport report;
  report.clients = options.clients;
  report.completed = static_cast<int64_t>(latencies.size());
  report.errors = errors;
  report.errors_by_code = std::move(errors_by_code);
  report.wall_ms = wall_ms;
  report.qps =
      wall_ms > 0 ? 1000.0 * static_cast<double>(report.completed) / wall_ms
                  : 0.0;
  double sum = 0;
  for (const double v : latencies) sum += v;
  report.mean_ms =
      latencies.empty() ? 0.0 : sum / static_cast<double>(latencies.size());
  report.p50_ms = Percentile(latencies, 0.50);
  report.p95_ms = Percentile(latencies, 0.95);
  report.p99_ms = Percentile(latencies, 0.99);
  report.max_ms = latencies.empty() ? 0.0 : latencies.back();

  const QueryServer::Counters counters = server.counters();
  report.executed = counters.executed;
  report.coalesced = counters.coalesced;
  report.rejected_memory = counters.rejected_memory;
  report.result_cache_hits = server.result_cache().counters().hits;
  report.rejected_overload = server.admission().counters().rejected_overload;
  return report;
}

std::string LoadReport::ErrorsByCode() const {
  std::string out;
  for (const auto& [code, count] : errors_by_code) {
    if (!out.empty()) out += ", ";
    out += std::string(StatusCodeToString(code)) + " " +
           std::to_string(count);
  }
  return out;
}

std::string LoadReport::ToJson() const {
  std::string json = "{";
  auto field = [&json](const std::string& name, const std::string& value,
                       bool last = false) {
    json += "\"" + name + "\": " + value + (last ? "" : ", ");
  };
  auto num = [](double v) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3f", v);
    return std::string(buffer);
  };
  field("clients", std::to_string(clients));
  field("completed", std::to_string(completed));
  field("errors", std::to_string(errors));
  std::string by_code = "{";
  for (const auto& [code, count] : errors_by_code) {
    if (by_code.size() > 1) by_code += ", ";
    by_code += "\"" + std::string(StatusCodeToString(code)) +
               "\": " + std::to_string(count);
  }
  field("errors_by_code", by_code + "}");
  field("wall_ms", num(wall_ms));
  field("qps", num(qps));
  field("mean_ms", num(mean_ms));
  field("p50_ms", num(p50_ms));
  field("p95_ms", num(p95_ms));
  field("p99_ms", num(p99_ms));
  field("max_ms", num(max_ms));
  field("executed", std::to_string(executed));
  field("result_cache_hits", std::to_string(result_cache_hits));
  field("coalesced", std::to_string(coalesced));
  field("rejected_overload", std::to_string(rejected_overload));
  field("rejected_memory", std::to_string(rejected_memory), /*last=*/true);
  json += "}";
  return json;
}

}  // namespace mpcqp
