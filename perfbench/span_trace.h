#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

// In-memory span recorder for the traced benchmark run. Spans are taken by
// the benchmark around each call it makes into a library layer; nothing is
// recorded inside the library. Records stay in memory and are written as
// JSON lines by WriteJsonl when the run ends, so the file write never lands
// inside a timed region.
//
// A disabled recorder costs one branch per span. Thread-safe: the serving
// workload records from several client threads at once.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  // RAII span. Its parent is the innermost span open on the calling
  // thread; `request` groups the spans of one request (-1 = none). The
  // name must be a string literal (it is stored as a pointer).
  class Span {
   public:
    Span(SpanRecorder& recorder, const char* name, int64_t request);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanRecorder* recorder_;  // Null when the recorder is disabled.
    const char* name_;
    int64_t request_;
    int64_t id_ = 0;
    int64_t parent_ = 0;
    int64_t start_ns_ = 0;
  };

  // Attaches one JSON object of per-request fields (library-reported
  // counters such as a StatsReport digest) to `request`. `fields` is the
  // body of a JSON object without braces, e.g. "\"rounds\":3".
  void Stat(int64_t request, const std::string& fields);

  // Writes one JSON object per line: spans
  // {"type":"span","name","id","parent","request","start_ns","end_ns"}
  // (parent 0 = root) and stats {"type":"stat","request",...fields}.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct SpanRecord {
    const char* name;
    int64_t id;
    int64_t parent;
    int64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct StatRecord {
    int64_t request;
    std::string fields;
  };

  bool enabled_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mutex_;  // Guards the two vectors.
  std::vector<SpanRecord> spans_;
  std::vector<StatRecord> stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
