#include "span_trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

// Innermost open span of the calling thread (0 = none).
thread_local int64_t current_span = 0;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::Span::Span(SpanRecorder& recorder, const char* name,
                         int64_t request)
    : recorder_(recorder.enabled() ? &recorder : nullptr),
      name_(name),
      request_(request) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->next_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = current_span;
  current_span = id_;
  start_ns_ = NowNs();
}

SpanRecorder::Span::~Span() {
  if (recorder_ == nullptr) return;
  const int64_t end_ns = NowNs();
  current_span = parent_;
  std::lock_guard<std::mutex> lock(recorder_->mutex_);
  recorder_->spans_.push_back(
      {name_, id_, parent_, request_, start_ns_, end_ns});
}

void SpanRecorder::Stat(int64_t request, const std::string& fields) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.push_back({request, fields});
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const SpanRecord& s : spans_) {
    std::fprintf(file,
                 "{\"type\":\"span\",\"name\":\"%s\",\"id\":%lld,"
                 "\"parent\":%lld,\"request\":%lld,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (const StatRecord& s : stats_) {
    std::fprintf(file, "{\"type\":\"stat\",\"request\":%lld,%s}\n",
                 static_cast<long long>(s.request), s.fields.c_str());
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
