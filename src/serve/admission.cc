#include "serve/admission.h"

#include <algorithm>

#include "common/check.h"

namespace mpcqp {

AdmissionController::AdmissionController(int max_inflight, int max_queued)
    : max_inflight_(max_inflight), max_queued_(max_queued) {
  MPCQP_CHECK_GE(max_inflight, 1);
  MPCQP_CHECK_GE(max_queued, 0);
}

StatusOr<AdmissionController::Grant> AdmissionController::Admit(
    int64_t estimated_bytes) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (counters_.inflight >= max_inflight_) {
    if (queued_ >= max_queued_) {
      ++counters_.rejected_overload;
      return UnavailableError(
          "admission queue full (" + std::to_string(counters_.inflight) +
          " in flight, " + std::to_string(queued_) + " queued)");
    }
    ++queued_;
    counters_.peak_queued = std::max(counters_.peak_queued, queued_);
    slot_free_.wait(lock,
                    [this] { return counters_.inflight < max_inflight_; });
    --queued_;
  }
  ++counters_.inflight;
  ++counters_.admitted;
  counters_.inflight_bytes += estimated_bytes;
  counters_.peak_inflight =
      std::max(counters_.peak_inflight, counters_.inflight);
  counters_.peak_inflight_bytes =
      std::max(counters_.peak_inflight_bytes, counters_.inflight_bytes);
  return Grant(this, estimated_bytes);
}

void AdmissionController::Release(int64_t estimated_bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MPCQP_CHECK_GT(counters_.inflight, 0);
    --counters_.inflight;
    counters_.inflight_bytes -= estimated_bytes;
  }
  slot_free_.notify_one();
}

AdmissionController::Counters AdmissionController::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace mpcqp
