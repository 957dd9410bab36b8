#ifndef MPCQP_SERVE_ADMISSION_H_
#define MPCQP_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>

#include "common/status.h"
#include "common/statusor.h"

namespace mpcqp {

// Bounded admission-control queue for the serving runtime: at most
// `max_inflight` queries execute at once, at most `max_queued` more wait
// for a slot, and anything beyond that is rejected immediately with
// UNAVAILABLE (fail fast under overload instead of building an unbounded
// backlog). Per-query memory budgeting happens in QueryServer before
// admission (a query whose estimated footprint exceeds the budget never
// takes a slot); the controller additionally tracks the total estimated
// bytes of admitted queries so operators can see pressure.
//
// Thread-safe; Admit() blocks (FIFO via condition variable) until a slot
// frees.
class AdmissionController {
 public:
  struct Counters {
    int64_t admitted = 0;
    int64_t rejected_overload = 0;
    int inflight = 0;
    int peak_inflight = 0;
    int peak_queued = 0;
    int64_t inflight_bytes = 0;
    int64_t peak_inflight_bytes = 0;
  };

  // One admitted query's slot and bytes, handed back when the grant is
  // destroyed, so no return path can leak capacity. Move-only.
  class Grant {
   public:
    Grant(Grant&& other) noexcept
        : owner_(std::exchange(other.owner_, nullptr)),
          bytes_(other.bytes_) {}
    ~Grant() {
      if (owner_ != nullptr) owner_->Release(bytes_);
    }

   private:
    friend class AdmissionController;
    Grant(AdmissionController* owner, int64_t bytes)
        : owner_(owner), bytes_(bytes) {}

    AdmissionController* owner_;
    int64_t bytes_;
  };

  AdmissionController(int max_inflight, int max_queued);

  // Blocks until one of the max_inflight slots is free, charging
  // `estimated_bytes` to the in-flight total until the grant is destroyed;
  // UNAVAILABLE when the wait queue is already full.
  StatusOr<Grant> Admit(int64_t estimated_bytes);

  Counters counters() const;

 private:
  void Release(int64_t estimated_bytes);

  const int max_inflight_;
  const int max_queued_;
  mutable std::mutex mutex_;
  std::condition_variable slot_free_;
  int queued_ = 0;  // Guarded by mutex_.
  Counters counters_;
};

}  // namespace mpcqp

#endif  // MPCQP_SERVE_ADMISSION_H_
