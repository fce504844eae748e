// Injectable monotonic time for deadline enforcement.
//
// The serving stack checks request deadlines "is it too late to keep
// working on this?" at dispatch boundaries. Wall-clock reads make those
// checks untestable (a test cannot make 50ms pass deterministically), so
// every deadline consumer takes a `const Clock*` and production passes
// SystemClock::Get(). Tests pass a FakeClock and advance it by hand (or
// let it auto-advance per read, which makes "the request ran long"
// reproducible to the nanosecond).
//
// Deadline is a value type over that clock: a fixed instant, compared
// against Clock::NowNanos(). It deliberately does not capture the clock
// pointer — a Deadline is data, the clock is context — so deadlines can
// cross threads without aliasing concerns.
//
// Transport-level timeouts (the event loop's write-stall drop, which
// waits in epoll_wait) necessarily run on the OS clock and are out of
// scope here; see server/event_loop.h.
#ifndef RWDOM_UTIL_CLOCK_H_
#define RWDOM_UTIL_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace rwdom {

/// Monotonic nanosecond clock. Implementations must be thread-safe.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual int64_t NowNanos() const = 0;
};

/// The process-wide steady clock (never nullptr, never destroyed).
class SystemClock : public Clock {
 public:
  int64_t NowNanos() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  static const SystemClock* Get() {
    static const SystemClock clock;
    return &clock;
  }
};

/// Test clock: starts at a fixed instant, moves only when told to.
/// `set_auto_advance_millis(ms)` makes every NowNanos() read advance time
/// by `ms` afterwards — the deterministic stand-in for "the work between
/// two clock reads took ms milliseconds".
class FakeClock : public Clock {
 public:
  explicit FakeClock(int64_t start_nanos = 0) : now_nanos_(start_nanos) {}

  int64_t NowNanos() const override {
    return now_nanos_.fetch_add(auto_advance_nanos_.load());
  }

  void AdvanceMillis(int64_t millis) {
    now_nanos_.fetch_add(millis * 1'000'000);
  }

  void set_auto_advance_millis(int64_t millis) {
    auto_advance_nanos_.store(millis * 1'000'000);
  }

 private:
  mutable std::atomic<int64_t> now_nanos_;
  std::atomic<int64_t> auto_advance_nanos_{0};
};

/// A fixed instant on some Clock; kInfinitePast/never semantics via
/// Infinite(). Cheap to copy, safe to share across threads.
class Deadline {
 public:
  /// Never expires (the "no --request_timeout_ms configured" value).
  static Deadline Infinite() {
    return Deadline(std::numeric_limits<int64_t>::max());
  }

  /// `millis` from `clock`'s current time. Non-positive millis means an
  /// already-expired deadline (useful for "fail everything" tests).
  static Deadline AfterMillis(const Clock& clock, int64_t millis) {
    return Deadline(clock.NowNanos() + millis * 1'000'000);
  }

  bool infinite() const {
    return nanos_ == std::numeric_limits<int64_t>::max();
  }

  bool Expired(const Clock& clock) const {
    return !infinite() && clock.NowNanos() >= nanos_;
  }

  /// Time left, floored at 0; infinite deadlines report int64 max.
  int64_t RemainingMillis(const Clock& clock) const {
    if (infinite()) return std::numeric_limits<int64_t>::max();
    const int64_t remaining = nanos_ - clock.NowNanos();
    return remaining <= 0 ? 0 : remaining / 1'000'000;
  }

 private:
  explicit Deadline(int64_t nanos) : nanos_(nanos) {}
  int64_t nanos_;
};

}  // namespace rwdom

#endif  // RWDOM_UTIL_CLOCK_H_
