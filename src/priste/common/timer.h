#ifndef PRISTE_COMMON_TIMER_H_
#define PRISTE_COMMON_TIMER_H_

#include <chrono>
#include <cmath>

namespace priste {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A wall-clock budget. `Deadline::Infinite()` never expires; used by the
/// QP solver's conservative-release threshold (paper Section IV-C).
///
/// Thread affinity: a Deadline is IMMUTABLE after construction — Expired()
/// and is_infinite() only read const state — so one Deadline may be shared
/// by value or const reference across threads. Keep it that way — any
/// future mutating API (e.g. Extend()) must either take ownership semantics
/// or copy-on-write, not mutate in place.
class Deadline {
 public:
  /// A deadline `seconds` from now. Non-positive values (including NaN)
  /// expire immediately; budgets too large for the clock to represent —
  /// +inf, or anything past ~292 years of steady_clock ticks — saturate to
  /// Infinite(). (The naive duration_cast overflows its integer tick count
  /// on such inputs, which is UB that in practice wrapped a huge budget into
  /// an ALREADY-EXPIRED deadline — the exact opposite of what the caller
  /// asked for.)
  static Deadline After(double seconds) {
    if (std::isnan(seconds) || seconds <= 0.0) {
      Deadline d;
      d.infinite_ = false;
      d.deadline_ = Clock::now();
      return d;
    }
    // Saturate at half the clock's representable range (~146 years for a
    // nanosecond steady_clock): duration_cast would overflow near the full
    // range, and `now + duration` needs headroom for the clock's current
    // reading too. No meaningful budget lives anywhere near this.
    const double max_seconds =
        0.5 * std::chrono::duration<double>(Clock::duration::max()).count();
    if (seconds >= max_seconds) return Infinite();
    Deadline d;
    d.infinite_ = false;
    d.deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
    return d;
  }

  static Deadline Infinite() { return Deadline(); }

  bool Expired() const {
    return !infinite_ && Clock::now() >= deadline_;
  }

  bool is_infinite() const { return infinite_; }

 private:
  using Clock = std::chrono::steady_clock;
  Deadline() : infinite_(true) {}

  bool infinite_;
  Clock::time_point deadline_{};
};

}  // namespace priste

#endif  // PRISTE_COMMON_TIMER_H_
