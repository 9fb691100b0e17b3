//===- Timer.h - Wall-clock timing ------------------------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal wall-clock stopwatch used by the experiment harness and by the
/// StaticBF per-method timing reported in Table 1.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_SUPPORT_TIMER_H
#define BIGFOOT_SUPPORT_TIMER_H

#include <chrono>

namespace bigfoot {

/// A stopwatch measuring elapsed wall-clock seconds since construction or
/// the last reset().
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  void reset() { Start = Clock::now(); }

  /// Elapsed seconds since the last reset.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

} // namespace bigfoot

#endif // BIGFOOT_SUPPORT_TIMER_H
