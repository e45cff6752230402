// Monotonic wall clock for phase timings and trace spans.
#ifndef POLYNIMA_SUPPORT_CLOCK_H_
#define POLYNIMA_SUPPORT_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace polynima {

// Nanoseconds on the steady clock (arbitrary epoch; only differences mean
// anything).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace polynima

#endif  // POLYNIMA_SUPPORT_CLOCK_H_
