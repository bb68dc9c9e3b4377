// Host-speed meter. On a shared host the same code runs at a speed that
// changes from second to second (other tenants contend for the core), by
// about 20% in either direction, and a CPU-time clock does not remove
// that. The meter samples it: a profiling timer interrupts the process
// every kIntervalUs of CPU time and runs a fixed floating-point kernel
// (exp/log1p/pow, the mix of the simulator's curve fits). How long the
// kernel took, against its time on the reference host, is the host's
// speed at that moment; a measured interval is scaled by the mean speed
// over it, so the benchmark reports CPU time at reference host speed.
// The clock below subtracts the kernel's own CPU time from every reading.
#pragma once

#include <chrono>
#include <cstdint>

namespace mlfsbench {

/// Meter readings: kernel runs and their CPU nanoseconds since start().
struct SpeedReading {
  std::uint64_t calls = 0;
  std::int64_t kernel_ns = 0;
};

class HostSpeed {
 public:
  /// Profiling-timer period, in CPU microseconds.
  static constexpr long kIntervalUs = 10000;
  /// Kernel CPU time on the reference host (4-core Xeon VM, 2.0 GHz).
  static constexpr double kReferenceKernelNs = 63000.0;

  /// Installs the SIGPROF handler and starts the timer (idempotent).
  static void start();
  /// Stops the timer and restores the previous handler.
  static void stop();
  static SpeedReading read();
  /// CPU time of the calling thread minus the kernel's, in nanoseconds.
  static std::int64_t cpu_ns();
  /// Speed over the interval between two readings: the reference kernel
  /// time over the measured one (above 1 = faster than the reference
  /// host); `fallback` when no kernel ran in between.
  static double speed(const SpeedReading& from, const SpeedReading& to, double fallback);
};

/// CPU time (user + system) of the calling thread without the meter's
/// kernel; the simulator and the benchmark run on that one thread. Time
/// during which the host takes the CPU away (steal, other runnable
/// processes) is not charged to it. The thread clock is used because an
/// active profiling timer makes the process clock advance only at
/// scheduler ticks.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;

  static time_point now() noexcept { return time_point(duration(HostSpeed::cpu_ns())); }
};

}  // namespace mlfsbench
