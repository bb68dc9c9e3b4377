#include "hostspeed.hpp"

#include <sys/time.h>
#include <time.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstddef>

namespace mlfsbench {

namespace {

constexpr std::size_t kKernelWidth = 256;
constexpr int kKernelRounds = 5;

/// Kernel inputs, filled at start() so the compiler cannot fold the kernel.
double g_inputs[kKernelWidth];
volatile double g_sink = 0.0;

std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::int64_t> g_kernel_ns{0};
bool g_running = false;
struct sigaction g_previous {};

static_assert(std::atomic<std::int64_t>::is_always_lock_free,
              "the handler updates the counters with lock-free atomics");

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Fixed work: the same inputs and operations on every call.
void kernel() {
  double acc = 0.0;
  for (int round = 0; round < kKernelRounds; ++round) {
    for (const double v : g_inputs) {
      acc += 0.7 * std::exp(-0.01 * v) + 0.3 * std::log1p(0.5 * v) + std::pow(v + 1.0, -0.4);
    }
  }
  g_sink = g_sink + acc;
}

void on_sigprof(int) {
  const int saved_errno = errno;
  const std::int64_t start = thread_cpu_ns();
  kernel();
  g_kernel_ns.fetch_add(thread_cpu_ns() - start, std::memory_order_relaxed);
  g_calls.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
}

void set_timer(long interval_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

}  // namespace

void HostSpeed::start() {
  if (g_running) return;
  for (std::size_t i = 0; i < kKernelWidth; ++i) g_inputs[i] = 1.0 + 0.37 * static_cast<double>(i);
  struct sigaction action {};
  action.sa_handler = on_sigprof;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, &g_previous);
  set_timer(kIntervalUs);
  g_running = true;
}

void HostSpeed::stop() {
  if (!g_running) return;
  set_timer(0);
  sigaction(SIGPROF, &g_previous, nullptr);
  g_running = false;
}

SpeedReading HostSpeed::read() {
  for (;;) {
    const std::uint64_t calls = g_calls.load();
    const std::int64_t ns = g_kernel_ns.load();
    if (g_calls.load() == calls) return {calls, ns};
  }
}

std::int64_t HostSpeed::cpu_ns() {
  // Retry if the kernel ran between the two counter reads.
  for (;;) {
    const std::uint64_t calls = g_calls.load();
    const std::int64_t kernel_ns = g_kernel_ns.load();
    const std::int64_t cpu = thread_cpu_ns();
    if (g_calls.load() == calls) return cpu - kernel_ns;
  }
}

double HostSpeed::speed(const SpeedReading& from, const SpeedReading& to, double fallback) {
  const std::uint64_t calls = to.calls - from.calls;
  const std::int64_t ns = to.kernel_ns - from.kernel_ns;
  if (calls == 0 || ns <= 0) return fallback;
  return kReferenceKernelNs * static_cast<double>(calls) / static_cast<double>(ns);
}

}  // namespace mlfsbench
