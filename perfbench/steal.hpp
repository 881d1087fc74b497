// Host CPU steal: time the hypervisor ran something else while a guest's
// vCPU wanted to run. On a shared host it comes in bursts
// of seconds to tens of seconds and stalls whichever thread holds the
// stolen vCPU, which inflates latencies far beyond the stolen share. The
// timed loops therefore run until enough of their 1-second windows were
// quiet (steal measured on the benchmark's own CPUs) and report those
// windows, so a burst does not decide a run's result.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Cumulative steal ticks (USER_HZ) summed over the CPUs this process may
/// run on, sampled every 50 ms from a background thread between
/// construction and stop(). Without /proc/stat every reading is 0.
class StealMonitor {
 public:
  struct Reading {
    std::int64_t t_ns;  // steady_clock, as Tracer::now().
    long long ticks;
  };

  StealMonitor();
  ~StealMonitor() { stop(); }
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Stop sampling (idempotent); readings() is stable afterwards.
  void stop();
  const std::vector<Reading>& readings() const { return readings_; }
  /// The newest reading's ticks; callable while sampling runs.
  long long latest() const { return latest_.load(); }

 private:
  std::vector<int> cpus_;
  std::vector<Reading> readings_;
  std::atomic<long long> latest_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // Declared last: starts after the members it uses.
};

/// A window is quiet when at most this many steal ticks (10 ms each,
/// summed over the benchmark's CPUs) fell into its second.
inline constexpr long long kQuietTicks = 2;

/// Online count of quiet windows since `t_begin`, for deciding when a
/// timed loop has measured enough quiet time. One caller at a time.
class QuietCounter {
 public:
  QuietCounter(const StealMonitor& monitor, std::int64_t t_begin)
      : monitor_(monitor), window_end_(t_begin + 1'000'000'000),
        ticks_at_start_(monitor.latest()) {}

  /// Close every window that ended by `now`; `samples` is the number of
  /// samples completed so far.
  void update(std::int64_t now, std::size_t samples);
  bool enough(std::size_t min_samples, std::size_t min_windows) const {
    return quiet_samples_ >= min_samples && quiet_windows_ >= min_windows;
  }

 private:
  const StealMonitor& monitor_;
  std::int64_t window_end_;
  long long ticks_at_start_;
  std::size_t samples_at_start_ = 0;
  std::size_t quiet_samples_ = 0, quiet_windows_ = 0;
};

/// The samples a timed loop reports after dropping its stolen windows.
struct QuietSelection {
  std::vector<double> ms;    // Kept sample durations.
  double seconds = 0.0;      // Total length of the kept windows.
  std::size_t windows = 0, kept_windows = 0;
  long long steal_ticks = 0, kept_steal_ticks = 0;

  std::string describe() const;
};

/// Cut [t_begin, t_end) into ~1 s windows and keep every quiet one; when
/// those hold fewer than `min_samples` samples or `min_windows` windows,
/// add the least-stolen others until they do. A run without steal keeps
/// everything. Sample i started at start_ns[i] and took ms[i].
QuietSelection select_quiet(const std::vector<std::int64_t>& start_ns,
                            const std::vector<double>& ms,
                            std::int64_t t_begin, std::int64_t t_end,
                            const std::vector<StealMonitor::Reading>& steal,
                            std::size_t min_samples, std::size_t min_windows);

}  // namespace perfbench
