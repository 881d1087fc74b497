#include "steal.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "traced.hpp"

namespace perfbench {

namespace {

/// Sum of the steal column over `cpus` in /proc/stat, or 0.
long long read_steal(const std::vector<int>& cpus) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  long long total = 0;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    int cpu = -1;
    long long v[8] = {0};
    if (std::sscanf(line, "cpu%d %lld %lld %lld %lld %lld %lld %lld %lld",
                    &cpu, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                    &v[7]) == 9 &&
        std::find(cpus.begin(), cpus.end(), cpu) != cpus.end()) {
      total += v[7];
    }
  }
  std::fclose(f);
  return total;
}

}  // namespace

StealMonitor::StealMonitor() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  readings_.reserve(1 << 12);
  readings_.push_back({Tracer::now(), read_steal(cpus_)});
  latest_.store(readings_.back().ticks);
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      readings_.push_back({Tracer::now(), read_steal(cpus_)});
      latest_.store(readings_.back().ticks);
    }
  });
}

void StealMonitor::stop() {
  if (thread_.joinable()) {
    stop_.store(true);
    thread_.join();
  }
}

void QuietCounter::update(std::int64_t now, std::size_t samples) {
  while (now >= window_end_) {
    const long long ticks = monitor_.latest();
    if (ticks - ticks_at_start_ <= kQuietTicks) {
      ++quiet_windows_;
      quiet_samples_ += samples - samples_at_start_;
    }
    ticks_at_start_ = ticks;
    samples_at_start_ = samples;
    window_end_ += 1'000'000'000;
  }
}

std::string QuietSelection::describe() const {
  std::ostringstream os;
  os << "host_steal ticks " << steal_ticks << " in " << windows
     << " windows; kept " << kept_windows << " windows (" << kept_steal_ticks
     << " ticks), " << ms.size() << " samples";
  return os.str();
}

QuietSelection select_quiet(const std::vector<std::int64_t>& start_ns,
                            const std::vector<double>& ms,
                            std::int64_t t_begin, std::int64_t t_end,
                            const std::vector<StealMonitor::Reading>& steal,
                            std::size_t min_samples, std::size_t min_windows) {
  QuietSelection sel;
  const std::int64_t span = std::max<std::int64_t>(t_end - t_begin, 1);
  const auto nw = static_cast<std::size_t>(
      std::max<std::int64_t>(1, span / 1'000'000'000));
  // Cumulative steal at time t: the last reading at or before t.
  const auto ticks_at = [&](std::int64_t t) {
    long long v = steal.empty() ? 0 : steal.front().ticks;
    for (const auto& r : steal) {
      if (r.t_ns > t) break;
      v = r.ticks;
    }
    return v;
  };
  std::vector<long long> wsteal(nw);
  for (std::size_t w = 0; w < nw; ++w) {
    const std::int64_t a = t_begin + span * static_cast<std::int64_t>(w) /
                                         static_cast<std::int64_t>(nw);
    const std::int64_t b = t_begin + span * static_cast<std::int64_t>(w + 1) /
                                         static_cast<std::int64_t>(nw);
    wsteal[w] = ticks_at(b) - ticks_at(a);
    sel.steal_ticks += wsteal[w];
  }
  std::vector<std::size_t> window_of(ms.size()), count(nw);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    window_of[i] = static_cast<std::size_t>(std::clamp<std::int64_t>(
        (start_ns[i] - t_begin) * static_cast<std::int64_t>(nw) / span, 0,
        static_cast<std::int64_t>(nw) - 1));
    ++count[window_of[i]];
  }
  // Quietest windows first (stable: earlier windows win ties): all quiet
  // ones, then others only while the kept ones are too few.
  std::vector<std::size_t> order(nw);
  for (std::size_t w = 0; w < nw; ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return wsteal[x] < wsteal[y];
  });
  std::vector<char> keep(nw, 0);
  std::size_t kept_samples = 0;
  for (std::size_t k = 0; k < nw; ++k) {
    const std::size_t w = order[k];
    const bool enough = kept_samples >= min_samples &&
                        sel.kept_windows >= min_windows;
    if (enough && wsteal[w] > kQuietTicks) break;
    keep[w] = 1;
    kept_samples += count[w];
    ++sel.kept_windows;
    sel.kept_steal_ticks += wsteal[w];
  }
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (keep[window_of[i]]) sel.ms.push_back(ms[i]);
  }
  sel.windows = nw;
  sel.seconds = static_cast<double>(span) * 1e-9 *
                static_cast<double>(sel.kept_windows) /
                static_cast<double>(nw);
  return sel;
}

}  // namespace perfbench
