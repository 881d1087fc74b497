#include "serve/scheduler.hpp"

#include <algorithm>
#include <sstream>

#include "compress/planner.hpp"
#include "osc/coded_group.hpp"

namespace lossyfft::serve {

std::string Scheduler::admit(const SessionConfig& cfg) const {
  for (int d = 0; d < 3; ++d) {
    if (cfg.n[d] < 2) return "grid extents must be >= 2";
  }
  const std::uint64_t elems = std::uint64_t(cfg.n[0]) * cfg.n[1] * cfg.n[2];
  if (elems > limits_.max_grid_elems) {
    std::ostringstream os;
    os << "grid of " << elems << " elements exceeds the " <<
        limits_.max_grid_elems << "-element ceiling";
    return os.str();
  }
  if (cfg.family < -1 ||
      cfg.family > static_cast<int>(CodecFamily::kLossless)) {
    return "unknown codec family";
  }
  if (cfg.family >= 0) {
    if (!(cfg.e_tol > 0.0)) return "lossy sessions need e_tol > 0";
    if (cfg.e_tol < limits_.min_e_tol) {
      return "e_tol below the daemon's accuracy floor";
    }
  }
  if (cfg.backend != static_cast<std::uint8_t>(ExchangeBackend::kPairwise) &&
      cfg.backend != static_cast<std::uint8_t>(ExchangeBackend::kOsc)) {
    return "unknown exchange backend";
  }
  if (cfg.sync > 1) return "unknown one-sided sync mode";
  if (cfg.parity > osc::coded::kMaxParity) return "parity beyond kMaxParity";
  if (cfg.qos.priority < 0 || cfg.qos.priority > limits_.max_priority) {
    return "priority outside the daemon's ladder";
  }
  if (cfg.qos.rate < 0.0 || cfg.qos.rate > limits_.max_rate) {
    return "rate outside the daemon's admission range";
  }
  if (cfg.qos.max_inflight < 1 ||
      cfg.qos.max_inflight > limits_.max_inflight) {
    return "max_inflight outside the daemon's range";
  }
  return std::string();
}

bool Scheduler::add(const std::shared_ptr<Session>& s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= limits_.max_sessions) return false;
  // A fresh session starts with a full bucket so its first job is never
  // throttled; last_refill is stamped on the first pick() that sees it.
  s->tokens = std::max(1.0, s->cfg.qos.rate);
  s->last_refill = -1.0;
  sessions_[s->id] = s;
  return true;
}

void Scheduler::remove(std::uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(session_id);
}

std::size_t Scheduler::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

bool Scheduler::enqueue(const std::shared_ptr<Session>& s,
                        const std::shared_ptr<Job>& job,
                        std::string* deny_reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (s->inflight >= s->cfg.qos.max_inflight) {
    if (deny_reason) *deny_reason = "session in-flight cap reached";
    return false;
  }
  ++s->inflight;
  s->queue.push_back(job);
  return true;
}

std::shared_ptr<Job> Scheduler::pick(double now_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  Session* best = nullptr;
  for (auto& [id, sp] : sessions_) {
    Session* s = sp.get();
    if (s->queue.empty()) continue;
    const double rate = s->cfg.qos.rate;
    if (rate > 0.0) {
      if (s->last_refill < 0.0) {
        s->last_refill = now_seconds;  // First sighting: bucket is full.
      } else if (now_seconds > s->last_refill) {
        // Burst capacity of one second's worth of admissions (>= 1 so a
        // slow-rate session can always eventually run).
        const double burst = std::max(1.0, rate);
        s->tokens = std::min(burst,
                             s->tokens + (now_seconds - s->last_refill) * rate);
        s->last_refill = now_seconds;
      }
      if (s->tokens < 1.0) continue;  // Throttled this tick.
    }
    if (best == nullptr || s->cfg.qos.priority > best->cfg.qos.priority ||
        (s->cfg.qos.priority == best->cfg.qos.priority &&
         s->last_pick < best->last_pick)) {
      best = s;
    }
  }
  if (best == nullptr) return nullptr;
  if (best->cfg.qos.rate > 0.0) best->tokens -= 1.0;
  best->last_pick = ++pick_seq_;
  std::shared_ptr<Job> job = std::move(best->queue.front());
  best->queue.pop_front();
  return job;
}

void Scheduler::finish(const std::shared_ptr<Session>& s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (s->inflight > 0) --s->inflight;
}

std::vector<std::shared_ptr<Job>> Scheduler::drain(
    const std::shared_ptr<Session>& s) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Job>> dropped(s->queue.begin(), s->queue.end());
  s->queue.clear();
  s->inflight -= static_cast<std::uint32_t>(
      std::min<std::size_t>(dropped.size(), s->inflight));
  return dropped;
}

}  // namespace lossyfft::serve
