#include "obs/trace.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

namespace obs {

const char* to_string(Stage s) {
  switch (s) {
    case Stage::kAdmit:
      return "admit";
    case Stage::kQueue:
      return "queue";
    case Stage::kBatch:
      return "batch";
    case Stage::kExec:
      return "exec";
    case Stage::kComplete:
      return "complete";
  }
  return "?";
}

bool EnvFlag(const char* name, bool def) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return def;
  std::string v(raw);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  std::fprintf(stderr,
               "dialga: %s='%s' is not a valid flag; using default %s\n",
               name, raw, def ? "on" : "off");
  return def;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::Global() {
  static Tracer* t = [] {
    auto* tracer = new Tracer;
    tracer->set_enabled(EnvFlag("DIALGA_TRACE", false));
    return tracer;
  }();
  return *t;
}

double Tracer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Tracer::set_sample_every(std::uint64_t n) {
  sample_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

void Tracer::set_capacity(std::size_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  capacity_ = n == 0 ? 1 : n;
  while (completed_.size() > capacity_) {
    completed_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t Tracer::begin(const char* op, std::size_t k, std::size_t m,
                            std::size_t block) {
  if (!enabled()) return 0;
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t every = sample_every_.load(std::memory_order_relaxed);
  if (every > 1 && id % every != 0) return 0;
  StripeSpan span;
  span.id = id;
  span.op = op;
  span.k = k;
  span.m = m;
  span.block = block;
  span.start_s = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  open_.emplace(id, std::move(span));
  return id;
}

void Tracer::event(std::uint64_t id, Stage stage) {
  if (id == 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  StripeSpan& span = it->second;
  const double rel = t - span.start_s;
  switch (stage) {
    case Stage::kAdmit:
      break;  // implicit in begin()
    case Stage::kQueue:
      span.queue_s = rel;
      break;
    case Stage::kBatch:
      span.batch_s = rel;
      break;
    case Stage::kExec:
      span.exec_s = rel;
      break;
    case Stage::kComplete:
      span.total_s = rel;
      break;
  }
}

void Tracer::annotate(std::uint64_t id, const std::string& note) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  if (!it->second.note.empty()) it->second.note += "; ";
  it->second.note += note;
}

void Tracer::finish(std::uint64_t id, const char* status) {
  if (id == 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  StripeSpan span = std::move(it->second);
  open_.erase(it);
  span.status = status;
  span.total_s = t - span.start_s;
  completed_.push_back(std::move(span));
  while (completed_.size() > capacity_) {
    completed_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<StripeSpan> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {completed_.begin(), completed_.end()};
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  open_.clear();
  completed_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

void Tracer::dump_jsonl(std::ostream& os) const {
  char buf[64];
  for (const StripeSpan& s : snapshot()) {
    os << "{\"span\":\"stripe\",\"id\":" << s.id << ",\"op\":\"" << s.op
       << "\",\"k\":" << s.k << ",\"m\":" << s.m << ",\"block\":" << s.block;
    const auto field = [&](const char* name, double v) {
      if (v < 0.0) return;  // stage never reached
      std::snprintf(buf, sizeof(buf), ",\"%s\":%.9g", name, v);
      os << buf;
    };
    std::snprintf(buf, sizeof(buf), ",\"start_s\":%.9g", s.start_s);
    os << buf;
    field("queue_s", s.queue_s);
    field("batch_s", s.batch_s);
    field("exec_s", s.exec_s);
    field("total_s", s.total_s);
    os << ",\"status\":\"" << s.status << "\"";
    if (!s.note.empty()) os << ",\"note\":\"" << s.note << "\"";
    os << "}\n";
  }
}

bool Tracer::dump_to_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  dump_jsonl(out);
  return static_cast<bool>(out);
}

}  // namespace obs
