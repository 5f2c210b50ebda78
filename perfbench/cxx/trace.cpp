#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {
thread_local std::vector<int> open_spans;
}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), recording_(enabled), epoch_(now_s()) {}

double Tracer::now() const { return now_s() - epoch_; }

int Tracer::begin(const char* name, int parent, long long job) {
  if (!recording_) return kNone;
  if (parent == kNone && !open_spans.empty()) parent = open_spans.back();
  const double t = now();
  int id = kNone;
  {
    std::lock_guard lock(mutex_);
    const auto [it, inserted] = tids_.try_emplace(
        std::this_thread::get_id(), static_cast<int>(tids_.size()));
    id = static_cast<int>(spans_.size());
    spans_.push_back({name, t, -1.0, parent, job, it->second});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id == kNone) return;
  const double t = now();
  {
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  const auto it = std::find(open_spans.rbegin(), open_spans.rend(), id);
  if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
}

void Tracer::record(const char* name, double start, double end, int parent,
                    long long job) {
  if (!recording_) return;
  std::lock_guard lock(mutex_);
  const auto [it, inserted] = tids_.try_emplace(
      std::this_thread::get_id(), static_cast<int>(tids_.size()));
  spans_.push_back({name, start - epoch_, end - epoch_, parent, job,
                    it->second});
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNone && s.end >= 0.0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0.0) continue;
    // Union of the children's intervals, clipped to this span.
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [b, e] : c) {
      const double lo = std::max(b, reach);
      const double hi = std::min(e, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(e, s.end));
    }
    const auto dot = s.name.rfind('.');
    const std::string layer =
        dot == std::string::npos ? s.name : s.name.substr(0, dot);
    self[layer] += (s.end - s.start) - covered;
  }
  return self;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double end = s.end < 0.0 ? s.start : s.end;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"job\":%lld}}",
                 i == 0 ? "" : ",\n", s.name.c_str(),
                 s.name.substr(0, s.name.rfind('.')).c_str(), s.tid,
                 s.start * 1e6, (end - s.start) * 1e6, i, s.parent, s.job);
  }
  std::fputs("\n]\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot close " + path);
}

}  // namespace perfbench
