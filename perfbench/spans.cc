#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_mutex;
std::vector<Span> g_spans;  // guarded by g_mutex

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

uint64_t NewSpanId() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t RecordSpan(const char* name, uint64_t request, uint64_t parent,
                    uint64_t start_ns, uint64_t end_ns, uint64_t id) {
  if (!Tracing()) return 0;
  Span span;
  span.name = name;
  span.id = id != 0 ? id : NewSpanId();
  span.parent = parent;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = std::max(start_ns, end_ns);
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(span);
  return span.id;
}

std::vector<Span> TakeSpans() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<Span> out;
  out.swap(g_spans);
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%llu,\"end_ns\":%llu}%s\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

uint64_t SelfNs(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<uint64_t, uint64_t>> parts;
  parts.reserve(children.size());
  for (const Span& c : children) {
    const uint64_t lo = std::max(c.start_ns, parent.start_ns);
    const uint64_t hi = std::min(c.end_ns, parent.end_ns);
    if (lo < hi) parts.emplace_back(lo, hi);
  }
  std::sort(parts.begin(), parts.end());
  uint64_t covered = 0;
  uint64_t reach = parent.start_ns;
  for (const auto& [lo, hi] : parts) {
    const uint64_t from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return (parent.end_ns - parent.start_ns) - covered;
}

}  // namespace perfbench
