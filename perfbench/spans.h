// Span recorder for traced runs.
//
// Spans are recorded from the benchmark's own code around each call into
// a layer (or a seam the program takes from its caller), kept in memory,
// and written out once the run ends. Recording is a no-op while tracing
// is off, so an untraced run pays one relaxed load per call site.
#ifndef KPEF_PERFBENCH_SPANS_H_
#define KPEF_PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  /// Layer call, e.g. "serve.handle" (string literal).
  const char* name = "";
  uint64_t id = 0;
  /// Enclosing span's id (0 = root).
  uint64_t parent = 0;
  /// Operation the span belongs to (client request or batch number).
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  double Ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Monotonic nanoseconds (steady clock).
uint64_t NowNs();

bool Tracing();
void SetTracing(bool on);

/// Fresh span id (never 0).
uint64_t NewSpanId();

/// Records a completed span when tracing is on; returns its id (0 when
/// nothing was recorded). `id` 0 allocates a fresh one.
uint64_t RecordSpan(const char* name, uint64_t request, uint64_t parent,
                    uint64_t start_ns, uint64_t end_ns, uint64_t id = 0);

/// Moves every recorded span out of the recorder.
std::vector<Span> TakeSpans();

/// Writes spans as a JSON array to `path`.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// Self time of `parent`: its duration minus the part of it that the
/// union of `children` covers.
uint64_t SelfNs(const Span& parent, const std::vector<Span>& children);

}  // namespace perfbench

#endif  // KPEF_PERFBENCH_SPANS_H_
