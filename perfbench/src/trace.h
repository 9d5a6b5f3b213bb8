// Span tracing for the benchmark's traced run (--trace 1).
//
// The benchmark wraps its calls into each layer's public functions in
// spans: name, start, end, the enclosing span on the same thread, and a
// tag (batch or request id). Spans are kept in per-thread memory, summed
// per name as they close (count and self time = duration minus the time
// covered by child spans), and written out when the run ends.
// With tracing off a span costs one predictable branch.
//
// Tracing is switched on and off, and its totals are read or reset, only
// while no other thread is inside a span (between passes, after joins).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>

namespace perfbench {

using SpanName = uint16_t;

struct SpanTotals {
  uint64_t count = 0;
  int64_t self_ns = 0;  // duration minus the time child spans cover
};

namespace trace_internal {
extern bool g_enabled;
void Begin(SpanName name, uint64_t tag);
void End();
}  // namespace trace_internal

class Tracer {
 public:
  static void SetEnabled(bool on) { trace_internal::g_enabled = on; }

  // Stable small id for a span name; call once per call site.
  static SpanName Intern(const char* name);

  // Summed over every thread; zero totals for a name never recorded.
  static SpanTotals TotalsFor(const char* name);

  // Drops every recorded span and total.
  static void Reset();

  // Writes every kept span as tab-separated text. Returns false on an IO
  // error. Spans beyond the per-thread cap are counted in totals but not
  // kept; the file header says how many were dropped.
  static bool Write(const std::string& path);
};

// Self time of `name` per unit of `per` (0 when `per` is 0).
inline double SelfNsPer(const char* name, double per) {
  return per > 0 ? static_cast<double>(Tracer::TotalsFor(name).self_ns) / per
                 : 0;
}

// Mean self time of one `name` span (0 when none was recorded).
inline double SelfNsPerSpan(const char* name) {
  const SpanTotals totals = Tracer::TotalsFor(name);
  return totals.count > 0 ? static_cast<double>(totals.self_ns) /
                                static_cast<double>(totals.count)
                          : 0;
}

class Span {
 public:
  explicit Span(SpanName name, uint64_t tag = 0)
      : active_(trace_internal::g_enabled) {
    if (active_) trace_internal::Begin(name, tag);
  }
  ~Span() {
    if (active_) trace_internal::End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

}  // namespace perfbench

#define PERFBENCH_CONCAT_INNER(a, b) a##b
#define PERFBENCH_CONCAT(a, b) PERFBENCH_CONCAT_INNER(a, b)

// Opens a span named `name` (a string literal) until the end of the scope.
#define PERFBENCH_SPAN(name, tag)                                        \
  static const ::perfbench::SpanName PERFBENCH_CONCAT(span_id_,          \
                                                      __LINE__) =        \
      ::perfbench::Tracer::Intern(name);                                 \
  ::perfbench::Span PERFBENCH_CONCAT(span_, __LINE__)(                   \
      PERFBENCH_CONCAT(span_id_, __LINE__), (tag))

#endif  // PERFBENCH_TRACE_H_
