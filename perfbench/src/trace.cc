#include "trace.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "common.h"

namespace perfbench {
namespace trace_internal {

bool g_enabled = false;

namespace {

constexpr size_t kMaxKeptSpansPerThread = size_t{1} << 19;
constexpr size_t kMaxNames = 256;

struct Record {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t tag = 0;
  int32_t parent = -1;
  SpanName name = 0;
};

struct Frame {
  SpanName name = 0;
  int32_t record = -1;  // -1: not kept (over the cap)
  int64_t start_ns = 0;
  int64_t child_ns = 0;
};

struct ThreadBuffer {
  std::vector<Record> records;
  std::vector<Frame> stack;
  SpanTotals totals[kMaxNames] = {};
  uint64_t dropped = 0;
};

std::mutex g_mu;
std::vector<std::string> g_names;                     // guarded by g_mu
std::vector<std::unique_ptr<ThreadBuffer>> g_threads;  // guarded by g_mu

ThreadBuffer* Local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->records.reserve(4096);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_mu);
    g_threads.push_back(std::move(owned));
  }
  return buffer;
}

}  // namespace

void Begin(SpanName name, uint64_t tag) {
  ThreadBuffer* buffer = Local();
  Frame frame;
  frame.name = name;
  frame.start_ns = NowNs();
  if (buffer->records.size() < kMaxKeptSpansPerThread) {
    Record record;
    record.start_ns = frame.start_ns;
    record.tag = tag;
    record.name = name;
    record.parent = buffer->stack.empty() ? -1 : buffer->stack.back().record;
    frame.record = static_cast<int32_t>(buffer->records.size());
    buffer->records.push_back(record);
  } else {
    ++buffer->dropped;
  }
  buffer->stack.push_back(frame);
}

void End() {
  const int64_t now = NowNs();
  ThreadBuffer* buffer = Local();
  const Frame frame = buffer->stack.back();
  buffer->stack.pop_back();
  const int64_t duration = now - frame.start_ns;
  SpanTotals& totals = buffer->totals[frame.name];
  ++totals.count;
  totals.self_ns += duration - frame.child_ns;
  if (!buffer->stack.empty()) buffer->stack.back().child_ns += duration;
  if (frame.record >= 0) buffer->records[frame.record].end_ns = now;
}

}  // namespace trace_internal

using namespace trace_internal;

SpanName Tracer::Intern(const char* name) {
  std::lock_guard<std::mutex> lock(g_mu);
  for (size_t i = 0; i < g_names.size(); ++i) {
    if (g_names[i] == name) return static_cast<SpanName>(i);
  }
  if (g_names.size() >= kMaxNames) {
    std::fprintf(stderr, "too many span names\n");
    std::abort();
  }
  g_names.emplace_back(name);
  return static_cast<SpanName>(g_names.size() - 1);
}

SpanTotals Tracer::TotalsFor(const char* name) {
  std::lock_guard<std::mutex> lock(g_mu);
  SpanTotals sum;
  for (size_t i = 0; i < g_names.size(); ++i) {
    if (g_names[i] != name) continue;
    for (const auto& buffer : g_threads) {
      sum.count += buffer->totals[i].count;
      sum.self_ns += buffer->totals[i].self_ns;
    }
  }
  return sum;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buffer : g_threads) {
    buffer->records.clear();
    buffer->stack.clear();
    for (SpanTotals& totals : buffer->totals) totals = SpanTotals{};
    buffer->dropped = 0;
  }
}

bool Tracer::Write(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  uint64_t dropped = 0;
  for (const auto& buffer : g_threads) dropped += buffer->dropped;
  std::fprintf(out, "# spans beyond the per-thread cap, not kept: %llu\n",
               static_cast<unsigned long long>(dropped));
  std::fprintf(out, "thread\tspan\tname\tstart_ns\tend_ns\tparent\ttag\n");
  for (size_t t = 0; t < g_threads.size(); ++t) {
    const std::vector<Record>& records = g_threads[t]->records;
    for (size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      std::fprintf(out, "%zu\t%zu\t%s\t%lld\t%lld\t%d\t%llu\n", t, i,
                   g_names[r.name].c_str(), static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns), r.parent,
                   static_cast<unsigned long long>(r.tag));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
