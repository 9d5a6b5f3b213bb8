#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <ctime>
#include <utility>

#include "common.h"
#include "trace.h"

namespace perfbench {

namespace net = objalloc::net;
namespace util = objalloc::util;

namespace {

// A reply that has not come within this long means the server hung.
constexpr int64_t kStallNs = int64_t{10} * 1000 * 1000 * 1000;
// Open-loop windows, by due time.
constexpr int64_t kOpenWindowNs = 500 * 1000 * 1000;

}  // namespace

LoadGenerator::LoadGenerator(std::vector<std::vector<WireEvent>> events) {
  conns_.resize(events.size());
  for (size_t c = 0; c < events.size(); ++c) {
    conns_[c].events = std::move(events[c]);
    conns_[c].admitted.assign(conns_[c].events.size(), 0);
    conns_[c].costs.assign(conns_[c].events.size(), 0.0);
  }
  // Timer slack of this (the generator) thread: 1 us instead of the
  // default 50 us, so ppoll wake-ups land near the due times.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
}

util::Status LoadGenerator::Connect(uint16_t port) {
  for (Conn& conn : conns_) {
    util::Status status = conn.client.Connect("127.0.0.1", port);
    if (!status.ok()) return status;
    conn.event_of_id.clear();
    conn.start_ns_of_id.clear();
    conn.outstanding = 0;
  }
  return stats_client_.Connect("127.0.0.1", port);
}

void LoadGenerator::Close() {
  for (Conn& conn : conns_) conn.client.Close();
  stats_client_.Close();
}

bool LoadGenerator::Send(Conn* conn, int64_t start_ns, PhaseResult* phase) {
  const size_t index = conn->cursor++;
  const WireEvent& event = conn->events[index];
  util::StatusOr<uint64_t> id = [&] {
    PERFBENCH_SPAN("net.Client::SendServe", index);
    return conn->client.SendServe(event.is_write, event.object,
                                  event.processor);
  }();
  if (!id.ok()) {
    phase->error = "send failed: " + id.status().ToString();
    return false;
  }
  if (*id != conn->event_of_id.size() + 1) {
    phase->error = "request ids are not sequential";
    return false;
  }
  conn->event_of_id.push_back(static_cast<uint32_t>(index));
  conn->start_ns_of_id.push_back(start_ns);
  ++conn->outstanding;
  if (event.is_write) {
    ++phase->writes;
  } else {
    ++phase->reads;
  }
  return true;
}

bool LoadGenerator::Drain(Conn* conn, PhaseResult* phase,
                          uint64_t* received) {
  while (conn->outstanding > 0) {
    util::StatusOr<net::Client::Reply> reply = [&] {
      PERFBENCH_SPAN("net.Client::WaitReply", 0);
      return conn->client.WaitReply(0);
    }();
    if (!reply.ok()) {
      if (reply.status().code() == util::StatusCode::kTimeout) return true;
      phase->error = "transport failure: " + reply.status().ToString();
      return false;
    }
    const int64_t now = NowNs();
    const uint64_t id = reply->request_id;
    if (id == 0 || id > conn->event_of_id.size()) {
      phase->error = "reply for a request never sent";
      return false;
    }
    const uint32_t index = conn->event_of_id[id - 1];
    --conn->outstanding;
    ++*received;
    if (reply->status.ok()) {
      conn->admitted[index] = 1;
      conn->costs[index] = reply->cost;
      const int64_t start_ns = conn->start_ns_of_id[id - 1];
      const double latency_us = static_cast<double>(now - start_ns) * 1e-3;
      phase->latency_us.push_back(latency_us);
      if (!phase->window_latency_us.empty()) {
        const size_t w = std::min(
            static_cast<size_t>(std::max<int64_t>(0, start_ns - window_origin_) /
                                kOpenWindowNs),
            phase->window_latency_us.size() - 1);
        phase->window_latency_us[w].push_back(latency_us);
      }
    } else if (conn->events[index].is_write) {
      ++phase->writes_failed;
    } else {
      ++phase->reads_failed;
    }
  }
  return true;
}

bool LoadGenerator::WaitReadable(int64_t timeout_ns, PhaseResult* phase,
                                 uint64_t* received) {
  pollfd fds[4];
  const size_t n = conns_.size();
  for (size_t c = 0; c < n; ++c) {
    fds[c].fd = conns_[c].client.fd();
    fds[c].events = POLLIN;
    fds[c].revents = 0;
  }
  timespec ts{};
  timespec* timeout = nullptr;
  if (timeout_ns >= 0) {
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000);
    timeout = &ts;
  }
  const int ready = ppoll(fds, n, timeout, nullptr);
  if (ready < 0) return true;  // EINTR: the caller loops
  for (size_t c = 0; c < n; ++c) {
    if (fds[c].revents != 0 && !Drain(&conns_[c], phase, received)) {
      return false;
    }
  }
  return true;
}

PhaseResult LoadGenerator::RunClosed(size_t events, size_t window) {
  PhaseResult phase;
  const size_t per_conn = events / conns_.size();
  std::vector<size_t> end(conns_.size());
  for (size_t c = 0; c < conns_.size(); ++c) {
    end[c] = conns_[c].cursor + per_conn;
    if (end[c] > conns_[c].events.size()) {
      phase.error = "closed loop: event list exhausted";
      return phase;
    }
  }
  const uint64_t total = per_conn * conns_.size();
  constexpr uint64_t kChunks = 10;
  uint64_t received = 0;
  const int64_t start = NowNs();
  int64_t last_progress = start;
  int64_t chunk_start = start;
  CpuTicks chunk_ticks = ReadCpuTicks();
  uint64_t chunk_base = 0;
  uint64_t chunk = 1;
  while (received < total) {
    for (size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      while (conn.outstanding < window && conn.cursor < end[c]) {
        if (!Send(&conn, NowNs(), &phase)) return phase;
      }
    }
    const uint64_t before = received;
    if (!WaitReadable(kStallNs, &phase, &received)) return phase;
    const int64_t now = NowNs();
    if (received != before) {
      last_progress = now;
    } else if (now - last_progress > kStallNs) {
      phase.error = "closed loop: no reply for 10 s";
      return phase;
    }
    // A chunk ends where a read of replies crosses its boundary; its rate
    // is the replies taken since the previous boundary over that time.
    if (received >= chunk * total / kChunks && now > chunk_start) {
      const CpuTicks ticks = ReadCpuTicks();
      phase.window_rates.push_back(
          static_cast<double>(received - chunk_base) /
          (static_cast<double>(now - chunk_start) * 1e-9));
      phase.window_steal.push_back(StealShare(chunk_ticks, ticks));
      while (chunk <= kChunks && chunk * total / kChunks <= received) ++chunk;
      chunk_start = now;
      chunk_ticks = ticks;
      chunk_base = received;
    }
  }
  phase.seconds = SecondsSince(start);
  return phase;
}

PhaseResult LoadGenerator::RunOpen(double rate, size_t events,
                                   double stats_interval_s) {
  PhaseResult phase;
  const size_t n = conns_.size();
  for (size_t c = 0; c < n; ++c) {
    const size_t share = events / n + (c < events % n ? 1 : 0);
    if (conns_[c].cursor + share > conns_[c].events.size()) {
      phase.error = "open loop: event list exhausted";
      return phase;
    }
  }
  const double interval_ns = 1e9 / rate;
  const int64_t stats_interval_ns =
      static_cast<int64_t>(stats_interval_s * 1e9);
  const int64_t start = NowNs() + 1000000;  // first request due in 1 ms
  window_origin_ = start;
  const int64_t last_due =
      start + static_cast<int64_t>(static_cast<double>(events) * interval_ns);
  auto due = [&](uint64_t k) {
    return start +
           static_cast<int64_t>(static_cast<double>(k) * interval_ns);
  };
  int64_t next_stats = start + stats_interval_ns;
  const size_t windows =
      static_cast<size_t>((last_due - start) / kOpenWindowNs) + 1;
  phase.window_latency_us.resize(windows);
  int64_t next_window = start + kOpenWindowNs;
  CpuTicks window_ticks = ReadCpuTicks();
  uint64_t k = 0;
  uint64_t received = 0;
  int64_t last_progress = start;
  while (k < events || received < events) {
    int64_t now = NowNs();
    if (now >= next_window && phase.window_steal.size() + 1 < windows) {
      const CpuTicks ticks = ReadCpuTicks();
      phase.window_steal.push_back(StealShare(window_ticks, ticks));
      window_ticks = ticks;
      next_window += kOpenWindowNs;
    }
    while (k < events && due(k) <= now) {
      const int64_t due_ns = due(k);
      phase.lateness_us.push_back(static_cast<double>(now - due_ns) * 1e-3);
      if (!Send(&conns_[k % n], due_ns, &phase)) return phase;
      ++k;
      now = NowNs();
    }
    if (stats_interval_ns > 0 && next_stats < last_due && next_stats <= now) {
      const CpuTicks ticks = ReadCpuTicks();
      const int64_t sent = NowNs();
      util::StatusOr<net::WireStats> stats = stats_client_.QueryStats();
      ++phase.stats;
      if (stats.ok()) {
        phase.stats_ms.push_back(static_cast<double>(NowNs() - sent) * 1e-6);
        phase.stats_steal.push_back(StealShare(ticks, ReadCpuTicks()));
        phase.stats_replies.push_back(*stats);
      } else {
        ++phase.stats_failed;
      }
      next_stats += stats_interval_ns;
      continue;
    }
    int64_t timeout = kStallNs;
    if (k < events) timeout = std::max<int64_t>(0, due(k) - now);
    if (stats_interval_ns > 0 && next_stats < last_due) {
      timeout = std::min(timeout, std::max<int64_t>(0, next_stats - now));
    }
    const uint64_t before = received;
    if (!WaitReadable(timeout, &phase, &received)) return phase;
    if (received != before || k < events) {
      last_progress = NowNs();
    } else if (NowNs() - last_progress > kStallNs) {
      phase.error = "open loop: no reply for 10 s";
      return phase;
    }
  }
  const double last_share = StealShare(window_ticks, ReadCpuTicks());
  while (phase.window_steal.size() < windows) {
    phase.window_steal.push_back(last_share);
  }
  phase.seconds = SecondsSince(start);
  return phase;
}

}  // namespace perfbench
