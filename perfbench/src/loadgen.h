// The TCP load generator of the tcp_serve workload: ONE thread driving up
// to three pipelined net::Client connections that send reads and writes,
// plus one connection that only sends STATS.
//
// Each serve connection owns a pre-generated event list (its own disjoint
// object range, so per-object order equals per-connection send order and
// the admitted events can be replayed in-process). Two phases:
//
//   closed loop  every connection keeps a fixed window of requests
//                outstanding; latency runs from the send.
//   open loop    request k is due at start + k / rate, whatever the
//                replies do; latency runs from the due time, so a stall
//                also counts against the requests queued behind it, and
//                the generator reports how late it sent. STATS goes out
//                on its own connection at a fixed interval.
//
// The generator waits in ppoll() with a nanosecond timeout (never a busy
// poll, never whole milliseconds) and lowers its own timer slack so the
// wake-ups land close to the due times.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "objalloc/net/client.h"
#include "objalloc/util/status.h"

namespace perfbench {

struct WireEvent {
  int64_t object = 0;
  uint32_t processor = 0;
  bool is_write = false;
};

struct PhaseResult {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t reads_failed = 0;   // replies with a non-ok status
  uint64_t writes_failed = 0;
  uint64_t stats = 0;
  uint64_t stats_failed = 0;
  double seconds = 0;              // first send to last reply
  // The phase in windows (closed loop: tenths of the replies; open loop:
  // half seconds of due times), each with the host's steal share.
  std::vector<double> window_steal;
  std::vector<double> window_rates;  // closed loop: replies per second
  std::vector<std::vector<double>> window_latency_us;  // open loop
  std::vector<double> latency_us;  // ok replies only
  std::vector<double> lateness_us; // open loop: send time - due time
  std::vector<double> stats_ms;    // STATS round trips
  std::vector<double> stats_steal; // the host's steal share during each
  std::vector<objalloc::net::WireStats> stats_replies;
  std::string error;               // transport failure; empty when none
};

class LoadGenerator {
 public:
  // One event list per serve connection (at most three).
  explicit LoadGenerator(std::vector<std::vector<WireEvent>> events);

  // (Re)connects every connection; request ids restart from 1.
  objalloc::util::Status Connect(uint16_t port);
  void Close();

  // Sends the next `events` events (split evenly over the connections)
  // keeping `window` requests outstanding per connection.
  PhaseResult RunClosed(size_t events, size_t window);

  // Sends the next `events` events at `rate` events/s, connection k mod
  // C carrying request k, and one STATS every `stats_interval_s`.
  PhaseResult RunOpen(double rate, size_t events, double stats_interval_s);

  int connections() const { return static_cast<int>(conns_.size()); }
  const std::vector<WireEvent>& events(int c) const {
    return conns_[c].events;
  }
  // Per event: 1 once an ok reply arrived.
  const std::vector<uint8_t>& admitted(int c) const {
    return conns_[c].admitted;
  }
  // Per event: the cost the ok reply carried.
  const std::vector<double>& costs(int c) const { return conns_[c].costs; }

 private:
  struct Conn {
    objalloc::net::Client client;
    std::vector<WireEvent> events;
    size_t cursor = 0;  // next event to send
    std::vector<uint8_t> admitted;
    std::vector<double> costs;
    // Indexed by request id - 1 since the last Connect.
    std::vector<uint32_t> event_of_id;
    std::vector<int64_t> start_ns_of_id;  // send or due time
    size_t outstanding = 0;
  };

  bool Send(Conn* conn, int64_t start_ns, PhaseResult* phase);
  // Takes every reply already readable on `conn`.
  bool Drain(Conn* conn, PhaseResult* phase, uint64_t* received);
  // Waits in ppoll until a serve connection is readable or `timeout_ns`
  // passes (negative: no limit).
  bool WaitReadable(int64_t timeout_ns, PhaseResult* phase,
                    uint64_t* received);

  std::vector<Conn> conns_;
  objalloc::net::Client stats_client_;
  int64_t window_origin_ = 0;  // open loop: due time of request 0
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
