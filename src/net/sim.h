#ifndef WEBDIS_NET_SIM_H_
#define WEBDIS_NET_SIM_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/transport.h"

namespace webdis::net {

class FaultPlan;

/// Cost model for the simulated network. Delivery time of a message is
/// latency(from,to) + bytes / bandwidth. Defaults model a late-90s setting:
/// sub-millisecond within a host, tens of milliseconds across sites, and
/// ~1 MB/s of usable bandwidth.
struct SimNetworkOptions {
  SimDuration same_host_latency = 100 * kMicrosecond;
  SimDuration inter_host_latency = 20 * kMillisecond;
  uint64_t bandwidth_bytes_per_sec = 1'000'000;
  /// Uniform random extra delay in [0, latency_jitter] added per message
  /// (seeded, deterministic). Non-zero jitter shuffles delivery order —
  /// the stress tests use it to exercise protocol robustness against
  /// reordering.
  SimDuration latency_jitter = 0;
  uint64_t jitter_seed = 1;
  /// Safety valve: RunUntilIdle aborts after this many deliveries (protects
  /// against runaway forwarding loops in buggy configurations).
  uint64_t max_deliveries = 50'000'000;

  /// Optional processing-cost model: how long the receiving endpoint takes
  /// to handle one message. Deliveries to an endpoint are serialized (each
  /// daemon "sequentially processes the queue of pending web-queries",
  /// §4.4), so a loaded endpoint queues — this is what makes the client-
  /// site-bottleneck claim of Section 1 measurable. Null = zero-cost
  /// handling (the default).
  using ServiceTimeModel = std::function<SimDuration(
      const Endpoint& to, MessageType type, size_t wire_bytes)>;
  ServiceTimeModel service_time;
};

/// Traffic counters, overall and per message type.
struct TrafficStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;

  void Add(uint64_t message_bytes) {
    ++messages;
    bytes += message_bytes;
  }
};

/// Deterministic discrete-event network. Single-threaded: Send() enqueues a
/// delivery event; RunUntilIdle() drains events in (time, sequence) order,
/// invoking listener handlers inline (handlers may Send more messages).
///
/// This is the measurement substrate for every benchmark: it meters exactly
/// the bytes and messages each protocol variant puts on the wire, and its
/// virtual clock gives reproducible response-time and completion-detection
/// numbers — the quantities the paper argues about qualitatively.
class SimNetwork : public Transport {
 public:
  explicit SimNetwork(SimNetworkOptions options = SimNetworkOptions());

  // -- Transport ------------------------------------------------------------
  Status Listen(const Endpoint& endpoint, MessageHandler handler) override;
  void CloseListener(const Endpoint& endpoint) override;
  Status Send(const Endpoint& from, const Endpoint& to, MessageType type,
              std::vector<uint8_t> payload) override;

  /// Timers share the event queue: a timer scheduled for t fires in
  /// (time, sequence) order with message deliveries and advances the
  /// virtual clock. RunUntilIdle drains timers too.
  uint64_t ScheduleAfter(SimDuration delay, std::function<void()> fn) override;
  bool CancelTimer(uint64_t id) override;
  bool SupportsTimers() const override { return true; }

  // -- Simulation control ---------------------------------------------------

  /// Delivers the earliest pending message; false if none pending.
  bool RunOne();

  /// Drains all pending messages (including ones enqueued by handlers).
  void RunUntilIdle();

  /// Current virtual time (microseconds).
  SimTime now() const { return now_; }

  /// True if no messages are in flight.
  bool Idle() const { return events_.empty(); }

  // -- Fault injection ------------------------------------------------------

  /// Filter invoked per accepted message; return true to silently drop it
  /// (models loss *after* the connection was accepted — the failure window
  /// the paper's report-then-forward ordering defends against).
  using DropFilter =
      std::function<bool(const Endpoint& from, const Endpoint& to,
                         MessageType type)>;
  void SetDropFilter(DropFilter filter) { drop_filter_ = std::move(filter); }

  /// Attaches a composable fault schedule (see net/fault.h), consulted per
  /// accepted message after the drop filter. The plan decides drop /
  /// duplication / extra delay and is passed the virtual clock, so its
  /// time-phased rules work. Not owned; pass nullptr to detach.
  void SetFaultPlan(FaultPlan* plan) { fault_plan_ = plan; }

  /// Closes every listener on the host (models a site crash).
  void KillHost(const std::string& host);

  /// Adds a fixed extra delay to every message to or from `host` — models
  /// the "considerable heterogeneity in network and site characteristics"
  /// (Section 2.7) that makes timeout-based completion untenable: a single
  /// slow site forces the global timeout up.
  void SetHostExtraLatency(const std::string& host, SimDuration extra);

  // -- Metrics --------------------------------------------------------------

  const TrafficStats& total_traffic() const { return total_; }
  const TrafficStats& traffic_for(MessageType type) const;
  /// Traffic that actually crossed hosts (excludes same-host messages).
  const TrafficStats& inter_host_traffic() const { return inter_host_; }
  uint64_t connection_refused_count() const { return refused_; }
  uint64_t dropped_count() const { return dropped_; }
  uint64_t delivered_count() const { return delivered_; }

  void ResetMetrics();

 private:
  struct Event {
    SimTime deliver_at;
    uint64_t sequence;  // tie-break for determinism
    Endpoint from;
    Endpoint to;
    MessageType type;
    std::vector<uint8_t> payload;
    // Timer events: non-null `timer` marks the event as a scheduled
    // callback rather than a message delivery.
    std::function<void()> timer;
    uint64_t timer_id = 0;
  };
  /// The event queue, ordered by (deliver_at, sequence). An ordered map
  /// rather than a priority queue: RunOne moves the earliest event out of
  /// its node, where priority_queue::top() is const and forces a copy of
  /// the payload and handler.
  using EventQueue = std::map<std::pair<SimTime, uint64_t>, Event>;

  /// Queues an event keyed by (deliver_at, sequence).
  void PushEvent(Event event);

  void EnqueueDelivery(const Endpoint& from, const Endpoint& to,
                       MessageType type, std::vector<uint8_t> payload,
                       SimDuration extra_delay, uint64_t wire_bytes);

  SimNetworkOptions options_;
  Rng jitter_rng_;
  SimTime now_ = 0;
  uint64_t next_sequence_ = 0;
  uint64_t delivered_ = 0;
  uint64_t refused_ = 0;
  uint64_t dropped_ = 0;
  uint64_t timers_fired_ = 0;
  uint64_t next_timer_id_ = 1;
  std::set<uint64_t> pending_timers_;
  EventQueue events_;
  std::map<Endpoint, MessageHandler> listeners_;
  std::map<Endpoint, SimTime> busy_until_;  // per-listener serial queue
  std::map<std::string, SimDuration> host_extra_latency_;
  DropFilter drop_filter_;
  FaultPlan* fault_plan_ = nullptr;
  TrafficStats total_;
  TrafficStats inter_host_;
  std::map<MessageType, TrafficStats> by_type_;
};

}  // namespace webdis::net

#endif  // WEBDIS_NET_SIM_H_
