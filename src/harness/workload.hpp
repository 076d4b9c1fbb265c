// Workload generation: fixed-rate senders with self-describing payloads.
//
// Mirrors the paper's benchmark setup (§IV-A): each node runs a sending
// client injecting messages at a fixed rate; every receiving client receives
// all messages from all senders. Payloads embed the injection timestamp and
// a (sender, index) pair so receivers can measure latency and check
// completeness without side tables.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "simnet/event_queue.hpp"
#include "util/time.hpp"

namespace accelring::harness {

using util::Nanos;

/// Stamp at the front of every generated payload.
struct PayloadStamp {
  Nanos inject_time = 0;
  uint32_t sender = 0;
  uint32_t index = 0;

  static constexpr size_t kSize = 16;
};

/// Build a payload of exactly `size` bytes (>= PayloadStamp::kSize) carrying
/// the stamp followed by zero fill.
[[nodiscard]] std::vector<std::byte> make_payload(size_t size,
                                                  const PayloadStamp& stamp);

/// Parse the stamp back out; returns false if the payload is too short.
[[nodiscard]] bool parse_payload(std::span<const std::byte> payload,
                                 PayloadStamp& stamp);

/// Injects stamped payloads at nodes 0..nodes-1 at a fixed aggregate rate
/// from `start` until `stop`, one event chain per node. Nodes are
/// phase-shifted so injections do not synchronize.
class RateInjector {
 public:
  struct Options {
    size_t payload_size = 1350;
    double aggregate_mbps = 100.0;  ///< clean payload bits/s across all nodes
    Nanos start = 0;
    Nanos stop = util::sec(1);
  };
  /// Hands one payload to `node`'s sender; `index` counts that node's
  /// injections from 0. It binds the service, ring or ordering key.
  using SubmitFn = std::function<void(int node, uint32_t index,
                                      std::vector<std::byte> payload)>;

  RateInjector(simnet::EventQueue& eq, int nodes, Options options,
               SubmitFn submit);
  // Scheduled injections hold `this`.
  RateInjector(const RateInjector&) = delete;
  RateInjector& operator=(const RateInjector&) = delete;

  /// Schedule all injections (events are created lazily, one per node chain).
  void arm();

  [[nodiscard]] uint64_t injected() const { return injected_; }

 private:
  void schedule_next(int node, Nanos at, uint32_t index);

  simnet::EventQueue& eq_;
  int nodes_;
  Options opt_;
  SubmitFn submit_;
  Nanos interval_ = 0;
  uint64_t injected_ = 0;
};

}  // namespace accelring::harness
