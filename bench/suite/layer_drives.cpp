// Isolated layer drives: fixed-count loops over one layer each, timed with
// steady_clock and reported in ns per operation as the median of 5
// repetitions. Inputs are built before the clock starts, and every result
// feeds a sink so no loop can be optimised away. The drives are independent
// of the workload, so every traced run reports them.
#include <cstring>
#include <vector>

#include "daemon/failover_client.hpp"
#include "kv/command.hpp"
#include "kv/service.hpp"
#include "kv/state_machine.hpp"
#include "membership/membership.hpp"
#include "multiring/merger.hpp"
#include "multiring/shard_map.hpp"
#include "protocol/engine.hpp"
#include "protocol/recv_buffer.hpp"
#include "protocol/wire.hpp"
#include "simnet/event_queue.hpp"
#include "suite.hpp"
#include "util/rng.hpp"

namespace accelring::suite {
namespace {

using protocol::DataMsg;
using util::Nanos;

constexpr int kReps = 5;
volatile uint64_t g_sink = 0;

/// Median over kReps of `rep()`, which times its own loop and returns ns per
/// operation (so per-repetition set-up stays outside the clock).
template <typename Rep>
double median_of(Rep&& rep) {
  std::vector<double> per_op;
  for (int r = 0; r < kReps; ++r) per_op.push_back(rep());
  return median(per_op);
}

double per_op(int64_t start, uint64_t ops) {
  return static_cast<double>(mono_ns() - start) / static_cast<double>(ops);
}

DataMsg make_data(size_t payload, protocol::RingId ring_id = 0x10001) {
  DataMsg msg;
  msg.ring_id = ring_id;
  msg.seq = 1;
  msg.pid = 0;
  msg.round = 1;
  msg.service = protocol::Service::kAgreed;
  // First byte >= 0x60 stays clear of the merger's skip and marker tags.
  msg.payload.assign(payload, std::byte{0x61});
  return msg;
}

protocol::TokenMsg make_token() {
  protocol::TokenMsg token;
  token.ring_id = 0x10001;
  token.token_id = 3000;
  token.round = 1000;
  token.seq = 1'000'000;
  token.aru = 1'000'000;
  token.fcc = 60;
  return token;
}

// --- wire ---------------------------------------------------------------

double encode_data_ns(size_t payload) {
  DataMsg msg = make_data(payload);
  constexpr uint64_t kOps = 20'000;
  return median_of([&] {
    uint64_t sink = 0;
    const int64_t t0 = mono_ns();
    for (uint64_t i = 0; i < kOps; ++i) {
      msg.seq = static_cast<protocol::SeqNum>(i);
      const auto bytes = protocol::encode(msg);
      sink += bytes.size() + static_cast<uint8_t>(bytes.back());
    }
    const double ns = per_op(t0, kOps);
    g_sink = g_sink + sink;
    return ns;
  });
}

double decode_data_ns(size_t payload) {
  const auto bytes = protocol::encode(make_data(payload));
  constexpr uint64_t kOps = 20'000;
  return median_of([&] {
    uint64_t sink = 0;
    const int64_t t0 = mono_ns();
    for (uint64_t i = 0; i < kOps; ++i) {
      const auto msg = protocol::decode_data(bytes);
      sink += msg ? msg->payload.size() : 1;
    }
    const double ns = per_op(t0, kOps);
    g_sink = g_sink + sink;
    return ns;
  });
}

double encode_token_ns() {
  protocol::TokenMsg token = make_token();
  constexpr uint64_t kOps = 50'000;
  return median_of([&] {
    uint64_t sink = 0;
    const int64_t t0 = mono_ns();
    for (uint64_t i = 0; i < kOps; ++i) {
      token.token_id = i;
      sink += protocol::encode(token).size();
    }
    const double ns = per_op(t0, kOps);
    g_sink = g_sink + sink;
    return ns;
  });
}

double decode_token_ns() {
  const auto bytes = protocol::encode(make_token());
  constexpr uint64_t kOps = 50'000;
  return median_of([&] {
    uint64_t sink = 0;
    const int64_t t0 = mono_ns();
    for (uint64_t i = 0; i < kOps; ++i) {
      const auto token = protocol::decode_token(bytes);
      sink += token ? static_cast<uint64_t>(token->seq) : 1;
    }
    const double ns = per_op(t0, kOps);
    g_sink = g_sink + sink;
    return ns;
  });
}

// --- receive buffer -----------------------------------------------------

/// Insert, deliver and discard one 200 B message: what every ordered
/// message costs the buffer.
double recv_buffer_cycle_ns() {
  const DataMsg tmpl = make_data(200);
  constexpr uint64_t kOps = 50'000;
  return median_of([&] {
    protocol::RecvBuffer buffer;
    protocol::SeqNum next = 1;
    uint64_t sink = 0;
    const int64_t t0 = mono_ns();
    for (uint64_t i = 0; i < kOps; ++i) {
      DataMsg msg = tmpl;
      msg.seq = next++;
      buffer.insert(std::move(msg));
      while (const DataMsg* d = buffer.next_deliverable(next)) {
        sink += d->payload.size();
        buffer.mark_delivered();
      }
      buffer.discard_up_to(next - 1);
    }
    const double ns = per_op(t0, kOps);
    g_sink = g_sink + sink;
    return ns;
  });
}

// --- engine against a null host -------------------------------------------

class NullHost final : public protocol::Host {
 public:
  void multicast(protocol::SocketId, std::span<const std::byte> d) override {
    bytes += d.size();
  }
  void unicast(protocol::ProcessId, protocol::SocketId,
               std::span<const std::byte> d, Nanos) override {
    bytes += d.size();
  }
  void deliver(const protocol::Delivery& d) override {
    bytes += d.payload.size();
  }
  void on_configuration(const protocol::ConfigurationChange&) override {}
  void set_timer(protocol::TimerKind, Nanos) override {}
  void cancel_timer(protocol::TimerKind) override {}
  Nanos now() override { return 0; }

  uint64_t bytes = 0;
};

/// Engine::on_packet for member 1 of a 3-member ring: each cycle feeds one
/// personal window of 200 B data messages from member 0, then the token
/// that confirms them. Data handling includes delivery to the null host;
/// token handling includes the aru update, the token pass and discards.
void engine_drive(Result& result) {
  constexpr int kCycles = 1000;
  constexpr int kBatch = 20;
  std::vector<double> data_ns, token_ns;
  for (int r = 0; r < kReps; ++r) {
    NullHost host;
    const protocol::ProtocolConfig cfg;
    protocol::Engine engine(1, cfg, host);
    protocol::RingConfig ring;
    ring.ring_id = membership::make_ring_id(1, 0);
    ring.members = {0, 1, 2};
    engine.start_with_ring(ring);
    DataMsg msg = make_data(200, ring.ring_id);
    protocol::TokenMsg token;
    token.ring_id = ring.ring_id;
    int64_t data_total = 0;
    int64_t token_total = 0;
    std::vector<std::vector<std::byte>> batch(kBatch);
    for (int c = 1; c <= kCycles; ++c) {
      for (int i = 0; i < kBatch; ++i) {
        msg.seq = static_cast<protocol::SeqNum>((c - 1) * kBatch + i + 1);
        msg.round = static_cast<uint64_t>(c);
        batch[static_cast<size_t>(i)] = protocol::encode(msg);
      }
      const int64_t t0 = mono_ns();
      for (const auto& bytes : batch) engine.on_packet(protocol::kSockData, bytes);
      data_total += mono_ns() - t0;
      token.token_id = static_cast<uint64_t>(3 * c);
      token.round = static_cast<uint64_t>(c);
      token.seq = static_cast<protocol::SeqNum>(c * kBatch);
      token.aru = token.seq;
      token.fcc = kBatch;
      const auto bytes = protocol::encode(token);
      const int64_t t1 = mono_ns();
      engine.on_packet(protocol::kSockToken, bytes);
      token_total += mono_ns() - t1;
    }
    if (engine.stats().delivered_agreed != uint64_t{kCycles} * kBatch ||
        engine.stats().tokens_handled != kCycles) {
      result.fail("engine drive: the engine did not take every packet");
    }
    data_ns.push_back(static_cast<double>(data_total) / (kCycles * kBatch));
    token_ns.push_back(static_cast<double>(token_total) / kCycles);
    g_sink = g_sink + host.bytes;
  }
  result.set("engine.data_ns", median(data_ns), "ns");
  result.set("engine.token_ns", median(token_ns), "ns");
}

// --- simulator event queue ----------------------------------------------

std::vector<Nanos> event_times(uint64_t n) {
  util::Rng rng(42);
  std::vector<Nanos> times(n);
  for (Nanos& t : times) t = static_cast<Nanos>(rng.below(1'000'000));
  return times;
}

double schedule_step_ns() {
  const std::vector<Nanos> times = event_times(100'000);
  return median_of([&] {
    simnet::EventQueue q;
    uint64_t fired = 0;
    const int64_t t0 = mono_ns();
    for (const Nanos t : times) q.schedule(t, [&fired] { ++fired; });
    while (q.step()) {
    }
    const double ns = per_op(t0, times.size());
    g_sink = g_sink + fired;
    return ns;
  });
}

double schedule_cancel_ns() {
  const std::vector<Nanos> times = event_times(100'000);
  return median_of([&] {
    simnet::EventQueue q;
    uint64_t fired = 0;
    std::vector<simnet::EventId> ids;
    ids.reserve(times.size());
    const int64_t t0 = mono_ns();
    for (const Nanos t : times) {
      ids.push_back(q.schedule(t, [&fired] { ++fired; }));
    }
    for (const simnet::EventId id : ids) q.cancel(id);
    q.run_all();
    const double ns = per_op(t0, times.size());
    g_sink = g_sink + fired + ids.size();
    return ns;
  });
}

// --- merger and routing ---------------------------------------------------

/// K=4, batch 64: each rotation three rings push a full batch of 200 B
/// deliveries and the fourth covers its batch with one skip message.
double merger_push_ns() {
  constexpr int kRings = 4;
  constexpr uint32_t kBatch = 64;
  constexpr int kRotations = 200;
  protocol::Delivery data;
  data.payload.assign(200, std::byte{0x61});
  protocol::Delivery skip;
  skip.payload = multiring::make_skip(kBatch);
  const uint64_t pushes = kRotations * ((kRings - 1) * kBatch + 1);
  return median_of([&] {
    multiring::DeterministicMerger merger(kRings, kBatch);
    uint64_t merged = 0;
    merger.set_on_merged(
        [&merged](int, const protocol::Delivery& d) { merged += d.payload.size(); });
    const int64_t t0 = mono_ns();
    for (int r = 0; r < kRotations; ++r) {
      for (int ring = 0; ring < kRings; ++ring) {
        if (ring == r % kRings) {
          merger.push(ring, skip);
          continue;
        }
        for (uint32_t i = 0; i < kBatch; ++i) merger.push(ring, data);
      }
    }
    const double ns = per_op(t0, pushes);
    g_sink = g_sink + merged;
    return ns;
  });
}

double shard_lookup_ns() {
  const multiring::ShardMap map(4);
  constexpr uint64_t kOps = 1'000'000;
  return median_of([&] {
    uint64_t sink = 0;
    const int64_t t0 = mono_ns();
    for (uint64_t i = 0; i < kOps; ++i) {
      sink += static_cast<uint64_t>(map.ring_of_key(multiring::mix64(i)));
    }
    const double ns = per_op(t0, kOps);
    g_sink = g_sink + sink;
    return ns;
  });
}

// --- KV state machine -----------------------------------------------------

/// KvStateMachine::apply of session-framed ops against 10k preloaded keys.
double kv_apply_ns(kv::OpType type) {
  constexpr uint64_t kKeys = 10'000;
  constexpr uint64_t kOps = 20'000;
  constexpr uint64_t kSessions = 1'000;
  util::Rng rng(7);
  std::vector<std::vector<std::byte>> frames;
  for (uint64_t i = 0; i < kOps; ++i) {
    kv::KvOp op;
    op.type = type;
    op.key = kv::make_key(rng.below(kKeys));
    if (type == kv::OpType::kPut) op.value = kv::make_value(i, 64);
    frames.push_back(daemon::encode_session_frame(
        1 + i % kSessions, 1 + i / kSessions, kv::encode_op(op)));
  }
  return median_of([&] {
    kv::KvStateMachine machine;
    for (uint64_t k = 0; k < kKeys; ++k) {
      machine.preload(kv::make_key(k), kv::make_value(k, 64));
    }
    const int64_t t0 = mono_ns();
    for (const auto& frame : frames) machine.apply(frame);
    const double ns = per_op(t0, kOps);
    g_sink = g_sink + machine.commands() + machine.version();
    return ns;
  });
}

}  // namespace

void run_layer_drives(Result& result) {
  result.set("wire.encode_data_200_ns", encode_data_ns(200), "ns");
  result.set("wire.encode_data_1350_ns", encode_data_ns(1350), "ns");
  result.set("wire.decode_data_200_ns", decode_data_ns(200), "ns");
  result.set("wire.decode_data_1350_ns", decode_data_ns(1350), "ns");
  result.set("wire.encode_token_ns", encode_token_ns(), "ns");
  result.set("wire.decode_token_ns", decode_token_ns(), "ns");
  result.set("recv_buffer.cycle_ns", recv_buffer_cycle_ns(), "ns");
  engine_drive(result);
  result.set("simnet.schedule_step_ns", schedule_step_ns(), "ns");
  result.set("simnet.schedule_cancel_ns", schedule_cancel_ns(), "ns");
  result.set("multiring.merger_push_ns", merger_push_ns(), "ns");
  result.set("multiring.shard_lookup_ns", shard_lookup_ns(), "ns");
  result.set("kv.apply_put_ns", kv_apply_ns(kv::OpType::kPut), "ns");
  result.set("kv.apply_get_ns", kv_apply_ns(kv::OpType::kGet), "ns");
}

}  // namespace accelring::suite
