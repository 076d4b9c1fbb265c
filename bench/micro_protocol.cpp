// Microbenchmarks (google-benchmark): the per-message CPU costs that
// determine the protocol's 10-gigabit behaviour — codec throughput, receive
// buffer operations, flow-control arithmetic, CRC — and the simulator's
// event queue, which sets how fast every simulated figure runs.
#include <benchmark/benchmark.h>

#include <vector>

#include "protocol/flow_control.hpp"
#include "protocol/recv_buffer.hpp"
#include "protocol/wire.hpp"
#include "simnet/event_queue.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

using namespace accelring;

protocol::DataMsg make_data(size_t payload_size) {
  protocol::DataMsg msg;
  msg.ring_id = 0x10001;
  msg.seq = 123456;
  msg.pid = 3;
  msg.round = 1000;
  msg.service = protocol::Service::kAgreed;
  msg.payload.assign(payload_size, std::byte{0x5A});
  return msg;
}

void BM_EncodeData(benchmark::State& state) {
  const auto msg = make_data(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::encode(msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EncodeData)->Arg(64)->Arg(1350)->Arg(8850);

void BM_DecodeData(benchmark::State& state) {
  const auto bytes = protocol::encode(make_data(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::decode_data(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DecodeData)->Arg(64)->Arg(1350)->Arg(8850);

void BM_EncodeToken(benchmark::State& state) {
  protocol::TokenMsg token;
  token.ring_id = 1;
  token.seq = 1'000'000;
  token.aru = 999'900;
  token.fcc = 120;
  for (int i = 0; i < state.range(0); ++i) token.rtr.push_back(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::encode(token));
  }
}
BENCHMARK(BM_EncodeToken)->Arg(0)->Arg(16)->Arg(128);

void BM_RecvBufferCycle(benchmark::State& state) {
  // Steady-state cycle: insert, deliver, discard — what one high-rate
  // message costs the buffer.
  protocol::RecvBuffer buffer;
  protocol::SeqNum next = 1;
  for (auto _ : state) {
    auto msg = make_data(64);
    msg.seq = next++;
    buffer.insert(std::move(msg));
    while (buffer.next_deliverable(next) != nullptr) buffer.mark_delivered();
    buffer.discard_up_to(next - 1);
  }
}
BENCHMARK(BM_RecvBufferCycle);

void BM_FlowControlAllowance(benchmark::State& state) {
  protocol::ProtocolConfig cfg;
  protocol::FlowControl fc(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fc.allowance(1000, 80, 3, 500000, 500100));
  }
}
BENCHMARK(BM_FlowControlAllowance);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<size_t>(state.range(0)),
                              std::byte{0xA5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1350)->Arg(8850);

/// 4096 pseudo-random delays in [0, 1 ms), fixed across runs.
std::vector<util::Nanos> event_delays() {
  util::Rng rng(42);
  std::vector<util::Nanos> delays(4096);
  for (util::Nanos& d : delays) {
    d = static_cast<util::Nanos>(rng.below(1'000'000));
  }
  return delays;
}

void BM_EventQueueScheduleStep(benchmark::State& state) {
  // Steady state with range(0) events pending: each iteration schedules one
  // event and runs the earliest.
  const std::vector<util::Nanos> delays = event_delays();
  simnet::EventQueue q;
  uint64_t fired = 0;
  for (int64_t i = 0; i < state.range(0); ++i) {
    q.schedule_after(delays[i % delays.size()], [&fired] { ++fired; });
  }
  size_t next = 0;
  for (auto _ : state) {
    q.schedule_after(delays[next++ % delays.size()], [&fired] { ++fired; });
    benchmark::DoNotOptimize(q.step());
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueScheduleStep)->Arg(1000)->Arg(100000);

void BM_EventQueueScheduleCancel(benchmark::State& state) {
  // Schedule then cancel; the cancelled heap entries are dropped in batches
  // of 1024, so their lazy removal is part of the cost.
  const std::vector<util::Nanos> delays = event_delays();
  simnet::EventQueue q;
  uint64_t fired = 0;
  size_t next = 0;
  for (auto _ : state) {
    q.cancel(q.schedule_after(delays[next++ % delays.size()],
                              [&fired] { ++fired; }));
    if (next % 1024 == 0) q.run_all();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueScheduleCancel);

}  // namespace

BENCHMARK_MAIN();
