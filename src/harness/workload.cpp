#include "harness/workload.hpp"

#include <cassert>

#include "util/bytes.hpp"

namespace accelring::harness {

std::vector<std::byte> make_payload(size_t size, const PayloadStamp& stamp) {
  assert(size >= PayloadStamp::kSize);
  util::Writer w(size);
  w.i64(stamp.inject_time);
  w.u32(stamp.sender);
  w.u32(stamp.index);
  std::vector<std::byte> out = std::move(w).take();
  out.resize(size);  // zero fill
  return out;
}

bool parse_payload(std::span<const std::byte> payload, PayloadStamp& stamp) {
  if (payload.size() < PayloadStamp::kSize) return false;
  util::Reader r(payload);
  stamp.inject_time = r.i64();
  stamp.sender = r.u32();
  stamp.index = r.u32();
  return r.ok();
}

RateInjector::RateInjector(simnet::EventQueue& eq, int nodes, Options options,
                           SubmitFn submit)
    : eq_(eq), nodes_(nodes), opt_(options), submit_(std::move(submit)) {
  const double msgs_per_sec = opt_.aggregate_mbps * 1e6 / 8.0 /
                              static_cast<double>(opt_.payload_size);
  const double per_node = msgs_per_sec / nodes_;
  interval_ = per_node > 0 ? static_cast<Nanos>(1e9 / per_node)
                           : util::sec(3600);
}

void RateInjector::arm() {
  for (int node = 0; node < nodes_; ++node) {
    // Phase-shift nodes across one interval so injections interleave.
    const Nanos phase = interval_ * node / nodes_;
    schedule_next(node, opt_.start + phase, 0);
  }
}

void RateInjector::schedule_next(int node, Nanos at, uint32_t index) {
  if (at >= opt_.stop) return;
  eq_.schedule(at, [this, node, at, index] {
    PayloadStamp stamp;
    stamp.inject_time = at;
    stamp.sender = static_cast<uint32_t>(node);
    stamp.index = index;
    submit_(node, index, make_payload(opt_.payload_size, stamp));
    ++injected_;
    schedule_next(node, at + interval_, index + 1);
  });
}

}  // namespace accelring::harness
