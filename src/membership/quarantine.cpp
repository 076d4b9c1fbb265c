#include "membership/quarantine.hpp"

#include <algorithm>

namespace accelring::membership {

uint32_t QuarantineManager::quarantine(ProcessId pid) {
  const uint32_t strikes = std::min(strikes_[pid], 4u);
  ++strikes_[pid];
  Entry& e = entries_[pid];
  e.state = QuarantineState::kQuarantined;
  e.hold = kQuarantineRotations << strikes;
  e.clean = 0;
  victims_.push_back(pid);
  return e.hold;
}

bool QuarantineManager::filter_probe(ProcessId pid, bool& entered_probation) {
  entered_probation = false;
  const auto it = entries_.find(pid);
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  if (e.state == QuarantineState::kQuarantined) {
    if (--e.hold == 0) {
      e.state = QuarantineState::kProbation;
      e.clean = kProbationRotations;
      entered_probation = true;
    }
    return true;
  }
  // Probation: block until the clean-probe count is met, then let the Join
  // through (the entry itself is cleared when the configuration installs).
  if (e.clean > 0) {
    --e.clean;
    return e.clean > 0;
  }
  return false;
}

bool QuarantineManager::adopt(ProcessId pid, uint32_t hold) {
  const auto it = entries_.find(pid);
  if (it != entries_.end() &&
      it->second.state == QuarantineState::kQuarantined) {
    // Already blocking; keep the stricter (longer) hold.
    it->second.hold = std::max(it->second.hold, hold);
    return false;
  }
  Entry& e = entries_[pid];
  e.state = QuarantineState::kQuarantined;
  e.hold = std::max(hold, 1u);
  e.clean = 0;
  victims_.push_back(pid);
  return true;
}

void QuarantineManager::release(ProcessId pid) { entries_.erase(pid); }

bool QuarantineManager::note_installed(ProcessId pid) {
  return entries_.erase(pid) > 0;
}

bool QuarantineManager::blocked(ProcessId pid) const {
  const auto it = entries_.find(pid);
  if (it == entries_.end()) return false;
  const Entry& e = it->second;
  return e.state == QuarantineState::kQuarantined || e.clean > 0;
}

QuarantineState QuarantineManager::state(ProcessId pid) const {
  const auto it = entries_.find(pid);
  return it == entries_.end() ? QuarantineState::kHealthy : it->second.state;
}

std::vector<std::pair<QuarantineManager::ProcessId, uint32_t>>
QuarantineManager::export_set() const {
  std::vector<std::pair<ProcessId, uint32_t>> out;
  for (const auto& [pid, e] : entries_) {
    if (e.state == QuarantineState::kQuarantined) out.emplace_back(pid, e.hold);
  }
  return out;
}

}  // namespace accelring::membership
