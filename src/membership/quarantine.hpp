// Quarantine / probation lifecycle for gray-failed members.
//
// Timeout ejection (the PR-3 path) removes a member that went silent; it may
// rejoin the moment it speaks again. Gray-failure eviction is different: the
// member is alive and will keep asking to join, so re-admitting it on first
// contact would reinstall the bottleneck and the ring would flap between
// "slow with it" and "fast without it". This state machine makes the verdict
// sticky:
//
//   kHealthy ──(GrayFailureDetector verdict)──▶ kQuarantined
//       ▲                                            │ hold join probes
//       │                                            ▼
//       └──(clean probes observed)──── kProbation ◀──┘
//
//  * kQuarantined: the member's Join messages are ignored (but counted as
//    probes — they prove it is alive and still wants in). After
//    `kQuarantineRotations` probes the member moves to probation. Repeat
//    offenders double the hold each time (exponential anti-flap backoff).
//  * kProbation: still blocked while `kProbationRotations` further probes
//    arrive cleanly; then the next Join is admitted through the normal
//    gather and the entry is cleared when the configuration installs.
//
// Verdicts propagate in JoinMsg::quarantine_set and peers adopt the stricter
// view, so a member that missed the eviction cannot re-admit the victim
// behind everyone's back. In the other direction, a peer that advertises the
// victim in its proc_set *without* quarantining it is evidence the fleet has
// released the verdict (probe counts drift a little between members); we
// release too rather than deadlock the gather.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "protocol/types.hpp"

namespace accelring::membership {

enum class QuarantineState : uint8_t { kHealthy = 0, kQuarantined, kProbation };

class QuarantineManager {
 public:
  using ProcessId = protocol::ProcessId;

  /// Probe rotations a quarantined member sits out before probation.
  static constexpr uint32_t kQuarantineRotations = 24;
  /// Clean observations on probation before the verdict is forgotten.
  static constexpr uint32_t kProbationRotations = 8;

  /// Local detector verdict: begin (or restart) quarantine. Returns the
  /// probe hold, doubled per prior offense, capped at 16x.
  uint32_t quarantine(ProcessId pid);

  /// A Join from `pid` arrived. Counts it as a probe, advances the state
  /// machine, and returns true when the Join must still be ignored. The
  /// transition into probation is reported via `entered_probation`.
  bool filter_probe(ProcessId pid, bool& entered_probation);

  /// Adopt a peer's quarantine verdict. Returns true when this newly blocks
  /// a pid we considered healthy (or re-blocks one on probation).
  bool adopt(ProcessId pid, uint32_t hold);

  /// Peer evidence that the fleet released `pid` (a non-quarantining peer
  /// advertises it): drop our verdict so the gather can converge. The
  /// strike history survives, so a relapse still earns a doubled hold.
  void release(ProcessId pid);

  /// `pid` was installed in a regular configuration. Clears any entry;
  /// returns true when that entry existed (a genuine re-admission).
  bool note_installed(ProcessId pid);

  [[nodiscard]] bool blocked(ProcessId pid) const;
  [[nodiscard]] QuarantineState state(ProcessId pid) const;

  /// Quarantined (pid, remaining hold) pairs for JoinMsg piggybacking.
  /// Probation entries are deliberately not exported: a verdict everyone
  /// has aged out of must be allowed to die.
  [[nodiscard]] std::vector<std::pair<ProcessId, uint32_t>> export_set() const;

  /// Every pid this manager ever placed in quarantine (locally decided or
  /// adopted), in order — the campaign's healthy-member audit reads this
  /// rather than the wrap-prone trace buffer.
  [[nodiscard]] const std::vector<ProcessId>& victims() const {
    return victims_;
  }

 private:
  struct Entry {
    QuarantineState state = QuarantineState::kQuarantined;
    uint32_t hold = 0;   ///< probes left before probation
    uint32_t clean = 0;  ///< probation probes left before re-admission
  };

  std::map<ProcessId, Entry> entries_;
  std::map<ProcessId, uint32_t> strikes_;
  std::vector<ProcessId> victims_;
};

}  // namespace accelring::membership
