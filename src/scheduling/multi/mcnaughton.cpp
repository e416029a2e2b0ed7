#include "scheduling/multi/mcnaughton.hpp"

#include "common/check.hpp"
#include "common/real.hpp"

namespace qbss::scheduling {

std::vector<SlotPlacement> mcnaughton_pack(Interval slot,
                                           std::span<const SlotDemand> demands,
                                           int machines) {
  QBSS_EXPECTS(!slot.empty());
  QBSS_EXPECTS(machines >= 1);
  const Time len = slot.length();

  Time total = 0.0;
  for (const SlotDemand& d : demands) {
    QBSS_EXPECTS(d.duration >= 0.0);
    QBSS_EXPECTS(approx_le(d.duration, len));
    total += d.duration;
  }
  QBSS_EXPECTS(approx_le(total, static_cast<double>(machines) * len));

  std::vector<SlotPlacement> out;
  out.reserve(demands.size() + 1);

  // The last demand that needs time. Only it may snap to the slot end of
  // the last machine: a snap there before it would hand a later demand's
  // sub-tolerance share to this one and leave the later one no machine.
  std::size_t final_demand = demands.size();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i].duration > 0.0) final_demand = i;
  }

  // Absolute cursor: consecutive placements on one machine share the exact
  // same boundary value (no re-derivation from offsets, which would drift
  // by an ulp and create overlapping slivers in the summed profile).
  const double tiny = kEps * std::max(1.0, len);
  const int last = machines - 1;
  int machine = 0;
  Time pos = slot.begin;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const SlotDemand& d = demands[i];
    const Time need = std::min(d.duration, len);
    if (need <= 0.0) continue;
    if (machine < last && slot.end - pos <= tiny) {  // machine already full
      ++machine;
      pos = slot.begin;
    }
    const Time room = slot.end - pos;
    if (machine == last) {
      // Nothing wraps past the last machine: place at the cursor, clipped
      // to the slot (the precondition bounds what a clip can drop).
      const Time end = i == final_demand && need >= room - tiny
                           ? slot.end
                           : std::min(pos + need, slot.end);
      if (end > pos) out.push_back({d.job, machine, {pos, end}});
      pos = end;
      continue;
    }
    if (need < room - tiny) {
      // Fits strictly inside the current machine.
      out.push_back({d.job, machine, {pos, pos + need}});
      pos += need;
    } else if (need <= room + tiny) {
      // Fills the machine exactly (up to rounding): snap to the slot end.
      out.push_back({d.job, machine, {pos, slot.end}});
      ++machine;
      pos = slot.begin;
    } else {
      // Splits across the machine boundary: wrap the remainder. The two
      // pieces never overlap in time since need <= len implies
      // remainder <= pos - slot.begin.
      out.push_back({d.job, machine, {pos, slot.end}});
      const Time remainder = need - room;
      ++machine;
      QBSS_ENSURES(machine < machines);
      out.push_back({d.job, machine, {slot.begin, slot.begin + remainder}});
      pos = slot.begin + remainder;
    }
  }
  return out;
}

}  // namespace qbss::scheduling
