// Helpers shared by the Alg. 1 A/B benches (T-INCR, T-SHARE, T-PREP,
// T-PORT): the committed per-row metrics snapshot and the `identical`
// column every one of them gates on.
#pragma once

#include <cstddef>
#include <string>

#include "upec/alg1.h"

namespace upec::bench {

// Compact unified-metrics snapshot for a row (README "Observability"): the
// aggregate counters only — per-worker/member breakdowns stay in the full
// JSON report, not the committed bench artifact.
inline std::string row_metrics(const Alg1Result& r) {
  return r.stats.metrics
      .filtered({"sat.channel.", "sat.simplify.", "sat.solver.total.", "upec."})
      .to_json();
}

// True iff both runs report the same verdict, iteration shape, frontiers and
// final S. These are semantic results: a toggle that only changes how fast
// an answer is reached (threads, sharing, preprocessing, portfolio racing)
// must keep them bit-equal, so `false` is a soundness bug.
inline bool identical_results(const Alg1Result& a, const Alg1Result& b) {
  bool same = a.verdict == b.verdict && a.iterations.size() == b.iterations.size() &&
              a.persistent_hits == b.persistent_hits && a.full_cex == b.full_cex &&
              a.final_s == b.final_s;
  for (std::size_t i = 0; same && i < a.iterations.size(); ++i) {
    same = a.iterations[i].removed == b.iterations[i].removed;
  }
  return same;
}

} // namespace upec::bench
