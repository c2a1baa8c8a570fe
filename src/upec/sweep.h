// One UPEC iteration's counterexample collection.
//
// Computes S_cex = { sv in S : diff(sv, frame) satisfiable under the given
// assumptions } — the complete influence frontier of the victim at that
// frame. The saturating sweep always runs on the context's CheckScheduler
// (inline on the calling thread at threads == 1, fanned across the worker
// pool otherwise); the result is semantic (see ipc/scheduler.h), which is
// what makes every thread count bit-identical. Only the single-model ablation
// (saturate == false) and the vulnerable-verdict waveform witness solve on
// the context's main solver. The witness asks for a model in which the
// lowest-id persistent hit differs; when a waveform is wanted, the saturating
// sweep solves it on the calling thread while the workers are still sweeping
// (ipc::SweepWatch), so the run does not end in one cold serial solve.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ipc/cex.h"
#include "ipc/engine.h"
#include "ipc/scheduler.h"
#include "upec/state_sets.h"

namespace upec {

class UpecContext;
struct IterationLog;

struct SweepOutcome {
  // Violated iff s_cex is non-empty; Unknown on budget exhaustion or a
  // model/diff-literal disagreement (s_cex is then a lower bound).
  ipc::CheckStatus status = ipc::CheckStatus::Unknown;
  std::vector<rtlir::StateVarId> s_cex;      // sorted ascending
  std::vector<rtlir::StateVarId> pers_hits;  // sorted; s_cex ∩ S_pers
  double seconds = 0.0;
  std::uint64_t conflicts = 0;
  // Work avoidance: candidates skipped up front because a recorded UNSAT
  // core still proves them unable to differ, and the final per-candidate
  // refutations (already mined into the context's pruner by sweep_frame;
  // exposed for tests).
  std::size_t pruned = 0;
  std::vector<ipc::SweepResult::UnsatGroup> unsat_groups;
  // An Unknown status was (at least in part) a wall-clock deadline hit, as
  // opposed to conflict-budget exhaustion (see VerifyOptions::deadline_ms).
  bool timed_out = false;
  // The waveform witness solved during the sweep: its target (the lowest-id
  // persistent hit) and the main solver's answer, whose model is still
  // installed for extract_pers_waveform. Its time is part of `seconds`.
  struct Witness {
    rtlir::StateVarId target = 0;
    ipc::CheckResult check;
  };
  std::optional<Witness> witness;
};

// Sweeps `S` at `frame`. With `witness` (the caller will extract a
// waveform), a saturating sweep watches eligible ∩ S_pers and solves the
// witness query for the lowest differing one on the calling thread, during
// the sweep.
SweepOutcome sweep_frame(UpecContext& ctx, const std::vector<encode::Lit>& assumptions,
                         const StateSet& S, unsigned frame, bool saturate, bool witness);

// Vulnerable-verdict epilogue: the counterexample waveform of the lowest-id
// persistent hit. The witness query asks the context's main solver for a
// model in which that hit differs (it is individually satisfiable, so the
// solve succeeds barring a budget interrupt); the waveform is read from that
// model. The answer `out.witness` holds is reused when its target is
// out.pers_hits.front(); otherwise (single-model ablation, a sweep with
// Unknown chunks) the same query is solved now. Accounts the witness's
// conflicts into `log`, and its seconds into `log` and `total_seconds` only
// when solved here: an overlapped solve is already inside the sweep's wall
// clock.
std::optional<ipc::Waveform> extract_pers_waveform(UpecContext& ctx,
                                                   const std::vector<encode::Lit>& assumptions,
                                                   const SweepOutcome& out, unsigned frame,
                                                   IterationLog& log, double& total_seconds);

struct SolverUsage;

// Fills `usage` with the context solver's statistics plus every scheduler
// worker's (aggregate + per-worker breakdown).
void collect_solver_usage(const UpecContext& ctx, SolverUsage& usage);

} // namespace upec
