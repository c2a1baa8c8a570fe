#include "upec/sweep.h"

#include <unordered_set>

#include "upec/alg1.h"
#include "upec/engine.h"
#include "util/trace.h"

namespace upec {

namespace {

// Single-model ablation (saturate_cex = false): one group-selected solve on
// the main solver, stopping at the first model. Per-candidate scanning (the
// scheduler's sweep) would change which model is reported, so this stays on
// the main solver regardless of the thread count.
SweepOutcome sweep_single_model(UpecContext& ctx, const std::vector<encode::Lit>& assumptions,
                                const std::vector<rtlir::StateVarId>& members, unsigned frame) {
  SweepOutcome out;
  if (members.empty()) {
    out.status = ipc::CheckStatus::Holds;  // nothing left that could differ
    return out;
  }
  ctx.miter.register_candidates(members, frame);

  std::vector<encode::Lit> as = assumptions;
  ctx.miter.select_candidates(frame, members, as);
  const ipc::CheckResult check = ctx.engine.check_assumptions(as);
  out.seconds = check.seconds;
  out.conflicts = check.conflicts;
  out.timed_out = check.timed_out;
  bool inconsistent = false;
  if (check.status == ipc::CheckStatus::Violated) {
    for (rtlir::StateVarId sv : members) {
      if (ctx.miter.differs_in_model(sv, frame)) out.s_cex.push_back(sv);
    }
    // A model of "some member differs" that shows no difference means the
    // diff literals and the model disagree.
    inconsistent = out.s_cex.empty();
  }
  out.status = inconsistent ? ipc::CheckStatus::Unknown : check.status;
  return out;
}

// The waveform witness query on the main solver: a model in which `target`
// differs at `frame` under `assumptions`. The target is a registered
// candidate, so this is pure assumption selection — no new encoding, which
// is what lets it run while the workers hydrate from the store.
ipc::CheckResult solve_witness(UpecContext& ctx, const std::vector<encode::Lit>& assumptions,
                               unsigned frame, rtlir::StateVarId target) {
  std::vector<encode::Lit> as = assumptions;
  ctx.miter.select_candidates(frame, {target}, as);
  return ctx.engine.check_assumptions(as);
}

} // namespace

SweepOutcome sweep_frame(UpecContext& ctx, const std::vector<encode::Lit>& assumptions,
                         const StateSet& S, unsigned frame, bool saturate, bool witness) {
  util::trace::Span span("upec.sweep_frame", "upec");
  span.arg("frame", std::uint64_t{frame});
  std::vector<rtlir::StateVarId> members = S.to_vector();
  span.arg("candidates", static_cast<std::uint64_t>(members.size()));
  SweepOutcome out;
  if (!saturate) {
    out = sweep_single_model(ctx, assumptions, members, frame);
  } else {
    // UNSAT-core frontier pruning (saturating sweeps only — in the
    // single-model ablation pruning could change which model the solver
    // finds, i.e. the reported set). A pruned candidate is one whose recorded
    // refutation core is entailed by the current assumptions, so dropping it
    // cannot change the semantic frontier — only skip re-proving it.
    std::unordered_set<rtlir::StateVarId> eq_assumed;
    std::unordered_set<std::int32_t> assumption_lits;
    rtlir::StateVarId sv = 0;
    for (encode::Lit a : assumptions) {
      assumption_lits.insert(a.index());
      if (ctx.miter.eq_assumption_var(a, &sv)) eq_assumed.insert(sv);
    }
    std::vector<rtlir::StateVarId> eligible, pruned;
    ctx.pruner.filter(frame, members, eq_assumed, assumption_lits, eligible, pruned);
    out.pruned = pruned.size();

    if (eligible.empty()) {
      // Everything pruned (or S empty): the frontier is proven empty without
      // a single solver call.
      out.status = ipc::CheckStatus::Holds;
    } else {
      // Any persistent hit ends the run vulnerable, so the lowest differing
      // member of eligible ∩ S_pers is the hit the waveform will show.
      ipc::SweepWatch watch;
      if (witness) {
        for (rtlir::StateVarId c : eligible) {
          if (ctx.in_s_pers(c)) watch.candidates.push_back(c);
        }
        watch.settled = [&](rtlir::StateVarId target) {
          util::trace::Span wspan("upec.waveform", "upec");
          wspan.arg("frame", std::uint64_t{frame});
          wspan.arg("target", std::uint64_t{target});
          wspan.arg("overlapped", std::uint64_t{1});
          out.witness =
              SweepOutcome::Witness{target, solve_witness(ctx, assumptions, frame, target)};
        };
      }
      ipc::SweepResult r = ctx.scheduler->sweep(ctx.miter, assumptions, eligible, frame,
                                                watch.candidates.empty() ? nullptr : &watch);
      out.status = r.status;
      out.s_cex = std::move(r.differing);
      out.seconds = r.seconds;
      out.conflicts = r.conflicts;
      out.unsat_groups = std::move(r.unsat_groups);
      out.timed_out = r.timed_out;
    }

    // Mine the final refutation cores: each justifies every candidate that
    // was still enabled, and stays valid as long as its assumptions are
    // re-assumed (see upec/incremental.h). Core literals split into
    // eq-assumption state variables, other assumptions (macros), and selector
    // literals — the latter identified by absence from the assumption set and
    // dropped.
    for (const ipc::SweepResult::UnsatGroup& group : out.unsat_groups) {
      FrontierPruner::Justification just;
      for (sat::Lit l : group.core) {
        if (ctx.miter.eq_assumption_var(l, &sv)) {
          just.eq_svs.push_back(sv);
        } else if (assumption_lits.find(l.index()) != assumption_lits.end()) {
          just.other_lits.push_back(l);
        }
      }
      ctx.pruner.record(frame, group.enabled, std::move(just));
    }
  }

  for (rtlir::StateVarId sv : out.s_cex) {
    if (ctx.in_s_pers(sv)) out.pers_hits.push_back(sv);
  }
  return out;
}

std::optional<ipc::Waveform> extract_pers_waveform(UpecContext& ctx,
                                                   const std::vector<encode::Lit>& assumptions,
                                                   const SweepOutcome& out, unsigned frame,
                                                   IterationLog& log, double& total_seconds) {
  const rtlir::StateVarId target = out.pers_hits.front();
  const bool overlapped = out.witness && out.witness->target == target;
  util::trace::Span span("upec.waveform", "upec");
  span.arg("frame", std::uint64_t{frame});
  span.arg("target", std::uint64_t{target});
  span.arg("overlapped", std::uint64_t{overlapped ? 1u : 0u});
  ipc::CheckResult check;
  if (overlapped) {
    check = out.witness->check;
  } else {
    check = solve_witness(ctx, assumptions, frame, target);
    log.seconds += check.seconds;
    total_seconds += check.seconds;
  }
  log.conflicts += check.conflicts;
  if (check.status != ipc::CheckStatus::Violated) return std::nullopt;
  return ipc::extract_waveform(ctx.miter, frame, ctx.waveform_probes(), out.s_cex);
}

} // namespace upec
