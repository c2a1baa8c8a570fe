// Experiment T-PREP — SatELite-style preprocessing (sat::Simplifier) on the
// Alg. 1 workloads: occurrence-list subsumption / self-subsuming resolution,
// bounded variable elimination with model reconstruction, and failed-literal
// probing over the shared sweep snapshot, against the same run with
// preprocessing disabled.
//
// Preprocessing engages on the scheduler's worker path (every thread count;
// this bench measures threads = 4): the sweep snapshot is simplified once per
// store generation under the frozen-var contract (miter interface variables +
// sweep assumption variables are never eliminated) and every worker hydrates
// from the simplified view. Per row this bench reports:
//   * summed work = conflicts + propagations over the full Alg. 1 run, main
//     solver plus workers (the honest single-core cost metric; wall clock on
//     a 1-core container only measures time-slicing),
//   * the work reduction preprocessing buys on the same thread count,
//   * simplifier counters (runs/reuses, eliminated vars, subsumed clauses),
//   * the `identical` column: the preprocessed run must report bit-equal
//     verdicts/iterations/frontiers to both the preprocess-off run on the
//     same thread count and the 1-thread run. The simplifier only removes
//     entailed work, so any reading other than "yes" is a soundness bug —
//     as is a single frozen-variable elimination (checked per row).
//
// Writes a JSON artifact (default BENCH_preprocess.json, or argv path) and
// exits non-zero if the identical column regresses, a frozen variable was
// eliminated, or the secure rows drop below the committed reduction bar — CI
// runs the reduced configuration (--quick) and fails loudly on any signal.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "upec/report.h"

namespace {

upec::VerifyOptions configure(upec::VerifyOptions options, unsigned threads, bool preprocess) {
  options.threads = threads;
  options.preprocess = preprocess;
  return options;
}

std::uint64_t total_work(const upec::Alg1Result& r) {
  return r.stats.total.conflicts + r.stats.total.propagations;
}

struct Row {
  std::uint32_t pub_words;
  const char* scenario;
  unsigned threads;
  double off_s, on_s;
  std::uint64_t work_off, work_on;
  std::uint64_t runs, reuses, eliminated, subsumed;
  bool identical;
  bool frozen_safe;  // zero frozen-variable eliminations
  const char* verdict;
  std::string metrics; // of the preprocess-on run

  double reduction() const {
    if (work_off == 0) return 0.0;
    return 1.0 - static_cast<double>(work_on) / static_cast<double>(work_off);
  }
};

} // namespace

int main(int argc, char** argv) {
  using namespace upec;
  using bench::identical_results;
  using bench::row_metrics;

  bool quick = false;
  std::string out_path = "BENCH_preprocess.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }
  const std::vector<std::uint32_t> sizes =
      quick ? std::vector<std::uint32_t>{8} : std::vector<std::uint32_t>{16, 32};
  const std::vector<unsigned> thread_counts = {4};
  // Committed bar for the secure rows (the UNSAT-heavy workload where removed
  // clauses pay off on every repeated proof); the reduced config uses a
  // looser bar because the tiny design gives the simplifier less to remove.
  const double reduction_bar = quick ? 0.10 : 0.20;

  std::printf("# T-PREP — Alg. 1, preprocessing off vs on (worker sweep path)%s\n\n",
              quick ? " (reduced config)" : "");
  std::printf("%-10s %-10s %-8s %-12s %-12s %-14s %-14s %-10s %-11s %-8s %-9s %-10s\n",
              "pub_words", "scenario", "threads", "off[s]", "on[s]", "work off", "work on",
              "reduction", "runs/reuse", "elim", "subsumed", "identical");

  std::vector<Row> rows;
  bool all_identical = true;
  bool frozen_safe = true;
  bool bar_met = true;
  for (const std::uint32_t pub : sizes) {
    soc::SocConfig cfg;
    cfg.pub_ram_words = pub;
    cfg.priv_ram_words = pub / 2;
    const soc::Soc soc = soc::build_pulpissimo(cfg);

    struct Scenario {
      const char* name;
      VerifyOptions options;
      bool gated; // reduction bar applies
    };
    const Scenario scenarios[] = {
        {"detect", VerifyOptions{}, false},
        {"secure", countermeasure_options(), true},
    };
    for (const Scenario& sc : scenarios) {
      Alg1Options opts;
      opts.extract_waveform = false;
      const Alg1Result t1_base = verify_2cycle(soc, configure(sc.options, 1, false), opts);
      for (const unsigned threads : thread_counts) {
        const Alg1Result off = verify_2cycle(soc, configure(sc.options, threads, false), opts);
        const Alg1Result on = verify_2cycle(soc, configure(sc.options, threads, true), opts);

        Row row;
        row.pub_words = pub;
        row.scenario = sc.name;
        row.threads = threads;
        row.off_s = off.total_seconds;
        row.on_s = on.total_seconds;
        row.work_off = total_work(off);
        row.work_on = total_work(on);
        row.runs = on.stats.simplify.runs;
        row.reuses = on.stats.simplify.reuses;
        row.eliminated = on.stats.simplify.eliminated_vars;
        row.subsumed = on.stats.simplify.subsumed_clauses;
        row.identical = identical_results(t1_base, on) && identical_results(off, on);
        row.frozen_safe = on.stats.simplify.frozen_eliminations == 0;
        row.verdict = verdict_name(on.verdict);
        row.metrics = row_metrics(on);
        all_identical = all_identical && row.identical;
        frozen_safe = frozen_safe && row.frozen_safe;
        if (sc.gated && row.reduction() < reduction_bar) bar_met = false;
        rows.push_back(row);

        std::printf(
            "%-10u %-10s %-8u %-12.3f %-12.3f %-14llu %-14llu %-10.3f %4llu/%-6llu %-8llu "
            "%-9llu %s%s\n",
            pub, sc.name, threads, row.off_s, row.on_s,
            static_cast<unsigned long long>(row.work_off),
            static_cast<unsigned long long>(row.work_on), row.reduction(),
            static_cast<unsigned long long>(row.runs),
            static_cast<unsigned long long>(row.reuses),
            static_cast<unsigned long long>(row.eliminated),
            static_cast<unsigned long long>(row.subsumed), row.identical ? "yes" : "NO",
            row.frozen_safe ? "" : "  FROZEN-ELIM");
      }
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"bench\": \"preprocess\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"reduction_bar\": %.2f,\n  \"rows\": [\n", reduction_bar);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"pub_words\": %u, \"scenario\": \"%s\", \"threads\": %u, "
                 "\"verdict\": \"%s\", \"off_s\": %.3f, \"on_s\": %.3f, "
                 "\"work_off\": %llu, \"work_on\": %llu, \"work_reduction\": %.4f, "
                 "\"simplify_runs\": %llu, \"simplify_reuses\": %llu, "
                 "\"eliminated_vars\": %llu, \"subsumed_clauses\": %llu, "
                 "\"identical\": %s, \"frozen_safe\": %s, \"metrics\": %s}%s\n",
                 r.pub_words, r.scenario, r.threads, r.verdict, r.off_s, r.on_s,
                 static_cast<unsigned long long>(r.work_off),
                 static_cast<unsigned long long>(r.work_on), r.reduction(),
                 static_cast<unsigned long long>(r.runs),
                 static_cast<unsigned long long>(r.reuses),
                 static_cast<unsigned long long>(r.eliminated),
                 static_cast<unsigned long long>(r.subsumed), r.identical ? "true" : "false",
                 r.frozen_safe ? "true" : "false", r.metrics.c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\n# wrote %s\n", out_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: identical column regressed — preprocessing changed a verdict or "
                 "frontier, breaking the equisatisfiability contract\n");
    return 1;
  }
  if (!frozen_safe) {
    std::fprintf(stderr,
                 "FAIL: a frozen variable was eliminated — the frozen-set contract between "
                 "the encode layer and sat::Simplifier is broken\n");
    return 1;
  }
  if (!bar_met) {
    std::fprintf(stderr,
                 "FAIL: secure-row work reduction fell below the committed bar (%.2f) — "
                 "preprocessing stopped paying for itself\n",
                 reduction_bar);
    return 1;
  }
  return 0;
}
