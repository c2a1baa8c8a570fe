// Experiment T-SHARE — worker-to-worker learned-clause sharing on the Alg. 1
// workloads (the committed follow-up to T-SCALE-MT in bench_scalability).
//
// T-SCALE-MT measured that chunked per-worker saturation re-proves ~2-2.5x of
// the UNSAT CPU a single big disjunction proves once — mostly re-derived
// conflict clauses. This bench runs the same 1-vs-4-worker Alg. 1 workloads
// with the sharing channel off and on and reports, per row:
//   * summed worker conflicts (the honest single-core cost metric; wall clock
//     on a 1-core container only measures time-slicing),
//   * the conflict reduction sharing buys on the same thread count,
//   * sharing traffic (exported/imported clauses), and
//   * the `identical` column: the 4-worker sharing run must report bit-equal
//     verdicts/iterations/frontiers to the 1-thread run. Sharing only adds
//     clauses implied by the shared store, so any reading other than "yes" is
//     a soundness bug.
//
// Writes a JSON artifact (default BENCH_clause_sharing.json, or argv path)
// and exits non-zero if the identical column regresses — CI runs the reduced
// configuration (--quick) and fails loudly on that signal.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "upec/report.h"

namespace {

upec::VerifyOptions configure(upec::VerifyOptions options, unsigned threads, bool share) {
  options.threads = threads;
  options.share_clauses = share;
  return options;
}

std::uint64_t worker_conflicts(const upec::Alg1Result& r) {
  std::uint64_t total = 0;
  for (const auto& w : r.stats.per_worker) total += w.conflicts;
  return total;
}

std::uint64_t worker_field(const upec::Alg1Result& r,
                           std::uint64_t upec::sat::SolverStats::*field) {
  std::uint64_t total = 0;
  for (const auto& w : r.stats.per_worker) total += w.*field;
  return total;
}

struct Row {
  std::uint32_t pub_words;
  const char* scenario;
  double t1_s, t4_off_s, t4_on_s;
  std::uint64_t conflicts_off, conflicts_on;
  std::uint64_t exported, imported;
  bool identical;
  const char* verdict;
  std::string metrics; // of the sharing-on run
};

} // namespace

int main(int argc, char** argv) {
  using namespace upec;
  using bench::identical_results;
  using bench::row_metrics;

  bool quick = false;
  std::string out_path = "BENCH_clause_sharing.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }
  const std::vector<std::uint32_t> sizes =
      quick ? std::vector<std::uint32_t>{8} : std::vector<std::uint32_t>{16, 32};
  constexpr unsigned kThreads = 4;

  std::printf("# T-SHARE — Alg. 1 with %u workers, clause sharing off vs on%s\n\n", kThreads,
              quick ? " (reduced config)" : "");
  std::printf("%-10s %-10s %-10s %-12s %-12s %-14s %-14s %-10s %-18s %-10s\n", "pub_words",
              "scenario", "t1[s]", "t4 off[s]", "t4 on[s]", "conflicts off", "conflicts on",
              "reduction", "exported/imported", "identical");

  std::vector<Row> rows;
  bool all_identical = true;
  for (const std::uint32_t pub : sizes) {
    soc::SocConfig cfg;
    cfg.pub_ram_words = pub;
    cfg.priv_ram_words = pub / 2;
    const soc::Soc soc = soc::build_pulpissimo(cfg);

    struct Scenario {
      const char* name;
      VerifyOptions options;
    };
    const Scenario scenarios[] = {
        {"detect", VerifyOptions{}},
        {"secure", countermeasure_options()},
    };
    for (const Scenario& sc : scenarios) {
      Alg1Options opts;
      opts.extract_waveform = false;
      const Alg1Result t1 = verify_2cycle(soc, configure(sc.options, 1, false), opts);
      const Alg1Result off = verify_2cycle(soc, configure(sc.options, kThreads, false), opts);
      const Alg1Result on = verify_2cycle(soc, configure(sc.options, kThreads, true), opts);

      Row row;
      row.pub_words = pub;
      row.scenario = sc.name;
      row.t1_s = t1.total_seconds;
      row.t4_off_s = off.total_seconds;
      row.t4_on_s = on.total_seconds;
      row.conflicts_off = worker_conflicts(off);
      row.conflicts_on = worker_conflicts(on);
      row.exported = worker_field(on, &sat::SolverStats::exported_clauses);
      row.imported = worker_field(on, &sat::SolverStats::imported_clauses);
      row.identical = identical_results(t1, on) && identical_results(t1, off);
      row.verdict = verdict_name(on.verdict);
      row.metrics = row_metrics(on);
      all_identical = all_identical && row.identical;
      rows.push_back(row);

      const double reduction =
          row.conflicts_off > 0
              ? 1.0 - static_cast<double>(row.conflicts_on) / static_cast<double>(row.conflicts_off)
              : 0.0;
      std::printf("%-10u %-10s %-10.3f %-12.3f %-12.3f %-14llu %-14llu %-10.2f %-8llu/%-9llu %s\n",
                  pub, sc.name, row.t1_s, row.t4_off_s, row.t4_on_s,
                  static_cast<unsigned long long>(row.conflicts_off),
                  static_cast<unsigned long long>(row.conflicts_on), reduction,
                  static_cast<unsigned long long>(row.exported),
                  static_cast<unsigned long long>(row.imported), row.identical ? "yes" : "NO");
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"bench\": \"clause_sharing\",\n  \"threads\": %u,\n  \"quick\": %s,\n",
               kThreads, quick ? "true" : "false");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double reduction =
        r.conflicts_off > 0
            ? 1.0 - static_cast<double>(r.conflicts_on) / static_cast<double>(r.conflicts_off)
            : 0.0;
    std::fprintf(f,
                 "    {\"pub_words\": %u, \"scenario\": \"%s\", \"verdict\": \"%s\", "
                 "\"t1_s\": %.3f, \"t4_off_s\": %.3f, \"t4_on_s\": %.3f, "
                 "\"worker_conflicts_off\": %llu, \"worker_conflicts_on\": %llu, "
                 "\"conflict_reduction\": %.4f, \"exported\": %llu, \"imported\": %llu, "
                 "\"identical\": %s, \"metrics\": %s}%s\n",
                 r.pub_words, r.scenario, r.verdict, r.t1_s, r.t4_off_s, r.t4_on_s,
                 static_cast<unsigned long long>(r.conflicts_off),
                 static_cast<unsigned long long>(r.conflicts_on), reduction,
                 static_cast<unsigned long long>(r.exported),
                 static_cast<unsigned long long>(r.imported), r.identical ? "true" : "false",
                 r.metrics.c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\n# wrote %s\n", out_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: identical column regressed — a sharing or scheduling change broke the "
                 "semantic-frontier determinism contract\n");
    return 1;
  }
  return 0;
}
