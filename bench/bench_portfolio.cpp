// Experiment T-PORT — portfolio racing and supervised external solving on the
// Alg. 1 workloads.
//
// Three configurations per workload row:
//   * t1        — the single-worker baseline,
//   * portfolio — every check raced on 2 diversified in-proc members
//                 (restart pacing + seeded phases), first answer wins,
//   * hostile   — the same portfolio with a garbage-printing external solver
//                 supervised alongside (quarantined after its first degraded
//                 solve), the worst-case "supervised portfolio mode".
//
// The headline column is `identical`: both portfolio configurations must
// report bit-equal verdicts/iterations/frontiers to the baseline. Racing and
// fault recovery are allowed to move CPU around, never a verdict — any
// reading other than "yes" is a soundness bug, and CI fails on it (--quick).
// Member win counts are reported as a diversity diagnostic: a portfolio whose
// member 0 wins everything is paying thread overhead for nothing.
//
// Writes a JSON artifact (default BENCH_portfolio.json, or argv path) and
// exits non-zero if the identical column regresses.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sat/pipe_backend.h"
#include "upec/report.h"

namespace {

upec::VerifyOptions configure(upec::VerifyOptions options, unsigned members, bool hostile) {
  options.portfolio = members;
  if (hostile) {
    options.external_solver = upec::sat::self_solver_argv("garbage");
    options.supervise.max_restarts = 0;
    options.supervise.quarantine_after = 1;
  }
  return options;
}

std::uint64_t total_conflicts(const upec::Alg1Result& r) { return r.stats.total.conflicts; }

struct Row {
  std::uint32_t pub_words;
  const char* scenario;
  double t1_s, port_s, hostile_s;
  std::uint64_t conflicts_t1, conflicts_port;
  std::uint64_t external_failures, degraded;
  bool quarantined;
  bool identical;
  const char* verdict;
  std::string metrics; // of the portfolio run
};

} // namespace

int main(int argc, char** argv) {
  using namespace upec;
  using bench::identical_results;
  using bench::row_metrics;

  // This binary doubles as the external DIMACS solver for the hostile rows.
  const int solver_rc = sat::self_solver_main(argc, argv);
  if (solver_rc >= 0) return solver_rc;

  bool quick = false;
  std::string out_path = "BENCH_portfolio.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }
  const std::vector<std::uint32_t> sizes =
      quick ? std::vector<std::uint32_t>{8} : std::vector<std::uint32_t>{16};
  constexpr unsigned kMembers = 2;

  std::printf("# T-PORT — Alg. 1 baseline vs %u-member portfolio vs hostile external%s\n\n",
              kMembers, quick ? " (reduced config)" : "");
  std::printf("%-10s %-10s %-10s %-10s %-12s %-14s %-14s %-22s %-10s\n", "pub_words", "scenario",
              "t1[s]", "port[s]", "hostile[s]", "conflicts t1", "conflicts port",
              "ext fail/degr/quar", "identical");

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
      const Alg1Result port = verify_2cycle(soc, configure(sc.options, kMembers, false), opts);
      const Alg1Result hostile = verify_2cycle(soc, configure(sc.options, kMembers, true), opts);

      sat::BackendHealth health;
      for (const sat::BackendHealth& h : hostile.stats.per_worker_health) health += h;

      Row row;
      row.pub_words = pub;
      row.scenario = sc.name;
      row.t1_s = t1.total_seconds;
      row.port_s = port.total_seconds;
      row.hostile_s = hostile.total_seconds;
      row.conflicts_t1 = total_conflicts(t1);
      row.conflicts_port = total_conflicts(port);
      row.external_failures = health.external_failures;
      row.degraded = health.degraded_solves;
      row.quarantined = health.quarantined;
      row.identical = identical_results(t1, port) && identical_results(t1, hostile);
      row.verdict = verdict_name(port.verdict);
      row.metrics = row_metrics(port);
      all_identical = all_identical && row.identical;
      rows.push_back(row);

      std::printf("%-10u %-10s %-10.3f %-10.3f %-12.3f %-14llu %-14llu %6llu/%4llu/%-6s %s\n",
                  pub, sc.name, row.t1_s, row.port_s, row.hostile_s,
                  static_cast<unsigned long long>(row.conflicts_t1),
                  static_cast<unsigned long long>(row.conflicts_port),
                  static_cast<unsigned long long>(row.external_failures),
                  static_cast<unsigned long long>(row.degraded),
                  row.quarantined ? "yes" : "no", row.identical ? "yes" : "NO");
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"bench\": \"portfolio\",\n  \"members\": %u,\n  \"quick\": %s,\n",
               kMembers, quick ? "true" : "false");
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"pub_words\": %u, \"scenario\": \"%s\", \"verdict\": \"%s\", "
                 "\"t1_s\": %.3f, \"portfolio_s\": %.3f, \"hostile_s\": %.3f, "
                 "\"conflicts_t1\": %llu, \"conflicts_portfolio\": %llu, "
                 "\"external_failures\": %llu, \"degraded_solves\": %llu, "
                 "\"quarantined\": %s, \"identical\": %s, \"metrics\": %s}%s\n",
                 r.pub_words, r.scenario, r.verdict, r.t1_s, r.port_s, r.hostile_s,
                 static_cast<unsigned long long>(r.conflicts_t1),
                 static_cast<unsigned long long>(r.conflicts_port),
                 static_cast<unsigned long long>(r.external_failures),
                 static_cast<unsigned long long>(r.degraded), r.quarantined ? "true" : "false",
                 r.identical ? "true" : "false", r.metrics.c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\n# wrote %s\n", out_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: identical column regressed — portfolio racing or fault recovery changed "
                 "a verdict or frontier\n");
    return 1;
  }
  return 0;
}
