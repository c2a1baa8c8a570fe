// One timed UPEC verification through the public entry points:
//
//   soc::build_pulpissimo -> UpecContext -> run_alg1/run_alg2
//                         -> render_report + render_json
//
// and one JSON line on stdout describing it (see README.md in this
// directory for every field). upecbench/run.py starts one process per
// verification, so ru_maxrss and the CPU time printed here belong to this
// verification alone and never to an earlier workload.
//
//   verify_once --alg 1|2 [--threads N] [--portfolio M] [--seed S]
//               [--countermeasure] [--pub-words W] [--priv-words W]
//               [--setups K] [--setups-only] [--trace-out FILE]
//
// Set-up (SoC build + context construction) is repeated K times (default 1);
// the last context runs the verification, unless --setups-only asks for the
// set-up times alone. With --trace-out, a trace session is armed before that
// last set-up and flushed after the context is gone, so the engine's own
// spans and the bench.* spans below land in one file.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "upec/report.h"
#include "upec/report_json.h"
#include "util/json.h"
#include "util/trace.h"

namespace {

using namespace upec;

struct Args {
  unsigned alg = 1;
  unsigned threads = 1;
  unsigned portfolio = 1;
  std::uint64_t seed = 0x5eedULL;
  bool countermeasure = false;
  std::uint32_t pub_words = 16;
  std::uint32_t priv_words = 8;
  unsigned setups = 1;
  bool setups_only = false;
  std::string trace_out;
};

[[noreturn]] void fail(const char* why) {
  std::fprintf(stderr, "verify_once: %s\n", why);
  std::exit(2);
}

std::uint64_t parse_uint(const char* s, std::uint64_t lo, std::uint64_t hi) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s || *end != '\0' || v < lo || v > hi) fail("numeric argument out of range");
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--countermeasure") {
      a.countermeasure = true;
      continue;
    }
    if (flag == "--setups-only") {
      a.setups_only = true;
      continue;
    }
    if (i + 1 >= argc) fail("flag without value");
    const char* v = argv[++i];
    if (flag == "--alg") a.alg = static_cast<unsigned>(parse_uint(v, 1, 2));
    else if (flag == "--threads") a.threads = static_cast<unsigned>(parse_uint(v, 1, 64));
    else if (flag == "--portfolio") a.portfolio = static_cast<unsigned>(parse_uint(v, 1, 16));
    else if (flag == "--seed") a.seed = parse_uint(v, 0, UINT64_MAX);
    else if (flag == "--pub-words") a.pub_words = static_cast<std::uint32_t>(parse_uint(v, 1, 1024));
    else if (flag == "--priv-words") a.priv_words = static_cast<std::uint32_t>(parse_uint(v, 1, 1024));
    else if (flag == "--setups") a.setups = static_cast<unsigned>(parse_uint(v, 1, 1000));
    else if (flag == "--trace-out") a.trace_out = v;
    else fail("unknown flag");
  }
  return a;
}

// Wall seconds of `f`, recorded as a "bench" span when a session is armed.
template <class F>
double timed(const char* span_name, F&& f) {
  util::trace::Span span(span_name, "bench");
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// FNV-1a 64 over a canonical text of everything the determinism contract
// pins: verdict, each iteration's removed set, the persistent hits, and the
// final frontier (final_s for Alg. 1, final_k plus the closing induction for
// Alg. 2). Equal across thread counts and portfolio settings.
class Fingerprint {
public:
  void text(std::string_view s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  void names(const UpecContext& ctx, std::string_view tag,
             const std::vector<rtlir::StateVarId>& svs) {
    text(tag);
    for (rtlir::StateVarId sv : svs) {
      text(" ");
      text(ctx.svt.name(sv));
    }
    text("\n");
  }
  void alg1(const UpecContext& ctx, const Alg1Result& r) {
    text(verdict_name(r.verdict));
    text("\n");
    for (const IterationLog& log : r.iterations) names(ctx, "removed", log.removed);
    names(ctx, "persistent_hits", r.persistent_hits);
    names(ctx, "final_s", r.final_s.to_vector());
  }
  void alg2(const UpecContext& ctx, const Alg2Result& r) {
    text(verdict_name(r.verdict));
    text("\nfinal_k " + std::to_string(r.final_k) + "\n");
    for (const Alg2StepLog& step : r.steps) {
      names(ctx, "k" + std::to_string(step.k) + " removed", step.iteration.removed);
    }
    names(ctx, "persistent_hits", r.persistent_hits);
    if (r.induction) alg1(ctx, *r.induction);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  VerifyOptions options = args.countermeasure ? countermeasure_options() : VerifyOptions{};
  options.threads = args.threads;
  options.portfolio = args.portfolio;
  options.portfolio_seed = args.seed;
  soc::SocConfig cfg;
  cfg.pub_ram_words = args.pub_words;
  cfg.priv_ram_words = args.priv_words;

  std::vector<double> soc_build_s, context_s;
  std::optional<util::trace::TraceSession> session;
  std::optional<soc::Soc> soc;
  std::optional<UpecContext> ctx;
  for (unsigned i = 0; i < args.setups; ++i) {
    ctx.reset();
    soc.reset();
    if (i + 1 == args.setups && !args.trace_out.empty()) {
      session.emplace(args.trace_out);
      if (!session->active()) fail("trace session could not be armed");
    }
    soc_build_s.push_back(timed("bench.soc_build", [&] { soc.emplace(soc::build_pulpissimo(cfg)); }));
    context_s.push_back(timed("bench.context", [&] { ctx.emplace(*soc, options); }));
  }

  util::JsonWriter w;
  w.begin_object();
  w.key("soc_build_s").begin_array();
  for (double s : soc_build_s) w.value(s);
  w.end_array();
  w.key("context_s").begin_array();
  for (double s : context_s) w.value(s);
  w.end_array();
  if (args.setups_only) {
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  Alg1Result r1;
  Alg2Result r2;
  const double cpu0 = cpu_seconds();
  const double verdict_s = timed("bench.verify", [&] {
    if (args.alg == 1) r1 = run_alg1(*ctx);
    else r2 = run_alg2(*ctx);
  });
  const double cpu_s = cpu_seconds() - cpu0;
  const double rss_mb = peak_rss_mb();

  const double report_s = timed("bench.report", [&] {
    if (args.alg == 1) {
      render_report(*ctx, r1);
      render_json(*ctx, r1);
    } else {
      render_report(*ctx, r2);
      render_json(*ctx, r2);
    }
  });

  const Verdict verdict = args.alg == 1 ? r1.verdict : r2.verdict;
  const SolverUsage& usage = args.alg == 1 ? r1.stats : r2.stats;
  std::size_t iterations = args.alg == 1 ? r1.iterations.size() : r2.steps.size();
  if (args.alg == 2 && r2.induction) iterations += r2.induction->iterations.size();
  Fingerprint fp;
  if (args.alg == 1) fp.alg1(*ctx, r1);
  else fp.alg2(*ctx, r2);
  const std::uint64_t store_clauses = ctx->store.num_clauses();
  const std::uint64_t store_vars = static_cast<std::uint64_t>(ctx->store.num_vars());

  // Workers join in the context's destructor; only then may the session flush.
  ctx.reset();
  if (session && !session->flush()) fail("trace file could not be written");

  w.key("verdict").value(verdict_name(verdict));
  w.key("fingerprint").value(fp.hex());
  w.key("verdict_s").value(verdict_s);
  w.key("cpu_s").value(cpu_s);
  w.key("peak_rss_mb").value(rss_mb);
  w.key("report_s").value(report_s);
  w.key("iterations").value(static_cast<std::uint64_t>(iterations));
  w.key("store_clauses").value(store_clauses);
  w.key("store_vars").value(store_vars);
  w.key("metrics");
  usage.metrics.write_json(w);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
