// A fixed reference kernel that measures how fast the host runs right now.
//
// On a shared host the same verification can take twice as long from one
// minute to the next (busy SMT siblings, a contended last-level cache), so
// upecbench/run.py times this kernel between verifications and scales each
// verification's times by it (see README.md, "Host-speed normalization").
// The kernel uses nothing from the repository, so no change to the program
// can move it. It mixes the two things the SAT-heavy verification spends its
// time on: integer work, and dependent loads over a cache-sized and over a
// DRAM-sized working set. The shares (half ALU, a quarter each chase) make it
// slow down about as much as the workloads do when the host gets busy.
//
//   host_ref            prints {"ref_s": total, "parts": [alu, 2 MiB, 32 MiB]}
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double alu(std::uint64_t steps, std::uint64_t& sink) {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink ^= x;
  return since(t0);
}

// A chain of dependent loads through `mib` MiB. Slot i holds the next index
// of a full-period LCG walk (a = 5 mod 8, c odd, n a power of two), so the
// loads visit every slot in a stride pattern no prefetcher follows. Filling
// the chain is one linear pass and is not timed.
double chase(std::size_t mib, std::uint64_t steps, std::uint64_t& sink) {
  const std::size_t n = mib * 1024 * 1024 / sizeof(std::uint32_t);
  std::vector<std::uint32_t> next(n);
  for (std::size_t i = 0; i < n; ++i) {
    next[i] = static_cast<std::uint32_t>((i * 2862933555777941757ULL + 3037000493ULL) & (n - 1));
  }
  const auto t0 = Clock::now();
  std::uint32_t p = 0;
  for (std::uint64_t i = 0; i < steps; ++i) p = next[p];
  sink ^= p;
  return since(t0);
}

} // namespace

int main() {
  std::uint64_t sink = 0;
  // About 125, 62 and 62 ms on an idle 2.1 GHz x86-64 core.
  const double parts[] = {
      alu(75'000'000, sink),
      chase(2, 7'000'000, sink),
      chase(32, 1'000'000, sink),
  };
  const double total = parts[0] + parts[1] + parts[2];
  std::printf("{\"ref_s\": %.9f, \"parts\": [%.9f, %.9f, %.9f], \"sink\": %llu}\n", total,
              parts[0], parts[1], parts[2], static_cast<unsigned long long>(sink & 1));
  return 0;
}
