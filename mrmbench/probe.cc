// mrmbench_probe — times a fixed CPU kernel to gauge the host's current speed.
//
//   mrmbench_probe
//
// Prints {"probe_s": <host seconds>, "checksum": <n>} on stdout. run.py runs it
// before every repetition of a workload and once after the last, and scales
// the run's host seconds by the probe's mean time (README.md, "Noise"): a
// shared host's speed drifts by 30-60% over minutes, and this kernel slows
// down with it.
//
// The kernel is the benchmark's own code and links nothing from ../src, so no
// change to mrmsim can change its speed. Its mix resembles the simulator's
// hot paths: a binary heap of pending timestamps, dependent lookups in a table
// the size of an L2 cache, and special-function math like the ECC model's.

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <vector>

namespace {

constexpr long kIterations = 5'000'000;
constexpr std::size_t kTableEntries = std::size_t{1} << 16;  // 512 KiB
constexpr std::size_t kHeapEntries = 4096;

std::uint64_t Next(std::uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

}  // namespace

int main() {
  std::uint64_t x = 88172645463325252ull;
  std::vector<std::uint64_t> table(kTableEntries);
  for (std::uint64_t& entry : table) {
    entry = Next(&x);
  }

  const auto start = std::chrono::steady_clock::now();
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  std::uint64_t sum = 0;
  double math = 0.0;
  for (long i = 0; i < kIterations; ++i) {
    const std::uint64_t r = Next(&x);
    heap.push(r >> 20);
    if (heap.size() > kHeapEntries) {
      sum += heap.top();
      heap.pop();
    }
    sum += table[(r >> 11) & (kTableEntries - 1)];
    if ((i & 15) == 0) {
      math += std::lgamma(1.0 + static_cast<double>(r & 1023));
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::printf("{\"probe_s\":%.17g,\"checksum\":%" PRIu64 "}\n", seconds,
              sum + static_cast<std::uint64_t>(math));
  return 0;
}
