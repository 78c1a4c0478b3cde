// Host-speed calibration: a fixed memory kernel that links nothing from the
// library under test, so no change to src/ can move it.
//
//   perfbench_calibrate        prints its own wall time in seconds
//
// On a shared host the speed available to one process drifts by a third
// from minute to minute, and a memory-bound kernel tracks the workloads'
// slowdowns (README.md, "Host-speed scaling").  run.py runs this before and
// after every untraced workload process and scales that process's timings by
// reference / the mean of the two times.
#include <sched.h>

#include <chrono>
#include <cstdio>
#include <vector>

int main() {
  // Run on the CPU the workload's main thread is pinned to (main.cpp).
  cpu_set_t usable;
  if (::sched_getaffinity(0, sizeof usable, &usable) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &usable)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      ::sched_setaffinity(0, sizeof one, &one);
      break;
    }
  }
  const auto start = std::chrono::steady_clock::now();
  // 256 MiB, first touch included; then one store per 64-byte line, 4 passes.
  std::vector<unsigned> words(std::size_t{64} << 20);
  for (unsigned pass = 0; pass < 4; ++pass) {
    for (std::size_t i = 0; i < words.size(); i += 16) words[i] += pass;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // The checksum keeps the stores observable.
  std::printf("%.9f %u\n", seconds, words[words.size() / 2]);
  return 0;
}
