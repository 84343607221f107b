#include "traffic.hpp"

#include <atomic>
#include <fstream>
#include <string>

namespace perfbench {

namespace {

std::atomic<std::size_t> g_max_threads{0};

std::size_t current_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

}  // namespace

std::size_t max_threads_seen() { return g_max_threads.load(); }

void sample_threads() {
  const std::size_t now = current_threads();
  std::size_t seen = g_max_threads.load();
  while (now > seen && !g_max_threads.compare_exchange_weak(seen, now)) {
  }
}

}  // namespace perfbench
