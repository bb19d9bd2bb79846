// calibrate — how fast this machine runs simulator-like code right now.
//
//   calibrate
//
// Runs a fixed event loop and prints its wall time in seconds. The loop
// does the kinds of work a ledger replication does: pops and pushes a
// binary heap of timed events, formats object keys and looks them up in a
// hash map, and allocates and frees blocks in an ordered map, over a
// working set of a few MiB. It uses nothing from src/, so a change to the
// program never changes it; only the machine does.
//
// On a shared machine, other tenants' load slows memory-bound code by tens
// of percent for minutes at a time, while a pure arithmetic loop barely
// moves. run.py runs this between replications and divides each
// replication's host time by the calibration times around it, so the
// reported host cost follows the program rather than the neighbours
// (README.md, Calibrated host time).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

constexpr int kSteps = 200000;
constexpr std::uint64_t kColors = 4096;
constexpr std::size_t kLiveBlocks = 20000;

std::uint64_t state = 88172645463325252ull;

std::uint64_t Next() {  // xorshift64
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

struct Event {
  std::uint64_t at;
  std::uint64_t id;
  bool operator>(const Event& other) const { return at > other.at; }
};

std::uint64_t Loop() {
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::unordered_map<std::string, std::uint64_t> cache;
  std::map<std::uint64_t, std::unique_ptr<std::vector<char>>> live;
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < kColors; ++i) {
    events.push({Next() % 1000, Next()});
  }
  for (int step = 0; step < kSteps; ++step) {
    const Event e = events.top();
    events.pop();
    std::string key = "c";
    key += std::to_string(e.id % kColors);
    key += "___o";
    key += std::to_string(e.id % 4);
    const auto [it, inserted] = cache.try_emplace(key, 0);
    hits += inserted ? 0 : 1;
    ++it->second;
    if (live.size() < kLiveBlocks) {
      live.emplace(e.id, std::make_unique<std::vector<char>>(64 + e.id % 512));
    } else {
      live.erase(live.begin());
    }
    events.push({e.at + Next() % 1000, Next()});
  }
  return hits + live.size();
}

}  // namespace

int main() {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t checksum = Loop();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("{\"seconds\": %.9f, \"checksum\": %llu}\n", seconds,
              static_cast<unsigned long long>(checksum));
  return 0;
}
