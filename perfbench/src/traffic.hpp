#pragma once
// Open- and closed-loop request engines, shared by the wire phases and the
// in-process replays so both sides of a self-time subtraction are timed the
// same way.
//
// Open loop: requests go out on a fixed-rate schedule regardless of
// responses, and each connection's answers are harvested in send order.
// FIFO harvest is exact over the wire because serverd writes a connection's
// predict responses in request order, and it is what serverd's own
// connection writer does in process.  Each request is timed from when it
// was DUE, so a stall also charges the requests queued behind it, and the
// sender's lateness is reported separately.
//
// Closed loop: each connection keeps `window` requests in flight and sends
// the next as soon as the oldest completes.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// A request that has not answered within this budget counts as failed.
inline constexpr std::chrono::seconds kRequestBudget{5};
/// A send the generator itself delayed by more than this counts toward
/// gen.late_frac.
inline constexpr double kLateUs = 1000.0;
/// Each phase is cut into this many equal windows (by due time in an open
/// loop, by completion time in a closed loop); end-to-end figures are the
/// median over windows, so host stalls that hit fewer than half of the
/// windows do not move them.
inline constexpr std::size_t kWindows = 20;

enum class Outcome { kOk, kFailed, kWrong };

/// One traced request: due -> done is the end-to-end span, start -> done
/// the client call inside it.
struct Span {
  std::int64_t due_ns = 0, start_ns = 0, done_ns = 0;
};

struct PhaseResult {
  const char* name = "";
  std::size_t sent = 0;       ///< requests issued
  std::size_t succeeded = 0;  ///< answered ok with the expected value
  std::size_t failed = 0;     ///< error, refused or timed out
  std::size_t wrong = 0;      ///< answered ok with a value that differs
  std::size_t queries = 0;    ///< predictions answered (a sweep counts 60)
  double seconds = 0.0;
  std::vector<double> latency_us;  ///< from due; failures = kFailedSample
  std::vector<double> rtt_us;      ///< from the client call
  std::vector<std::uint8_t> window;  ///< window of each latency sample
  /// Closed loop: predictions answered in each window, and window length.
  std::vector<std::size_t> window_queries = std::vector<std::size_t>(kWindows);
  double window_seconds = 0.0;
  /// Generator lateness: how long after max(due, end of the previous send
  /// on the connection) a send left.  Time a send spends blocked on
  /// serverd's backpressure is not the generator's; it is charged to the
  /// requests' latency instead, which counts from the due time.
  double max_late_us = 0.0;
  std::size_t late = 0;  ///< sends the generator delayed more than kLateUs
  std::vector<Span> spans;
};

/// Record this process's thread count (/proc/self/status) if it is the
/// highest seen so far; max_threads_seen() reads it back.
void sample_threads();
std::size_t max_threads_seen();

inline std::int64_t ns_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
}

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Wait until `handle` is answered or `until` passes; true when answered.
template <typename T>
bool wait_ready(std::future<T>& f, Clock::time_point until) {
  return f.wait_until(until) == std::future_status::ready;
}
template <typename T>
bool wait_ready(std::vector<std::future<T>>& fs, Clock::time_point until) {
  for (auto& f : fs) {
    if (f.wait_until(until) != std::future_status::ready) return false;
  }
  return true;
}

/// Fold per-connection results into one.
inline PhaseResult merge(const char* name, std::vector<PhaseResult>& parts) {
  PhaseResult result;
  result.name = name;
  for (PhaseResult& part : parts) {
    result.sent += part.sent;
    result.succeeded += part.succeeded;
    result.failed += part.failed;
    result.wrong += part.wrong;
    result.queries += part.queries;
    result.late += part.late;
    result.max_late_us = std::max(result.max_late_us, part.max_late_us);
    result.latency_us.insert(result.latency_us.end(), part.latency_us.begin(),
                             part.latency_us.end());
    result.rtt_us.insert(result.rtt_us.end(), part.rtt_us.begin(), part.rtt_us.end());
    result.window.insert(result.window.end(), part.window.begin(), part.window.end());
    for (std::size_t w = 0; w < kWindows; ++w) result.window_queries[w] += part.window_queries[w];
    result.spans.insert(result.spans.end(), part.spans.begin(), part.spans.end());
  }
  return result;
}

/// Open loop at `rate` requests/s for `seconds`; request i of the schedule
/// goes out on connection i mod issuers.size().  `issuers[c](query)` sends
/// one request and returns its pending handle; `collect(query, handle)`
/// judges an answered one.
///
/// One thread per connection (the first is the calling thread) both sends
/// on schedule and harvests in send order: between sends it blocks on the
/// oldest pending answer until the next send is due, so an answer is
/// timestamped when it arrives, not when the sender gets round to it.
template <typename Issue, typename Collect>
PhaseResult open_loop(const char* name, double rate, double seconds, QueryStream stream,
                      std::size_t queries_per_request, bool trace,
                      const std::vector<Issue>& issuers, Collect collect) {
  using Handle = decltype(issuers.front()(std::declval<Query>()));
  struct InFlight {
    Clock::time_point due, start;
    Query query;
    Handle handle;
    std::uint8_t window = 0;
  };
  const auto total = static_cast<std::size_t>(rate * seconds);
  std::vector<Query> schedule(total);
  for (Query& q : schedule) q = stream.next();
  const std::size_t conns = issuers.size();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto period = std::chrono::duration<double>(1.0 / rate);
  auto due_of = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
  };

  std::vector<PhaseResult> parts(conns);
  auto run = [&](std::size_t c) {
    PhaseResult& part = parts[c];
    part.latency_us.reserve(total / conns + 1);
    part.rtt_us.reserve(total / conns + 1);
    part.window.reserve(total / conns + 1);
    if (trace) part.spans.reserve(total / conns + 1);
    std::deque<InFlight> fifo;
    auto finish = [&](bool answered) {
      InFlight& item = fifo.front();
      const Outcome outcome = answered ? collect(item.query, item.handle) : Outcome::kFailed;
      const Clock::time_point done = Clock::now();
      part.window.push_back(item.window);
      if (outcome == Outcome::kFailed) {
        part.failed += 1;
        part.latency_us.push_back(kFailedSample);
        part.rtt_us.push_back(kFailedSample);
      } else {
        if (outcome == Outcome::kWrong) part.wrong += 1;
        else part.succeeded += 1;
        part.queries += queries_per_request;
        part.latency_us.push_back(us_between(item.due, done));
        part.rtt_us.push_back(us_between(item.start, done));
        if (trace) {
          part.spans.push_back(
              {ns_since(t0, item.due), ns_since(t0, item.start), ns_since(t0, done)});
        }
      }
      fifo.pop_front();
    };
    std::size_t i = c;
    Clock::time_point prev_end{};
    while (i < total || !fifo.empty()) {
      while (!fifo.empty() && wait_ready(fifo.front().handle, Clock::time_point{})) finish(true);
      const Clock::time_point next = i < total ? due_of(i) : Clock::time_point::max();
      if (!fifo.empty()) {
        const Clock::time_point expiry = fifo.front().due + kRequestBudget;
        if (Clock::now() >= expiry) {
          finish(false);
          continue;
        }
        if (Clock::now() < next) {
          if (wait_ready(fifo.front().handle, std::min(next, expiry))) finish(true);
          continue;
        }
      } else if (i < total) {
        std::this_thread::sleep_until(next);
      }
      if (i >= total || Clock::now() < next) continue;
      const Clock::time_point start = Clock::now();
      const double late = us_between(std::max(next, prev_end), start);
      part.max_late_us = std::max(part.max_late_us, late);
      if (late > kLateUs) part.late += 1;
      fifo.push_back({next, start, schedule[i], issuers[c](schedule[i]),
                      static_cast<std::uint8_t>(i * kWindows / total)});
      prev_end = Clock::now();
      part.sent += 1;
      if (c == 0 && i / conns == total / conns / 2) sample_threads();
      i += conns;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < conns; ++c) threads.emplace_back(run, c);
  run(0);
  for (std::thread& t : threads) t.join();
  PhaseResult result = merge(name, parts);
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return result;
}

/// Closed loop for `seconds` over one connection per element of `issuers`
/// (the first on the calling thread), `window` requests in flight each.
/// Throughput is answered queries over the time until the last answer.
template <typename Issue, typename Collect>
PhaseResult closed_loop(const char* name, double seconds, std::size_t window,
                        const std::vector<Issue>& issuers, const Zipf& zipf, Kind kind,
                        std::uint64_t seed, std::uint64_t stream_base,
                        std::size_t queries_per_request, bool trace, Collect collect) {
  using Handle = decltype(issuers.front()(std::declval<Query>()));
  struct InFlight {
    Clock::time_point start;
    Query query;
    Handle handle;
  };
  std::vector<PhaseResult> parts(issuers.size());
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));

  auto run = [&](std::size_t c) {
    PhaseResult& part = parts[c];
    QueryStream stream(zipf, kind, seed, stream_base + c);
    std::deque<InFlight> inflight;
    auto harvest = [&] {
      InFlight item = std::move(inflight.front());
      inflight.pop_front();
      const Outcome outcome = wait_ready(item.handle, item.start + kRequestBudget)
                                  ? collect(item.query, item.handle)
                                  : Outcome::kFailed;
      const Clock::time_point done = Clock::now();
      if (outcome == Outcome::kFailed) {
        part.failed += 1;
        return;
      }
      if (outcome == Outcome::kWrong) part.wrong += 1;
      else part.succeeded += 1;
      part.queries += queries_per_request;
      if (done < stop) {
        part.window_queries[static_cast<std::size_t>((done - t0) * kWindows / (stop - t0))] +=
            queries_per_request;
      }
      if (trace) {
        part.spans.push_back(
            {ns_since(t0, item.start), ns_since(t0, item.start), ns_since(t0, done)});
      }
    };
    while (Clock::now() < stop) {
      while (inflight.size() < window) {
        const Query query = stream.next();
        const Clock::time_point start = Clock::now();
        inflight.push_back({start, query, issuers[c](query)});
        part.sent += 1;
      }
      if (part.sent == window) sample_threads();
      harvest();
    }
    while (!inflight.empty()) harvest();
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < issuers.size(); ++c) threads.emplace_back(run, c);
  run(0);
  for (std::thread& t : threads) t.join();

  PhaseResult result = merge(name, parts);
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.window_seconds = seconds / kWindows;
  return result;
}

}  // namespace perfbench
