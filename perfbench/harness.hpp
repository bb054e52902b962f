// Measurement harness of the benchmark: clocks, the in-memory span tracer,
// the simulated-output fingerprint and the timed item loop.
//
// End-to-end figures are host CPU time of the benchmark's single thread
// (CLOCK_THREAD_CPUTIME_ID), every workload being single-threaded by
// construction, rescaled to a quiet host by HostGauge. Spans use
// std::chrono::steady_clock, as trace viewers expect wall time.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// CPU seconds consumed by the calling thread.
inline double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-speed gauge. On a shared host, neighbours that share this core's
/// caches and memory bandwidth slow the same instructions by up to a half
/// for minutes at a time, and thread CPU time grows with them. The gauge is
/// a fixed reference task that does not use the library (a small
/// discrete-event loop: a binary-heap pending set of 2048 events over a
/// 512 KB node table, exponential draws, a heap-allocated payload per
/// event), so it slows as the host does but not as the program changes. Timed work is measured between two gauge
/// readings and rescaled to a quiet host: t * kQuietS / mean(readings).
class HostGauge {
 public:
  /// CPU seconds of one reference task on a quiet host of the machine the
  /// benchmark was tuned on (a 4-vCPU Xeon VM). Only ratios between runs
  /// matter; the constant just keeps the rescaled figures in seconds.
  static constexpr double kQuietS = 2.0e-3;

  HostGauge();
  /// Runs the reference task once; returns its CPU seconds.
  double measure();
  /// Factor that rescales CPU time measured between readings `before` and
  /// `after` to the quiet host.
  [[nodiscard]] static double scale(double before, double after) {
    return kQuietS / (0.5 * (before + after));
  }

 private:
  struct Node {
    double stamp;
    std::uint32_t next;
    std::uint32_t pad[5];
  };
  std::vector<Node> nodes_;
  std::uint64_t sink_ = 0;
};

/// High-water mark of this process's resident set in MB: VmHWM of
/// /proc/self/status, which starts afresh at exec. (getrusage's ru_maxrss
/// keeps the high-water mark of the process that forked this one, so a
/// small binary started from a larger parent reports the parent's figure.)
[[nodiscard]] double peak_rss_mb();

/// Sample of positive values for quantiles: logarithmic bins 0.2% wide over
/// [1e-7, 1e7] (values outside are clamped), linear interpolation inside a
/// bin. The bins are one array allocated up front, so the benchmark's own
/// memory, and with it peak_rss_mb, depends neither on the number of values
/// nor on their spread, which follows host noise.
class LogHistogram {
 public:
  LogHistogram();
  void add(double x);
  [[nodiscard]] std::size_t count() const { return count_; }
  /// q-quantile (q in [0, 1]); 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr double kMin = 1e-7;
  static constexpr double kMax = 1e7;
  static constexpr double kRatio = 1.002;
  std::vector<std::uint32_t> bins_;
  std::size_t count_ = 0;
};

/// One timed call into a layer, recorded by the benchmark around a public
/// function of the library.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at top level
  std::int64_t item = -1;    ///< timed item id, -1 outside the timed loop
};

/// Records spans and counters in memory when enabled; every call is a
/// no-op (one branch) when disabled, so traced and untraced runs execute
/// the same code and produce the same simulated outputs.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_{enabled} {
    if (enabled_) spans_.reserve(1 << 16);
  }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::int64_t item);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
    std::int32_t saved_parent_ = -1;
  };

  /// Opens a span closed by the returned scope's destructor.
  [[nodiscard]] Scope span(const char* name, std::int64_t item = -1) {
    return Scope{enabled_ ? this : nullptr, name, item};
  }

  /// Adds to a named counter (work done at a boundary: probes, firings,
  /// events, simulated seconds).
  void count(const std::string& name, double amount) {
    if (enabled_) counters_[name] += amount;
  }
  /// Raises a named counter to at least `value` (high-water marks).
  void maximum(const std::string& name, double value) {
    if (enabled_) counters_[name] = std::max(counters_[name], value);
  }
  [[nodiscard]] double counter(const std::string& name) const;

  struct Totals {
    std::size_t count = 0;
    double total_ns = 0;
    double self_ns = 0;  ///< duration minus the part child spans cover
  };
  /// Per-name totals over every recorded span.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  /// Writes the spans as Chrome trace-event JSON (complete "X" events;
  /// args carry the item id and the parent span index).
  void write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::map<std::string, double> counters_;
};

/// Simulated outputs of the first `limit` timed items: counts plus a hash of
/// the decided latencies' bit patterns. Host-independent, so it must match
/// between traced and untraced runs and between any two builds that do
/// not change the model.
class Fingerprint {
 public:
  explicit Fingerprint(std::size_t limit) : limit_{limit} {}
  [[nodiscard]] bool covers(std::size_t item) const { return item < limit_; }
  void add_latency(double ms);
  void add_undecided() { ++undecided_; }
  void add_work(std::uint64_t units) { work_ += units; }
  void end_item() { ++items_; }
  [[nodiscard]] std::string to_json() const;

 private:
  std::size_t limit_;
  std::size_t items_ = 0;
  std::uint64_t decided_ = 0;
  std::uint64_t undecided_ = 0;
  std::uint64_t work_ = 0;
  std::uint64_t hash_ = 1469598103934665603ULL;  // FNV-1a offset basis
};

/// What one item did: the CPU time of its call into the library,
/// operations attempted and failed, and decisions.
struct ItemOutcome {
  double cpu_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t decisions = 0;
};

/// Result of the timed loop. Item and round times are rescaled to the
/// quiet host (HostGauge).
struct TimedLoop {
  /// Time per timed item, one histogram per position in the round (model,
  /// cell or stream kind): item i lands in item_s[i % round].
  std::vector<LogHistogram> item_s;
  LogHistogram round_rate;  ///< decisions per second, per round
  LogHistogram gauge_s;     ///< every gauge reading (CPU seconds)
  double raw_cpu_s = 0;     ///< CPU time of all items, not rescaled
  double quiet_s = 0;       ///< the same time rescaled to the quiet host
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t items = 0;

  /// Sum over the round's positions of each position's q-quantile item
  /// time: a round made of every item's own quantile, so each model or
  /// cell counts however cheap or dear it is.
  [[nodiscard]] double round_quantile_s(double q) const;
};

/// Runs items 0, 1, 2, ... until at least `seconds` of wall time have passed
/// and at least `min_items` have run, always finishing the current round of
/// `round_size` items so every run attempts whole rounds. Item time is the
/// CPU time each item reports for its library call; checks an item makes
/// on its output stay outside it. The gauge is read whenever the rounds
/// since its last reading hold `kGaugeSliceS` of item CPU time, and those
/// rounds are rescaled by the readings on either side; `last_reading` is
/// the reading taken just before the loop.
[[nodiscard]] TimedLoop run_timed(double seconds, std::size_t round_size, std::size_t min_items,
                                  HostGauge& gauge, double last_reading,
                                  const std::function<ItemOutcome(std::size_t)>& item);

inline constexpr double kGaugeSliceS = 0.1;

/// A metric as printed: value and unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

}  // namespace perfbench
