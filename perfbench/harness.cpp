#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

namespace perfbench {

LogHistogram::LogHistogram()
    : bins_(static_cast<std::size_t>(std::log(kMax / kMin) / std::log(kRatio)) + 1) {}

void LogHistogram::add(double x) {
  const double pos = std::log(std::clamp(x, kMin, kMax) / kMin) / std::log(kRatio);
  ++bins_[std::min(static_cast<std::size_t>(pos), bins_.size() - 1)];
  ++count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double seen = 0;
  for (std::size_t bin = 0; bin < bins_.size(); ++bin) {
    const std::uint32_t n = bins_[bin];
    if (n > 0 && seen + n >= target) {
      const double frac = (target - seen) / n;
      return kMin * std::pow(kRatio, static_cast<double>(bin) + frac);
    }
    seen += n;
  }
  return kMax;
}

double TimedLoop::round_quantile_s(double q) const {
  double sum = 0;
  for (const LogHistogram& h : item_s) sum += h.quantile(q);
  return sum;
}

HostGauge::HostGauge() : nodes_(std::size_t{1} << 14) {
  std::mt19937_64 rng{0x9a0e5eedULL};
  for (Node& n : nodes_) n = Node{0.0, static_cast<std::uint32_t>(rng() % nodes_.size()), {}};
  (void)measure();  // first touch of the table and the heap's storage
}

double HostGauge::measure() {
  using Event = std::pair<double, std::uint32_t>;
  const double c0 = cpu_now_s();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> pending;
  std::vector<std::unique_ptr<char[]>> payloads(1024);
  std::mt19937_64 rng{7};
  std::exponential_distribution<double> gap{1.0};
  const auto size = static_cast<std::uint32_t>(nodes_.size());
  for (std::uint32_t i = 0; i < 2048; ++i) pending.emplace(gap(rng), i * 7U % size);
  for (std::uint32_t k = 0; k < 10000; ++k) {
    const auto [t, i] = pending.top();
    pending.pop();
    Node& node = nodes_[i];
    node.stamp = t;
    auto& payload = payloads[(node.next + k) % payloads.size()];
    payload.reset(new char[32 + rng() % 224]);
    payload[0] = static_cast<char>(k);
    pending.emplace(t + gap(rng), (node.next + k) % size);
  }
  sink_ += pending.top().second;
  return cpu_now_s() - c0;
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error{"no VmHWM in /proc/self/status"};
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::int64_t item) : tracer_{tracer} {
  if (tracer_ == nullptr) return;
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  saved_parent_ = tracer_->open_;
  tracer_->spans_.push_back(Span{name, 0, 0, saved_parent_, item});
  tracer_->open_ = index_;
  tracer_->spans_.back().start_ns = wall_now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = wall_now_ns();
  tracer_->open_ = saved_parent_;
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
  }
  return out;
}

bool Tracer::has(const std::string& name) const {
  return std::any_of(spans_.begin(), spans_.end(),
                     [&](const Span& s) { return name == s.name; });
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot write trace file " + path};
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"item\":%lld,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, 1e-3 * static_cast<double>(s.start_ns - t0),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                  static_cast<long long>(s.item), s.parent);
    out << buf;
  }
  out << "\n]}\n";
}

void Fingerprint::add_latency(double ms) {
  ++decided_;
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof ms);
  std::memcpy(&bits, &ms, sizeof bits);
  for (int b = 0; b < 8; ++b) {
    hash_ ^= (bits >> (8 * b)) & 0xffU;
    hash_ *= 1099511628211ULL;  // FNV-1a prime
  }
}

std::string Fingerprint::to_json() const {
  std::ostringstream os;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash_));
  os << "{\"items\":" << items_ << ",\"decided\":" << decided_ << ",\"undecided\":" << undecided_
     << ",\"work\":" << work_ << ",\"latency_hash\":\"" << hex << "\"}";
  return os.str();
}

TimedLoop run_timed(double seconds, std::size_t round_size, std::size_t min_items,
                    HostGauge& gauge, double last_reading,
                    const std::function<ItemOutcome(std::size_t)>& item) {
  TimedLoop loop;
  loop.item_s.resize(round_size);
  loop.gauge_s.add(last_reading);
  // Items and rounds since the last reading, rescaled when the next one
  // closes the slice.
  std::vector<std::pair<std::size_t, double>> slice_items;
  std::vector<std::pair<std::uint64_t, double>> slice_rounds;  // decisions, CPU s
  double slice_cpu = 0;
  const auto close_slice = [&] {
    const double reading = gauge.measure();
    loop.gauge_s.add(reading);
    const double f = HostGauge::scale(last_reading, reading);
    last_reading = reading;
    for (const auto& [pos, cpu] : slice_items) loop.item_s[pos].add(f * cpu);
    for (const auto& [decisions, cpu] : slice_rounds) {
      loop.round_rate.add(static_cast<double>(decisions) / (f * cpu));
    }
    loop.quiet_s += f * slice_cpu;
    slice_items.clear();
    slice_rounds.clear();
    slice_cpu = 0;
  };

  const std::int64_t deadline = wall_now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  double round_cpu = 0;
  std::uint64_t round_decisions = 0;
  for (std::size_t i = 0;; ++i) {
    if (i % round_size == 0 && i > 0) {
      slice_rounds.emplace_back(round_decisions, round_cpu);
      round_cpu = 0;
      round_decisions = 0;
      const bool done = i >= min_items && wall_now_ns() >= deadline;
      if (done || slice_cpu >= kGaugeSliceS) close_slice();
      if (done) break;
    }
    const ItemOutcome out = item(i);
    slice_items.emplace_back(i % round_size, out.cpu_s);
    slice_cpu += out.cpu_s;
    loop.raw_cpu_s += out.cpu_s;
    round_cpu += out.cpu_s;
    round_decisions += out.decisions;
    loop.attempted += out.attempted;
    loop.failed += out.failed;
    ++loop.items;
  }
  return loop;
}

}  // namespace perfbench
