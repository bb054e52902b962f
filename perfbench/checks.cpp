#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace {

std::string fail(const std::ostringstream& os) { return os.str(); }

}  // namespace

double mixture_mean(const sanperf::stats::BimodalUniform& d) {
  return d.p1 * 0.5 * (d.a1 + d.b1) + (1.0 - d.p1) * 0.5 * (d.a2 + d.b2);
}

double mixture_min(const sanperf::stats::BimodalUniform& d) {
  if (d.p1 >= 1.0) return d.a1;
  if (d.p1 <= 0.0) return d.a2;
  return std::min(d.a1, d.a2);
}

double min_message_ms(const sanperf::net::NetworkParams& p) {
  return p.send_cpu_ms + mixture_min(p.wire_service) + mixture_min(p.pipeline_latency) +
         p.recv_cpu_ms;
}

std::string check_unicast_probes(const std::vector<double>& delays_ms,
                                 const sanperf::net::NetworkParams& p) {
  std::ostringstream os;
  if (delays_ms.size() < 2) {
    os << "calibration: " << delays_ms.size() << " unicast probes";
    return fail(os);
  }
  sanperf::stats::SummaryStats s;
  for (std::size_t i = 0; i < delays_ms.size(); ++i) {
    const double d = delays_ms[i];
    if (!(d >= 0.10 - 1e-12 && d <= 0.35 + 1e-12)) {
      os << "calibration: unicast probe " << i << " = " << d << " ms outside [0.10, 0.35]";
      return fail(os);
    }
    s.add(d);
  }
  const double expected = p.send_cpu_ms + mixture_mean(p.wire_service) +
                          mixture_mean(p.pipeline_latency) + p.recv_cpu_ms;
  const double se = s.stddev() / std::sqrt(static_cast<double>(s.count()));
  if (std::abs(s.mean() - expected) > 5.0 * se) {
    os << "calibration: unicast mean " << s.mean() << " ms vs expected " << expected
       << " ms (5 standard errors = " << 5.0 * se << ")";
    return fail(os);
  }
  return {};
}

std::string check_exec_rounds(int crashed, std::int32_t rounds) {
  const std::int32_t expected = crashed == 0 ? 2 : 1;
  if (rounds == expected) return {};
  std::ostringstream os;
  os << "execution with crashed=" << crashed << " used " << rounds << " rounds, expected "
     << expected;
  return fail(os);
}

std::string check_latency_bound(double latency_ms, double bound_ms) {
  if (latency_ms >= bound_ms) return {};
  std::ostringstream os;
  os << "latency " << latency_ms << " ms below the critical-path bound " << bound_ms << " ms";
  return fail(os);
}

std::string check_san_vs_measured(std::size_t n, double san_mean_ms, double measured_mean_ms) {
  if (std::abs(san_mean_ms - measured_mean_ms) <= 0.25 * measured_mean_ms) return {};
  std::ostringstream os;
  os << "n=" << n << ": SAN class-1 mean " << san_mean_ms << " ms not within 25% of measured "
     << measured_mean_ms << " ms";
  return fail(os);
}

std::string check_crash_above_class1(std::size_t n, double coord_crash_mean_ms,
                                     double class1_mean_ms) {
  if (coord_crash_mean_ms > class1_mean_ms) return {};
  std::ostringstream os;
  os << "n=" << n << ": coordinator-crash mean " << coord_crash_mean_ms
     << " ms not above class-1 mean " << class1_mean_ms << " ms";
  return fail(os);
}

std::string check_against_exact(const sanperf::stats::SummaryStats& sim, double exact_mean_ms) {
  const double se = sim.stddev() / std::sqrt(static_cast<double>(sim.count()));
  if (sim.count() > 1 && std::abs(sim.mean() - exact_mean_ms) <= 5.0 * se) return {};
  std::ostringstream os;
  os << "SAN engine: simulated mean " << sim.mean() << " ms (n=" << sim.count()
     << ") vs exact CTMC mean " << exact_mean_ms << " ms";
  return fail(os);
}

std::string check_value_ids(const sanperf::core::WorkloadResult& r) {
  std::vector<char> seen(r.values.size(), 0);
  for (const auto& v : r.values) {
    if (v.vid < 0 || static_cast<std::size_t>(v.vid) >= r.values.size() ||
        seen[static_cast<std::size_t>(v.vid)] != 0) {
      std::ostringstream os;
      os << "value id " << v.vid << " repeated or out of range";
      return fail(os);
    }
    seen[static_cast<std::size_t>(v.vid)] = 1;
  }
  return {};
}

std::uint64_t unserved_values(const sanperf::core::WorkloadResult& r, std::string* first) {
  std::unordered_map<std::int32_t, const sanperf::core::InstanceRecord*> by_cid;
  for (const auto& inst : r.instances) by_cid[inst.cid] = &inst;
  std::uint64_t count = 0;
  for (const auto& v : r.values) {
    std::ostringstream os;
    const auto it = by_cid.find(v.cid);
    if (!v.decided()) {
      os << "value " << v.vid << " undecided";
    } else if (it == by_cid.end() || !it->second->decided()) {
      os << "value " << v.vid << " names instance " << v.cid << ", which did not decide";
    } else if (*it->second->latency_ms != *v.consensus_ms) {
      os << "value " << v.vid << " carries consensus latency " << *v.consensus_ms
         << " ms, its instance " << v.cid << " decided in " << *it->second->latency_ms << " ms";
    } else {
      continue;
    }
    if (count++ == 0 && first != nullptr) *first = os.str();
  }
  return count;
}

std::string check_values_decided_once(const sanperf::core::WorkloadResult& r) {
  if (auto ids = check_value_ids(r); !ids.empty()) return ids;
  std::string first;
  if (unserved_values(r, &first) == 0) return {};
  return first;
}

std::string check_rate_tracks(const sanperf::core::ValueStats& v, double tolerance) {
  if (v.offered_per_s > 0 && std::abs(v.delivered_per_s / v.offered_per_s - 1.0) <= tolerance) {
    return {};
  }
  std::ostringstream os;
  os << "delivered " << v.delivered_per_s << "/s does not track offered " << v.offered_per_s
     << "/s within " << 100.0 * tolerance << "%";
  return fail(os);
}

std::string check_faults_took_effect(const sanperf::core::WorkloadResult& r) {
  const auto multi_round = std::count_if(r.instances.begin(), r.instances.end(),
                                         [](const auto& inst) { return inst.rounds > 1; });
  if (multi_round > 0) return {};
  return "fault plan left no trace: no instance needed a second round";
}

std::string check_restarts_replayed(const sanperf::core::WorkloadResult& r) {
  if (r.instances_replayed > 0) return {};
  return "restart plan left no trace: no instance replayed from a durable log";
}

void Checker::expect(const std::string& failure) {
  ++checks_;
  if (!failure.empty() && failures_.size() < 20) failures_.push_back(failure);
}

void Checker::expect_rejected(const char* what, const std::string& failure) {
  ++self_tests_;
  if (failure.empty()) failures_.push_back(std::string{"self-test: corrupted "} + what +
                                           " was accepted");
}

}  // namespace perfbench
