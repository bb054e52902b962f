// Output checks. Each rests on arithmetic the benchmark does itself or on a
// property the method must have -- none compares against a stored copy of
// some earlier output. Every check returns an empty string when it holds
// and a description of the violation otherwise, so a self-test can feed it
// a deliberately corrupted result and demand a failure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/workload.hpp"
#include "net/params.hpp"
#include "stats/bimodal_fit.hpp"
#include "stats/summary.hpp"

namespace perfbench {

/// Mean of a two-uniform mixture, computed here from its parameters.
[[nodiscard]] double mixture_mean(const sanperf::stats::BimodalUniform& d);
/// Smallest value a two-uniform mixture can take (components of weight 0
/// ignored).
[[nodiscard]] double mixture_min(const sanperf::stats::BimodalUniform& d);

/// Fastest possible one-hop message on the emulated network: sender CPU,
/// the shortest wire and pipeline draws, receiver CPU.
[[nodiscard]] double min_message_ms(const sanperf::net::NetworkParams& p);

/// Message delays on the decision's critical path: CT needs estimate,
/// proposal and ack (3); MR needs the coordinator's broadcast and the
/// all-to-all exchange (2).
inline constexpr int kCtCriticalMessages = 3;
inline constexpr int kMrCriticalMessages = 2;

/// Calibration probes: each unicast delay lies in [0.10, 0.35] ms and the
/// sample mean agrees with send_cpu + E[wire] + E[pipeline] + recv_cpu
/// within five standard errors.
[[nodiscard]] std::string check_unicast_probes(const std::vector<double>& delays_ms,
                                               const sanperf::net::NetworkParams& p);

/// Rounds of an isolated CT execution with static accurate detectors: 1
/// without a crash or with a participant down, 2 with the coordinator down.
[[nodiscard]] std::string check_exec_rounds(int crashed, std::int32_t rounds);

/// A decision cannot come sooner than its critical path of minimal messages.
[[nodiscard]] std::string check_latency_bound(double latency_ms, double bound_ms);

/// Section 5.2 validation: the SAN class-1 mean lies within 25% of the
/// emulated mean.
[[nodiscard]] std::string check_san_vs_measured(std::size_t n, double san_mean_ms,
                                                double measured_mean_ms);

/// A crashed coordinator costs a round: its mean latency exceeds class 1.
[[nodiscard]] std::string check_crash_above_class1(std::size_t n, double coord_crash_mean_ms,
                                                   double class1_mean_ms);

/// The SAN simulator agrees with the exact CTMC mean of an all-exponential
/// model within five standard errors.
[[nodiscard]] std::string check_against_exact(const sanperf::stats::SummaryStats& sim,
                                              double exact_mean_ms);

/// Value ids run 0..values-1, each exactly once.
[[nodiscard]] std::string check_value_ids(const sanperf::core::WorkloadResult& r);

/// Values that were not served: undecided, or carrying a consensus latency
/// other than that of the decided instance they name. A description of the
/// first goes to `first` when given.
[[nodiscard]] std::uint64_t unserved_values(const sanperf::core::WorkloadResult& r,
                                            std::string* first = nullptr);

/// Each submitted value appears once, is decided, and carries the consensus
/// latency of the decided instance it names.
[[nodiscard]] std::string check_values_decided_once(const sanperf::core::WorkloadResult& r);

/// The delivered value rate stays within `tolerance` (relative) of the
/// realised offered rate: the stream keeps up with its open-loop load.
[[nodiscard]] std::string check_rate_tracks(const sanperf::core::ValueStats& v, double tolerance);

/// The fault plan visibly took effect: cutting off a round-1 coordinator
/// forced some instance into a second round.
[[nodiscard]] std::string check_faults_took_effect(const sanperf::core::WorkloadResult& r);

/// The restarts took effect: restarted hosts replayed instances from their
/// durable logs.
[[nodiscard]] std::string check_restarts_replayed(const sanperf::core::WorkloadResult& r);

/// Collects check results; a self-test records whether a corrupted input
/// was rejected.
class Checker {
 public:
  void expect(const std::string& failure);
  /// `failure` is the result of a check on a corrupted input: it must be
  /// non-empty.
  void expect_rejected(const char* what, const std::string& failure);
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  [[nodiscard]] std::uint64_t self_tests() const { return self_tests_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
  std::uint64_t checks_ = 0;
  std::uint64_t self_tests_ = 0;
};

}  // namespace perfbench
