#include "workloads.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "checks.hpp"
#include "core/experiments.hpp"
#include "core/measurement.hpp"
#include "core/replication.hpp"
#include "core/workload.hpp"
#include "des/random.hpp"
#include "faults/lowering.hpp"
#include "faults/plan.hpp"
#include "runtime/cluster.hpp"
#include "san/analytic.hpp"
#include "san/simulator.hpp"
#include "san/study.hpp"
#include "sanmodels/consensus_model.hpp"
#include "stats/bimodal_fit.hpp"
#include "stats/ecdf.hpp"
#include "topo/topology.hpp"

namespace perfbench {

namespace sp = sanperf;

namespace {

using sp::des::derive_seed;

/// Calls `fn` and returns the calling thread's CPU seconds it took.
template <typename Fn>
double cpu_time_of(Fn&& fn) {
  const double c0 = cpu_now_s();
  fn();
  return cpu_now_s() - c0;
}

/// The default study reward (time to decision in ms) that also stores the
/// run's firing count in `firings`.
sp::san::TransientStudy::Reward counting_reward(std::uint64_t& firings) {
  return [&firings](const sp::san::SanSimulator&, const sp::san::RunResult& r) {
    firings = r.firings;
    return r.end_time.to_ms();
  };
}

/// Records the first violation of an inline check and counts the rest.
struct Violations {
  std::uint64_t count = 0;
  std::string first;
  void add(const std::string& failure) {
    if (failure.empty()) return;
    if (count++ == 0) first = failure;
  }
  void report(Checker& ck, const char* what) const {
    std::string msg;
    if (count > 0) {
      msg = std::string{what} + ": " + std::to_string(count) + " violations, first: " + first;
    }
    ck.expect(msg);
  }
};

/// The paper's calibration pass at its own sample size (10000 probes per
/// delay distribution), single-threaded.
sp::core::PaperContext calibrate(std::uint64_t seed, const sp::core::ReplicationRunner& runner,
                                 Tracer& tr) {
  auto span = tr.span("core.make_context");
  return sp::core::make_context(sp::core::Scale::full(), seed, runner);
}

/// Calibration checks shared by the workloads that calibrate: the very
/// probe sample the pass fitted (re-run from the same seeds; its fit must
/// equal the context's) against the benchmark's own arithmetic.
void check_calibration(const sp::core::PaperContext& ctx, Checker& ck) {
  const auto fig6 = sp::core::run_fig6(ctx, {});
  const auto& fit = fig6.unicast_fit;
  const auto& ref = ctx.unicast_fit;
  ck.expect(fit.p1 == ref.p1 && fit.a1 == ref.a1 && fit.b1 == ref.b1 && fit.a2 == ref.a2 &&
                    fit.b2 == ref.b2
                ? std::string{}
                : std::string{"calibration: re-run probe sample does not reproduce the fit"});
  ck.expect(check_unicast_probes(fig6.unicast_ms, ctx.network));

  auto outlier = fig6.unicast_ms;
  outlier[outlier.size() / 2] = 0.5;
  ck.expect_rejected("unicast probe out of range", check_unicast_probes(outlier, ctx.network));
  auto shifted = fig6.unicast_ms;
  for (double& d : shifted) d = std::clamp(d + 0.02, 0.10, 0.35);
  ck.expect_rejected("unicast probe mean", check_unicast_probes(shifted, ctx.network));
}

/// Records a stream's layer counts and, for a fingerprinted item, its
/// simulated outputs.
void trace_stream(const sp::core::WorkloadResult& r, std::size_t item, Fingerprint& fp,
                  Tracer& tr) {
  {
    auto span = tr.span("stats.fold", static_cast<std::int64_t>(item));
    (void)sp::core::fold_workload_stats(r.instances, r.warmup, 20);
    (void)sp::core::fold_value_stats(r.values, r.warmup_values, 20);
  }
  tr.count("des.events", static_cast<double>(r.events_processed));
  tr.maximum("restart.replayed", static_cast<double>(r.instances_replayed));
  if (!fp.covers(item)) return;
  std::uint64_t decided = 0;
  for (const auto& val : r.values) {
    if (val.decided()) {
      fp.add_latency(val.total_ms());
      ++decided;
    } else {
      fp.add_undecided();
    }
  }
  fp.add_work(r.events_processed);
  fp.end_item();
  tr.count("fp.events", static_cast<double>(r.events_processed));
  tr.count("fp.decided", static_cast<double>(decided));
  tr.count("fp.values", static_cast<double>(r.values.size()));
  tr.count("fp.instances", static_cast<double>(r.instances.size()));
  tr.count("fp.appends", static_cast<double>(r.durable_appends));
  tr.maximum("fp.peak_active", static_cast<double>(r.peak_active_instances));
}

// --- The streams under faults, shared with the probe pass -------------------

constexpr std::size_t kFaultN = 5;

std::shared_ptr<const sp::topo::Topology> two_rack_topology() {
  return std::make_shared<const sp::topo::Topology>(sp::topo::Topology::uniform(
      kFaultN, 2, sp::topo::LinkParams{}, sp::topo::LinkParams{0.05, 1.0, 0}));
}

sp::core::WorkloadSpec fault_stream_spec(std::size_t measured) {
  sp::core::WorkloadSpec s;
  s.arrivals = sp::core::ArrivalProcess::kOpenLoop;
  s.offered_per_s = 1500.0;
  s.warmup = 500;
  s.measured = measured;
  s.batch_size = 16;
  s.batch_linger_ms = 10.0;
  s.pipeline_window = 16;
  s.resubmit_undecided = true;
  s.instance_timeout_ms = 1000.0;
  return s;
}

double stream_horizon_ms(const sp::core::WorkloadSpec& s) {
  return s.start_ms + 1000.0 * static_cast<double>(s.warmup + s.measured) / s.offered_per_s;
}

/// Once per simulated second, one rack's top-of-rack switch is cut off for
/// 100 ms (alternating racks), for the whole horizon of the stream. The
/// seeded fault stream runs this plan: every value decided under it on
/// every stream seed tried.
sp::faults::FaultPlan partition_plan(const sp::core::WorkloadSpec& s) {
  sp::faults::FaultPlan plan;
  int rack = 0;
  for (double at = 200.0; at < stream_horizon_ms(s); at += 1000.0, rack = 1 - rack) {
    plan.add(sp::faults::FaultPlan::partition_switch(rack, at, 100.0));
  }
  return plan;
}

/// A rolling restart of every host (60 ms down, 150 ms apart) once per
/// simulated second: what makes the durable log replay. It strands an
/// instance on some stream seeds (README, "Findings"), so it runs on one
/// fixed stream seed only (restart_shape).
sp::faults::FaultPlan rolling_plan(const sp::core::WorkloadSpec& s) {
  sp::faults::FaultPlan plan;
  for (double at = 200.0; at < stream_horizon_ms(s); at += 1000.0) {
    plan.add(sp::faults::FaultPlan::rolling_restart(at, 60.0, 150.0));
  }
  return plan;
}

sp::core::WorkloadConfig fault_stream_config(std::shared_ptr<const sp::topo::Topology> topology) {
  sp::core::WorkloadConfig cfg;
  cfg.n = kFaultN;
  cfg.topology = std::move(topology);
  cfg.heartbeat_timeout_ms = 10.0;
  cfg.rotate_coordinators = true;
  cfg.durable_log = true;
  cfg.durable_append_ms = 0.1;
  cfg.queue_backend = sp::des::QueueBackend::kHeap;
  return cfg;
}

// --- Workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Items per round; a run always attempts whole rounds.
  [[nodiscard]] virtual std::size_t round_size() const = 0;
  /// Items every run reaches (also the fingerprint's span).
  [[nodiscard]] virtual std::size_t min_items() const = 0;
  [[nodiscard]] virtual std::size_t fingerprint_items() const = 0;
  [[nodiscard]] virtual ItemOutcome item(std::size_t i, Fingerprint& fp) = 0;
  /// Output checks and their self-tests, after the timed loop.
  virtual void check(Checker& ck) = 0;
  /// Cluster sizes at which the traced run times the bare Cluster ctor.
  [[nodiscard]] virtual std::vector<std::size_t> cluster_sizes() const { return {5}; }
};

// san_transient ---------------------------------------------------------------

class SanTransient final : public Workload {
 public:
  SanTransient(std::uint64_t seed, Tracer& tr) : seed_{seed}, tr_{tr} {
    ctx_ = calibrate(seed, runner_, tr);
    for (const std::size_t n : {std::size_t{3}, std::size_t{5}}) {
      sp::sanmodels::ConsensusSanConfig base;
      base.n = n;
      base.transport = ctx_.transport(n);
      add(base, Kind::kClass1);
      for (const int crashed : {0, 1}) {
        auto cfg = base;
        cfg.initially_crashed = crashed;
        add(cfg, crashed == 0 ? Kind::kCoordCrash : Kind::kOther);
      }
      // Three detector qualities (mistake recurrence 30/100/400 ms, 3 ms
      // mistakes), each with deterministic and exponential sojourns.
      for (const double t_mr : {30.0, 100.0, 400.0}) {
        for (const auto sojourn : {sp::fd::AbstractFdParams::Sojourn::kDeterministic,
                                   sp::fd::AbstractFdParams::Sojourn::kExponential}) {
          sp::fd::QosEstimate qos;
          qos.t_mr_ms = t_mr;
          qos.t_m_ms = 3.0;
          auto cfg = base;
          cfg.qos_fd = sp::fd::AbstractFdParams::from_qos(qos, sojourn);
          add(cfg, Kind::kOther);
        }
      }
      // The ablation: the proposal broadcast charged as one unicast frame.
      auto ablation = base;
      ablation.transport.frame_broadcast = ablation.transport.frame_unicast;
      add(ablation, Kind::kOther);
    }
    // Warm-up item: one replication of the first model.
    (void)replicate(models_.front(), derive_seed(seed_, "warmup"), -1);
  }

  [[nodiscard]] std::size_t round_size() const override { return models_.size(); }
  [[nodiscard]] std::size_t min_items() const override { return kFoldReps * models_.size(); }
  [[nodiscard]] std::size_t fingerprint_items() const override { return 50 * models_.size(); }

  ItemOutcome item(std::size_t i, Fingerprint& fp) override {
    const std::size_t m = i % models_.size();
    const std::size_t rep = i / models_.size();
    Model& model = models_[m];
    std::optional<double> reward;
    ItemOutcome out;
    out.cpu_s = cpu_time_of([&] {
      reward = replicate(model, derive_seed(model.seed, "rep", rep), static_cast<std::int64_t>(i));
    });
    const bool decided = reward.has_value();
    out.attempted = 1;
    out.failed = decided ? 0 : 1;
    out.decisions = decided ? 1 : 0;
    tr_.count("san.firings", static_cast<double>(model.firings));
    if (decided) {
      bound_.add(check_latency_bound(*reward, model.bound_ms));
      if (rep < kFoldReps) model.rewards.push_back(*reward);
    }
    if (fp.covers(i)) {
      if (decided) {
        fp.add_latency(*reward);
      } else {
        fp.add_undecided();
      }
      fp.add_work(model.firings);
      fp.end_item();
      tr_.count("fp.firings", static_cast<double>(model.firings));
      tr_.count("fp.reps", 1);
    }
    return out;
  }

  void check(Checker& ck) override {
    check_calibration(ctx_, ck);
    bound_.report(ck, "SAN latency bound");
    ck.expect_rejected("SAN latency", check_latency_bound(0.5 * models_[0].bound_ms,
                                                          models_[0].bound_ms));

    // Fold each model's first kFoldReps rewards, as a transient study does.
    std::vector<double> means(models_.size(), 0.0);
    for (std::size_t m = 0; m < models_.size(); ++m) {
      auto span = tr_.span("stats.fold");
      sp::stats::SummaryStats s;
      for (const double x : models_[m].rewards) s.add(x);
      (void)s.mean_ci(0.90);
      (void)sp::stats::Ecdf{models_[m].rewards}.quantile(0.5);
      means[m] = s.mean();
    }

    // Section 5.2: SAN class 1 within 25% of the emulated cluster.
    for (std::size_t m = 0; m < models_.size(); ++m) {
      if (models_[m].kind != Kind::kClass1) continue;
      const std::size_t n = models_[m].n;
      const auto meas = sp::core::measure_latency(n, ctx_.network, ctx_.timers, -1, 1000,
                                                  derive_seed(seed_, "check_measure", n),
                                                  runner_);
      const double meas_mean = meas.summary().mean();
      ck.expect(check_san_vs_measured(n, means[m], meas_mean));
      ck.expect_rejected("SAN vs measured", check_san_vs_measured(n, 1.5 * meas_mean, meas_mean));
      for (std::size_t c = 0; c < models_.size(); ++c) {
        if (models_[c].kind == Kind::kCoordCrash && models_[c].n == n) {
          ck.expect(check_crash_above_class1(n, means[c], means[m]));
          ck.expect_rejected("crash vs class 1", check_crash_above_class1(n, means[m], means[c]));
        }
      }
    }
    check_engine_against_ctmc(ck);
  }

 private:
  enum class Kind { kClass1, kCoordCrash, kOther };
  static constexpr std::size_t kFoldReps = 1000;

  struct Model {
    std::size_t n = 0;
    Kind kind = Kind::kOther;
    std::uint64_t seed = 0;
    double bound_ms = 0;
    sp::sanmodels::ConsensusSanModel built;
    /// The study a campaign runs the model through (core::run_study calls
    /// its run_one); its reward also keeps the run's firing count.
    std::optional<sp::san::TransientStudy> study;
    std::uint64_t firings = 0;  ///< of the last replication that decided
    std::vector<double> rewards;
  };

  void add(const sp::sanmodels::ConsensusSanConfig& cfg, Kind kind) {
    Model& m = models_.emplace_back();
    m.n = cfg.n;
    m.kind = kind;
    m.seed = derive_seed(seed_, "san_model", models_.size() - 1);
    // CT's critical path is three messages, none faster than the smallest
    // end-to-end delay the calibration fitted.
    const double msg_min = std::min(mixture_min(ctx_.unicast_fit),
                                    mixture_min(ctx_.broadcast_fits.at(cfg.n)));
    m.bound_ms = kCtCriticalMessages * msg_min;
    {
      auto span = tr_.span("sanmodels.build");
      m.built = sp::sanmodels::build_consensus_san(cfg);
      m.study.emplace(m.built.model, m.built.stop_predicate(), counting_reward(m.firings));
      // The limit core::simulate_latency and the campaigns use.
      m.study->set_time_limit(sp::des::Duration::seconds(10));
    }
    m.rewards.reserve(kFoldReps);
  }

  /// One replication through TransientStudy::run_one; nullopt when it
  /// ends without a decision.
  std::optional<double> replicate(Model& m, std::uint64_t seed, std::int64_t item) {
    m.firings = 0;
    auto span = tr_.span("san.run", item);
    return m.study->run_one(sp::des::RandomEngine{seed});
  }

  /// The engine against exact numbers: the n = 3 CT model with every
  /// delay exponential is a CTMC whose mean time to decide is solved
  /// exactly.
  void check_engine_against_ctmc(Checker& ck) {
    sp::sanmodels::ConsensusSanConfig cfg;
    cfg.n = 3;
    cfg.transport.send_cpu = sp::san::Distribution::exponential_ms(0.025);
    cfg.transport.recv_cpu = sp::san::Distribution::exponential_ms(0.025);
    cfg.transport.frame_unicast = sp::san::Distribution::exponential_ms(0.1);
    cfg.transport.frame_broadcast = sp::san::Distribution::exponential_ms(0.2);
    const auto model = sp::sanmodels::build_consensus_san(cfg);
    const sp::san::CtmcTransientSolver solver{model.model, model.stop_predicate()};
    const double exact = solver.mean_time_to_stop_ms();
    const sp::san::TransientStudy study{model.model, model.stop_predicate()};
    const auto sim = study.run(4000, derive_seed(seed_, "ctmc_check"));
    ck.expect(check_against_exact(sim.summary, exact));
    ck.expect_rejected("SAN engine vs CTMC", check_against_exact(sim.summary, 1.1 * exact));
  }

  std::uint64_t seed_;
  Tracer& tr_;
  sp::core::ReplicationRunner runner_{1};
  sp::core::PaperContext ctx_;
  std::deque<Model> models_;  // address-stable: studies point into models
  Violations bound_;
};

// table1_measure -------------------------------------------------------------

class Table1Measure final : public Workload {
 public:
  Table1Measure(std::uint64_t seed, Tracer& tr) : tr_{tr} {
    ctx_ = calibrate(seed, runner_, tr);
    for (const std::size_t n : {3, 5, 7, 9, 11}) {
      for (const int crashed : {-1, 0, 1}) {
        Cell c;
        c.n = n;
        c.crashed = crashed;
        c.seed = derive_seed(seed, "table1_cell", cells_.size());
        c.outcomes.reserve(kPaperExecutions);
        cells_.push_back(std::move(c));
      }
    }
    bound_ms_ = kCtCriticalMessages * min_message_ms(ctx_.network);
    (void)execute(cells_[0], 0, derive_seed(seed, "warmup"), -1);
  }

  [[nodiscard]] std::size_t round_size() const override { return cells_.size(); }
  [[nodiscard]] std::size_t min_items() const override {
    return kPaperExecutions * cells_.size();
  }
  [[nodiscard]] std::size_t fingerprint_items() const override { return 200 * cells_.size(); }

  ItemOutcome item(std::size_t i, Fingerprint& fp) override {
    Cell& c = cells_[i % cells_.size()];
    const std::size_t k = i / cells_.size();
    sp::core::ExecOutcome res;
    ItemOutcome out;
    out.cpu_s = cpu_time_of([&] {
      res = execute(c, k, derive_seed(c.seed, "exec", k), static_cast<std::int64_t>(i));
    });
    const bool decided = res.latency_ms.has_value();
    out.attempted = 1;
    out.failed = decided ? 0 : 1;
    out.decisions = decided ? 1 : 0;
    if (decided) {
      rounds_.add(check_exec_rounds(c.crashed, res.rounds));
      bound_.add(check_latency_bound(*res.latency_ms, bound_ms_));
    }
    if (k < kPaperExecutions) c.outcomes.push_back(res);
    if (fp.covers(i)) {
      if (decided) {
        fp.add_latency(*res.latency_ms);
      } else {
        fp.add_undecided();
      }
      fp.add_work(static_cast<std::uint64_t>(res.rounds));
      fp.end_item();
      tr_.count("fp.rounds", res.rounds);
      tr_.count("fp.execs", 1);
    }
    return out;
  }

  void check(Checker& ck) override {
    check_calibration(ctx_, ck);
    rounds_.report(ck, "execution rounds");
    bound_.report(ck, "execution latency bound");
    ck.expect_rejected("coordinator-crash rounds", check_exec_rounds(0, 1));
    ck.expect_rejected("no-crash rounds", check_exec_rounds(-1, 2));
    ck.expect_rejected("execution latency", check_latency_bound(0.5 * bound_ms_, bound_ms_));
    for (const Cell& c : cells_) {
      auto span = tr_.span("stats.fold");
      (void)sp::core::fold_latency_outcomes(c.outcomes).summary().mean_ci(0.90);
    }
  }

  [[nodiscard]] std::vector<std::size_t> cluster_sizes() const override {
    return {3, 5, 7, 9, 11};
  }

 private:
  static constexpr std::size_t kPaperExecutions = 5000;

  struct Cell {
    std::size_t n = 0;
    int crashed = -1;
    std::uint64_t seed = 0;
    std::vector<sp::core::ExecOutcome> outcomes;  ///< the paper-size sample
  };

  sp::core::ExecOutcome execute(const Cell& c, std::size_t k, std::uint64_t seed,
                                std::int64_t item) {
    static constexpr const char* kSpan[] = {"consensus.exec.no_crash",
                                            "consensus.exec.coord_crash",
                                            "consensus.exec.part_crash"};
    auto span = tr_.span(kSpan[c.crashed + 1], item);
    return sp::core::run_latency_execution(c.n, ctx_.network, ctx_.timers, c.crashed, k, seed);
  }

  Tracer& tr_;
  sp::core::ReplicationRunner runner_{1};
  sp::core::PaperContext ctx_;
  std::vector<Cell> cells_;
  double bound_ms_ = 0;
  Violations rounds_, bound_;
};

// The two streams ---------------------------------------------------------------

/// One item is one run_workload stream; one operation is one client value,
/// which fails unless it is served (decided, with its instance's latency).
/// A round is one stream of each shape.
class StreamWorkload final : public Workload {
 public:
  enum class Faults { kNone, kPartitions, kRestarts };
  struct Shape {
    const char* label = "";
    sp::core::WorkloadConfig cfg;
    sp::core::WorkloadSpec spec;
    std::optional<sp::faults::FaultPlan> plan;
    Faults faults = Faults::kNone;
    /// Stream seed independent of the workload seed; otherwise stream j of
    /// the shape draws derive_seed(seed, "stream", j).
    std::optional<std::uint64_t> fixed_seed;
    /// Unserved values are a known program fault on this fixed input:
    /// they count as failed operations, not as check violations.
    bool known_unserved = false;
    int critical_messages = kCtCriticalMessages;
    /// Allowed relative gap between delivered and realised offered rate.
    double rate_tolerance = 0.05;
  };

  StreamWorkload(std::uint64_t seed, Tracer& tr, std::vector<Shape> shapes)
      : seed_{seed}, tr_{tr}, shapes_{std::move(shapes)}, state_(shapes_.size()) {
    for (std::size_t k = 0; k < shapes_.size(); ++k) {
      state_[k].bound_ms = shapes_[k].critical_messages * min_message_ms(shapes_[k].cfg.network);
    }
    (void)stream(shapes_.front(), derive_seed(seed, "warmup"), -1);
  }

  [[nodiscard]] std::size_t round_size() const override { return shapes_.size(); }
  [[nodiscard]] std::size_t min_items() const override { return 5 * shapes_.size(); }
  [[nodiscard]] std::size_t fingerprint_items() const override { return 5 * shapes_.size(); }

  ItemOutcome item(std::size_t i, Fingerprint& fp) override {
    const std::size_t k = i % shapes_.size();
    const Shape& sh = shapes_[k];
    State& st = state_[k];
    const std::uint64_t seed =
        sh.fixed_seed.value_or(derive_seed(seed_, "stream", i / shapes_.size()));
    sp::core::WorkloadResult r;
    ItemOutcome out;
    out.cpu_s = cpu_time_of([&] { r = stream(sh, seed, static_cast<std::int64_t>(i)); });
    out.attempted = r.values.size();
    out.failed = unserved_values(r);
    out.decisions = out.attempted - out.failed;

    st.served.add(sh.known_unserved ? check_value_ids(r) : check_values_decided_once(r));
    st.rate.add(check_rate_tracks(r.value_stats, sh.rate_tolerance));
    for (const auto& val : r.values) {
      if (val.decided()) st.bound.add(check_latency_bound(*val.consensus_ms, st.bound_ms));
    }
    if (sh.faults != Faults::kNone) st.faults.add(check_faults_took_effect(r));
    if (sh.faults == Faults::kRestarts) st.faults.add(check_restarts_replayed(r));
    trace_stream(r, i, fp, tr_);
    if (!st.sample) st.sample = std::move(r);
    return out;
  }

  void check(Checker& ck) override {
    for (std::size_t k = 0; k < shapes_.size(); ++k) {
      const Shape& sh = shapes_[k];
      const State& st = state_[k];
      const std::string label = sh.label;
      st.served.report(ck, (label + ": values decided exactly once").c_str());
      st.rate.report(ck, (label + ": delivered rate tracks offered rate").c_str());
      st.bound.report(ck, (label + ": value latency bound").c_str());
      if (sh.faults != Faults::kNone) st.faults.report(ck, (label + ": faults took effect").c_str());
      self_test(sh, *st.sample, st.bound_ms, ck);
    }
  }

 private:
  struct State {
    double bound_ms = 0;
    Violations served, rate, bound, faults;
    std::optional<sp::core::WorkloadResult> sample;  ///< the shape's first stream
  };

  sp::core::WorkloadResult stream(const Shape& sh, std::uint64_t seed, std::int64_t item) {
    auto cfg = sh.cfg;
    cfg.seed = seed;
    if (sh.plan) cfg.fault_plan = &*sh.plan;
    auto span = tr_.span("core.run_workload", item);
    return sp::core::run_workload(cfg, sh.spec);
  }

  /// Self-tests of the stream checks on corrupted copies of a real result.
  static void self_test(const Shape& sh, const sp::core::WorkloadResult& r, double bound_ms,
                        Checker& ck) {
    auto dup = r;
    dup.values.back().vid = dup.values.front().vid;
    ck.expect_rejected("repeated value id", check_value_ids(dup));
    auto lost = r;
    lost.values[lost.values.size() / 2].consensus_ms.reset();
    ck.expect_rejected("undecided value", check_values_decided_once(lost));
    auto shifted = r;
    for (auto& v : shifted.values) {
      if (v.decided()) {
        *v.consensus_ms += 1.0;
        break;
      }
    }
    ck.expect_rejected("value with another latency than its instance",
                       unserved_values(shifted) == unserved_values(r) + 1
                           ? std::string{"counted as unserved"}
                           : std::string{});
    auto slow = r.value_stats;
    slow.delivered_per_s *= 1.0 - 2.0 * sh.rate_tolerance;
    ck.expect_rejected("delivered rate", check_rate_tracks(slow, sh.rate_tolerance));
    ck.expect_rejected("value latency", check_latency_bound(0.5 * bound_ms, bound_ms));
    if (sh.faults != Faults::kNone) {
      auto calm = r;
      for (auto& inst : calm.instances) inst.rounds = std::min(inst.rounds, 1);
      ck.expect_rejected("fault-free stream", check_faults_took_effect(calm));
    }
    if (sh.faults == Faults::kRestarts) {
      auto no_replay = r;
      no_replay.instances_replayed = 0;
      ck.expect_rejected("restart-free stream", check_restarts_replayed(no_replay));
    }
  }

  std::uint64_t seed_;
  Tracer& tr_;
  std::vector<Shape> shapes_;
  std::vector<State> state_;
};

/// The scale_n_sweep point n = 129 at default scale, default engine (heap
/// queue, unicast fan-out): an MR stream, Theta(n^2) frames per instance,
/// open-loop load 2000/n^2 instances/s, static detector, ideal timers.
StreamWorkload::Shape stream_n129() {
  constexpr std::size_t n = 129;
  StreamWorkload::Shape s;
  s.label = "n129";
  s.cfg.n = n;
  s.cfg.timers = sp::net::TimerModel::ideal();
  s.cfg.algorithm = sp::core::Algorithm::kMostefaouiRaynal;
  s.cfg.queue_backend = sp::des::QueueBackend::kHeap;
  s.cfg.network.batched_broadcast = false;
  s.spec.arrivals = sp::core::ArrivalProcess::kOpenLoop;
  s.spec.offered_per_s = 2000.0 / static_cast<double>(n * n);
  s.spec.measured = 24;
  s.spec.warmup = 3;
  s.spec.instance_timeout_ms = 60'000.0;
  s.critical_messages = kMrCriticalMessages;
  // 24 measured values: the realised rate ratio carries an N/(N-1) term.
  s.rate_tolerance = 0.10;
  return s;
}

StreamWorkload::Shape partition_shape() {
  StreamWorkload::Shape s;
  s.label = "rack partitions";
  s.spec = fault_stream_spec(50'000);
  s.plan = partition_plan(s.spec);
  s.cfg = fault_stream_config(two_rack_topology());
  s.faults = StreamWorkload::Faults::kPartitions;
  return s;
}

/// The same stream under the repeating rolling restart, on one fixed
/// stream seed. On it the stranding and resubmission faults (README,
/// "Findings") leave the same values unserved on every run (15 undecided,
/// 22 with another instance's latency): they are counted as failed
/// operations, so the failure stays in view until the program is fixed.
StreamWorkload::Shape restart_shape() {
  StreamWorkload::Shape s;
  s.label = "rolling restart";
  s.spec = fault_stream_spec(50'000);
  s.plan = rolling_plan(s.spec);
  s.cfg = fault_stream_config(two_rack_topology());
  s.faults = StreamWorkload::Faults::kRestarts;
  s.fixed_seed = derive_seed(202, "stream", 7);
  s.known_unserved = true;
  return s;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Tracer& tr) {
  if (name == "san_transient") return std::make_unique<SanTransient>(seed, tr);
  if (name == "table1_measure") return std::make_unique<Table1Measure>(seed, tr);
  if (name == "stream_n129") {
    return std::make_unique<StreamWorkload>(seed, tr,
                                            std::vector<StreamWorkload::Shape>{stream_n129()});
  }
  if (name == "stream_faults_2rack") {
    return std::make_unique<StreamWorkload>(
        seed, tr, std::vector<StreamWorkload::Shape>{partition_shape(), restart_shape()});
  }
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

// --- Traced run: bare probes and the per-layer metrics --------------------------

/// Times one bare call at every boundary the workload's own items did not
/// cross, so each traced run reports every per-layer metric. Inputs are
/// fixed apart from seeds derived from the workload seed.
void probe_pass(std::uint64_t seed, const std::vector<std::size_t>& cluster_sizes, Tracer& tr) {
  const sp::core::ReplicationRunner runner{1};
  const auto net = sp::net::NetworkParams::defaults();
  const auto timers = sp::net::TimerModel::defaults();
  constexpr std::size_t kProbes = 64;
  constexpr int kRepeats = 20;

  if (!tr.has("core.make_context")) (void)calibrate(derive_seed(seed, "probe_cal"), runner, tr);
  std::vector<double> unicast_sample;
  for (int r = 0; r < kRepeats; ++r) {
    const std::uint64_t s = derive_seed(seed, "probe_net", static_cast<std::uint64_t>(r));
    std::vector<double> delays;
    {
      auto span = tr.span("net.unicast_probe_shard");
      delays = sp::core::unicast_probe_shard(net, kProbes, s);
    }
    tr.count("net.unicast_probes", kProbes);
    unicast_sample.insert(unicast_sample.end(), delays.begin(), delays.end());
    {
      auto span = tr.span("net.broadcast_probe_shard.n5");
      (void)sp::core::broadcast_probe_shard(net, 5, kProbes, s);
    }
    tr.count("net.bcast_probes.n5", kProbes);
    {
      auto span = tr.span("net.broadcast_probe_shard.n129");
      (void)sp::core::broadcast_probe_shard(net, 129, 4, s);
    }
    tr.count("net.bcast_probes.n129", 4);
  }
  for (int r = 0; r < kRepeats; ++r) {
    auto span = tr.span("stats.fit_bimodal_uniform");
    (void)sp::stats::fit_bimodal_uniform(unicast_sample);
  }

  if (!tr.has("san.run")) {
    sp::sanmodels::ConsensusSanConfig cfg;
    cfg.n = 3;
    sp::sanmodels::ConsensusSanModel built;
    std::uint64_t firings = 0;
    std::optional<sp::san::TransientStudy> study;
    {
      auto span = tr.span("sanmodels.build");
      built = sp::sanmodels::build_consensus_san(cfg);
      study.emplace(built.model, built.stop_predicate(), counting_reward(firings));
    }
    study->set_time_limit(sp::des::Duration::seconds(10));
    for (std::uint64_t r = 0; r < 200; ++r) {
      {
        auto span = tr.span("san.run");
        (void)study->run_one(sp::des::RandomEngine{derive_seed(seed, "probe_san", r)});
      }
      tr.count("san.firings", static_cast<double>(firings));
      tr.count("fp.firings", static_cast<double>(firings));
      tr.count("fp.reps", 1);
    }
  }
  for (const std::size_t n : cluster_sizes) {
    sp::runtime::ClusterConfig cfg;
    cfg.n = n;
    for (std::uint64_t r = 0; r < kRepeats; ++r) {
      cfg.seed = r + 1;
      auto span = tr.span("runtime.cluster_build");
      const sp::runtime::Cluster cluster{cfg};
    }
  }
  {
    sp::runtime::ClusterConfig cfg;
    cfg.n = 129;
    for (std::uint64_t r = 0; r < 5; ++r) {
      cfg.seed = r + 1;
      auto span = tr.span("runtime.cluster_build.n129");
      const sp::runtime::Cluster cluster{cfg};
    }
  }
  if (!tr.has("consensus.exec.no_crash")) {
    static constexpr const char* kSpan[] = {"consensus.exec.no_crash",
                                            "consensus.exec.coord_crash",
                                            "consensus.exec.part_crash"};
    for (const int crashed : {-1, 0, 1}) {
      for (std::size_t k = 0; k < 100; ++k) {
        sp::core::ExecOutcome out;
        {
          auto span = tr.span(kSpan[crashed + 1]);
          out = sp::core::run_latency_execution(5, net, timers, crashed, k,
                                                derive_seed(seed, "probe_exec", k));
        }
        tr.count("fp.rounds", out.rounds);
        tr.count("fp.execs", 1);
      }
    }
  }
  const auto topology = two_rack_topology();
  const auto spec = fault_stream_spec(3000);
  const auto plan = partition_plan(spec);
  if (!tr.has("core.run_workload")) {
    auto cfg = fault_stream_config(topology);
    cfg.fault_plan = &plan;
    cfg.seed = derive_seed(seed, "probe_stream");
    sp::core::WorkloadResult r;
    {
      auto span = tr.span("core.run_workload");
      r = sp::core::run_workload(cfg, spec);
    }
    Fingerprint fp{1};
    trace_stream(r, 0, fp, tr);
  }
  if (!(tr.counter("restart.replayed") > 0)) {
    // The fault workload's restart stream, for its durable-replay count.
    const auto sh = restart_shape();
    auto cfg = sh.cfg;
    cfg.fault_plan = &*sh.plan;
    cfg.seed = *sh.fixed_seed;
    const auto r = sp::core::run_workload(cfg, sh.spec);
    tr.maximum("restart.replayed", static_cast<double>(r.instances_replayed));
  }
  {
    sp::core::Class3Run run;
    {
      auto span = tr.span("fd.measure_class3_run");
      run = sp::core::measure_class3_run(kFaultN, net, timers, 10.0, 50,
                                         derive_seed(seed, "probe_fd"));
    }
    tr.count("fd.sim_s", run.experiment_ms / 1000.0);
  }
  {
    constexpr int kBuilds = 1000;
    auto span = tr.span("topo.route_table");
    for (int r = 0; r < kBuilds; ++r) {
      const sp::topo::RouteTable routes{*topology};
    }
    tr.count("topo.builds", kBuilds);
  }
  {
    constexpr int kLowers = 1000;
    auto span = tr.span("faults.lower_plan");
    for (int r = 0; r < kLowers; ++r) {
      (void)sp::faults::lower_plan(plan, *topology);
    }
    tr.count("faults.lowers", kLowers);
  }
}

std::vector<Metric> per_layer_metrics(const Tracer& tr) {
  const auto totals = tr.totals();
  const auto self_ns = [&](const char* name) {
    const auto it = totals.find(name);
    if (it == totals.end()) throw std::logic_error{std::string{"no span "} + name};
    return it->second;
  };
  const auto mean_self = [&](const char* name) {
    const auto t = self_ns(name);
    return t.self_ns / static_cast<double>(t.count);
  };
  const auto per = [&](const char* span, const char* counter) {
    const double c = tr.counter(counter);
    if (!(c > 0)) throw std::logic_error{std::string{"no count "} + counter};
    return self_ns(span).self_ns / c;
  };
  const auto ratio = [&](const char* num, const char* den) {
    const double d = tr.counter(den);
    if (!(d > 0)) throw std::logic_error{std::string{"no count "} + den};
    return tr.counter(num) / d;
  };
  return {
      {"core.calibration_ms", mean_self("core.make_context") / 1e6, "ms"},
      {"net.unicast_probe_us", per("net.unicast_probe_shard", "net.unicast_probes") / 1e3, "us"},
      {"net.bcast_probe_us_n5", per("net.broadcast_probe_shard.n5", "net.bcast_probes.n5") / 1e3,
       "us"},
      {"stats.bimodal_fit_ms", mean_self("stats.fit_bimodal_uniform") / 1e6, "ms"},
      {"sanmodels.build_ms", mean_self("sanmodels.build") / 1e6, "ms"},
      {"san.firing_ns", per("san.run", "san.firings"), "ns"},
      {"san.firings_per_rep", ratio("fp.firings", "fp.reps"), "count"},
      {"stats.fold_ms", mean_self("stats.fold") / 1e6, "ms"},
      {"runtime.cluster_build_us", mean_self("runtime.cluster_build") / 1e3, "us"},
      {"consensus.exec_us_no_crash", mean_self("consensus.exec.no_crash") / 1e3, "us"},
      {"consensus.exec_us_coord_crash", mean_self("consensus.exec.coord_crash") / 1e3, "us"},
      {"consensus.exec_us_part_crash", mean_self("consensus.exec.part_crash") / 1e3, "us"},
      {"consensus.rounds_per_exec", ratio("fp.rounds", "fp.execs"), "count"},
      {"core.event_ns", per("core.run_workload", "des.events"), "ns"},
      {"des.events_per_decision", ratio("fp.events", "fp.decided"), "count"},
      {"net.bcast_probe_us_n129",
       per("net.broadcast_probe_shard.n129", "net.bcast_probes.n129") / 1e3, "us"},
      {"runtime.cluster_build_ms_n129", mean_self("runtime.cluster_build.n129") / 1e6, "ms"},
      {"consensus.peak_active", tr.counter("fp.peak_active"), "count"},
      {"fd.heartbeat_ms_per_sim_s", per("fd.measure_class3_run", "fd.sim_s") / 1e6, "ms"},
      {"topo.route_build_us", per("topo.route_table", "topo.builds") / 1e3, "us"},
      {"faults.lower_us", per("faults.lower_plan", "faults.lowers") / 1e3, "us"},
      {"consensus.values_per_instance", ratio("fp.values", "fp.instances"), "count"},
      {"consensus.appends_per_value", ratio("fp.appends", "fp.values"), "count"},
      {"consensus.instances_replayed", tr.counter("restart.replayed"), "count"},
  };
}

std::string fmt(double x) {
  std::ostringstream os;
  os.precision(6);
  os << x;
  return os.str();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"san_transient", "table1_measure",
                                                 "stream_n129", "stream_faults_2rack"};
  return names;
}

Report run_workload(const Options& opts) {
  Tracer tr{opts.trace};
  HostGauge gauge;
  // One cold set-up per process, so lazy initialisation and first-touch
  // allocation land in it; run.py repeats it in fresh processes
  // (--setup-only) and reports the median. Like every end-to-end time it
  // is rescaled to the quiet host by the gauge readings on either side.
  const double before_setup = gauge.measure();
  std::unique_ptr<Workload> w;
  const double setup_cpu_s = cpu_time_of([&] {
    auto span = tr.span("setup");
    w = make_workload(opts.workload, opts.seed, tr);
  });
  const double after_setup = gauge.measure();
  const double setup_s = setup_cpu_s * HostGauge::scale(before_setup, after_setup);
  Report rep;
  if (opts.setup_only) {
    rep.correct = true;
    rep.metrics = {{"setup_s", setup_s, "s"}};
    return rep;
  }

  Fingerprint fp{w->fingerprint_items()};
  const TimedLoop loop = run_timed(opts.seconds, w->round_size(), w->min_items(), gauge,
                                   after_setup, [&](std::size_t i) { return w->item(i, fp); });
  Checker ck;
  w->check(ck);

  rep.attempted = loop.attempted;
  rep.failed = loop.failed;
  rep.fingerprint = fp.to_json();
  rep.checks = ck.checks();
  rep.self_tests = ck.self_tests();
  rep.failures = ck.failures();
  rep.correct = ck.ok();

  const auto round_ms = [&](double q) { return 1e3 * loop.round_quantile_s(q); };
  std::ostringstream note;
  note << "items " << loop.items << " (" << w->round_size() << " per round), round_ms p10 "
       << fmt(round_ms(0.1)) << ", p50 " << fmt(round_ms(0.5)) << ", p99 " << fmt(round_ms(0.99))
       << "; decisions/s per round p10 " << fmt(loop.round_rate.quantile(0.1)) << ", p50 "
       << fmt(loop.round_rate.quantile(0.5)) << "; set-up (s) " << fmt(setup_s);
  rep.notes.push_back(note.str());
  std::ostringstream host;
  host << "host gauge: " << loop.gauge_s.count() << " readings, ms p10 "
       << fmt(1e3 * loop.gauge_s.quantile(0.1)) << ", p50 " << fmt(1e3 * loop.gauge_s.quantile(0.5))
       << ", p90 " << fmt(1e3 * loop.gauge_s.quantile(0.9)) << " (quiet host "
       << fmt(1e3 * HostGauge::kQuietS) << "); item CPU s " << fmt(loop.raw_cpu_s)
       << " measured, " << fmt(loop.quiet_s) << " rescaled; set-up CPU s " << fmt(setup_cpu_s)
       << " measured";
  rep.notes.push_back(host.str());
  if (opts.trace) {
    probe_pass(opts.seed, w->cluster_sizes(), tr);
    rep.metrics = per_layer_metrics(tr);
    for (const auto& [name, t] : tr.totals()) {
      rep.notes.push_back("span " + name + ": count " + std::to_string(t.count) + ", total ms " +
                          fmt(t.total_ns / 1e6) + ", self ms " + fmt(t.self_ns / 1e6));
    }
    if (!opts.trace_out.empty()) {
      tr.write_chrome_json(opts.trace_out);
      rep.notes.push_back("trace: " + std::to_string(tr.span_count()) + " spans written to " +
                          opts.trace_out);
    }
  } else {
    rep.metrics = {
        {"setup_s", setup_s, "s"},
        {"decisions_per_s", loop.round_rate.quantile(0.5), "1/s"},
        {"round_ms_p50", round_ms(0.5), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  }
  return rep;
}

}  // namespace perfbench
