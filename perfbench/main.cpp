// perfbench: runs one benchmark workload against the sanperf library and
// prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>] [--setup-only <0|1>]
//
// Output: human-readable lines prefixed "# ", one JSON line with the
// simulated fingerprint and the check results, then as the last line the
// result object {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double x) {
  if (!std::isfinite(x)) throw std::runtime_error{"non-finite metric value"};
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--setup-only <0|1>]\nworkloads:";
  for (const auto& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        std::size_t used = 0;
        opts.seed = std::stoull(val, &used);
        if (used != val.size()) usage("bad --seed " + val);
        have_seed = true;
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(val);
        if (!(opts.seconds > 0 && opts.seconds <= 600)) usage("bad --seconds " + val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") usage("bad --trace " + val);
        opts.trace = val == "1";
      } else if (arg == "--trace-out") {
        opts.trace_out = val;
      } else if (arg == "--setup-only") {
        if (val != "0" && val != "1") usage("bad --setup-only " + val);
        opts.setup_only = val == "1";
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + val);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");

  try {
    const perfbench::Report rep = perfbench::run_workload(opts);
    for (const auto& note : rep.notes) std::cout << "# " << note << '\n';

    std::ostringstream info;
    info << "{\"workload\":" << quote(opts.workload) << ",\"seed\":" << opts.seed
         << ",\"trace\":" << (opts.trace ? 1 : 0) << ",\"fingerprint\":" << rep.fingerprint
         << ",\"checks\":" << rep.checks << ",\"self_tests\":" << rep.self_tests
         << ",\"check_failures\":[";
    for (std::size_t i = 0; i < rep.failures.size(); ++i) {
      info << (i ? "," : "") << quote(rep.failures[i]);
    }
    info << "]}";
    std::cout << info.str() << '\n';

    std::ostringstream out;
    out << "{\"correct\":" << (rep.correct ? "true" : "false") << ",\"attempted\":" << rep.attempted
        << ",\"failed\":" << rep.failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
      const auto& m = rep.metrics[i];
      out << (i ? "," : "") << quote(m.name) << ":{\"value\":" << number(m.value)
          << ",\"unit\":" << quote(m.unit) << "}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
