/// \file main.cpp
/// \brief perfbench: the repository's judging benchmark.
///
///   perfbench --workload protocol_k64|scan_batch|live_churn --seed N
///             --seconds S --trace 0|1 [--commit REV] [--trace-out PATH]
///
/// Prints human-readable `# ...` lines, a metric table, and as its last
/// line one JSON object {correct, attempted, failed, metrics}.  With
/// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
/// per-layer ones.  Exits non-zero when any answer is wrong.

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload protocol_k64|scan_batch|live_churn --seed N "
               "--seconds S --trace 0|1 [--commit REV] [--trace-out PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--inject-wrong-answer") {
      if (i + 1 >= argc) usage("missing value for " + arg);
      value = argv[++i];
    }
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (arg == "--commit") {
        options.commit = value;
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else if (arg == "--inject-wrong-answer") {
        options.inject_wrong_answer = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  perfbench::print_environment(options);

  perfbench::Sheet sheet;
  try {
    if (options.workload == "protocol_k64") {
      sheet = perfbench::run_protocol_k64(options);
    } else if (options.workload == "scan_batch") {
      sheet = perfbench::run_scan_batch(options);
    } else if (options.workload == "live_churn") {
      sheet = perfbench::run_live_churn(options);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  for (const perfbench::Metric& m : sheet.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.name << " is not finite\n";
      return 1;
    }
  }
  const double error_rate =
      sheet.attempted > 0
          ? static_cast<double>(sheet.failed) / static_cast<double>(sheet.attempted)
          : 1.0;
  perfbench::info("error_rate", perfbench::fmt(error_rate) + " ratio (" +
                                    std::to_string(sheet.failed) + " failed of " +
                                    std::to_string(sheet.attempted) + " attempted)");
  for (const perfbench::Metric& m : sheet.metrics) {
    std::cout << "# metric " << m.name << " = " << perfbench::fmt(m.value) << " " << m.unit
              << "\n";
  }
  const bool correct = sheet.failed == 0 && sheet.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << sheet.attempted << ", \"failed\": " << sheet.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < sheet.metrics.size(); ++i) {
    const perfbench::Metric& m = sheet.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << perfbench::fmt(m.value) << ", \"unit\": \"" << m.unit
              << "\"}";
  }
  std::cout << "}}" << std::endl;
  if (!correct) {
    std::cerr << "perfbench: " << sheet.failed << " of " << sheet.attempted
              << " answers failed the oracle check\n";
    return 1;
  }
  return 0;
}
