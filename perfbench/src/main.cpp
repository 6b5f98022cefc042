// perfbench: runs one workload of the repository benchmark.
//
//   perfbench --workload <read_mostly|update_storm|verify>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--expected <verdict file>] [--timeline <out.json>]
//
// Prints notes, a metric table and, as the last line, the JSON result.
// Exits 0 whenever a result was printed (also when it says correct:
// false); any other error exits 1 without a result.
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

perfbench::RunConfig parse(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  const auto get = [&](const std::string& key) {
    const auto it = args.find(key);
    if (it == args.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  };
  perfbench::RunConfig cfg;
  cfg.workload = get("workload");
  cfg.seed = std::stoull(get("seed"));
  cfg.seconds = std::stod(get("seconds"));
  const std::string trace = get("trace");
  if (trace != "0" && trace != "1") throw std::invalid_argument("--trace 0|1");
  cfg.trace = trace == "1";
  if (!(cfg.seconds > 0 && cfg.seconds <= 600)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  cfg.expected_verdicts = args.count("expected") ? args["expected"] : "";
  cfg.timeline = args.count("timeline") ? args["timeline"]
                                        : "perfbench-" + cfg.workload +
                                              ".trace.json";
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::RunConfig cfg = parse(argc, argv);
    perfbench::RunResult result;
    if (cfg.workload == "read_mostly") {
      result = perfbench::run_read_mostly(cfg);
    } else if (cfg.workload == "update_storm") {
      result = perfbench::run_update_storm(cfg);
    } else if (cfg.workload == "verify") {
      result = perfbench::run_verify(cfg);
    } else {
      throw std::invalid_argument("unknown workload " + cfg.workload);
    }
    perfbench::print_result(std::cout, cfg, result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
