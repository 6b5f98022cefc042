#include "oracle.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace perfbench {

ClientOracle::ClientOracle(std::size_t num_segments,
                           const std::vector<std::size_t>& owned)
    : last_scan_(num_segments, 0), own_last_(num_segments, kNotOwned) {
  for (const std::size_t s : owned) own_last_.at(s) = 0;
}

void ClientOracle::wrote_max(Value v) {
  max_written_ = std::max(max_written_, v);
}

void ClientOracle::read_max(Value v) {
  check(v >= last_max_read_ && v >= max_written_);
  last_max_read_ = std::max(last_max_read_, v);
}

void ClientOracle::read_counter(Value v) {
  check(v >= last_counter_read_ && v >= own_increments_);
  last_counter_read_ = std::max(last_counter_read_, v);
}

void ClientOracle::updated_segment(std::size_t segment, Value v) {
  own_last_.at(segment) = v;
}

void ClientOracle::scanned(const std::vector<Value>& view) {
  if (view.size() != last_scan_.size()) {
    check(false);
    return;
  }
  bool ok = true;
  for (std::size_t i = 0; i < view.size(); ++i) {
    ok &= view[i] >= last_scan_[i];
    ok &= own_last_[i] == kNotOwned || view[i] == own_last_[i];
    last_scan_[i] = std::max(last_scan_[i], view[i]);
  }
  check(ok);
}

void ClientOracle::read_fixed_cell(Value v, Value expected) {
  check(v == expected);
}

std::uint64_t final_failures(const FinalState& s) {
  std::uint64_t failed = 0;
  failed += s.read_max == s.max_written ? 0 : 1;
  failed += s.counter == s.increments ? 0 : 1;
  failed += s.scan == s.last_updates ? 0 : 1;
  failed += s.cell_sum == s.initial_cell_sum ? 0 : 1;
  return failed;
}

Verdicts parse_verdicts(std::istream& in) {
  Verdicts out;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields{line};
    std::string job;
    std::string verdict;
    std::string extra;
    if (!(fields >> job)) continue;
    if (!(fields >> verdict) || (fields >> extra)) {
      throw std::runtime_error("malformed verdict line: " + line);
    }
    if (!out.emplace(job, verdict).second) {
      throw std::runtime_error("duplicate verdict for job " + job);
    }
  }
  return out;
}

std::vector<std::string> wrong_verdicts(const Verdicts& expected,
                                        const Verdicts& actual) {
  std::vector<std::string> wrong;
  for (const auto& [job, verdict] : expected) {
    const auto it = actual.find(job);
    if (it == actual.end() || it->second != verdict) wrong.push_back(job);
  }
  for (const auto& [job, verdict] : actual) {
    if (expected.count(job) == 0) wrong.push_back(job);
  }
  return wrong;
}

}  // namespace perfbench
