#pragma once
// Named metrics and check results of one run, printed as one JSON object.

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  /// End-to-end metrics (the untraced run's result) vs per-layer metrics
  /// (the traced run's).
  enum class Group { kEndToEnd, kPerLayer };

  void metric(Group group, const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      invalid("metric " + name + " is not finite");
      return;
    }
    (group == Group::kEndToEnd ? e2e_ : layer_).push_back({name, unit, value});
  }
  /// The program answered wrongly: the run fails.
  void violation(std::string what) {
    std::fprintf(stderr, "perfbench: VIOLATION: %s\n", what.c_str());
    violations_.push_back(std::move(what));
  }
  /// The measurement itself cannot be trusted (generator fell behind,
  /// thread cap exceeded): the run reports no numbers.
  void invalid(std::string why) {
    std::fprintf(stderr, "perfbench: INVALID: %s\n", why.c_str());
    invalid_.push_back(std::move(why));
  }
  void phase(std::string json) { phases_.push_back(std::move(json)); }
  void set_attempted(std::size_t attempted, std::size_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }

  bool correct() const { return violations_.empty(); }
  bool valid() const { return invalid_.empty(); }

  std::string json() const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"valid\": ";
    out += valid() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"violations\": " + strings(violations_);
    out += ", \"invalid\": " + strings(invalid_);
    out += ", \"phases\": [";
    for (std::size_t i = 0; i < phases_.size(); ++i) out += (i ? ", " : "") + phases_[i];
    out += "], \"end_to_end\": " + metrics(e2e_);
    out += ", \"per_layer\": " + metrics(layer_);
    out += ", \"compiler\": \"" + escape(__VERSION__) + "\"";
    out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
    return out;
  }

 private:
  struct Metric {
    std::string name;
    const char* unit;
    double value;
  };

  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
  }
  static std::string strings(const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      out += (i ? ", \"" : "\"") + escape(items[i]) + "\"";
    }
    return out + "]";
  }
  static std::string metrics(const std::vector<Metric>& items) {
    std::string out = "{";
    char value[64];
    for (std::size_t i = 0; i < items.size(); ++i) {
      std::snprintf(value, sizeof value, "%.17g", items[i].value);
      out += (i ? ", \"" : "\"") + items[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + items[i].unit + "\"}";
    }
    return out + "}";
  }

  std::vector<Metric> e2e_, layer_;
  std::vector<std::string> violations_, invalid_, phases_;
  std::size_t attempted_ = 0, failed_ = 0;
};

}  // namespace perfbench
