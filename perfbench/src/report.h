// Reporting helpers of the benchmark: supported quantiles,
// metric-name validation, and a small insertion-ordered JSON object
// writer that prints numbers with all their digits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A reported tail keeps at least this many samples beyond it, so the
/// value is not set by one or two outliers.
inline constexpr std::size_t kMinSamplesBeyond = 10;

struct Quantile {
  double q = 0.0;          ///< quantile actually reported (rank / samples)
  double value = 0.0;      ///< in the samples' unit
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked above the reported one
};

/// Nearest-rank quantile `q` of `samples`, lowered when needed so that
/// kMinSamplesBeyond samples stay beyond it — but never below the
/// median, which is always reported.  Empty input gives all zeros.
[[nodiscard]] Quantile tail_quantile(std::vector<double> samples, double q);

[[nodiscard]] double median(std::vector<double> values);

/// A metric name starts with a letter or digit and is made of at most
/// 64 letters, digits, '_', '.' and '-'.
[[nodiscard]] bool valid_metric_name(const std::string& name);

/// Insertion-ordered JSON object.  Values are rendered when added, so
/// objects nest by value.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value);
  JsonObject& add(const std::string& key, std::uint64_t value);
  JsonObject& add(const std::string& key, int value);
  JsonObject& add(const std::string& key, bool value);
  JsonObject& add(const std::string& key, const std::string& value);
  JsonObject& add(const std::string& key, const char* value);
  JsonObject& add(const std::string& key, const JsonObject& value);
  JsonObject& add(const std::string& key, const std::vector<double>& values);
  JsonObject& add(const std::string& key,
                  const std::vector<std::string>& values);

  [[nodiscard]] std::string dump() const;
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Shortest decimal text that reads back as `value` (JSON null for a
/// value that is not finite).
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(const std::string& text);

}  // namespace perfbench
