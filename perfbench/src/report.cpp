#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

Quantile tail_quantile(std::vector<double> samples, double q) {
  Quantile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // 1-based nearest rank of q, capped so kMinSamplesBeyond stay above
  // it, floored at the median's rank.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t median_rank = (n + 1) / 2;
  rank = n > kMinSamplesBeyond ? std::min(rank, n - kMinSamplesBeyond)
                               : median_rank;
  rank = std::clamp(rank, median_rank, n);
  out.value = samples[rank - 1];
  out.beyond = n - rank;
  out.q = static_cast<double>(rank) / static_cast<double>(n);
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::add(const std::string& key, double value) {
  fields_.emplace_back(key, json_number(value));
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, int value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, json_string(value));
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, const char* value) {
  return add(key, std::string(value));
}

JsonObject& JsonObject::add(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.dump());
  return *this;
}

JsonObject& JsonObject::add(const std::string& key,
                            const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

JsonObject& JsonObject::add(const std::string& key,
                            const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(values[i]);
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

std::vector<std::string> JsonObject::keys() const {
  std::vector<std::string> out;
  for (const auto& field : fields_) out.push_back(field.first);
  return out;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
