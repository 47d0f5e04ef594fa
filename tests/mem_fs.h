// A filesystem in memory for store tests: no file touches the disk, and
// every file a rename publishes is logged with its bytes, in order.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "store/fs.h"

namespace mcmc {

/// Holds its files in a map and logs the bytes of every file a rename
/// publishes: the store's commits, each sealed chunk's among them.  Not
/// thread-safe, like the store's other Fs implementations: the store
/// calls it from one thread at a time, and its owner reads it once the
/// stream has returned.
class MemFs final : public store::Fs {
 public:
  [[nodiscard]] bool read_file(const std::string& path,
                               std::string& out) override {
    const auto it = files_.find(path);
    if (it == files_.end()) return false;
    out = it->second;
    return true;
  }
  [[nodiscard]] std::unique_ptr<store::FileWriter> create(
      const std::string& path) override {
    std::string& file = files_[path];
    file.clear();
    return std::make_unique<Writer>(file);
  }
  [[nodiscard]] bool rename(const std::string& from,
                            const std::string& to) override {
    const auto it = files_.find(from);
    if (it == files_.end()) return false;
    std::string bytes = std::move(it->second);
    files_.erase(it);
    published_.emplace_back(to, bytes);
    files_[to] = std::move(bytes);
    return true;
  }
  [[nodiscard]] bool remove(const std::string& path) override {
    return files_.erase(path) > 0;
  }
  [[nodiscard]] bool exists(const std::string& path) override {
    return files_.count(path) > 0;
  }

  using Published = std::vector<std::pair<std::string, std::string>>;

  [[nodiscard]] const Published& published() const { return published_; }
  [[nodiscard]] const std::map<std::string, std::string>& files() const {
    return files_;
  }

 private:
  class Writer final : public store::FileWriter {
   public:
    explicit Writer(std::string& file) : file_(file) {}
    [[nodiscard]] bool write(const char* data, std::size_t len) override {
      file_.append(data, len);
      return true;
    }
    [[nodiscard]] bool sync() override { return true; }
    bool close() override { return true; }

   private:
    std::string& file_;
  };

  std::map<std::string, std::string> files_;
  Published published_;
};

}  // namespace mcmc
