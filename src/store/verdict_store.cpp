#include "store/verdict_store.h"

#include <cstring>
#include <utility>

#include "util/bytes.h"
#include "util/check.h"

namespace mcmc::store {

namespace {

// File layout (all integers little-endian, see util/bytes.h):
//
//   header   magic[8] version:u32 num_models:u32 zoo:key128
//            sequence:u32 (0 = base, N = segment path.N) schema:u32
//            header_sum:key128 (over the 40 bytes before it)
//   base     generation:u64 rows checkpoint
//   segment  prev:key128 (checksum of the file it extends) rows
//            checkpoint
//   trailer  file_sum:key128 (over every byte before it)
//
//   rows        count:u64 words:u32 0:u32, then per row
//               key:key128 valid[words]:u64 bits[words]:u64
//   checkpoint  op:u32 0:u32 — keep (segments only) | absent | set:
//               kept:u64 count:u64 keys[count]:key128 chunks:u64
//               tests_streamed:u64 novel:u64 duplicates:u64
//               cursor:words sink:words (words = count:u64 + u64s)
//               The checkpoint's key list is the previous one's first
//               `kept` keys followed by `keys` (a base always has
//               kept = 0).
//
// The header prefix is laid out as in version 1, so a version-1 file
// verifies its header and is classified VersionMismatch.
constexpr char kBaseMagic[8] = {'M', 'C', 'V', 'S', 'T', 'O', 'R', '1'};
constexpr char kSegmentMagic[8] = {'M', 'C', 'V', 'S', 'S', 'E', 'G', '1'};
constexpr std::size_t kHeaderBytes = 40;  // checksummed prefix
constexpr std::size_t kHeaderSize = kHeaderBytes + 16;
constexpr std::size_t kTrailerSize = 16;

constexpr std::uint32_t kCheckpointKeep = 0;
constexpr std::uint32_t kCheckpointAbsent = 1;
constexpr std::uint32_t kCheckpointSet = 2;

/// Slots of the smallest index (a power of two).
constexpr std::size_t kMinIndexSlots = 64;

Fs& resolve(Fs* fs) { return fs != nullptr ? *fs : RealFs::instance(); }

std::string segment_path(const std::string& path, std::uint32_t index) {
  return path + "." + std::to_string(index);
}

void append_header(std::string& out, const char (&magic)[8],
                   const StoreMeta& meta, std::uint32_t sequence) {
  out.append(magic, sizeof magic);
  util::append_u32(out, kStoreFormatVersion);
  util::append_u32(out, static_cast<std::uint32_t>(meta.num_models()));
  util::append_key128(out, meta.zoo_fingerprint());
  util::append_u32(out, sequence);
  util::append_u32(out, meta.schema);
  const util::Key128 sum =
      util::hash128(out.data() + out.size() - kHeaderBytes, kHeaderBytes);
  util::append_key128(out, sum);
}

/// Appends the whole-file checksum; returns it.
util::Key128 append_trailer(std::string& out) {
  const util::Key128 sum = util::hash128(out);
  util::append_key128(out, sum);
  return sum;
}

/// The trailer of a file whose every byte it covers matches; false for
/// a truncated or damaged file.
bool verify_trailer(const std::string& bytes, util::Key128& sum) {
  if (bytes.size() < kHeaderSize + kTrailerSize) return false;
  const std::size_t body_end = bytes.size() - kTrailerSize;
  util::ByteReader r(bytes.data() + body_end, kTrailerSize);
  sum = r.read_key128();
  return sum == util::hash128(bytes.data(), body_end);
}

std::vector<std::uint64_t> read_words(util::ByteReader& r) {
  const std::uint64_t count = r.read_u64();
  if (count > r.remaining() / 8) {
    r.fail();
    return {};
  }
  std::vector<std::uint64_t> words(count);
  for (auto& w : words) w = r.read_u64();
  return words;
}

void append_words(std::string& out, const std::vector<std::uint64_t>& words) {
  util::append_u64(out, words.size());
  for (std::uint64_t w : words) util::append_u64(out, w);
}

std::uint64_t rows_size(std::size_t rows, std::size_t words) {
  return 16 + rows * (16 + 16 * words);
}

void append_row(std::string& out, util::Key128 key, const std::uint64_t* valid,
                const std::uint64_t* bits, std::size_t words) {
  util::append_key128(out, key);
  for (std::size_t w = 0; w < words; ++w) util::append_u64(out, valid[w]);
  for (std::size_t w = 0; w < words; ++w) util::append_u64(out, bits[w]);
}

/// Size of a checkpoint record carrying all of `ck` (absent when null).
std::uint64_t checkpoint_size(const StreamCheckpoint* ck) {
  if (ck == nullptr) return 8;
  return 8 + 16 + 16 * ck->seen_keys.size() + 32 + 8 +
         8 * ck->source_cursor.size() + 8 + 8 * ck->sink_state.size();
}

void append_checkpoint(std::string& out, const StreamCheckpoint* ck,
                       std::size_t kept) {
  util::append_u32(out, ck == nullptr ? kCheckpointAbsent : kCheckpointSet);
  util::append_u32(out, 0);
  if (ck == nullptr) return;
  util::append_u64(out, kept);
  util::append_u64(out, ck->seen_keys.size() - kept);
  for (std::size_t i = kept; i < ck->seen_keys.size(); ++i) {
    util::append_key128(out, ck->seen_keys[i]);
  }
  util::append_u64(out, ck->chunks);
  util::append_u64(out, ck->tests_streamed);
  util::append_u64(out, ck->novel_tests);
  util::append_u64(out, ck->duplicate_tests);
  append_words(out, ck->source_cursor);
  append_words(out, ck->sink_state);
}

/// A parsed checkpoint record; `ck.seen_keys` holds only the keys the
/// record appends after the previous list's first `kept`.
struct CheckpointRecord {
  std::uint32_t op = kCheckpointKeep;
  std::uint64_t kept = 0;
  StreamCheckpoint ck;
};

void read_checkpoint(util::ByteReader& r, CheckpointRecord& rec) {
  rec.op = r.read_u32();
  (void)r.read_u32();  // reserved
  if (rec.op == kCheckpointKeep || rec.op == kCheckpointAbsent) return;
  if (rec.op != kCheckpointSet) {
    r.fail();
    return;
  }
  rec.kept = r.read_u64();
  const std::uint64_t count = r.read_u64();
  if (count > r.remaining() / 16) {
    r.fail();
    return;
  }
  rec.ck.seen_keys.resize(static_cast<std::size_t>(count));
  for (auto& k : rec.ck.seen_keys) k = r.read_key128();
  rec.ck.chunks = r.read_u64();
  rec.ck.tests_streamed = r.read_u64();
  rec.ck.novel_tests = r.read_u64();
  rec.ck.duplicate_tests = r.read_u64();
  rec.ck.source_cursor = read_words(r);
  rec.ck.sink_state = read_words(r);
}

/// Applies a checkpoint record on top of `current`; false when the
/// record keeps more keys than `current` has.
bool apply_checkpoint(CheckpointRecord&& rec,
                      std::optional<StreamCheckpoint>& current) {
  if (rec.op == kCheckpointKeep) return true;
  if (rec.op == kCheckpointAbsent) {
    current.reset();
    return true;
  }
  const std::size_t have = current ? current->seen_keys.size() : 0;
  if (rec.kept > have) return false;
  std::vector<util::Key128> keys;
  if (current) keys = std::move(current->seen_keys);
  keys.resize(static_cast<std::size_t>(rec.kept));
  keys.insert(keys.end(), rec.ck.seen_keys.begin(), rec.ck.seen_keys.end());
  rec.ck.seen_keys = std::move(keys);
  current = std::move(rec.ck);
  return true;
}

/// Whether `bytes` is a segment that claims to extend the file whose
/// checksum is `sum` (damage elsewhere in it does not matter here).
bool extends(const std::string& bytes, util::Key128 sum) {
  if (bytes.size() < kHeaderSize + 16 ||
      std::memcmp(bytes.data(), kSegmentMagic, sizeof kSegmentMagic) != 0) {
    return false;
  }
  util::ByteReader r(bytes.data() + kHeaderSize, 16);
  return r.read_key128() == sum;
}

/// Commits `bytes` under `target` atomically: `target.tmp`, write,
/// fsync, close, rename.  Any failure removes the temp file, so
/// nothing partial ever carries a final name.
bool write_atomically(Fs& f, const std::string& target,
                      const std::string& bytes, std::string* error) {
  const std::string tmp = target + ".tmp";
  const auto fail = [&](const char* what) {
    if (error != nullptr) *error = std::string(what) + ": " + tmp;
    return false;
  };
  auto writer = f.create(tmp);
  if (writer == nullptr) return fail("store commit: create failed");
  if (!writer->write(bytes.data(), bytes.size()) || !writer->sync() ||
      !writer->close()) {
    (void)f.remove(tmp);
    return fail("store commit: write failed");
  }
  if (!f.rename(tmp, target)) {
    (void)f.remove(tmp);
    return fail("store commit: rename failed");
  }
  return true;
}

/// Removes segments `path.from`, `path.from+1`, ... up to the first
/// missing one; false if a removal fails.
bool retire_segments(Fs& f, const std::string& path, std::uint32_t from) {
  for (std::uint32_t i = from; f.exists(segment_path(path, i)); ++i) {
    if (!f.remove(segment_path(path, i))) return false;
  }
  return true;
}

}  // namespace

std::string model_store_key(const core::MemoryModel& model) {
  if (model.formula().has_custom()) return {};
  return "F:" + model.formula().to_string();
}

StoreMeta StoreMeta::from_models(const std::vector<core::MemoryModel>& models) {
  StoreMeta meta;
  meta.model_keys.reserve(models.size());
  for (const auto& m : models) meta.model_keys.push_back(model_store_key(m));
  return meta;
}

util::Key128 StoreMeta::zoo_fingerprint() const {
  // Hash the ordered keys with their lengths so no two key lists share
  // a byte serialization (keys may contain any byte, so a separator
  // alone would be ambiguous).
  std::string bytes;
  util::append_u64(bytes, model_keys.size());
  for (const auto& key : model_keys) {
    util::append_u64(bytes, key.size());
    bytes += key;
  }
  return util::hash128(bytes);
}

std::string to_string(OpenOutcome outcome) {
  switch (outcome) {
    case OpenOutcome::Fresh: return "fresh";
    case OpenOutcome::Loaded: return "loaded";
    case OpenOutcome::VersionMismatch: return "version-mismatch";
    case OpenOutcome::SchemaMismatch: return "schema-mismatch";
    case OpenOutcome::ZooMismatch: return "zoo-mismatch";
    case OpenOutcome::Corrupt: return "corrupt";
  }
  MCMC_UNREACHABLE("bad OpenOutcome");
}

VerdictStore::VerdictStore(StoreMeta meta)
    : meta_(std::move(meta)), slots_(kMinIndexSlots) {
  words_ = (static_cast<std::size_t>(meta_.num_models()) + 63) / 64;
  for (int i = 0; i < meta_.num_models(); ++i) {
    const std::string& key = meta_.model_keys[static_cast<std::size_t>(i)];
    if (!key.empty()) column_.emplace(key, i);
  }
}

int VerdictStore::column_of(const std::string& model_key) const {
  if (model_key.empty()) return -1;
  auto it = column_.find(model_key);
  return it == column_.end() ? -1 : it->second;
}

std::size_t VerdictStore::locate(util::Key128 test) const {
  const std::size_t mask = slots_.size() - 1;
  const std::uint32_t tag = tag_of(test);
  // The load bound leaves a free slot, so the walk ends.
  for (std::size_t i = static_cast<std::size_t>(test.hi) & mask;;
       i = (i + 1) & mask) {
    const IndexSlot& slot = slots_[i];
    if (slot.row == kNoRow || (slot.tag == tag && keys_[slot.row] == test)) {
      return i;
    }
  }
}

std::uint32_t VerdictStore::find(util::Key128 test) const {
  return slots_[locate(test)].row;
}

void VerdictStore::reserve_index(std::size_t rows) {
  std::size_t size = slots_.size();
  while (rows * 10 >= size * 7) size *= 2;
  if (size == slots_.size()) return;
  slots_.assign(size, IndexSlot{});
  for (std::size_t row = 0; row < keys_.size(); ++row) {
    slots_[locate(keys_[row])] = {static_cast<std::uint32_t>(row),
                                  tag_of(keys_[row])};
  }
}

std::uint32_t VerdictStore::row_of(util::Key128 test) {
  const std::size_t at = locate(test);
  if (slots_[at].row != kNoRow) return slots_[at].row;
  MCMC_CHECK_MSG(keys_.size() < kNoRow, "verdict store row count overflow");
  const auto row = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back(test);
  valid_.resize(valid_.size() + words_, 0);
  bits_.resize(bits_.size() + words_, 0);
  row_dirty_.push_back(0);
  slots_[at] = {row, tag_of(test)};
  reserve_index(keys_.size());
  return row;
}

void VerdictStore::mark_dirty(std::uint32_t row) {
  rows_since_base_ = true;
  if (row_dirty_[row] != 0) return;
  row_dirty_[row] = 1;
  dirty_.push_back(row);
}

std::optional<bool> VerdictStore::probe_bit_locked(util::Key128 test,
                                                   int col) const {
  MCMC_CHECK_MSG(col >= 0 && col < num_models(), "store column out of range");
  const std::uint32_t row = find(test);
  if (row != kNoRow) {
    const std::size_t base = static_cast<std::size_t>(row) * words_;
    const std::size_t word = static_cast<std::size_t>(col) / 64;
    const std::uint64_t mask = 1ULL << (static_cast<std::size_t>(col) % 64);
    if ((valid_[base + word] & mask) != 0) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return (bits_[base + word] & mask) != 0;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

bool VerdictStore::probe_row_locked(util::Key128 test,
                                    const std::vector<int>& cols,
                                    std::vector<std::uint64_t>& out) const {
  out.assign((cols.size() + 63) / 64, 0);
  const std::uint32_t row = find(test);
  if (row != kNoRow) {
    const std::size_t base = static_cast<std::size_t>(row) * words_;
    bool all = true;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const int col = cols[i];
      MCMC_CHECK_MSG(col >= 0 && col < num_models(),
                     "store column out of range");
      const std::size_t word = static_cast<std::size_t>(col) / 64;
      const std::uint64_t mask = 1ULL << (static_cast<std::size_t>(col) % 64);
      if ((valid_[base + word] & mask) == 0) {
        all = false;
        break;
      }
      if ((bits_[base + word] & mask) != 0) out[i / 64] |= 1ULL << (i % 64);
    }
    if (all) {
      hits_.fetch_add(cols.size(), std::memory_order_relaxed);
      return true;
    }
  }
  misses_.fetch_add(cols.size(), std::memory_order_relaxed);
  return false;
}

void VerdictStore::probe_words_locked(util::Key128 test,
                                      const std::uint64_t* want,
                                      std::uint64_t* valid,
                                      std::uint64_t* bits) const {
  const std::uint32_t row = find(test);
  const bool found = row != kNoRow;
  const std::size_t base = found ? static_cast<std::size_t>(row) * words_ : 0;
  int hit = 0;
  int miss = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    valid[w] = found ? valid_[base + w] : 0;
    bits[w] = found ? bits_[base + w] : 0;
    hit += __builtin_popcountll(want[w] & valid[w]);
    miss += __builtin_popcountll(want[w] & ~valid[w]);
  }
  if (hit != 0) hits_.fetch_add(hit, std::memory_order_relaxed);
  if (miss != 0) misses_.fetch_add(miss, std::memory_order_relaxed);
}

void VerdictStore::write_row_locked(util::Key128 test,
                                    const std::uint64_t* mask,
                                    const std::uint64_t* bits) {
  bool any = false;
  for (std::size_t w = 0; w < words_; ++w) any = any || mask[w] != 0;
  if (!any) return;
  const std::uint32_t row = row_of(test);
  const std::size_t base = static_cast<std::size_t>(row) * words_;
  bool changed = false;
  for (std::size_t w = 0; w < words_; ++w) {
    const std::uint64_t valid = valid_[base + w] | mask[w];
    const std::uint64_t value =
        (bits_[base + w] & ~mask[w]) | (bits[w] & mask[w]);
    if (valid != valid_[base + w] || value != bits_[base + w]) {
      valid_[base + w] = valid;
      bits_[base + w] = value;
      changed = true;
    }
  }
  if (changed) mark_dirty(row);
}

void VerdictStore::set_bit_locked(util::Key128 test, int col, bool verdict) {
  MCMC_CHECK_MSG(col >= 0 && col < num_models(), "store column out of range");
  const std::uint32_t row = row_of(test);
  const std::size_t word = static_cast<std::size_t>(col) / 64;
  const std::size_t at = static_cast<std::size_t>(row) * words_ + word;
  const std::uint64_t mask = 1ULL << (static_cast<std::size_t>(col) % 64);
  const std::uint64_t value = verdict ? bits_[at] | mask : bits_[at] & ~mask;
  if ((valid_[at] & mask) != 0 && value == bits_[at]) return;  // no change
  valid_[at] |= mask;
  bits_[at] = value;
  mark_dirty(row);
}

void VerdictStore::set_checkpoint(StreamCheckpoint ck) {
  util::ExclusiveLock lock(mu_);
  checkpoint_ = std::move(ck);
  committed_keys_ = 0;
  checkpoint_dirty_ = true;
}

void VerdictStore::extend_checkpoint(StreamCheckpoint next) {
  util::ExclusiveLock lock(mu_);
  if (!checkpoint_) {
    checkpoint_.emplace();
    committed_keys_ = 0;
  }
  StreamCheckpoint& ck = *checkpoint_;
  ck.seen_keys.insert(ck.seen_keys.end(), next.seen_keys.begin(),
                      next.seen_keys.end());
  ck.chunks = next.chunks;
  ck.tests_streamed = next.tests_streamed;
  ck.novel_tests = next.novel_tests;
  ck.duplicate_tests = next.duplicate_tests;
  ck.source_cursor = std::move(next.source_cursor);
  ck.sink_state = std::move(next.sink_state);
  checkpoint_dirty_ = true;
}

void VerdictStore::clear_checkpoint() {
  util::ExclusiveLock lock(mu_);
  if (!checkpoint_) return;
  checkpoint_.reset();
  committed_keys_ = 0;
  checkpoint_dirty_ = true;
}

std::string VerdictStore::capture_base(std::uint64_t generation) {
  const StreamCheckpoint* ck = checkpoint_ ? &*checkpoint_ : nullptr;
  std::string out;
  out.reserve(kHeaderSize + 8 + rows_size(keys_.size(), words_) +
              checkpoint_size(ck) + kTrailerSize);
  append_header(out, kBaseMagic, meta_, 0);
  util::append_u64(out, generation);
  util::append_u64(out, keys_.size());
  util::append_u32(out, static_cast<std::uint32_t>(words_));
  util::append_u32(out, 0);
  // Rows in row order, so equal stores serialize identically (the
  // recovery tests compare files bit for bit).
  for (std::size_t row = 0; row < keys_.size(); ++row) {
    append_row(out, keys_[row], &valid_[row * words_], &bits_[row * words_],
               words_);
  }
  append_checkpoint(out, ck, 0);

  for (const std::uint32_t row : dirty_) row_dirty_[row] = 0;
  dirty_.clear();
  rows_since_base_ = false;
  checkpoint_dirty_ = false;
  committed_keys_ = ck != nullptr ? ck->seen_keys.size() : 0;
  return out;
}

std::string VerdictStore::capture_segment() {
  std::string out;
  append_header(out, kSegmentMagic, meta_, chain_.segments + 1);
  util::append_key128(out, chain_.head_sum);
  util::append_u64(out, dirty_.size());
  util::append_u32(out, static_cast<std::uint32_t>(words_));
  util::append_u32(out, 0);
  for (const std::uint32_t row : dirty_) {
    const std::size_t base = static_cast<std::size_t>(row) * words_;
    append_row(out, keys_[row], &valid_[base], &bits_[base], words_);
    row_dirty_[row] = 0;
  }
  dirty_.clear();
  if (checkpoint_dirty_) {
    const StreamCheckpoint* ck = checkpoint_ ? &*checkpoint_ : nullptr;
    append_checkpoint(out, ck, committed_keys_);
    committed_keys_ = ck != nullptr ? ck->seen_keys.size() : 0;
    checkpoint_dirty_ = false;
  } else {
    util::append_u32(out, kCheckpointKeep);
    util::append_u32(out, 0);
  }
  return out;
}

void VerdictStore::forget_chain() {
  util::ExclusiveLock lock(mu_);
  chain_.path.clear();
}

bool VerdictStore::save(const std::string& path, Fs* fs, std::string* error) {
  return commit_impl(path, fs, CommitMode::kBase, error);
}

bool VerdictStore::commit(const std::string& path, Fs* fs, bool fold,
                          std::string* error) {
  const CommitMode mode = fold ? CommitMode::kFold : CommitMode::kDelta;
  return commit_impl(path, fs, mode, error);
}

bool VerdictStore::commit_impl(const std::string& path, Fs* fs,
                               CommitMode mode, std::string* error) {
  util::MutexLock commit_lock(commit_mu_);
  Fs& f = resolve(fs);

  // ---- Capture under one exclusive hold: decide what to write,
  // serialize it, and clear the change tracking it covers.  Appends
  // after this point land in the next commit. ----
  enum class Kind { kNothing, kRetire, kBase, kSegment };
  Kind kind = Kind::kNothing;
  std::string bytes;
  Chain next;
  {
    util::ExclusiveLock lock(mu_);
    next = chain_;
    const bool chained = chain_.path == path;
    const bool changed = !dirty_.empty() || checkpoint_dirty_;
    if (mode == CommitMode::kBase || !chained) {
      kind = Kind::kBase;
    } else if (mode == CommitMode::kFold) {
      if (!rows_since_base_ && !checkpoint_ && !chain_.base_checkpoint) {
        // The base already holds exactly this state.
        kind = Kind::kRetire;
        checkpoint_dirty_ = false;
        committed_keys_ = 0;
      } else if (changed || chain_.segments > 0) {
        kind = Kind::kBase;
      }
    } else if (changed) {
      kind = Kind::kSegment;
      bytes = capture_segment();
      // Fold instead once the segments would outgrow the base (the
      // base carries everything the segment did).
      if (chain_.segment_bytes + bytes.size() + kTrailerSize >
          chain_.base_bytes) {
        kind = Kind::kBase;
      }
    }
    if (kind == Kind::kBase) {
      next.generation = chain_.generation + 1;
      next.base_checkpoint = checkpoint_.has_value();
      bytes = capture_base(next.generation);
    }
  }

  // ---- Write outside the hold. ----
  if (kind == Kind::kNothing) return true;
  if (kind == Kind::kRetire) {
    if (!retire_segments(f, path, 1)) {
      if (error != nullptr) *error = "store commit: cannot retire " + path;
      forget_chain();
      return false;
    }
    util::ExclusiveLock lock(mu_);
    chain_.segments = 0;
    chain_.head_sum = chain_.base_sum;
    chain_.segment_bytes = 0;
    return true;
  }

  util::Key128 sum = append_trailer(bytes);
  if (kind == Kind::kBase) {
    // A segment left beside `path` by a crash or a deleted base must
    // never extend the new base: if one claims to, move to the next
    // generation (the bytes, and so the checksum, change).
    const std::string first = segment_path(path, 1);
    std::string stale;
    while (f.exists(first) && f.read_file(first, stale) &&
           extends(stale, sum)) {
      std::string word;
      util::append_u64(word, ++next.generation);
      bytes.replace(kHeaderSize, 8, word);
      bytes.resize(bytes.size() - kTrailerSize);
      sum = append_trailer(bytes);
    }
    if (!write_atomically(f, path, bytes, error)) {
      forget_chain();
      return false;
    }
    // The new base no longer matches what any older segment extends;
    // removing them is hygiene, not correctness.
    (void)retire_segments(f, path, 1);
    next.path = path;
    next.base_sum = sum;
    next.head_sum = sum;
    next.segments = 0;
    next.base_bytes = bytes.size();
    next.segment_bytes = 0;
  } else {
    const std::uint32_t index = next.segments + 1;
    // Nothing may already sit at the next index: a stale segment there
    // could claim to extend this one.
    if (f.exists(segment_path(path, index + 1)) &&
        !retire_segments(f, path, index + 1)) {
      if (error != nullptr) *error = "store commit: cannot retire " + path;
      forget_chain();
      return false;
    }
    if (!write_atomically(f, segment_path(path, index), bytes, error)) {
      forget_chain();
      return false;
    }
    next.head_sum = sum;
    next.segments = index;
    next.segment_bytes += bytes.size();
  }
  bytes_committed_.fetch_add(bytes.size(), std::memory_order_relaxed);
  util::ExclusiveLock lock(mu_);
  chain_ = std::move(next);
  return true;
}

OpenResult VerdictStore::open(const std::string& path, StoreMeta meta,
                              Fs* fs) {
  Fs& f = resolve(fs);
  OpenResult result;
  result.store = std::make_unique<VerdictStore>(std::move(meta));
  VerdictStore& store = *result.store;

  if (!f.exists(path)) {
    result.outcome = OpenOutcome::Fresh;
    result.detail = "no store file";
    return result;
  }
  std::string bytes;
  if (!f.read_file(path, bytes)) {
    result.outcome = OpenOutcome::Fresh;
    result.detail = "store file unreadable";
    return result;
  }

  // Every reject below that indicates damage (rather than a legitimate
  // other-version or other-zoo file) quarantines the file so the next
  // save starts from a clean slate and the evidence survives for
  // inspection.
  auto corrupt = [&](const std::string& why) {
    result.outcome = OpenOutcome::Corrupt;
    result.detail = why;
    if (!f.rename(path, path + ".corrupt")) (void)f.remove(path);
    return std::move(result);
  };

  util::ByteReader r(bytes);
  const char* magic = r.read_bytes(sizeof kBaseMagic);
  if (magic == nullptr ||
      std::memcmp(magic, kBaseMagic, sizeof kBaseMagic) != 0) {
    return corrupt("bad magic");
  }
  const std::uint32_t version = r.read_u32();
  const std::uint32_t num_models = r.read_u32();
  const util::Key128 zoo = r.read_key128();
  (void)r.read_u32();  // sequence: 0 for a base
  const std::uint32_t schema = r.read_u32();
  const util::Key128 header_sum = r.read_key128();
  if (!r.ok()) return corrupt("truncated header");
  if (header_sum != util::hash128(bytes.data(), kHeaderBytes)) {
    return corrupt("header checksum mismatch");
  }
  if (version != kStoreFormatVersion) {
    result.outcome = OpenOutcome::VersionMismatch;
    result.detail = "store format version " + std::to_string(version);
    return result;
  }
  if (schema != store.meta_.schema) {
    // The entries were keyed by an older generator/canonicalization
    // (pre-schema files wrote 0 here): every fingerprint and cursor in
    // them may mean something else now, so none of it is adopted.
    result.outcome = OpenOutcome::SchemaMismatch;
    result.detail = "generator schema " + std::to_string(schema) + " (want " +
                    std::to_string(store.meta_.schema) + ")";
    return result;
  }
  if (num_models != static_cast<std::uint32_t>(store.num_models()) ||
      zoo != store.meta_.zoo_fingerprint()) {
    result.outcome = OpenOutcome::ZooMismatch;
    result.detail = "model zoo fingerprint differs";
    return result;
  }
  util::Key128 base_sum;
  if (!verify_trailer(bytes, base_sum)) {
    return corrupt("file checksum mismatch");
  }

  // Population touches the guarded maps/slabs; this store is freshly
  // constructed and unshared, but the annotations don't know that, so
  // hold the writer lock (uncontended) while loading.
  std::string note;
  std::uint32_t segments = 0;
  {
    util::ExclusiveLock lock(store.mu_);
    util::ByteReader p(bytes.data() + kHeaderSize,
                       bytes.size() - kHeaderSize - kTrailerSize);
    const std::uint64_t generation = p.read_u64();
    const std::uint64_t entry_count = p.read_u64();
    const std::uint32_t words = p.read_u32();
    (void)p.read_u32();  // reserved
    const std::size_t W = store.words_;
    if (!p.ok() || words != W || entry_count > p.remaining() / (16 + 16 * W)) {
      return corrupt("verdict rows geometry");
    }
    const auto n = static_cast<std::size_t>(entry_count);
    store.keys_.reserve(n);
    store.reserve_index(n);
    store.valid_.reserve(n * W);
    store.bits_.reserve(n * W);
    store.row_dirty_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const util::Key128 key = p.read_key128();
      const std::size_t base = static_cast<std::size_t>(store.row_of(key)) * W;
      for (std::size_t w = 0; w < W; ++w) store.valid_[base + w] = p.read_u64();
      for (std::size_t w = 0; w < W; ++w) store.bits_[base + w] = p.read_u64();
    }
    if (store.keys_.size() != n) p.fail();  // duplicate keys
    CheckpointRecord rec;
    read_checkpoint(p, rec);
    if (!p.ok() || p.remaining() != 0 || rec.op == kCheckpointKeep ||
        rec.kept != 0 || !apply_checkpoint(std::move(rec), store.checkpoint_)) {
      store.keys_.clear();
      store.slots_.assign(kMinIndexSlots, IndexSlot{});
      store.valid_.clear();
      store.bits_.clear();
      store.row_dirty_.clear();
      store.checkpoint_.reset();
      return corrupt("malformed base payload");
    }
    Chain& chain = store.chain_;
    chain.path = path;
    chain.base_sum = base_sum;
    chain.head_sum = base_sum;
    chain.base_bytes = bytes.size();
    chain.generation = generation;
    chain.base_checkpoint = store.checkpoint_.has_value();

    // ---- Replay the longest chain of segments that each extend their
    // predecessor exactly.  A segment is staged whole and applied only
    // once it has verified, so the state is always the base plus a
    // prefix of the chain, never a mix. ----
    for (std::uint32_t index = 1;; ++index) {
      const std::string seg_path = segment_path(path, index);
      std::string seg;
      if (!f.exists(seg_path) || !f.read_file(seg_path, seg)) break;
      const auto quarantine = [&](const char* why) {
        note = "; segment " + std::to_string(index) + " " + why +
               ", quarantined";
        if (!f.rename(seg_path, seg_path + ".corrupt")) {
          (void)f.remove(seg_path);
        }
      };
      util::ByteReader s(seg);
      const char* seg_magic = s.read_bytes(sizeof kSegmentMagic);
      if (seg_magic == nullptr ||
          std::memcmp(seg_magic, kSegmentMagic, sizeof kSegmentMagic) != 0) {
        quarantine("has a bad magic");
        break;
      }
      const std::uint32_t seg_version = s.read_u32();
      const std::uint32_t seg_models = s.read_u32();
      const util::Key128 seg_zoo = s.read_key128();
      const std::uint32_t sequence = s.read_u32();
      const std::uint32_t seg_schema = s.read_u32();
      const util::Key128 seg_header_sum = s.read_key128();
      util::Key128 seg_sum;
      if (!s.ok() ||
          seg_header_sum != util::hash128(seg.data(), kHeaderBytes) ||
          !verify_trailer(seg, seg_sum)) {
        quarantine("fails its checksum");
        break;
      }
      const util::Key128 prev = s.read_key128();
      if (seg_version != kStoreFormatVersion ||
          seg_models != static_cast<std::uint32_t>(store.num_models()) ||
          seg_zoo != store.meta_.zoo_fingerprint() ||
          seg_schema != store.meta_.schema || sequence != index ||
          prev != chain.head_sum) {
        // Healthy but not ours: it extends some other file (a replaced
        // or deleted base, or a compaction cut short before cleanup).
        note = "; stale segment " + std::to_string(index) + " ignored";
        break;
      }
      util::ByteReader q(seg.data() + kHeaderSize + 16,
                         seg.size() - kHeaderSize - 16 - kTrailerSize);
      const std::uint64_t rows = q.read_u64();
      const std::uint32_t seg_words = q.read_u32();
      (void)q.read_u32();  // reserved
      if (!q.ok() || seg_words != W || rows > q.remaining() / (16 + 16 * W)) {
        quarantine("is malformed");
        break;
      }
      std::vector<util::Key128> keys(static_cast<std::size_t>(rows));
      std::vector<std::uint64_t> row_words(keys.size() * 2 * W);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        keys[i] = q.read_key128();
        for (std::size_t w = 0; w < 2 * W; ++w) {
          row_words[i * 2 * W + w] = q.read_u64();
        }
      }
      CheckpointRecord seg_rec;
      read_checkpoint(q, seg_rec);
      const std::size_t have =
          store.checkpoint_ ? store.checkpoint_->seen_keys.size() : 0;
      if (!q.ok() || q.remaining() != 0 ||
          (seg_rec.op == kCheckpointSet && seg_rec.kept > have)) {
        quarantine("is malformed");
        break;
      }
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::size_t base =
            static_cast<std::size_t>(store.row_of(keys[i])) * W;
        for (std::size_t w = 0; w < W; ++w) {
          store.valid_[base + w] = row_words[i * 2 * W + w];
          store.bits_[base + w] = row_words[i * 2 * W + W + w];
        }
      }
      store.rows_since_base_ = store.rows_since_base_ || !keys.empty();
      (void)apply_checkpoint(std::move(seg_rec), store.checkpoint_);
      chain.head_sum = seg_sum;
      chain.segments = index;
      chain.segment_bytes += seg.size();
    }
    store.committed_keys_ =
        store.checkpoint_ ? store.checkpoint_->seen_keys.size() : 0;
    segments = chain.segments;
  }

  result.outcome = OpenOutcome::Loaded;
  result.detail = std::to_string(store.size()) + " entries";
  if (segments > 0) {
    result.detail += " (" + std::to_string(segments) + " segments)";
  }
  result.detail += note;
  return result;
}

}  // namespace mcmc::store
