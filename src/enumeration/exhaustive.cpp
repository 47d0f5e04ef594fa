#include "enumeration/exhaustive.h"

#include <algorithm>
#include <charconv>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/bytes.h"
#include "util/check.h"
#include "util/hash128.h"

namespace mcmc::enumeration {

namespace {

/// Digest of everything the cursor's meaning depends on: the space
/// bounds (dep dimension included), the program filter, and the shape
/// table size they produce.  Embedded in every snapshot so a cursor
/// from a differently-bounded stream — whose indices may all happen to
/// be in range here — is rejected instead of silently restoring into
/// the wrong position of this space.
std::uint64_t options_digest(const ExhaustiveOptions& o,
                             std::size_t num_shapes) {
  std::string bytes;
  util::append_u64(
      bytes, static_cast<std::uint64_t>(o.bounds.max_accesses_per_thread));
  util::append_u64(bytes, static_cast<std::uint64_t>(o.bounds.num_locations));
  util::append_u64(bytes, (o.bounds.fences ? 1ULL : 0ULL) |
                              (o.bounds.deps ? 2ULL : 0ULL) |
                              (o.communicating_only ? 4ULL : 0ULL));
  util::append_u64(bytes, num_shapes);
  return util::hash128(bytes).lo;
}

/// "x<program>.<outcome>", formatted in place: the name fits the
/// string's inline buffer, so it allocates nothing.
std::string test_name(long long program, long long outcome) {
  // A long long takes at most 20 characters, so both conversions fit.
  char buf[48] = {'x'};
  char* const dot = std::to_chars(buf + 1, buf + 24, program).ptr;
  *dot = '.';
  return std::string(buf,
                     std::to_chars(dot + 1, buf + sizeof buf, outcome).ptr);
}

/// images[s * P + p]: the index of shape s with its locations renamed
/// by the p-th of the P location permutations.  The shape table is
/// closed under renaming, so every image is in it.
std::vector<std::uint32_t> location_images(
    const std::vector<shapes::ThreadShape>& all,
    const std::vector<std::vector<int>>& perms) {
  std::unordered_map<std::string, std::uint32_t> index;
  for (std::size_t s = 0; s < all.size(); ++s) {
    index.emplace(shapes::encode(all[s], perms.front()),
                  static_cast<std::uint32_t>(s));
  }
  std::vector<std::uint32_t> images;
  images.reserve(all.size() * perms.size());
  for (const auto& shape : all) {
    for (const auto& perm : perms) {
      const auto image = index.find(shapes::encode(shape, perm));
      MCMC_CHECK_MSG(image != index.end(),
                     "shape table is not closed under location renaming");
      images.push_back(image->second);
    }
  }
  return images;
}

/// Calls fn(a, b) for the shape pair of every program the stream
/// emits, in the order start_next_program visits them.
template <typename Fn>
void for_each_shape_pair(const ExhaustiveOptions& options, Fn&& fn) {
  const auto shapes = shapes::all_thread_shapes(options.bounds);
  for (const auto& a : shapes) {
    for (const auto& b : shapes) {
      if (options.communicating_only && !shapes::communicates(a, b)) continue;
      fn(a, b);
    }
  }
}

}  // namespace

ExhaustiveStream::ExhaustiveStream(ExhaustiveOptions options)
    : options_(options), shapes_(shapes::all_thread_shapes(options.bounds)) {
  MCMC_REQUIRE(options_.chunk_size > 0);
  cursor_digest_ = options_digest(options_, shapes_.size());
  const auto perms =
      shapes::location_permutations(options_.bounds.num_locations);
  num_perms_ = perms.size();
  location_images_ = location_images(shapes_, perms);
  // Every read is one of the two threads' accesses: sized up front, the
  // per-program buffers never grow while the stream runs, and neither
  // do the write counts.
  const auto max_reads =
      static_cast<std::size_t>(2 * options_.bounds.max_accesses_per_thread);
  read_regs_.reserve(max_reads);
  read_domain_.reserve(max_reads);
  odometer_.reserve(max_reads);
  writes_.reserve(static_cast<std::size_t>(options_.bounds.num_locations));
}

bool ExhaustiveStream::start_next_program() {
  const std::size_t n = shapes_.size();
  while (i_ < n) {
    const std::size_t a = i_;
    const std::size_t b = j_;
    // Advance the pair cursor before filtering so a rejected pair is
    // never revisited.
    if (++j_ == n) {
      j_ = 0;
      ++i_;
    }
    if (options_.communicating_only &&
        !shapes::communicates(shapes_[a], shapes_[b])) {
      continue;
    }
    ++program_index_;
    ++emitted_.programs;

    cur_a_ = a;
    cur_b_ = b;
    if (!elide_if_repeat()) {
      build_program();
      odometer_.assign(read_regs_.size(), 0);
    }
    outcome_index_ = 0;
    odometer_live_ = true;
    return true;
  }
  return false;
}

bool ExhaustiveStream::elide_if_repeat() {
  repeat_ = elide_ &&
            least_image(cur_a_, cur_b_) < cur_a_ * shapes_.size() + cur_b_;
  if (repeat_) {
    outcomes_ =
        shapes::outcome_count(shapes_[cur_a_], shapes_[cur_b_], writes_);
  }
  return repeat_;
}

bool ExhaustiveStream::elide_repeats() {
  elide_ = true;
  // A cursor restored before the opt-in may lie inside a repeat.
  if (odometer_live_ && !repeat_) (void)elide_if_repeat();
  return true;
}

std::size_t ExhaustiveStream::least_image(std::size_t a, std::size_t b) const {
  // An image of (a, b) is (a', b') or, with the threads exchanged,
  // (b', a'), for a' and b' the shapes under one location renaming;
  // the stream visits pair (i, j) at position i * n + j.
  const std::size_t n = shapes_.size();
  const std::uint32_t* as = &location_images_[a * num_perms_];
  const std::uint32_t* bs = &location_images_[b * num_perms_];
  std::size_t least = a * n + b;
  for (std::size_t p = 0; p < num_perms_; ++p) {
    least = std::min({least, as[p] * n + bs[p], bs[p] * n + as[p]});
  }
  return least;
}

void ExhaustiveStream::build_program() {
  // ---- Materialize the (cur_a_, cur_b_) program and its read
  // odometer domains.  Deterministic in the pair alone, so a restored
  // cursor re-derives the identical program.  The LitmusTest
  // constructor validates it — the only validation its tests get. ----
  program_.emplace("",
                   shapes::materialize_pair(shapes_[cur_a_], shapes_[cur_b_],
                                            writes_),
                   core::Outcome{});

  read_regs_.clear();
  read_domain_.clear();
  // Reads resolve through for_each_read: a dep-addressed read's domain
  // comes from its DepConst-resolved target location, not from the
  // instruction's (kNoLoc) direct-address field.
  for (const auto& thread : program_->program().threads()) {
    shapes::for_each_read(thread, [&](core::Reg dst, int loc) {
      read_regs_.push_back(dst);
      read_domain_.push_back(1 + shapes::writes_to(writes_, loc));
    });
  }
}

namespace {
// Version 2 added the options digest word (the dep-extended space made
// in-range-but-wrong stale cursors a real hazard); version 3 dropped
// the program-class set from the payload (making every snapshot O(1)
// words — serializing the growing set per chunk dominated the with-dep
// stream's producer thread); version 4 dropped the odometer's digits,
// which are the outcome index in mixed radix.  Older cursors are
// rejected, which degrades a resume to a from-scratch run.
constexpr std::uint64_t kCursorVersion = 4;
constexpr std::size_t kCursorWords = 11;
}  // namespace

bool ExhaustiveStream::snapshot_cursor(std::vector<std::uint64_t>& out) const {
  out.clear();
  out.push_back(kCursorVersion);
  out.push_back(cursor_digest_);
  out.push_back((exhausted_ ? 1ULL : 0ULL) | (odometer_live_ ? 2ULL : 0ULL));
  out.push_back(i_);
  out.push_back(j_);
  out.push_back(cur_a_);
  out.push_back(cur_b_);
  out.push_back(static_cast<std::uint64_t>(program_index_));
  out.push_back(static_cast<std::uint64_t>(outcome_index_));
  out.push_back(static_cast<std::uint64_t>(emitted_.programs));
  out.push_back(static_cast<std::uint64_t>(emitted_.tests));
  return true;
}

bool ExhaustiveStream::restore_cursor(
    const std::vector<std::uint64_t>& cursor) {
  const std::size_t n = shapes_.size();
  // Validate the fixed-width words before touching any state.  The
  // digest word pins the cursor to this stream's exact space (bounds,
  // dep dimension, filter, shape-table size).
  if (cursor.size() != kCursorWords || cursor[0] != kCursorVersion ||
      cursor[1] != cursor_digest_) {
    return false;
  }
  const bool exhausted = (cursor[2] & 1ULL) != 0;
  const bool live = (cursor[2] & 2ULL) != 0;
  if (cursor[3] > n || cursor[4] >= (n == 0 ? 1 : n)) return false;
  if (live && (cursor[5] >= n || cursor[6] >= n)) return false;

  i_ = static_cast<std::size_t>(cursor[3]);
  j_ = static_cast<std::size_t>(cursor[4]);
  cur_a_ = static_cast<std::size_t>(cursor[5]);
  cur_b_ = static_cast<std::size_t>(cursor[6]);
  exhausted_ = exhausted;
  program_index_ = static_cast<long long>(cursor[7]);
  outcome_index_ = static_cast<long long>(cursor[8]);
  emitted_.programs = static_cast<long long>(cursor[9]);
  emitted_.tests = static_cast<long long>(cursor[10]);
  odometer_live_ = live;
  repeat_ = false;

  const auto reject = [this] {
    // A cursor inconsistent with this stream's shapes: reset to a fresh
    // stream so the caller's from-scratch fallback is sound.
    i_ = j_ = cur_a_ = cur_b_ = 0;
    exhausted_ = false;
    program_index_ = -1;
    outcome_index_ = 0;
    emitted_ = ExhaustiveCounts{};
    odometer_live_ = false;
    odometer_.clear();
    return false;
  };

  if (live) {
    // The odometer is the outcome index in mixed radix, digit 0 the
    // fastest; a remainder past the last digit means the index is at or
    // past the program's outcome count.  The programs before the cursor
    // count as streamed, so an opted-in stream goes on eliding a live
    // repeat.
    build_program();
    std::uint64_t rest = cursor[8];
    odometer_.resize(read_domain_.size());
    for (std::size_t k = 0; k < odometer_.size(); ++k) {
      const auto domain = static_cast<std::uint64_t>(read_domain_[k]);
      odometer_[k] = static_cast<int>(rest % domain);
      rest /= domain;
    }
    if (rest != 0) return reject();
    (void)elide_if_repeat();
  } else {
    odometer_.clear();
  }
  return true;
}

void ExhaustiveStream::restored_run_head(
    std::vector<litmus::LitmusTest>& out) const {
  if (!odometer_live_ || repeat_) return;
  std::vector<int> digits(read_regs_.size(), 0);
  for (long long outcome = 0; outcome < outcome_index_; ++outcome) {
    out.push_back(outcome_test(digits, outcome));
    (void)advance(digits);
  }
}

litmus::LitmusTest ExhaustiveStream::outcome_test(
    const std::vector<int>& digits, long long outcome) const {
  // The outcome's constraints live inline, the name fits the string's
  // inline buffer and the program is shared, so a test allocates
  // nothing.
  core::Outcome constraints;
  for (std::size_t k = 0; k < read_regs_.size(); ++k) {
    constraints.require(read_regs_[k], digits[k]);
  }
  return program_->with_outcome(test_name(program_index_, outcome),
                                std::move(constraints));
}

bool ExhaustiveStream::advance(std::vector<int>& digits) const {
  for (std::size_t k = 0; k < digits.size(); ++k) {
    if (++digits[k] < read_domain_[k]) return true;
    digits[k] = 0;
  }
  return false;
}

bool ExhaustiveStream::next_chunk(std::vector<litmus::LitmusTest>& out) {
  elided_ = 0;
  if (exhausted_) return false;
  const auto chunk = static_cast<long long>(options_.chunk_size);
  out.reserve(out.size() + static_cast<std::size_t>(chunk));
  for (long long filled = 0; filled < chunk;) {
    if (!odometer_live_ && !start_next_program()) {
      exhausted_ = true;
      return false;
    }
    if (repeat_) {
      // An elided program's positions are counted, up to the chunk's
      // end, as building its tests would count them.
      const long long left = outcomes_ - outcome_index_;
      const long long skip = std::min(chunk - filled, left);
      outcome_index_ += skip;
      emitted_.tests += skip;
      elided_ += static_cast<std::size_t>(skip);
      filled += skip;
      odometer_live_ = outcome_index_ < outcomes_;
      continue;
    }

    out.push_back(outcome_test(odometer_, outcome_index_));
    ++filled;
    ++emitted_.tests;
    ++outcome_index_;
    // Carrying past the last read ends the program (a read-free program
    // emits exactly its one empty-outcome test).
    odometer_live_ = advance(odometer_);
  }
  return true;
}

ExhaustiveCounts ExhaustiveStream::count(const ExhaustiveOptions& options) {
  ExhaustiveCounts counts;
  shapes::WriteCounts writes;
  for_each_shape_pair(options, [&](const shapes::ThreadShape& a,
                                   const shapes::ThreadShape& b) {
    ++counts.programs;
    counts.tests =
        shapes::checked_add(counts.tests, shapes::outcome_count(a, b, writes));
  });
  return counts;
}

ExhaustiveCounts ExhaustiveStream::count_orbits(
    const ExhaustiveOptions& options) {
  // The filter keeps whole orbits (renaming locations or exchanging the
  // threads keeps two threads communicating), so a kept pair is least
  // among the kept pairs of its orbit iff it is least in it.
  const ExhaustiveStream stream(options);
  const auto& all = stream.shapes_;
  const std::size_t n = all.size();
  ExhaustiveCounts counts;
  shapes::WriteCounts writes;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (options.communicating_only && !shapes::communicates(all[a], all[b])) {
        continue;
      }
      if (stream.least_image(a, b) != a * n + b) continue;
      ++counts.programs;
      counts.tests = shapes::checked_add(
          counts.tests, shapes::outcome_count(all[a], all[b], writes));
    }
  }
  return counts;
}

}  // namespace mcmc::enumeration
