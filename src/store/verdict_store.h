// Crash-safe persistent verdict store.
//
// The engine keeps no verdict beyond the call that decided it, so
// without a store every run re-derives all ~445k canonical-class
// verdicts and an interrupted full-space stream restarts from zero.
// This subsystem keeps them across calls and processes: a versioned,
// checksummed file mapping 128-bit canonical test fingerprints
// (util::Key128) to packed per-model verdict words, plus an optional
// stream checkpoint so an exhaustive run can resume from its last
// sealed chunk.
//
// On disk a store is a *base* snapshot at `path` plus a chain of
// *delta segments* beside it (`path.1`, `path.2`, ...).  save() writes
// a base; commit() writes one segment holding only what changed since
// this object's last open, save or commit at `path` (the dirty rows,
// the checkpoint's newly claimed dedup keys, and its O(1) words), so a
// seal costs O(delta), not O(store).  Durability model (see README
// "Persistence guarantees"):
//
//   * Atomic commit: every file (base or segment) is written to
//     `name + ".tmp"`, fsynced, closed, and renamed over `name`.  A
//     crash at ANY point leaves only complete files under final names
//     (a leftover .tmp is inert and overwritten next commit).
//   * Checksum chaining: every file ends with a 128-bit checksum of all
//     its bytes, and every segment records the checksum of the file it
//     extends.  open() replays the base plus the longest chain of
//     segments that each extend their predecessor exactly, so it
//     returns a state some commit produced — the base plus a prefix of
//     the chain, never a mix — and never adopts an orphaned or stale
//     segment (base deleted or replaced, compaction cut short).
//   * Bounded writes: when the segments would outgrow the base, commit()
//     folds everything into a new base (and retires the segments), so
//     the bytes written stay O(final store).  A base carries a
//     generation number, advanced past any leftover first segment that
//     claims to extend it, so stale segments never attach to a new
//     base even when a crash cut their cleanup short.
//   * Invalidation: the header carries a fingerprint of the model zoo
//     the verdict columns were computed against AND the
//     generator/canonicalization schema version they were keyed under
//     (kSpaceSchemaVersion).  Open with a different zoo or schema and
//     the file self-invalidates (ignored, rebuilt on next save) — a
//     stale store can never serve a verdict for the wrong model, and a
//     store written under an older fingerprint/space schema can never
//     mix its rows into a newer run.
//   * Graceful degradation: a corrupt base is quarantined (renamed to
//     `path + ".corrupt"`) and open() returns an empty store; a corrupt
//     segment is quarantined the same way and the chain ends before it.
//     Callers recompute and repopulate.  Recovery never throws, never
//     crashes, and never yields a wrong verdict — the worst case is
//     doing the work the store would have saved.
//
// All filesystem access goes through store::Fs, so every recovery path
// above is exercised by fault injection (store/fs.h) in the dedicated
// store test suites.
//
// Thread-safety: shared read, serialized append/commit — and the
// contract is compile-time checked.  The store's reader-writer lock is
// exposed as mu(); the `_locked` methods carry REQUIRES_SHARED (probes)
// or REQUIRES (appends) on it, so Clang Thread Safety Analysis rejects
// a probe without at least a shared hold and an append without the
// exclusive hold.  The convenience wrappers (probe_bit, probe_row,
// set_bit, checkpoint accessors) are EXCLUDES(mu()): they take the
// right lock themselves, one call at a time.  Batch writers (the
// engine's write-back) hold one util::ExclusiveLock over mu() and call
// write_row_locked per row — one acquisition per batch.
//
// Any number of threads may probe concurrently — litmusd's
// per-connection readers do exactly that — while appends serialize
// through the exclusive lock.  save() and commit() serialize against
// each other, capture (and clear) the changes to write under one short
// exclusive hold, and write the file outside it, so probes and appends
// continue during the I/O and every committed file is one consistent
// snapshot.  Hit/miss counters are relaxed atomics outside the lock.
// open() constructs fresh state (populating it under the exclusive lock
// it has sole access to); column_of reads post-construction immutable
// state and needs no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/model.h"
#include "store/fs.h"
#include "util/hash128.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mcmc::store {

/// On-disk format version; bumped on any layout change.  A file with a
/// different version is ignored (not quarantined — it belongs to a
/// different build, not to bit rot).
///   2 = base snapshot plus checksum-chained delta segments; version-1
///       single-file stores open as VersionMismatch and are recomputed.
inline constexpr std::uint32_t kStoreFormatVersion = 2;

/// Generator/canonicalization schema the verdict rows were computed
/// under; bumped whenever the meaning of a canonical fingerprint or of
/// a stream cursor changes (new space dimensions, fingerprint layout
/// changes) even though the file layout itself does not.  The zoo
/// fingerprint alone cannot catch that drift — the models may be
/// identical while every key means something else.  Files written
/// before this field existed carry 0 in the (then reserved) header
/// slot, so they self-invalidate against any real version.
///   2 = dependency-extended generator (data/ctrl dep slots, digest-
///       pinned stream cursors); pre-dep stores wrote 0.
inline constexpr std::uint32_t kSpaceSchemaVersion = 2;

/// The key of a model's store column: "F:" and its formula's text, so
/// models with structurally equal formulas share a column.  This is the
/// only definition of the format; StoreMeta, the engine's row path and
/// litmusd all take their keys from here.  Empty for formulas with
/// custom predicates — their semantics may observe raw identity, so
/// their verdicts are never persisted.
[[nodiscard]] std::string model_store_key(const core::MemoryModel& model);

/// Identity of a store: the ordered model list its verdict columns are
/// computed against.  Two stores are interchangeable iff their zoo
/// fingerprints match (the fingerprint hashes the ordered keys, so
/// reordering, renaming a formula, or resizing the zoo all invalidate).
struct StoreMeta {
  std::vector<std::string> model_keys;
  /// Schema the entries are valid under (see kSpaceSchemaVersion);
  /// callers normally leave the default.
  std::uint32_t schema = kSpaceSchemaVersion;

  [[nodiscard]] static StoreMeta from_models(
      const std::vector<core::MemoryModel>& models);

  [[nodiscard]] int num_models() const {
    return static_cast<int>(model_keys.size());
  }
  [[nodiscard]] util::Key128 zoo_fingerprint() const;
};

/// Resume state of an interrupted stream: everything run_stream needs
/// to continue from the first unsealed chunk — cumulative counters,
/// the cross-chunk dedup set (its keys in the order they were first
/// claimed), the source's serialized cursor, and an opaque sink blob
/// (the Theorem harness stores its fold state there).
struct StreamCheckpoint {
  std::uint64_t chunks = 0;
  std::uint64_t tests_streamed = 0;
  std::uint64_t novel_tests = 0;
  std::uint64_t duplicate_tests = 0;
  std::vector<util::Key128> seen_keys;
  std::vector<std::uint64_t> source_cursor;
  std::vector<std::uint64_t> sink_state;
};

/// Checkpoint/resume configuration for VerdictEngine::run_stream (see
/// StreamOptions::persistence).  The engine seals every
/// `checkpoint_every_chunks` chunks: it snapshots the source cursor,
/// hands the store the dedup keys claimed since the previous seal,
/// asks the sink for its state, and commits the change as one delta
/// segment (VerdictStore::commit).  At completion it drops the
/// checkpoint and folds the chain, leaving one checkpoint-free file.
/// With `resume`, a checkpoint present in the attached store restores
/// all of that before the first chunk.
struct StreamPersistence {
  std::string path;                   ///< store file (empty = disabled)
  Fs* fs = nullptr;                   ///< null = the real filesystem
  int checkpoint_every_chunks = 64;
  bool resume = false;
  /// Serializes the sink's fold state into the checkpoint.
  std::function<void(std::vector<std::uint64_t>&)> save_sink;
  /// Restores sink state from a checkpoint; returning false aborts the
  /// resume (the run restarts from scratch instead of diverging).
  std::function<bool(const std::vector<std::uint64_t>&)> restore_sink;
  /// Test hook: after this many successful seals, throw
  /// StreamInterrupted — the files are then bit-for-bit what a SIGKILL
  /// right after the seal's atomic rename leaves behind.  -1 never
  /// fires.
  int kill_after_seals = -1;
};

/// Thrown by the kill_after_seals test hook (and nothing else): lets
/// recovery tests produce a mid-stream interruption whose on-disk
/// state is exactly a kill's.
struct StreamInterrupted : std::runtime_error {
  explicit StreamInterrupted(const std::string& what)
      : std::runtime_error(what) {}
};

/// How open() classified the file it found.
enum class OpenOutcome {
  Fresh,            ///< no base file (or unreadable): empty store
  Loaded,           ///< base (plus its valid segment chain) adopted
  VersionMismatch,  ///< other format version: ignored, not quarantined
  SchemaMismatch,   ///< other generator/fingerprint schema: self-invalidated
  ZooMismatch,      ///< different model zoo: self-invalidated
  Corrupt,          ///< checksum/structure failure: quarantined
};

[[nodiscard]] std::string to_string(OpenOutcome outcome);

class VerdictStore;

struct OpenResult {
  std::unique_ptr<VerdictStore> store;  ///< never null (empty on failure)
  OpenOutcome outcome = OpenOutcome::Fresh;
  std::string detail;                   ///< human-readable diagnosis
};

/// The in-memory store: canonical test fingerprint -> one packed row
/// of per-model verdict bits plus a validity mask (rows fill in
/// model-subset order: the extremes stream contributes 2 columns, the
/// full sweep the rest).
class VerdictStore {
 public:
  explicit VerdictStore(StoreMeta meta);

  /// Loads the base at `path` (verifying version, zoo fingerprint, and
  /// every checksum) plus its longest valid segment chain, or returns
  /// an empty store, per the durability model in the header comment.
  /// Never throws on bad input.
  [[nodiscard]] static OpenResult open(const std::string& path,
                                       StoreMeta meta, Fs* fs = nullptr);

  /// Atomically commits the whole store (entries + checkpoint, if any)
  /// to `path` as a new base and retires any segments beside it, so
  /// `path` afterwards opens to exactly this store.  False on any
  /// filesystem failure; `path` then still opens to whatever it held
  /// before.
  [[nodiscard]] bool save(const std::string& path, Fs* fs = nullptr,
                          std::string* error = nullptr) EXCLUDES(mu_);

  /// Commits what changed since this object's last open, save or commit
  /// at `path` as one delta segment — O(changed rows + new checkpoint
  /// keys), independent of the store's size.  A no-op when nothing
  /// changed.  Writes a base instead when `path` has no chain this
  /// object knows of, when the previous commit failed, or when the
  /// segments would outgrow the base.  `fold` asks for exactly one file
  /// at `path` afterwards: the segments are folded into a new base, or
  /// merely retired when the base already holds this exact state (a
  /// run that changed no row leaves the base byte-for-byte untouched).
  /// False on any filesystem failure; `path` then still opens to the
  /// state of the previous successful commit, and the next commit
  /// writes a base carrying everything.
  [[nodiscard]] bool commit(const std::string& path, Fs* fs = nullptr,
                            bool fold = false, std::string* error = nullptr)
      EXCLUDES(mu_);

  [[nodiscard]] const StoreMeta& meta() const { return meta_; }
  [[nodiscard]] int num_models() const { return meta_.num_models(); }
  [[nodiscard]] std::size_t size() const EXCLUDES(mu_) {
    util::SharedLock lock(mu_);
    return keys_.size();
  }
  [[nodiscard]] std::size_t words_per_row() const { return words_; }

  /// Rows added or changed since the last open, save or commit — what
  /// the next commit() would write.  Writes that leave every bit as it
  /// was do not count.
  [[nodiscard]] std::size_t dirty_rows() const EXCLUDES(mu_) {
    util::SharedLock lock(mu_);
    return dirty_.size();
  }

  /// Total bytes save() and commit() have written through the Fs layer
  /// since construction (successful commits only).
  [[nodiscard]] std::uint64_t bytes_committed() const {
    return bytes_committed_.load(std::memory_order_relaxed);
  }

  /// Column of the model with this key (model_store_key); -1 if absent
  /// (unknown model, or the empty custom-predicate key).
  [[nodiscard]] int column_of(const std::string& model_key) const;

  /// The store's reader-writer lock, for callers batching many
  /// `_locked` calls under one acquisition (util::SharedLock for
  /// probes, util::ExclusiveLock for appends).
  [[nodiscard]] util::SharedMutex& mu() const RETURN_CAPABILITY(mu_) {
    return mu_;
  }

  // ---- The locking contract, in the types: probes require at least a
  // shared hold of mu(), appends require the exclusive hold. ----

  /// The verdict bit of (test, column), if present.  Counts one cell
  /// hit or miss.
  [[nodiscard]] std::optional<bool> probe_bit_locked(util::Key128 test,
                                                     int col) const
      REQUIRES_SHARED(mu_);

  /// Full-row probe: true iff every column in `cols` is present, in
  /// which case bit i of `out` (indexed like `cols`) is column
  /// cols[i]'s verdict.  Counts |cols| hits on success, |cols| misses
  /// otherwise.
  [[nodiscard]] bool probe_row_locked(util::Key128 test,
                                      const std::vector<int>& cols,
                                      std::vector<std::uint64_t>& out) const
      REQUIRES_SHARED(mu_);

  /// Row-level probe with one index lookup: copies `test`'s validity
  /// and verdict words (words_per_row() each, zeros when the row is
  /// absent) into `valid` and `bits`, and counts one hit per column set
  /// in `want` that is valid and one miss per column that is not.
  void probe_words_locked(util::Key128 test, const std::uint64_t* want,
                          std::uint64_t* valid, std::uint64_t* bits) const
      REQUIRES_SHARED(mu_);

  /// Row-level write-back with one index lookup: every column set in
  /// `mask` (words_per_row() words) becomes valid with its bit from
  /// `bits`; other columns keep their state.  The row is marked dirty —
  /// at most once until the next commit — only if a bit changed.
  void write_row_locked(util::Key128 test, const std::uint64_t* mask,
                        const std::uint64_t* bits) REQUIRES(mu_);

  /// Appends (or overwrites) one verdict bit.
  void set_bit_locked(util::Key128 test, int col, bool verdict) REQUIRES(mu_);

  // ---- Lock-taking wrappers: one acquisition per call. ----

  [[nodiscard]] std::optional<bool> probe_bit(util::Key128 test, int col) const
      EXCLUDES(mu_) {
    util::SharedLock lock(mu_);
    return probe_bit_locked(test, col);
  }

  [[nodiscard]] bool probe_row(util::Key128 test, const std::vector<int>& cols,
                               std::vector<std::uint64_t>& out) const
      EXCLUDES(mu_) {
    util::SharedLock lock(mu_);
    return probe_row_locked(test, cols, out);
  }

  void set_bit(util::Key128 test, int col, bool verdict) EXCLUDES(mu_) {
    util::ExclusiveLock lock(mu_);
    set_bit_locked(test, col, verdict);
  }

  /// Cell-level accounting since construction (or reset_counters):
  /// the store hit rate bench_exhaustive reports is
  /// hits / (hits + misses).  Counted with relaxed atomics, so
  /// concurrent probes race only on who counts first, never on the
  /// totals.
  [[nodiscard]] std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  void reset_counters() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
  }

  // ---- Stream checkpoint (persisted alongside the entries).  The
  // getter hands out a copy: the stored value lives under mu_, so a
  // reference would dangle the moment an appender ran. ----
  [[nodiscard]] std::optional<StreamCheckpoint> checkpoint() const
      EXCLUDES(mu_) {
    util::SharedLock lock(mu_);
    return checkpoint_;
  }
  /// Replaces the checkpoint wholesale (the next segment then carries
  /// its whole key list).
  void set_checkpoint(StreamCheckpoint ck) EXCLUDES(mu_);
  /// Seals an incremental checkpoint: `next`'s counters, cursor and
  /// sink blob replace the current ones, and `next.seen_keys` — the
  /// dedup keys claimed since the previous seal, in claim order — are
  /// appended to the current key list (a fresh checkpoint starts
  /// empty).  The next segment carries only the appended keys.
  void extend_checkpoint(StreamCheckpoint next) EXCLUDES(mu_);
  void clear_checkpoint() EXCLUDES(mu_);

 private:
  /// The committed files at one path this object knows to hold its
  /// state: a base plus `segments` delta segments.
  struct Chain {
    std::string path;       ///< empty: none known; next commit is a base
    util::Key128 base_sum;  ///< checksum of the base file
    util::Key128 head_sum;  ///< checksum of the chain's last file
    std::uint32_t segments = 0;
    std::uint64_t base_bytes = 0;
    std::uint64_t segment_bytes = 0;
    std::uint64_t generation = 0;  ///< of the base
    bool base_checkpoint = false;  ///< the base holds a checkpoint
  };

  enum class CommitMode { kDelta, kFold, kBase };

  static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};
  /// One slot of the index: a row and the low 32 bits of its key's
  /// `lo`, so a probe compares a full key only on a tag match.
  struct IndexSlot {
    std::uint32_t row = kNoRow;  ///< kNoRow: the slot is free
    std::uint32_t tag = 0;
  };

  [[nodiscard]] static std::uint32_t tag_of(util::Key128 test) {
    return static_cast<std::uint32_t>(test.lo);
  }
  /// The slot holding `test`'s row, or the free slot where it belongs
  /// (linear probing from the home slot `test.hi`).
  [[nodiscard]] std::size_t locate(util::Key128 test) const
      REQUIRES_SHARED(mu_);
  /// `test`'s row, or kNoRow.
  [[nodiscard]] std::uint32_t find(util::Key128 test) const
      REQUIRES_SHARED(mu_);
  /// Grows the index to hold `rows` rows under its load bound, rehashing
  /// from `keys_` (a no-op when it already does).
  void reserve_index(std::size_t rows) REQUIRES(mu_);
  /// `test`'s row, appended (with empty columns) if absent.
  [[nodiscard]] std::uint32_t row_of(util::Key128 test) REQUIRES(mu_);
  void mark_dirty(std::uint32_t row) REQUIRES(mu_);
  /// Serializes the whole store as a base of generation `generation`
  /// and clears the change tracking (the base carries everything).
  [[nodiscard]] std::string capture_base(std::uint64_t generation)
      REQUIRES(mu_);
  /// Serializes the changes since the last commit as segment number
  /// chain_.segments + 1 (without its trailer) and clears the change
  /// tracking.
  [[nodiscard]] std::string capture_segment() REQUIRES(mu_);
  /// Forgets the committed chain after a failed commit, so the next
  /// commit writes a base carrying everything the failed one held.
  void forget_chain() EXCLUDES(mu_);
  [[nodiscard]] bool commit_impl(const std::string& path, Fs* fs,
                                 CommitMode mode, std::string* error)
      EXCLUDES(mu_);

  StoreMeta meta_;
  std::size_t words_ = 0;  ///< words per row (and per validity mask)
  /// Readers-writer lock implementing the header contract: probes and
  /// size() hold it shared; appends, the checkpoint setters, and a
  /// commit's capture hold it exclusive.
  mutable util::SharedMutex mu_;
  /// Serializes save() and commit() against each other, so the chain
  /// advances one file at a time.  Taken before mu_, never inside it.
  util::Mutex commit_mu_;
  /// The index: every row's key once, in row order (which is also the
  /// order a base lists them in), and an open-addressed power-of-two
  /// table of {row, tag} slots over them, kept under 70% load.  No heap
  /// node per row: 16 bytes of key plus 11-23 bytes of table per row.
  std::vector<util::Key128> keys_ GUARDED_BY(mu_);
  std::vector<IndexSlot> slots_ GUARDED_BY(mu_);
  std::vector<std::uint64_t> valid_ GUARDED_BY(mu_);  ///< size() x words_
  std::vector<std::uint64_t> bits_ GUARDED_BY(mu_);   ///< size() x words_
  std::unordered_map<std::string, int> column_;  // immutable post-ctor
  std::optional<StreamCheckpoint> checkpoint_ GUARDED_BY(mu_);

  // ---- Change tracking since the last commit (what a segment holds).
  /// Rows added or changed, in the order they were first dirtied.
  std::vector<std::uint32_t> dirty_ GUARDED_BY(mu_);
  std::vector<std::uint8_t> row_dirty_ GUARDED_BY(mu_);  ///< per row
  /// Some row changed since the chain's base was written or loaded.
  bool rows_since_base_ GUARDED_BY(mu_) = false;
  /// The checkpoint changed since the last commit.
  bool checkpoint_dirty_ GUARDED_BY(mu_) = false;
  /// Leading checkpoint keys the chain's head already holds.
  std::size_t committed_keys_ GUARDED_BY(mu_) = 0;
  Chain chain_ GUARDED_BY(mu_);

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> bytes_committed_{0};
};

}  // namespace mcmc::store
