// Local segments (Sections 3.2–3.4).
//
// A segment is a sequence of instructions that starts and ends with a
// memory access and has no other memory access between them.  Segments are
// classified by their end-point kinds (read-read, read-write, write-read,
// write-write), by whether the two accesses hit the same address, and by
// the interior (nothing, a full fence, or a dependency chain — dependency
// only for segments that start with a read, since writes produce no
// values).
//
// With the paper's predicate set {Read, Write, Fence, SameAddr, DataDep}
// the distinct segment counts are N_RR = N_RW = 6 and N_WR = N_WW = 4,
// giving Corollary 1's 230-test bound (124 without DataDep).
#pragma once

#include <string>
#include <vector>

namespace mcmc::enumeration {

/// Segment end-point classification.
enum class SegType { RR, RW, WR, WW };

/// What sits between the two accesses.
enum class Interior {
  None,   ///< accesses are adjacent
  Fence,  ///< a full fence
  Dep,    ///< a data dependency (first access must be a read)
};

/// One local segment shape.
struct Segment {
  SegType type = SegType::RR;
  bool same_addr = false;
  Interior interior = Interior::None;

  [[nodiscard]] std::string to_string() const;
};

/// All distinct segments of `type` under the paper's predicate set;
/// `with_deps` controls whether Interior::Dep is available (it is only
/// ever generated for read-first segments).
[[nodiscard]] std::vector<Segment> segments_of_type(SegType type,
                                                    bool with_deps);

/// N_xy for the predicate set (6/6/4/4 with deps; 4/4/4/4 without).
[[nodiscard]] int segment_count(SegType type, bool with_deps);

}  // namespace mcmc::enumeration
