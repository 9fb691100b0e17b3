//===- StridedRange.h - Concrete strided index ranges ----------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete (fully evaluated) strided ranges of array indices.
///
/// A strided range "b..e:k" denotes the index set {b + i*k : i >= 0,
/// b <= b + i*k < e}, following BigFoot (PLDI'17) Section 3.1. Ranges are
/// the currency of coalesced array checks and of the dynamic footprints
/// maintained by the DynamicBF runtime.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_SUPPORT_STRIDEDRANGE_H
#define BIGFOOT_SUPPORT_STRIDEDRANGE_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace bigfoot {

/// A concrete strided range of array indices, {B + i*K : B <= B + i*K < E}.
///
/// Ranges are kept normalized: an empty range is canonically {0,0,1}; a
/// non-empty range has K >= 1, B < E, and E trimmed to the last element + 1
/// so that two ranges denoting the same set compare equal.
class StridedRange {
public:
  /// Builds the canonical empty range.
  StridedRange() : Begin(0), End(0), Stride(1) {}

  /// Builds the range \p B..\p E : \p K and normalizes it. A non-empty
  /// range's width E - B must fit in int64 (the VM fails a check whose
  /// range does not, and the trace reader rejects one).
  StridedRange(int64_t B, int64_t E, int64_t K = 1) {
    assert(K >= 1 && "stride must be positive");
    if (B >= E) {
      Begin = End = 0;
      Stride = 1;
      return;
    }
    assert(static_cast<uint64_t>(E) - static_cast<uint64_t>(B) <=
               static_cast<uint64_t>(INT64_MAX) &&
           "range width overflows int64");
    Begin = B;
    End = E;
    Stride = 1;
    if (K == 1)
      return; // Already exact: the common case needs no division.
    // Trim End so it is exactly one past the last covered element.
    int64_t Count = (E - B - 1) / K + 1;
    End = B + (Count - 1) * K + 1;
    if (Count > 1)
      Stride = K; // A singleton keeps the canonical stride 1.
  }

  /// Builds the singleton range covering exactly \p Index.
  static StridedRange singleton(int64_t Index) {
    return StridedRange(Index, Index + 1, 1);
  }

  int64_t begin() const { return Begin; }
  int64_t end() const { return End; }
  int64_t stride() const { return Stride; }

  bool empty() const { return Begin == End; }

  /// Number of indices in the set.
  int64_t size() const {
    if (empty())
      return 0;
    return (End - Begin - 1) / Stride + 1;
  }

  /// True if \p Index is a member of the denoted set.
  bool contains(int64_t Index) const {
    if (Index < Begin || Index >= End)
      return false;
    return (Index - Begin) % Stride == 0;
  }

  /// True if every index of \p Other is also in this range.
  bool covers(const StridedRange &Other) const;

  /// True if the two ranges share at least one index.
  bool intersects(const StridedRange &Other) const;

  /// Attempts to represent the union of two ranges as one strided range.
  /// Returns std::nullopt when the union is not itself a strided range.
  /// This mirrors the combinatorial coalescing step of Section 4.
  std::optional<StridedRange> unionWith(const StridedRange &Other) const;

  /// Materializes the index set in increasing order (test/oracle use only).
  std::vector<int64_t> elements() const {
    std::vector<int64_t> Out;
    Out.reserve(static_cast<size_t>(size()));
    for (int64_t I = Begin; I < End; I += Stride)
      Out.push_back(I);
    return Out;
  }

  /// Renders "b..e" for unit stride and "b..e:k" otherwise.
  std::string str() const;

  bool operator==(const StridedRange &Other) const {
    return Begin == Other.Begin && End == Other.End && Stride == Other.Stride;
  }
  bool operator!=(const StridedRange &Other) const {
    return !(*this == Other);
  }
  bool operator<(const StridedRange &Other) const {
    if (Begin != Other.Begin)
      return Begin < Other.Begin;
    if (End != Other.End)
      return End < Other.End;
    return Stride < Other.Stride;
  }

private:
  int64_t Begin;
  int64_t End;
  int64_t Stride;
};

/// An ordered, duplicate-free set of indices kept as disjoint strided
/// ranges. This is the representation used for per-thread array footprints
/// (Section 4, "Dynamic Array Compression"): adding a range coalesces it
/// with existing ranges when the union is again expressible as one range.
class RangeSet {
public:
  RangeSet() = default;

  bool empty() const { return Ranges.empty(); }

  /// Total number of indices covered.
  int64_t cardinality() const;

  /// Number of strided ranges held (footprint fragmentation metric).
  size_t fragments() const { return Ranges.size(); }

  /// Adds \p R, merging with existing fragments where possible.
  void add(const StridedRange &R);

  /// True if \p Index is covered by some fragment.
  bool contains(int64_t Index) const;

  /// True if every index of \p R is covered.
  bool covers(const StridedRange &R) const;

  void clear() { Ranges.clear(); }

  const std::vector<StridedRange> &ranges() const { return Ranges; }

  /// All covered indices in increasing order (test/oracle use only).
  std::vector<int64_t> elements() const;

  std::string str() const;

private:
  std::vector<StridedRange> Ranges;
};

} // namespace bigfoot

#endif // BIGFOOT_SUPPORT_STRIDEDRANGE_H
