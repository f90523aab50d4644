// Flat CSR primitives: the arena that backs every Graph / BisimMapping and
// the HalfInterval accessor the hot paths scan with.
//
// Motivation (ROADMAP item 2): every per-vertex structure in the system is a
// pair of contiguous arrays — offsets[] (|V|+1 u64) and payload[] — and every
// hot loop is a linear scan over offsets[v] .. offsets[v+1]. Storing those
// arrays as independently heap-allocated std::vectors makes an index
// expensive to serialize (field-by-field rebuild) and impossible to map from
// disk. Instead, one Arena allocation (or one mmap'd file region) holds all
// arrays back to back, 8-byte aligned, and the owning structures hold
// read-only spans into it plus a shared keep-alive. A structure built by a
// builder and a structure viewing an index image are then the same type with
// the same accessors — zero-copy load falls out.
//
// CsrView/HalfInterval follow the fgidx::DenseIndex idiom (SNIPPETS.md §2):
// operator[] hands back the half-open [begin, end) range of a vertex's slots
// so inner loops index one flat payload array instead of materializing a
// span per vertex.

#ifndef BIGINDEX_GRAPH_CSR_H_
#define BIGINDEX_GRAPH_CSR_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "graph/types.h"

namespace bigindex {

/// A half-open slot range [begin, end) into a CSR payload array.
struct HalfInterval {
  uint64_t begin = 0;
  uint64_t end = 0;

  uint64_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

/// Read-only view of one CSR adjacency: offsets (size |V|+1) over a flat
/// payload array. Cheap to copy; hoist it out of loops so the two base
/// pointers live in registers across the scan.
class CsrView {
 public:
  CsrView() = default;
  CsrView(const uint64_t* offsets, const VertexId* payload)
      : offsets_(offsets), payload_(payload) {}

  /// Slot range of vertex v, the fgidx half-interval accessor.
  HalfInterval operator[](VertexId v) const {
    return {offsets_[v], offsets_[v + 1]};
  }

  /// Payload at slot i (a neighbor / member vertex id).
  VertexId Slot(uint64_t i) const { return payload_[i]; }

  uint64_t Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  const VertexId* payload() const { return payload_; }

 private:
  const uint64_t* offsets_ = nullptr;
  const VertexId* payload_ = nullptr;
};

/// One contiguous allocation that the flat structures carve their arrays out
/// of. Carve() hands out 8-byte-aligned typed spans front to back; the arena
/// is sized up front (AlignedSize per array, summed) so carving never
/// reallocates and the resulting layout matches the index-image section
/// layout byte for byte.
class Arena {
 public:
  static constexpr size_t kAlign = 8;

  /// Bytes `count` elements of T occupy in an arena (or an image section),
  /// including tail padding to the 8-byte boundary.
  template <typename T>
  static size_t AlignedSize(size_t count) {
    return (count * sizeof(T) + (kAlign - 1)) & ~(kAlign - 1);
  }

  explicit Arena(size_t bytes)
      : data_(bytes == 0 ? nullptr : new std::byte[bytes]()), size_(bytes) {}

  /// Allots `count` elements of T. The caller must have sized the arena to
  /// cover every carve (checked by assert).
  template <typename T>
  std::span<T> Carve(size_t count) {
    static_assert(alignof(T) <= kAlign, "arena carves at 8-byte alignment");
    size_t bytes = AlignedSize<T>(count);
    assert(used_ + bytes <= size_ && "arena undersized");
    T* out = reinterpret_cast<T*>(data_.get() + used_);
    used_ += bytes;
    return {out, count};
  }

  size_t size() const { return size_; }

 private:
  std::unique_ptr<std::byte[]> data_;
  size_t size_ = 0;
  size_t used_ = 0;
};

/// Shared ownership of whatever memory a flat structure views: an Arena from
/// a builder, an mmap'd file, or a caller-owned buffer.
using StorageHandle = std::shared_ptr<const void>;

}  // namespace bigindex

#endif  // BIGINDEX_GRAPH_CSR_H_
