#ifndef WATTDB_STORAGE_PAGE_H_
#define WATTDB_STORAGE_PAGE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/constants.h"
#include "common/status.h"
#include "common/types.h"

namespace wattdb::storage {

/// A classic slotted page over an 8 KB frame. The slot directory grows
/// downward from the header; record bodies grow upward from the end of the
/// frame. Deleting leaves a tombstone slot (slot numbers must stay stable
/// because indexes reference them); the space is reclaimed by Compact(),
/// which is called automatically when an insert would otherwise fail even
/// though enough dead space exists.
///
/// Layout:
///   [0,16)               header: slot_count, free_ptr, lsn, record_count
///   [16, 16+4*slots)     slot directory: {offset:u16, length:u16}
///   [free_ptr, 8192)     record bodies (tightly packed at the tail)
class Page {
 public:
  Page();

  /// Largest record body a page can hold: an empty frame less the header
  /// and one slot entry.
  static constexpr size_t kMaxRecordSize =
      kPageSize - kPageHeaderSize - kSlotSize;

  /// Insert a record body. Returns the slot number, or ResourceExhausted if
  /// the page cannot fit `size` bytes plus a slot entry even after
  /// compaction.
  StatusOr<uint16_t> Insert(const uint8_t* data, size_t size);

  /// Read the record in `slot`. NotFound for tombstones/out-of-range.
  StatusOr<std::pair<const uint8_t*, size_t>> Read(uint16_t slot) const;

  /// Overwrite the record in `slot`. The new body may be smaller or equal in
  /// size (in-place); growing an entry relocates it within the page and
  /// fails with ResourceExhausted if it no longer fits.
  Status Update(uint16_t slot, const uint8_t* data, size_t size);

  /// Tombstone the record in `slot`.
  Status Delete(uint16_t slot);

  /// Bytes available for a new record (including its slot entry), after
  /// hypothetical compaction.
  size_t FreeSpace() const;
  /// Bytes available without compaction.
  size_t ContiguousFreeSpace() const;

  bool HasRoomFor(size_t record_size) const {
    return FreeSpace() >= record_size + kSlotSize;
  }

  /// Live (non-tombstoned) record count.
  uint16_t record_count() const { return record_count_; }

  /// Bytes occupied by live record bodies.
  size_t LiveBytes() const { return live_bytes_; }

  /// Squeeze out dead space; slot numbers are preserved.
  void Compact();

  /// Structural invariants: slots in range, no overlaps, live byte count.
  bool CheckInvariants() const;

 private:
  struct Slot {
    uint16_t offset;  // kTombstone when dead.
    uint16_t length;
  };
  static constexpr uint16_t kTombstone = 0xFFFF;
  static constexpr size_t kFrameSize = kPageSize;

  std::vector<uint8_t> frame_;
  std::vector<Slot> slots_;
  size_t free_ptr_;           // Start of the packed record area.
  size_t live_bytes_ = 0;     // Total bytes of live record bodies.
  uint16_t record_count_ = 0;
  uint16_t tombstones_ = 0;   // Dead slots, reused by Insert lowest first.
};

}  // namespace wattdb::storage

#endif  // WATTDB_STORAGE_PAGE_H_
