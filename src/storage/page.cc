#include "storage/page.h"

#include <cstring>
#include <numeric>

#include "common/logging.h"

namespace wattdb::storage {

Page::Page() : frame_(kFrameSize, 0), free_ptr_(kFrameSize) {}

size_t Page::ContiguousFreeSpace() const {
  const size_t dir_end = kPageHeaderSize + slots_.size() * kSlotSize;
  return free_ptr_ > dir_end ? free_ptr_ - dir_end : 0;
}

size_t Page::FreeSpace() const {
  const size_t dir_end = kPageHeaderSize + slots_.size() * kSlotSize;
  const size_t usable = kFrameSize - dir_end;
  return usable > live_bytes_ ? usable - live_bytes_ : 0;
}

StatusOr<uint16_t> Page::Insert(const uint8_t* data, size_t size) {
  if (size == 0 || size > kMaxRecordSize) {
    return Status::InvalidArgument("record size unsupported");
  }
  if (!HasRoomFor(size)) {
    return Status::ResourceExhausted("page full");
  }
  if (ContiguousFreeSpace() < size + kSlotSize) {
    Compact();
  }
  // Reuse a tombstone slot if available to bound directory growth.
  uint16_t slot = static_cast<uint16_t>(slots_.size());
  if (tombstones_ > 0) {
    slot = 0;
    while (slots_[slot].offset != kTombstone) ++slot;
    --tombstones_;
  }
  free_ptr_ -= size;
  std::memcpy(frame_.data() + free_ptr_, data, size);
  const Slot entry{static_cast<uint16_t>(free_ptr_),
                   static_cast<uint16_t>(size)};
  if (slot == slots_.size()) {
    slots_.push_back(entry);
  } else {
    slots_[slot] = entry;
  }
  live_bytes_ += size;
  ++record_count_;
  return slot;
}

StatusOr<std::pair<const uint8_t*, size_t>> Page::Read(uint16_t slot) const {
  if (slot >= slots_.size() || slots_[slot].offset == kTombstone) {
    return Status::NotFound("no such slot");
  }
  return std::make_pair(frame_.data() + slots_[slot].offset,
                        static_cast<size_t>(slots_[slot].length));
}

Status Page::Update(uint16_t slot, const uint8_t* data, size_t size) {
  if (slot >= slots_.size() || slots_[slot].offset == kTombstone) {
    return Status::NotFound("no such slot");
  }
  Slot& s = slots_[slot];
  if (size <= s.length) {
    std::memcpy(frame_.data() + s.offset, data, size);
    live_bytes_ -= s.length - size;
    s.length = static_cast<uint16_t>(size);
    return Status::OK();
  }
  // Grow: relocate within this page.
  const size_t needed_extra = size - s.length;
  if (FreeSpace() < needed_extra) {
    return Status::ResourceExhausted("page cannot grow record");
  }
  // Temporarily drop the old body so compaction can reclaim it if needed.
  live_bytes_ -= s.length;
  const uint16_t old_len = s.length;
  s.offset = kTombstone;
  if (ContiguousFreeSpace() < size) Compact();
  WATTDB_CHECK(ContiguousFreeSpace() >= size);
  free_ptr_ -= size;
  std::memcpy(frame_.data() + free_ptr_, data, size);
  s.offset = static_cast<uint16_t>(free_ptr_);
  s.length = static_cast<uint16_t>(size);
  live_bytes_ += size;
  (void)old_len;
  return Status::OK();
}

Status Page::Delete(uint16_t slot) {
  if (slot >= slots_.size() || slots_[slot].offset == kTombstone) {
    return Status::NotFound("no such slot");
  }
  live_bytes_ -= slots_[slot].length;
  slots_[slot].offset = kTombstone;
  slots_[slot].length = 0;
  --record_count_;
  ++tombstones_;
  return Status::OK();
}

void Page::Compact() {
  // Stable-sort live slots by current offset (descending) and repack from
  // the tail, preserving slot numbers.
  std::vector<uint16_t> order;
  order.reserve(slots_.size());
  for (uint16_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].offset != kTombstone) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](uint16_t a, uint16_t b) {
    return slots_[a].offset > slots_[b].offset;
  });
  size_t write_ptr = kFrameSize;
  for (uint16_t s : order) {
    Slot& slot = slots_[s];
    write_ptr -= slot.length;
    std::memmove(frame_.data() + write_ptr, frame_.data() + slot.offset,
                 slot.length);
    slot.offset = static_cast<uint16_t>(write_ptr);
  }
  free_ptr_ = write_ptr;
}

bool Page::CheckInvariants() const {
  size_t live = 0;
  uint16_t count = 0;
  for (const Slot& s : slots_) {
    if (s.offset == kTombstone) continue;
    if (s.offset < free_ptr_ || s.offset + s.length > kFrameSize) return false;
    live += s.length;
    ++count;
  }
  if (live != live_bytes_ || count != record_count_) return false;
  if (count + tombstones_ != slots_.size()) return false;
  const size_t dir_end = kPageHeaderSize + slots_.size() * kSlotSize;
  return free_ptr_ >= dir_end;
}

}  // namespace wattdb::storage
