#include "storage/segment.h"

#include <algorithm>

#include "common/logging.h"

namespace wattdb::storage {

Segment::Segment(SegmentId id, NodeId storage_node, DiskId disk,
                 index::IndexKind index_kind)
    : id_(id),
      storage_node_(storage_node),
      disk_(disk),
      pk_index_(index::MakeRecordIndex(index_kind)) {
  WATTDB_CHECK_MSG(pk_index_ != nullptr,
                   "unknown IndexKind " << static_cast<int>(index_kind));
}

Page* Segment::PageWithRoom(size_t record_size, uint16_t* out_idx) {
  for (size_t i = insert_cursor_; i < pages_.size(); ++i) {
    if (pages_[i]->HasRoomFor(record_size)) {
      *out_idx = static_cast<uint16_t>(i);
      return pages_[i].get();
    }
    // Only advance the cursor past pages that cannot fit even small
    // records, so mixed-size workloads do not strand space.
    if (pages_[i]->FreeSpace() < 64 && i == insert_cursor_) {
      ++insert_cursor_;
    }
  }
  if (pages_.size() >= kPagesPerSegment) return nullptr;
  pages_.push_back(std::make_unique<Page>());
  *out_idx = static_cast<uint16_t>(pages_.size() - 1);
  return pages_.back().get();
}

StatusOr<RecordPos> Segment::Insert(Key key,
                                     const std::vector<uint8_t>& payload) {
  if (pk_index_->Contains(key)) {
    return Status::AlreadyExists("duplicate key in segment");
  }
  const std::vector<uint8_t> body = EncodeRecord(key, payload);
  uint16_t page_idx = 0;
  Page* page = PageWithRoom(body.size(), &page_idx);
  if (page == nullptr) {
    return Status::ResourceExhausted("segment full");
  }
  auto slot = page->Insert(body.data(), body.size());
  if (!slot.ok()) return slot.status();
  const RecordPos pos{page_idx, slot.value()};
  pk_index_->Insert(key, pos);
  ++writes_;
  return pos;
}

StatusOr<RecordPos> Segment::Locate(Key key) const {
  const RecordPos* pos = pk_index_->Find(key);
  if (pos == nullptr) return Status::NotFound("key not in segment");
  return *pos;
}

StatusOr<Record> Segment::Read(Key key) const {
  auto pos = Locate(key);
  if (!pos.ok()) return pos.status();
  return ReadAt(pos.value());
}

StatusOr<Record> Segment::ReadAt(RecordPos pos) const {
  if (pos.page >= pages_.size()) return Status::NotFound("bad page");
  auto body = pages_[pos.page]->Read(pos.slot);
  if (!body.ok()) return body.status();
  ++reads_;
  return DecodeRecord(body.value().first, body.value().second);
}

Status Segment::Update(Key key, const std::vector<uint8_t>& payload) {
  auto pos = Locate(key);
  return pos.ok() ? UpdateAt(pos.value(), key, payload) : pos.status();
}

Status Segment::UpdateAt(RecordPos pos, Key key,
                         const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> body = EncodeRecord(key, payload);
  Status s = pages_[pos.page]->Update(pos.slot, body.data(), body.size());
  if (s.ok()) {
    ++writes_;
    return s;
  }
  if (!s.IsResourceExhausted()) return s;
  // The record grew past its page: relocate within the segment.
  WATTDB_RETURN_IF_ERROR(pages_[pos.page]->Delete(pos.slot));
  uint16_t page_idx = 0;
  Page* page = PageWithRoom(body.size(), &page_idx);
  if (page == nullptr) return Status::ResourceExhausted("segment full");
  auto slot = page->Insert(body.data(), body.size());
  if (!slot.ok()) return slot.status();
  pk_index_->Insert(key, RecordPos{page_idx, slot.value()});
  ++writes_;
  return Status::OK();
}

Status Segment::Delete(Key key) {
  auto pos = Locate(key);
  return pos.ok() ? DeleteAt(pos.value(), key) : pos.status();
}

Status Segment::DeleteAt(RecordPos pos, Key key) {
  WATTDB_RETURN_IF_ERROR(pages_[pos.page]->Delete(pos.slot));
  pk_index_->Erase(key);
  ++writes_;
  return Status::OK();
}

size_t Segment::ScanRange(Key lo, Key hi,
                          const std::function<bool(const Record&)>& fn) const {
  return pk_index_->Scan(lo, hi, [&](Key key, const RecordPos& pos) {
    auto rec = ReadAt(pos);
    WATTDB_CHECK_MSG(rec.ok(), "index points at missing record, key=" << key);
    return fn(rec.value());
  });
}

size_t Segment::ScanAll(const std::function<bool(const Record&)>& fn) const {
  return ScanRange(kMinKey, kMaxKey, fn);
}

size_t Segment::LiveBytes() const {
  size_t bytes = 0;
  for (const auto& p : pages_) bytes += p->LiveBytes();
  return bytes;
}

Key Segment::MinKey() const {
  Key k = 0;
  if (!pk_index_->LowerBound(kMinKey, &k)) return 0;
  return k;
}

Key Segment::MaxKey() const {
  Key last = 0;
  pk_index_->Scan(kMinKey, kMaxKey, [&](Key k, const RecordPos&) {
    last = k;
    return true;
  });
  return last;
}

bool Segment::CheckInvariants() const {
  if (!pk_index_->CheckInvariants()) return false;
  size_t live = 0;
  for (const auto& p : pages_) {
    if (!p->CheckInvariants()) return false;
    live += p->record_count();
  }
  if (live != pk_index_->size()) return false;
  bool ok = true;
  pk_index_->Scan(kMinKey, kMaxKey, [&](Key key, const RecordPos& pos) {
    auto rec = ReadAt(pos);
    if (!rec.ok() || rec.value().key != key) {
      ok = false;
      return false;
    }
    return true;
  });
  return ok;
}

}  // namespace wattdb::storage
