// Unit + property tests for the storage engine: slotted pages, segments,
// the segment directory, and the buffer manager.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <unordered_map>

#include "common/rng.h"
#include "hw/network.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "storage/segment.h"
#include "storage/segment_manager.h"

namespace wattdb::storage {
namespace {

std::vector<uint8_t> Bytes(size_t n, uint8_t fill = 0xAB) {
  return std::vector<uint8_t>(n, fill);
}

// ------------------------------------------------------------------- Page

TEST(Page, InsertRead) {
  Page p;
  const auto body = Bytes(100, 1);
  auto slot = p.Insert(body.data(), body.size());
  ASSERT_TRUE(slot.ok());
  auto read = p.Read(slot.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().second, 100u);
  EXPECT_EQ(read.value().first[0], 1);
  EXPECT_EQ(p.record_count(), 1);
  EXPECT_TRUE(p.CheckInvariants());
}

TEST(Page, RejectsZeroAndOversize) {
  Page p;
  uint8_t b = 0;
  EXPECT_TRUE(p.Insert(&b, 0).status().IsInvalidArgument());
  const auto huge = Bytes(kPageSize);
  EXPECT_FALSE(p.Insert(huge.data(), huge.size()).ok());
}

TEST(Page, FillsUntilResourceExhausted) {
  Page p;
  const auto body = Bytes(100);
  int inserted = 0;
  while (p.Insert(body.data(), body.size()).ok()) ++inserted;
  // ~8160 usable / 108 per record.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 80);
  EXPECT_TRUE(p.CheckInvariants());
}

TEST(Page, DeleteTombstonesAndReusesSlot) {
  Page p;
  const auto body = Bytes(64);
  auto s0 = p.Insert(body.data(), body.size());
  auto s1 = p.Insert(body.data(), body.size());
  ASSERT_TRUE(s0.ok() && s1.ok());
  ASSERT_TRUE(p.Delete(s0.value()).ok());
  EXPECT_TRUE(p.Read(s0.value()).status().IsNotFound());
  EXPECT_EQ(p.record_count(), 1);
  // New insert reuses the tombstoned slot number.
  auto s2 = p.Insert(body.data(), body.size());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2.value(), s0.value());
  EXPECT_TRUE(p.CheckInvariants());
}

TEST(Page, InsertReusesLowestTombstoneFirst) {
  Page p;
  const auto body = Bytes(64);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(p.Insert(body.data(), 64).ok());
  ASSERT_TRUE(p.Delete(3).ok());
  ASSERT_TRUE(p.Delete(1).ok());
  EXPECT_EQ(p.Insert(body.data(), 64).value(), 1);
  EXPECT_EQ(p.Insert(body.data(), 64).value(), 3);
  EXPECT_EQ(p.Insert(body.data(), 64).value(), 5);  // No tombstone left.
  ASSERT_TRUE(p.Delete(0).ok());
  EXPECT_EQ(p.Insert(body.data(), 64).value(), 0);
  EXPECT_TRUE(p.CheckInvariants());
}

TEST(Page, DeleteInvalidSlot) {
  Page p;
  EXPECT_TRUE(p.Delete(3).IsNotFound());
}

TEST(Page, UpdateInPlaceAndShrink) {
  Page p;
  const auto body = Bytes(100, 7);
  auto slot = p.Insert(body.data(), body.size());
  ASSERT_TRUE(slot.ok());
  const auto smaller = Bytes(40, 9);
  ASSERT_TRUE(p.Update(slot.value(), smaller.data(), smaller.size()).ok());
  auto read = p.Read(slot.value());
  EXPECT_EQ(read.value().second, 40u);
  EXPECT_EQ(read.value().first[0], 9);
  EXPECT_TRUE(p.CheckInvariants());
}

TEST(Page, UpdateGrowRelocatesWithinPage) {
  Page p;
  const auto body = Bytes(100, 7);
  auto slot = p.Insert(body.data(), body.size());
  const auto bigger = Bytes(300, 5);
  ASSERT_TRUE(p.Update(slot.value(), bigger.data(), bigger.size()).ok());
  auto read = p.Read(slot.value());
  EXPECT_EQ(read.value().second, 300u);
  EXPECT_EQ(read.value().first[0], 5);
  EXPECT_TRUE(p.CheckInvariants());
}

TEST(Page, CompactionReclaimsDeletedSpace) {
  Page p;
  const auto body = Bytes(400);
  std::vector<uint16_t> slots;
  while (true) {
    auto s = p.Insert(body.data(), body.size());
    if (!s.ok()) break;
    slots.push_back(s.value());
  }
  // Delete every other record; a fresh large insert must succeed via
  // compaction.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(p.Delete(slots[i]).ok());
  }
  const auto big = Bytes(500, 3);
  EXPECT_TRUE(p.Insert(big.data(), big.size()).ok());
  EXPECT_TRUE(p.CheckInvariants());
  // Survivors unharmed.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_TRUE(p.Read(slots[i]).ok());
  }
}

class PagePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PagePropertyTest, RandomOpsMatchModel) {
  Page p;
  Rng rng(GetParam());
  std::map<uint16_t, std::vector<uint8_t>> model;
  for (int i = 0; i < 2000; ++i) {
    const int op = static_cast<int>(rng.UniformInt(0, 2));
    if (op == 0) {
      auto body = Bytes(static_cast<size_t>(rng.UniformInt(8, 600)),
                        static_cast<uint8_t>(rng.Next()));
      auto slot = p.Insert(body.data(), body.size());
      if (slot.ok()) model[slot.value()] = body;
    } else if (!model.empty()) {
      auto it = model.begin();
      std::advance(it, rng.UniformInt(0, model.size() - 1));
      if (op == 1) {
        auto body = Bytes(static_cast<size_t>(rng.UniformInt(8, 600)),
                          static_cast<uint8_t>(rng.Next()));
        if (p.Update(it->first, body.data(), body.size()).ok()) {
          it->second = body;
        }
      } else {
        ASSERT_TRUE(p.Delete(it->first).ok());
        model.erase(it);
      }
    }
    ASSERT_TRUE(p.CheckInvariants());
  }
  EXPECT_EQ(p.record_count(), model.size());
  for (const auto& [slot, body] : model) {
    auto read = p.Read(slot);
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(read.value().second, body.size());
    EXPECT_EQ(0, memcmp(read.value().first, body.data(), body.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagePropertyTest,
                         ::testing::Values(1, 2, 3, 44, 5555));

// ---------------------------------------------------------------- Segment

TEST(Segment, InsertReadUpdateDelete) {
  Segment seg(SegmentId(1), NodeId(0), DiskId(0));
  ASSERT_TRUE(seg.Insert(42, Bytes(50, 1)).ok());
  auto rec = seg.Read(42);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().key, 42u);
  EXPECT_EQ(rec.value().payload.size(), 50u);
  ASSERT_TRUE(seg.Update(42, Bytes(60, 2)).ok());
  EXPECT_EQ(seg.Read(42).value().payload[0], 2);
  ASSERT_TRUE(seg.Delete(42).ok());
  EXPECT_TRUE(seg.Read(42).status().IsNotFound());
  EXPECT_TRUE(seg.CheckInvariants());
}

TEST(Segment, RejectsDuplicates) {
  Segment seg(SegmentId(1), NodeId(0), DiskId(0));
  ASSERT_TRUE(seg.Insert(1, Bytes(10)).ok());
  EXPECT_TRUE(seg.Insert(1, Bytes(10)).status().IsAlreadyExists());
}

TEST(Segment, SpillsAcrossPages) {
  Segment seg(SegmentId(1), NodeId(0), DiskId(0));
  for (Key k = 0; k < 2000; ++k) {
    ASSERT_TRUE(seg.Insert(k, Bytes(100)).ok());
  }
  EXPECT_GT(seg.page_count(), 20u);
  EXPECT_EQ(seg.record_count(), 2000u);
  EXPECT_TRUE(seg.CheckInvariants());
}

TEST(Segment, ScanRangeOrdered) {
  Segment seg(SegmentId(1), NodeId(0), DiskId(0));
  for (Key k = 100; k > 0; --k) ASSERT_TRUE(seg.Insert(k, Bytes(20)).ok());
  Key prev = 0;
  size_t n = seg.ScanRange(20, 50, [&](const Record& r) {
    EXPECT_GT(r.key, prev);
    prev = r.key;
    return true;
  });
  EXPECT_EQ(n, 30u);
  EXPECT_EQ(seg.MinKey(), 1u);
  EXPECT_EQ(seg.MaxKey(), 100u);
}

TEST(Segment, UpdateGrowAcrossPages) {
  Segment seg(SegmentId(1), NodeId(0), DiskId(0));
  // Fill page 0 nearly full, then grow one record so it must relocate.
  for (Key k = 0; k < 70; ++k) ASSERT_TRUE(seg.Insert(k, Bytes(100)).ok());
  ASSERT_TRUE(seg.Update(0, Bytes(4000, 9)).ok());
  auto rec = seg.Read(0);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().payload.size(), 4000u);
  EXPECT_EQ(rec.value().payload[0], 9);
  EXPECT_TRUE(seg.CheckInvariants());
}

TEST(Segment, UpdateAtRelocatesWhenGrownPastItsPage) {
  Segment seg(SegmentId(1), NodeId(0), DiskId(0));
  for (Key k = 0; k < 70; ++k) ASSERT_TRUE(seg.Insert(k, Bytes(100)).ok());
  auto before = seg.Locate(5);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(seg.UpdateAt(before.value(), 5, Bytes(4000, 9)).ok());
  auto after = seg.Locate(5);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after.value().page, before.value().page);
  auto rec = seg.ReadAt(after.value());
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().key, 5u);
  EXPECT_EQ(rec.value().payload.size(), 4000u);
  EXPECT_EQ(rec.value().payload[0], 9);
  EXPECT_EQ(seg.record_count(), 70u);
  EXPECT_TRUE(seg.CheckInvariants());
  // A grow that still fits stays at its position.
  auto small = seg.Locate(6);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(seg.UpdateAt(small.value(), 6, Bytes(100, 3)).ok());
  EXPECT_EQ(seg.Locate(6).value().page, small.value().page);
  EXPECT_EQ(seg.Read(6).value().payload[0], 3);
}

// The linear first-fit page search that the segment's free-space tree
// replaced, kept as the reference: from the cursor, take the first page with
// room; move the cursor only past leading pages with under 64 free bytes.
class LinearFirstFit {
 public:
  StatusOr<RecordPos> Insert(const std::vector<uint8_t>& body) {
    uint16_t idx = 0;
    Page* page = PageWithRoom(body.size(), &idx);
    if (page == nullptr) return Status::ResourceExhausted("segment full");
    auto slot = page->Insert(body.data(), body.size());
    if (!slot.ok()) return slot.status();
    return RecordPos{idx, slot.value()};
  }

  /// Where the record at `pos` is after growing or shrinking to `body`.
  StatusOr<RecordPos> Update(RecordPos pos, const std::vector<uint8_t>& body) {
    const Status s =
        pages_[pos.page]->Update(pos.slot, body.data(), body.size());
    if (s.ok()) return pos;
    if (!s.IsResourceExhausted()) return s;
    WATTDB_RETURN_IF_ERROR(pages_[pos.page]->Delete(pos.slot));
    return Insert(body);
  }

  Status Delete(RecordPos pos) { return pages_[pos.page]->Delete(pos.slot); }

  size_t page_count() const { return pages_.size(); }

 private:
  Page* PageWithRoom(size_t record_size, uint16_t* out_idx) {
    for (size_t i = cursor_; i < pages_.size(); ++i) {
      if (pages_[i]->HasRoomFor(record_size)) {
        *out_idx = static_cast<uint16_t>(i);
        return pages_[i].get();
      }
      if (pages_[i]->FreeSpace() < 64 && i == cursor_) ++cursor_;
    }
    if (pages_.size() >= kPagesPerSegment) return nullptr;
    pages_.push_back(std::make_unique<Page>());
    *out_idx = static_cast<uint16_t>(pages_.size() - 1);
    return pages_.back().get();
  }

  std::vector<std::unique_ptr<Page>> pages_;
  size_t cursor_ = 0;
};

// Mixed-size inserts, updates that shrink or grow (growing past the page
// relocates the row) and deletes, until the segment is full: every record
// must land where linear first-fit puts it, and both fill at the same op.
TEST(Segment, PagePlacementMatchesLinearFirstFit) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    auto payload = [&rng]() {
      const int64_t kind = rng.UniformInt(0, 9);
      const int64_t size = kind < 4   ? rng.UniformInt(1, 60)
                           : kind < 8 ? rng.UniformInt(100, 500)
                                      : rng.UniformInt(1000, 3000);
      return Bytes(static_cast<size_t>(size));
    };
    Segment seg(SegmentId(1), NodeId(0), DiskId(0));
    LinearFirstFit ref;
    std::vector<Key> live;
    std::unordered_map<Key, RecordPos> ref_pos;
    Key next_key = 0;
    int op = 0;
    bool full = false;
    for (; !full; ++op) {
      ASSERT_LT(op, 1000000) << "segment never filled";
      const int64_t dice = rng.UniformInt(0, 99);
      if (dice < 60 || live.empty()) {
        const Key key = next_key++;
        const auto body = payload();
        auto got = seg.Insert(key, body);
        auto want = ref.Insert(EncodeRecord(key, body));
        ASSERT_EQ(got.ok(), want.ok()) << "op " << op;
        if (!got.ok()) {
          ASSERT_TRUE(got.status().IsResourceExhausted());
          full = true;
          continue;
        }
        ASSERT_EQ(got.value(), want.value()) << "op " << op;
        live.push_back(key);
        ref_pos[key] = want.value();
        continue;
      }
      const size_t victim = rng.UniformInt(0, live.size() - 1);
      const Key key = live[victim];
      const RecordPos pos = seg.Locate(key).value();
      ASSERT_EQ(pos, ref_pos[key]) << "op " << op;
      if (dice < 85) {
        const auto body = payload();
        const Status got = seg.UpdateAt(pos, key, body);
        auto want = ref.Update(pos, EncodeRecord(key, body));
        ASSERT_EQ(got.ok(), want.ok()) << "op " << op;
        if (!got.ok()) {
          ASSERT_TRUE(got.IsResourceExhausted());
          full = true;
          continue;
        }
        ASSERT_EQ(seg.Locate(key).value(), want.value()) << "op " << op;
        ref_pos[key] = want.value();
      } else {
        ASSERT_TRUE(seg.DeleteAt(pos, key).ok());
        ASSERT_TRUE(ref.Delete(pos).ok());
        live[victim] = live.back();
        live.pop_back();
        ref_pos.erase(key);
      }
    }
    EXPECT_EQ(seg.page_count(), ref.page_count());
    EXPECT_EQ(seg.page_count(), kPagesPerSegment);
    EXPECT_GT(op, 10000);
  }
}

TEST(Segment, FailedRelocationInAFullSegmentKeepsTheRecord) {
  // Fill a segment with 100-byte records, then grow one past its page:
  // no page has room and no page can be added, so the update must fail
  // and leave the old record where it was, readable, with the index and
  // every page consistent. A later grow that fits in place still works.
  Segment seg(SegmentId(1), NodeId(0), DiskId(0));
  Key next = 0;
  while (seg.Insert(next, Bytes(100, 1)).ok()) ++next;
  ASSERT_EQ(next, 286720u);
  ASSERT_EQ(seg.page_count(), kPagesPerSegment);
  const RecordPos before = seg.Locate(5).value();

  const Status grown = seg.Update(5, Bytes(4000, 9));
  EXPECT_TRUE(grown.IsResourceExhausted()) << grown.ToString();
  auto rec = seg.Read(5);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value().payload, Bytes(100, 1));
  EXPECT_EQ(seg.Locate(5).value().page, before.page);
  EXPECT_EQ(seg.Locate(5).value().slot, before.slot);
  EXPECT_EQ(seg.record_count(), 286720u);
  EXPECT_TRUE(seg.CheckInvariants());

  // A body no page could ever hold is refused with the record kept too.
  EXPECT_TRUE(seg.Update(5, Bytes(kPageSize, 9)).IsInvalidArgument());
  EXPECT_EQ(seg.Read(5).value().payload, Bytes(100, 1));

  ASSERT_TRUE(seg.Update(5, Bytes(90, 4)).ok());
  EXPECT_EQ(seg.Read(5).value().payload, Bytes(90, 4));
  EXPECT_TRUE(seg.CheckInvariants());
}

TEST(Segment, DeleteAtRemovesRecordAndIndexEntry) {
  Segment seg(SegmentId(1), NodeId(0), DiskId(0));
  for (Key k = 0; k < 10; ++k) ASSERT_TRUE(seg.Insert(k, Bytes(100)).ok());
  auto pos = seg.Locate(4);
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(seg.DeleteAt(pos.value(), 4).ok());
  EXPECT_FALSE(seg.Contains(4));
  EXPECT_TRUE(seg.Read(4).status().IsNotFound());
  EXPECT_EQ(seg.record_count(), 9u);
  EXPECT_TRUE(seg.CheckInvariants());
}

TEST(Segment, RelocateUpdatesPlacement) {
  Segment seg(SegmentId(1), NodeId(0), DiskId(0));
  seg.Relocate(NodeId(3), DiskId(9));
  EXPECT_EQ(seg.storage_node(), NodeId(3));
  EXPECT_EQ(seg.disk(), DiskId(9));
}

TEST(Segment, ByteAccounting) {
  Segment seg(SegmentId(1), NodeId(0), DiskId(0));
  ASSERT_TRUE(seg.Insert(1, Bytes(92)).ok());
  EXPECT_EQ(seg.LiveBytes(), 100u);  // 8-byte key prefix + payload.
  EXPECT_EQ(seg.DiskBytes(), kPageSize);
  EXPECT_GT(seg.IndexBytes(), 0u);
}

// ---------------------------------------------------------- SegmentManager

TEST(SegmentManager, CreateGetDrop) {
  SegmentManager mgr;
  Segment* a = mgr.Create(NodeId(0), DiskId(0));
  Segment* b = mgr.Create(NodeId(1), DiskId(3));
  ASSERT_NE(a, nullptr);
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(mgr.Get(a->id()), a);
  EXPECT_EQ(mgr.size(), 2u);
  // Save the id: Drop frees the segment `a` points at.
  const SegmentId a_id = a->id();
  ASSERT_TRUE(mgr.Drop(a_id).ok());
  EXPECT_EQ(mgr.Get(a_id), nullptr);
  EXPECT_TRUE(mgr.Drop(a_id).IsNotFound());
}

TEST(SegmentManager, SegmentsOnFiltersByNode) {
  SegmentManager mgr;
  mgr.Create(NodeId(0), DiskId(0));
  mgr.Create(NodeId(1), DiskId(3));
  Segment* c = mgr.Create(NodeId(0), DiskId(1));
  EXPECT_EQ(mgr.SegmentsOn(NodeId(0)).size(), 2u);
  EXPECT_EQ(mgr.SegmentsOn(NodeId(1)).size(), 1u);
  ASSERT_TRUE(mgr.Relocate(c->id(), NodeId(1), DiskId(4)).ok());
  EXPECT_EQ(mgr.SegmentsOn(NodeId(1)).size(), 2u);
}

// ------------------------------------------------------------ BufferManager

struct BufferRig {
  SegmentManager segments;
  hw::Network network;
  hw::Disk local_disk{DiskId(0), NodeId(0), hw::DiskSpec::Ssd(), "local"};
  hw::Disk remote_disk{DiskId(1), NodeId(1), hw::DiskSpec::Ssd(), "remote"};
  std::unique_ptr<BufferManager> buffer;

  explicit BufferRig(size_t capacity) {
    network.AddNode(NodeId(0));
    network.AddNode(NodeId(1));
    BufferSpec spec;
    spec.capacity_pages = capacity;
    buffer = std::make_unique<BufferManager>(
        NodeId(0), spec, &segments, &network, [this](DiskId d) {
          return d == DiskId(0) ? &local_disk : &remote_disk;
        });
  }
};

TEST(BufferManager, MissThenHit) {
  BufferRig rig(10);
  Segment* seg = rig.segments.Create(NodeId(0), DiskId(0));
  ASSERT_TRUE(seg->Insert(1, Bytes(10)).ok());
  auto miss = rig.buffer->FetchPage(0, seg->id(), 0, false);
  EXPECT_FALSE(miss.hit);
  EXPECT_GT(miss.disk_us, 0);
  auto hit = rig.buffer->FetchPage(miss.done, seg->id(), 0, false);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.disk_us, 0);
  EXPECT_LT(hit.done - miss.done, 100);
  EXPECT_EQ(rig.buffer->hits(), 1);
  EXPECT_EQ(rig.buffer->misses(), 1);
}

TEST(BufferManager, EvictsLruAndWritesBackDirty) {
  BufferRig rig(2);
  Segment* seg = rig.segments.Create(NodeId(0), DiskId(0));
  SimTime t = 0;
  t = rig.buffer->FetchPage(t, seg->id(), 0, true).done;   // Dirty.
  t = rig.buffer->FetchPage(t, seg->id(), 1, false).done;
  t = rig.buffer->FetchPage(t, seg->id(), 2, false).done;  // Evicts page 0.
  EXPECT_EQ(rig.buffer->dirty_writebacks(), 1);
  auto again = rig.buffer->FetchPage(t, seg->id(), 0, false);
  EXPECT_FALSE(again.hit);  // Was evicted.
  EXPECT_LE(rig.buffer->resident_pages(), 2u);
}

TEST(BufferManager, RemoteDiskPaysNetwork) {
  BufferRig rig(10);
  Segment* seg = rig.segments.Create(NodeId(1), DiskId(1));  // Remote bytes.
  auto acc = rig.buffer->FetchPage(0, seg->id(), 0, false);
  EXPECT_TRUE(acc.remote_disk);
  EXPECT_GT(acc.net_us, 0);
  EXPECT_GT(acc.disk_us, 0);
  // Much slower than a local SSD miss.
  BufferRig rig2(10);
  Segment* seg2 = rig2.segments.Create(NodeId(0), DiskId(0));
  auto local = rig2.buffer->FetchPage(0, seg2->id(), 0, false);
  EXPECT_GT(acc.done, local.done * 2);
}

TEST(BufferManager, RemoteMemoryTierAbsorbsEvictions) {
  BufferRig rig(2);
  rig.buffer->AttachRemoteTier(NodeId(1), 100);
  Segment* seg = rig.segments.Create(NodeId(0), DiskId(0));
  SimTime t = 0;
  t = rig.buffer->FetchPage(t, seg->id(), 0, false).done;
  t = rig.buffer->FetchPage(t, seg->id(), 1, false).done;
  t = rig.buffer->FetchPage(t, seg->id(), 2, false).done;  // Evicts 0 to tier.
  auto back = rig.buffer->FetchPage(t, seg->id(), 0, false);
  EXPECT_TRUE(back.remote_memory);
  EXPECT_EQ(back.disk_us, 0);  // No disk access: rDMA fetch.
  EXPECT_GT(back.net_us, 0);
  EXPECT_EQ(rig.buffer->remote_memory_hits(), 1);
  rig.buffer->DetachRemoteTier();
  EXPECT_FALSE(rig.buffer->HasRemoteTier());
}

TEST(BufferManager, InvalidateSegmentDropsFrames) {
  BufferRig rig(10);
  Segment* seg = rig.segments.Create(NodeId(0), DiskId(0));
  rig.buffer->FetchPage(0, seg->id(), 0, false);
  EXPECT_EQ(rig.buffer->resident_pages(), 1u);
  rig.buffer->InvalidateSegment(seg->id());
  EXPECT_EQ(rig.buffer->resident_pages(), 0u);
}

TEST(BufferManager, MaintenancePinsInflateLatch) {
  BufferRig rig(10);
  Segment* seg = rig.segments.Create(NodeId(0), DiskId(0));
  auto before = rig.buffer->FetchPage(0, seg->id(), 0, false);
  rig.buffer->AddMaintenancePins(2048);
  auto during = rig.buffer->FetchPage(before.done, seg->id(), 0, false);
  EXPECT_GT(during.latch_us, before.latch_us);
  rig.buffer->ReleaseMaintenancePins(2048);
  auto after = rig.buffer->FetchPage(during.done, seg->id(), 0, false);
  EXPECT_EQ(after.latch_us, before.latch_us);
}

}  // namespace
}  // namespace wattdb::storage
