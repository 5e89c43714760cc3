#include "tx/version_store.h"

#include <algorithm>

#include "common/logging.h"

namespace wattdb::tx {

Status VersionStore::Write(TableId table, Key key, const Txn& txn,
                           std::optional<std::vector<uint8_t>> prior_in_page,
                           std::optional<std::vector<uint8_t>> new_payload,
                           bool deleted) {
  const ChainKey ck{table, key};
  auto it = chains_.lower_bound(ck);
  if (it == chains_.end() || ck < it->first) {
    Chain chain;
    if (prior_in_page.has_value()) {
      // Materialize the implicit bulk-loaded version so old readers keep a
      // copy; it has been visible since timestamp 0.
      Version pre;
      pre.begin_ts = 0;
      pre.end_ts = kInfinityTs;  // Sealed below.
      pre.committed = true;
      pre.payload = std::move(*prior_in_page);
      overhead_bytes_ += VersionBytes(pre);
      chain.push_back(std::move(pre));
    }
    it = chains_.emplace_hint(it, ck, std::move(chain));
  }
  Chain& chain = it->second;
  if (!chain.empty()) {
    Version& newest = chain.back();
    if (!newest.committed && newest.writer != txn.id) {
      return Status::Busy("write-write conflict");
    }
    if (!newest.committed && newest.writer == txn.id) {
      // Same transaction overwrites its own provisional version in place.
      overhead_bytes_ -= VersionBytes(newest);
      newest.deleted = deleted;
      newest.payload = new_payload.value_or(std::vector<uint8_t>{});
      overhead_bytes_ += VersionBytes(newest);
      return Status::OK();
    }
  }
  Version v;
  v.begin_ts = 0;  // Stamped at commit.
  v.committed = false;
  v.writer = txn.id;
  v.deleted = deleted;
  if (new_payload.has_value()) v.payload = std::move(*new_payload);
  overhead_bytes_ += VersionBytes(v);
  chain.push_back(std::move(v));
  write_sets_[txn.id].push_back(it);
  return Status::OK();
}

void VersionStore::Commit(const Txn& txn) {
  WATTDB_CHECK(txn.commit_ts != 0);
  auto ws = write_sets_.find(txn.id);
  if (ws == write_sets_.end()) return;
  for (const ChainMap::iterator& it : ws->second) {
    Chain& chain = it->second;
    Version& newest = chain.back();
    if (!newest.committed && newest.writer == txn.id) {
      newest.committed = true;
      newest.begin_ts = txn.commit_ts;
      if (chain.size() >= 2) {
        chain[chain.size() - 2].end_ts = txn.commit_ts;
      }
    }
  }
  write_sets_.erase(ws);
}

std::vector<VersionStore::UndoEntry> VersionStore::Abort(const Txn& txn) {
  std::vector<UndoEntry> undo;
  auto ws = write_sets_.find(txn.id);
  if (ws == write_sets_.end()) return undo;
  for (const ChainMap::iterator& it : ws->second) {
    Chain& chain = it->second;
    if (!chain.back().committed && chain.back().writer == txn.id) {
      overhead_bytes_ -= VersionBytes(chain.back());
      chain.pop_back();
      UndoEntry e;
      e.table = it->first.table;
      e.key = it->first.key;
      if (!chain.empty() && !chain.back().deleted) {
        e.pre_image = chain.back().payload;
        chain.back().end_ts = kInfinityTs;
      }
      undo.push_back(std::move(e));
      if (chain.empty()) chains_.erase(it);
    }
  }
  write_sets_.erase(ws);
  return undo;
}

VersionStore::ReadView VersionStore::Resolve(const Chain& chain,
                                             Timestamp snapshot,
                                             TxnId self) const {
  ReadView view;
  // Walk newest -> oldest for the first visible version.
  for (auto v = chain.rbegin(); v != chain.rend(); ++v) {
    const bool own = !v->committed && v->writer == self;
    const bool committed_visible = v->committed && v->begin_ts <= snapshot;
    if (!own && !committed_visible) continue;
    if (v->deleted) {
      view.source = ReadView::Source::kDeleted;
      return view;
    }
    // The newest version is what the data page materializes; any older one
    // must be served from the chain.
    const bool is_newest = (v == chain.rbegin());
    if (is_newest) {
      view.source = ReadView::Source::kPage;
    } else {
      view.source = ReadView::Source::kChain;
      view.payload = &v->payload;
    }
    return view;
  }
  view.source = ReadView::Source::kInvisible;
  return view;
}

VersionStore::ReadView VersionStore::Read(TableId table, Key key,
                                          Timestamp snapshot,
                                          TxnId self) const {
  auto it = chains_.find(ChainKey{table, key});
  if (it == chains_.end()) {
    return ReadView{};  // kPage: bulk-loaded or never written.
  }
  return Resolve(it->second, snapshot, self);
}

void VersionStore::ForEachResolvedInRange(
    TableId table, Key lo, Key hi, Timestamp snapshot, TxnId self,
    const std::function<void(Key, const ReadView&)>& fn) const {
  auto it = chains_.lower_bound(ChainKey{table, lo});
  for (; it != chains_.end(); ++it) {
    if (it->first.table != table || it->first.key >= hi) break;
    fn(it->first.key, Resolve(it->second, snapshot, self));
  }
}

bool VersionStore::HasConflictingWriter(TableId table, Key key,
                                        TxnId self) const {
  auto it = chains_.find(ChainKey{table, key});
  if (it == chains_.end() || it->second.empty()) return false;
  const Version& newest = it->second.back();
  return !newest.committed && newest.writer != self;
}

void VersionStore::Gc(Timestamp min_active) {
  for (auto it = chains_.begin(); it != chains_.end();) {
    Chain& chain = it->second;
    // Drop superseded versions no active snapshot can reach.
    while (chain.size() > 1 && chain.front().committed &&
           chain.front().end_ts != kInfinityTs &&
           chain.front().end_ts <= min_active) {
      overhead_bytes_ -= VersionBytes(chain.front());
      chain.erase(chain.begin());
    }
    // A single committed live version older than every snapshot is fully
    // mirrored by the data page; the chain itself can go.
    if (chain.size() == 1 && chain.front().committed &&
        !chain.front().deleted && chain.front().end_ts == kInfinityTs &&
        chain.front().begin_ts < min_active) {
      overhead_bytes_ -= VersionBytes(chain.front());
      it = chains_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t VersionStore::VersionCount() const {
  size_t n = 0;
  for (const auto& [ck, chain] : chains_) n += chain.size();
  return n;
}

}  // namespace wattdb::tx
