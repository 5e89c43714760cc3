// The history checker as it was before the invocation-order window, kept
// as the reference for the differential test in test_linearize.cc: each
// state scans every unsettled op in record order for the frontier and again
// for its successors, every state is memoized, and the per-key split is a
// std::map of slices holding a std::set and a std::map each. Only the
// comments are gone and the count of search states each key spent is
// added; the code is otherwise the old src/chaos/linearize.cc.

#ifndef WATTDB_TESTS_LINEARIZE_REFERENCE_H_
#define WATTDB_TESTS_LINEARIZE_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "chaos/history.h"

namespace wattdb::chaos::reference {
namespace {

constexpr SimTime kInfTime = std::numeric_limits<SimTime>::max();

struct SearchOp {
  const HistoryOp* op = nullptr;
  SimTime inv = 0;
  SimTime resp = kInfTime;
  bool optional = false;
};

struct RegisterOp {
  SimTime inv = 0;
  SimTime resp = kInfTime;
  uint64_t seq = 0;
  OpKind kind = OpKind::kRead;
  bool optional = false;
};

struct SearchArena {
  std::vector<RegisterOp> ops;
  std::vector<uint64_t> observed;
  std::vector<uint64_t> stack;
  std::vector<uint64_t> cur;
  std::vector<uint64_t> memo_keys;
  std::vector<uint64_t> memo_hashes;
  std::vector<uint32_t> memo_slots;
};

uint64_t HashState(const uint64_t* key, size_t len) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= key[i] + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

size_t FreeSlot(const std::vector<uint32_t>& slots, uint64_t h) {
  const size_t mask = slots.size() - 1;
  size_t i = h & mask;
  while (slots[i] != 0) i = (i + 1) & mask;
  return i;
}

bool MemoInsert(SearchArena* a, const uint64_t* rec, size_t len) {
  const uint64_t h = HashState(rec, len);
  const size_t mask = a->memo_slots.size() - 1;
  for (size_t i = h & mask; a->memo_slots[i] != 0; i = (i + 1) & mask) {
    const size_t idx = a->memo_slots[i] - 1;
    if (a->memo_hashes[idx] == h &&
        std::equal(rec, rec + len, a->memo_keys.begin() + idx * len)) {
      return false;
    }
  }
  const size_t count = a->memo_hashes.size();
  if (2 * (count + 1) > a->memo_slots.size()) {
    a->memo_slots.assign(2 * a->memo_slots.size(), 0);
    for (size_t idx = 0; idx < count; ++idx) {
      a->memo_slots[FreeSlot(a->memo_slots, a->memo_hashes[idx])] =
          static_cast<uint32_t>(idx + 1);
    }
  }
  a->memo_slots[FreeSlot(a->memo_slots, h)] = static_cast<uint32_t>(count + 1);
  a->memo_keys.insert(a->memo_keys.end(), rec, rec + len);
  a->memo_hashes.push_back(h);
  return true;
}

bool Linearizable(const std::vector<SearchOp>& ops, uint64_t initial,
                  int64_t* budget, bool* over_budget, SearchArena* a) {
  a->observed.clear();
  for (const SearchOp& s : ops) {
    if (s.op->kind == OpKind::kRead) a->observed.push_back(s.op->seq);
  }
  std::sort(a->observed.begin(), a->observed.end());
  a->ops.clear();
  for (const SearchOp& s : ops) {
    const uint64_t effect = s.op->kind == OpKind::kWrite ? s.op->seq : 0;
    if (s.optional && s.op->kind != OpKind::kRead &&
        !std::binary_search(a->observed.begin(), a->observed.end(), effect)) {
      continue;
    }
    a->ops.push_back({s.inv, s.resp, s.op->seq, s.op->kind, s.optional});
  }

  const size_t n = a->ops.size();
  if (n == 0) return true;
  const size_t words = (n + 63) / 64;
  const size_t key_len = words + 1;
  const size_t rec_len = words + 2;
  const uint64_t last_word_bits =
      n % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (n % 64)) - 1;
  const auto unsettled = [&](const uint64_t* mask, size_t w) {
    return ~mask[w] & (w + 1 == words ? last_word_bits : ~uint64_t{0});
  };

  a->memo_keys.clear();
  a->memo_hashes.clear();
  a->memo_slots.assign(64, 0);
  a->stack.assign(rec_len, 0);
  a->stack[words] = initial;
  a->cur.resize(rec_len);
  uint64_t* cur = a->cur.data();

  while (!a->stack.empty()) {
    if (--(*budget) <= 0) {
      *over_budget = true;
      return true;
    }
    std::copy(a->stack.end() - rec_len, a->stack.end(), cur);
    a->stack.resize(a->stack.size() - rec_len);
    const uint64_t value = cur[words];
    const uint64_t settled = cur[words + 1];
    if (settled == n) return true;
    if (!MemoInsert(a, cur, key_len)) continue;

    SimTime frontier = kInfTime;
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t open = unsettled(cur, w); open != 0; open &= open - 1) {
        const RegisterOp& op = a->ops[64 * w + __builtin_ctzll(open)];
        frontier = std::min(frontier, op.resp);
      }
    }
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t open = unsettled(cur, w); open != 0; open &= open - 1) {
        const unsigned bit = __builtin_ctzll(open);
        const RegisterOp& op = a->ops[64 * w + bit];
        if (op.inv > frontier) continue;
        const auto push = [&](uint64_t next_value) {
          a->stack.insert(a->stack.end(), cur, cur + rec_len);
          uint64_t* next = a->stack.data() + a->stack.size() - rec_len;
          next[w] |= uint64_t{1} << bit;
          next[words] = next_value;
          next[words + 1] = settled + 1;
        };
        switch (op.kind) {
          case OpKind::kRead:
            if (op.seq == value) push(value);
            break;
          case OpKind::kWrite:
            push(op.seq);
            break;
          case OpKind::kDelete:
            push(0);
            break;
          case OpKind::kTxn:
            break;
        }
        if (op.optional) push(value);
      }
    }
  }
  return false;
}

const HistoryOp* OpRespondingAt(const std::vector<SearchOp>& ops, SimTime t) {
  for (const SearchOp& s : ops) {
    if (s.resp == t) return s.op;
  }
  return nullptr;
}

std::string NameAnomaly(const std::vector<SearchOp>& ops,
                        const HistoryOp* offender, Key key) {
  const std::string where = "key " + std::to_string(key);
  if (offender == nullptr || offender->kind != OpKind::kRead) {
    return "non-linearizable history on " + where +
           " (no valid linearization of its committed ops exists)";
  }
  const SearchOp* latest_prior_write = nullptr;
  for (const SearchOp& s : ops) {
    if (s.op->kind != OpKind::kWrite && s.op->kind != OpKind::kDelete) {
      continue;
    }
    if (s.optional || s.resp >= offender->invoked_at) continue;
    if (latest_prior_write == nullptr || s.resp > latest_prior_write->resp) {
      latest_prior_write = &s;
    }
  }
  const std::string read_desc =
      "read (op " + std::to_string(offender->id) + ", t=[" +
      std::to_string(offender->invoked_at) + "," +
      std::to_string(offender->responded_at) + "]us)";
  if (latest_prior_write != nullptr &&
      latest_prior_write->op->kind == OpKind::kWrite &&
      latest_prior_write->op->seq != offender->seq) {
    if (offender->seq == 0) {
      return "lost read on " + where + ": " + read_desc +
             " observed the key absent although seq " +
             std::to_string(latest_prior_write->op->seq) +
             " had committed before the read began";
    }
    return "stale read on " + where + ": " + read_desc + " observed seq " +
           std::to_string(offender->seq) + " although seq " +
           std::to_string(latest_prior_write->op->seq) +
           " had committed before the read began";
  }
  return "non-linearizable read on " + where + ": " + read_desc +
         " observed seq " + std::to_string(offender->seq) +
         ", which no linearization of the concurrent writes can produce";
}

struct KeySlice {
  std::vector<SearchOp> strict;
  std::vector<const HistoryOp*> replica_reads;
  std::set<uint64_t> failed_seqs;
  std::set<uint64_t> written_seqs;
  std::map<uint64_t, SimTime> write_invoked;
  SimTime first_delete_inv = kInfTime;
  bool has_initial = false;
  uint64_t initial = 0;
};

std::string CheckObservedValue(const KeySlice& ks, const HistoryOp& read) {
  if (read.seq == 0) return "";
  if (ks.has_initial && read.seq == ks.initial) return "";
  if (ks.failed_seqs.count(read.seq) > 0) {
    return "read observed seq " + std::to_string(read.seq) +
           " of a refused/rolled-back write on key " +
           std::to_string(read.key) + " (definitely never committed)";
  }
  auto it = ks.write_invoked.find(read.seq);
  if (it == ks.write_invoked.end()) {
    return "read observed seq " + std::to_string(read.seq) + " on key " +
           std::to_string(read.key) + " that no recorded write ever wrote";
  }
  if (it->second > read.responded_at) {
    return "read on key " + std::to_string(read.key) + " observed seq " +
           std::to_string(read.seq) +
           " before the write of that value was even invoked";
  }
  return "";
}

std::string CheckReplicaRead(const KeySlice& ks, const HistoryOp& read) {
  const std::string bad = CheckObservedValue(ks, read);
  if (!bad.empty()) return "replica " + bad;
  if (read.seq == 0 && ks.has_initial &&
      ks.first_delete_inv > read.responded_at) {
    return "replica read on key " + std::to_string(read.key) +
           " observed the key absent although it was loaded before the "
           "window and never deleted";
  }
  return "";
}

struct Truncation {
  std::vector<SearchOp> ops;
  SimTime cut = kInfTime;
  const HistoryOp* offender = nullptr;
};

Truncation MinimalFailingTruncation(const std::vector<SearchOp>& full,
                                    uint64_t initial, int64_t* budget,
                                    bool* over_budget, SearchArena* arena) {
  std::vector<SimTime> cuts;
  for (const SearchOp& s : full) {
    if (s.resp != kInfTime) cuts.push_back(s.resp);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (SimTime cut : cuts) {
    std::vector<SearchOp> sub;
    for (const SearchOp& s : full) {
      if (s.inv > cut) continue;
      SearchOp t = s;
      if (s.resp > cut) {
        if (s.op->kind == OpKind::kRead) continue;
        t.resp = kInfTime;
        t.optional = true;
      }
      sub.push_back(t);
    }
    if (!Linearizable(sub, initial, budget, over_budget, arena)) {
      return Truncation{std::move(sub), cut, OpRespondingAt(full, cut)};
    }
    if (*over_budget) break;
  }
  return Truncation{full, kInfTime, nullptr};
}

HistoryCheckResult CheckHistory(const HistoryRecorder& recorder) {
  HistoryCheckResult result;

  std::map<Key, KeySlice> keys;
  for (const auto& [key, seq] : recorder.initial()) {
    KeySlice& ks = keys[key];
    ks.has_initial = true;
    ks.initial = seq;
  }
  for (const HistoryOp& op : recorder.ops()) {
    if (op.kind == OpKind::kTxn) continue;
    KeySlice& ks = keys[op.key];
    ++result.ops_checked;
    switch (op.kind) {
      case OpKind::kWrite:
      case OpKind::kDelete: {
        if (op.outcome == OpOutcome::kFailed) {
          ks.failed_seqs.insert(op.seq);
          break;
        }
        if (op.kind == OpKind::kWrite) {
          ks.written_seqs.insert(op.seq);
          ks.write_invoked[op.seq] = op.invoked_at;
        } else {
          ks.first_delete_inv = std::min(ks.first_delete_inv, op.invoked_at);
        }
        SearchOp s;
        s.op = &op;
        s.inv = op.invoked_at;
        s.resp = op.outcome == OpOutcome::kIndeterminate ? kInfTime
                                                         : op.responded_at;
        s.optional = op.outcome == OpOutcome::kIndeterminate;
        ks.strict.push_back(s);
        break;
      }
      case OpKind::kRead: {
        if (op.outcome != OpOutcome::kOk) break;
        if (op.from_replica) {
          ks.replica_reads.push_back(&op);
          break;
        }
        SearchOp s;
        s.op = &op;
        s.inv = op.invoked_at;
        s.resp = op.responded_at;
        ks.strict.push_back(s);
        break;
      }
      case OpKind::kTxn:
        break;
    }
  }

  constexpr int64_t kBudgetPerKey = 400000;
  SearchArena arena;
  for (auto& [key, ks] : keys) {
    ++result.keys_checked;

    bool screened = false;
    for (const SearchOp& s : ks.strict) {
      if (s.op->kind != OpKind::kRead) continue;
      const std::string bad = CheckObservedValue(ks, *s.op);
      if (!bad.empty()) {
        HistoryViolation v;
        v.anomaly = bad;
        v.key = key;
        for (const SearchOp& o : ks.strict) v.sub_history.push_back(*o.op);
        result.violations.push_back(std::move(v));
        screened = true;
        break;
      }
    }
    for (const HistoryOp* r : ks.replica_reads) {
      const std::string bad = CheckReplicaRead(ks, *r);
      if (!bad.empty()) {
        HistoryViolation v;
        v.anomaly = bad;
        v.key = key;
        v.sub_history.push_back(*r);
        for (const SearchOp& o : ks.strict) v.sub_history.push_back(*o.op);
        result.violations.push_back(std::move(v));
        break;
      }
    }
    if (screened) continue;

    int64_t budget = kBudgetPerKey;
    bool over_budget = false;
    const uint64_t initial = ks.has_initial ? ks.initial : 0;
    if (Linearizable(ks.strict, initial, &budget, &over_budget, &arena)) {
      result.search_states += kBudgetPerKey - budget;
      if (over_budget) ++result.keys_over_budget;
      continue;
    }
    Truncation min_fail = MinimalFailingTruncation(ks.strict, initial, &budget,
                                                   &over_budget, &arena);
    result.search_states += kBudgetPerKey - budget;
    HistoryViolation v;
    v.anomaly = NameAnomaly(min_fail.ops, min_fail.offender, key);
    v.key = key;
    std::vector<const HistoryOp*> subset;
    for (const SearchOp& s : min_fail.ops) subset.push_back(s.op);
    std::sort(subset.begin(), subset.end(),
              [](const HistoryOp* a, const HistoryOp* b) {
                return a->id < b->id;
              });
    for (const HistoryOp* o : subset) v.sub_history.push_back(*o);
    result.violations.push_back(std::move(v));
  }
  return result;
}

}  // namespace
}  // namespace wattdb::chaos::reference

#endif  // WATTDB_TESTS_LINEARIZE_REFERENCE_H_
