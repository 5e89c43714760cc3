// Per-key register linearizability checking of recorded histories
// (Wing & Gong 1993 style state-space search, with the memoization of
// Lowe 2017). The register semantics: a committed write sets the value, a
// committed delete clears it, a committed read must observe the current
// value at some instant within its [invocation, response] window.
//
// Per-key independence decomposition keeps the search tractable: register
// ops on different keys commute, so a history is linearizable iff each
// key's sub-history is — and each sub-history is small even when the full
// history has tens of thousands of ops.
//
// Outcome handling follows the client's knowledge: kFailed ops definitely
// had no effect (observing their value is a violation on its own),
// kIndeterminate ops may or may not have taken effect (infinite response
// time, and the search may omit them entirely), and reads served by
// bounded-staleness warm replicas are exempt from the strict register
// check — they get the relaxed visibility rules in CheckReplicaRead,
// which flags only *definite* anomalies so a legitimately stale (but
// bounded) replica read never fails the scenario.
//
// Pruning: before searching, an indeterminate write whose value no strict
// read observes is dropped, as is an indeterminate delete when no strict
// read observes the key absent. Such an op never blocks the frontier (its
// response is infinite) yet doubles the state space, and dropping it keeps
// the verdict: in any linearization no read sits between it and the next
// write, so omitting it leaves every read valid; and a linearization of
// the pruned history is one of the full history that omits it.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "chaos/history.h"

namespace wattdb::chaos {

namespace {

constexpr SimTime kInfTime = std::numeric_limits<SimTime>::max();

/// One op prepared for the search: response lifted to infinity for
/// indeterminate outcomes, plus whether the search may omit it.
struct SearchOp {
  const HistoryOp* op = nullptr;
  SimTime inv = 0;
  SimTime resp = kInfTime;
  bool optional = false;  ///< kIndeterminate: may never have taken effect.
};

/// A search op flattened so expanding a state touches no HistoryOp.
struct RegisterOp {
  SimTime inv = 0;
  SimTime resp = kInfTime;
  uint64_t seq = 0;
  OpKind kind = OpKind::kRead;
  bool optional = false;
};

/// Arenas the search reuses across keys and truncation cuts, so a search
/// allocates nothing per state. A search state is (settled mask, register
/// value): which ops are settled (linearized or omitted) and the value
/// they produced. Two interleavings reaching the same pair are equivalent
/// for everything that follows, so the pair is the memo key.
struct SearchArena {
  /// The ops left after pruning.
  std::vector<RegisterOp> ops;
  /// Values strict reads observe, sorted (the pruning test).
  std::vector<uint64_t> observed;
  /// LIFO stack of (mask words, value, settled) records.
  std::vector<uint64_t> stack;
  /// The popped record being expanded.
  std::vector<uint64_t> cur;
  /// Memo: (mask words, value) records, their hashes, and an open-addressed
  /// table of record index + 1 (0 = empty slot).
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

/// First empty slot on `h`'s linear probe sequence.
size_t FreeSlot(const std::vector<uint32_t>& slots, uint64_t h) {
  const size_t mask = slots.size() - 1;
  size_t i = h & mask;
  while (slots[i] != 0) i = (i + 1) & mask;
  return i;
}

/// Insert the (mask, value) prefix of `rec` (`len` words) into the memo;
/// false when it was already there.
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
    // Grow: double the table and re-place every record by its hash.
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

/// Iterative-deepening-free DFS over linearization orders with state
/// memoization, run on `ops` minus its unobserved indeterminate writes and
/// deletes (the pruning rule in the file comment: the verdict is the same
/// with or without them). Returns true when a valid linearization exists;
/// sets `over_budget` (and returns true, i.e. no violation claimed) when
/// the state budget is exhausted first.
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
      continue;  // Unobserved and may be omitted: the verdict is unchanged.
    }
    a->ops.push_back({s.inv, s.resp, s.op->seq, s.op->kind, s.optional});
  }

  const size_t n = a->ops.size();
  if (n == 0) return true;
  const size_t words = (n + 63) / 64;
  const size_t key_len = words + 1;  // Mask words, then the value.
  const size_t rec_len = words + 2;  // Key, then the settled count.
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

    // Earliest response among unsettled ops: any op invoked after it
    // strictly follows an unsettled op in real time and cannot go next.
    SimTime frontier = kInfTime;
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t open = unsettled(cur, w); open != 0; open &= open - 1) {
        const RegisterOp& op = a->ops[64 * w + __builtin_ctzll(open)];
        frontier = std::min(frontier, op.resp);
      }
    }
    // Successors in ascending op order, each op's effect before its skip.
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t open = unsettled(cur, w); open != 0; open &= open - 1) {
        const unsigned bit = __builtin_ctzll(open);
        const RegisterOp& op = a->ops[64 * w + bit];
        if (op.inv > frontier) continue;  // Some unsettled op precedes it.
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
            break;  // Never part of a register history.
        }
        // The indeterminate op never took effect: settle it with no change.
        if (op.optional) push(value);
      }
    }
  }
  return false;
}

/// The op completing at cut time `t` — the op a minimal failing truncation
/// newly exposed (every earlier cut passed).
const HistoryOp* OpRespondingAt(const std::vector<SearchOp>& ops, SimTime t) {
  for (const SearchOp& s : ops) {
    if (s.resp == t) return s.op;
  }
  return nullptr;
}

/// Human name for the anomaly the failing (sub-)history exhibits, keyed on
/// the offending op. Falls back to the generic statement when the shape is
/// not one of the recognizable read anomalies.
std::string NameAnomaly(const std::vector<SearchOp>& ops,
                        const HistoryOp* offender, Key key) {
  const std::string where = "key " + std::to_string(key);
  if (offender == nullptr || offender->kind != OpKind::kRead) {
    return "non-linearizable history on " + where +
           " (no valid linearization of its committed ops exists)";
  }
  // Writes that *definitely* preceded the offending read (responded before
  // it was invoked) — what the read was at minimum required to reflect.
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

/// Everything the checker knows about one key.
struct KeySlice {
  std::vector<SearchOp> strict;          ///< Owner reads + effectful writes.
  std::vector<const HistoryOp*> replica_reads;
  std::set<uint64_t> failed_seqs;        ///< Values that must never surface.
  std::set<uint64_t> written_seqs;       ///< ok/indeterminate write values.
  std::map<uint64_t, SimTime> write_invoked;  ///< seq -> invocation time.
  SimTime first_delete_inv = kInfTime;
  bool has_initial = false;
  uint64_t initial = 0;
};

/// Definite-anomaly screen applied to *every* committed read (owner and
/// replica): values that never existed or were definitely rolled back, and
/// values from the future, are violations no staleness bound can excuse.
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

/// Relaxed visibility for bounded-staleness replica reads: only definite
/// anomalies fail. A replica serves a copy taken no earlier than the
/// recorded window's start, so a key present in the initial load (and
/// never deleted) can never legitimately read as absent — but observing
/// any *older committed* value is within the staleness bound's license.
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

/// Minimal failing sub-history: truncate the key's ops at successive
/// response times (ops invoked after the cut drop out; ops still pending
/// at the cut become optional, as an unfinished op may never take effect)
/// and keep the earliest cut that already fails. Sound because truncating
/// a linearizable history this way leaves it linearizable — so the first
/// failing cut pins the op that breaks it.
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
        if (s.op->kind == OpKind::kRead) continue;  // Hadn't observed yet.
        t.resp = kInfTime;
        t.optional = true;  // Still pending at the cut: effect uncertain.
      }
      sub.push_back(t);
    }
    if (!Linearizable(sub, initial, budget, over_budget, arena)) {
      return Truncation{std::move(sub), cut, OpRespondingAt(full, cut)};
    }
    if (*over_budget) break;
  }
  // Budget ran dry (or numeric edge): fall back to the whole key history.
  return Truncation{full, kInfTime, nullptr};
}

}  // namespace

HistoryCheckResult CheckHistory(const HistoryRecorder& recorder) {
  HistoryCheckResult result;

  // --- Per-key independence decomposition --------------------------------
  std::map<Key, KeySlice> keys;
  for (const auto& [key, seq] : recorder.initial()) {
    KeySlice& ks = keys[key];
    ks.has_initial = true;
    ks.initial = seq;
  }
  for (const HistoryOp& op : recorder.ops()) {
    if (op.kind == OpKind::kTxn) continue;  // Whole-txn markers: no register.
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
        if (op.outcome != OpOutcome::kOk) break;  // Observed nothing usable.
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

  // --- Check every key ---------------------------------------------------
  constexpr int64_t kBudgetPerKey = 400000;
  SearchArena arena;
  for (auto& [key, ks] : keys) {
    ++result.keys_checked;

    // Definite-anomaly screens first: they are cheap, they cover replica
    // reads the strict search never sees, and they produce the sharpest
    // anomaly names.
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

    // Strict Wing–Gong search over the owner-served committed ops.
    int64_t budget = kBudgetPerKey;
    bool over_budget = false;
    const uint64_t initial = ks.has_initial ? ks.initial : 0;
    if (Linearizable(ks.strict, initial, &budget, &over_budget, &arena)) {
      if (over_budget) ++result.keys_over_budget;
      continue;
    }
    Truncation min_fail = MinimalFailingTruncation(ks.strict, initial, &budget,
                                                   &over_budget, &arena);
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

}  // namespace wattdb::chaos
