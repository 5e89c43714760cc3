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
//
// Invocation-order window: the search relabels the pruned ops in
// invocation order, so a state expands only a window of the key's history,
// not all of it. An op may go next iff it was invoked no later than the
// frontier, the earliest response among unsettled ops. Walk the unsettled
// ops from the first one, keeping the least response seen so far, and stop
// at the first op invoked after it. That op and every later one were
// invoked after an unsettled op responded, so none can go next; and as no
// op responds before it is invoked, none can lower the frontier either.
// Every op before the stop was invoked no later than the final frontier
// (an op further on that responded earlier would have been invoked
// earlier), so the window holds exactly the ops a scan of every op admits,
// and one walk finds both the frontier and the successors. The search
// explores the same states either way, so verdicts, anomaly names and
// minimal failing sub-histories do not depend on it; a state costs its
// window (the ops overlapping the first unsettled one), so a key costs
// O(ops x overlap) instead of O(ops^2).
//
// Search order: no state is expanded twice, and a state's successors are
// tried latest-recorded op first, as a LIFO stack filled in record order
// pops them (the last one is stepped into in place rather than pushed and
// popped). The relabelling thus changes what a state costs, never which
// states are visited or in what order: each key spends exactly the search
// states, and so the state budget, that a full record-order scan would.
// The memo starts at the first state with more than one successor: up to
// there the search has walked a single path, one state per settled count,
// and everything after lies deeper, so no earlier state can recur.
//
// The per-key split is one pass filing each op into its key's flat slice;
// a slice's lookups (rolled-back values, write invocation times) are
// sorted vectors read by binary search.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chaos/history.h"

namespace wattdb::chaos {

namespace {

constexpr SimTime kInfTime = std::numeric_limits<SimTime>::max();

/// One op prepared for the search: its register effect copied out of the
/// HistoryOp so the search touches no HistoryOp, its response lifted to
/// infinity for indeterminate outcomes, plus whether the search may omit it.
struct SearchOp {
  const HistoryOp* op = nullptr;
  SimTime inv = 0;
  SimTime resp = kInfTime;
  uint64_t seq = 0;
  OpKind kind = OpKind::kRead;
  bool optional = false;  ///< kIndeterminate: may never have taken effect.
  size_t rank = 0;  ///< Position among the searched ops in record order.
};

/// A state's successor: settle `op`, leaving the register at `value`.
/// Successors are tried in descending `order`, by rank and, for one op,
/// not taking effect before taking effect.
struct Successor {
  size_t order = 0;
  size_t op = 0;
  uint64_t value = 0;
};

/// Arenas the search reuses across keys and truncation cuts, so a search
/// allocates nothing per state. A search state is (settled mask, register
/// value): which ops are settled (linearized or omitted) and the value
/// they produced. Two interleavings reaching the same pair are equivalent
/// for everything that follows, so the pair is the memo key.
struct SearchArena {
  /// The ops left after pruning, in invocation order.
  std::vector<SearchOp> ops;
  /// Values strict reads observe, sorted (the pruning test).
  std::vector<uint64_t> observed;
  /// LIFO stack of (mask words, value, first unsettled op) records.
  std::vector<uint64_t> stack;
  /// The popped record being expanded.
  std::vector<uint64_t> cur;
  /// The expanded state's successors.
  std::vector<Successor> successors;
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
/// with or without them), relabelled in invocation order so each state
/// scans only its window (the file comment). No state is expanded twice;
/// a state's last successor is stepped into in place, the rest are pushed.
/// Each state visited, a repeat included, costs one unit of `budget`.
/// Returns true when a valid linearization exists; sets `over_budget` (and
/// returns true, i.e. no violation claimed) when the state budget is
/// exhausted first. Relies on every op responding no earlier than it was
/// invoked.
bool Linearizable(const std::vector<SearchOp>& ops, uint64_t initial,
                  int64_t* budget, bool* over_budget, SearchArena* a) {
  // The values strict reads observe, sorted; built when the first op that
  // may be pruned needs them.
  a->observed.clear();
  bool observed_known = false;
  a->ops.clear();
  for (const SearchOp& s : ops) {
    if (s.optional && s.kind != OpKind::kRead) {
      if (!observed_known) {
        for (const SearchOp& r : ops) {
          if (r.kind == OpKind::kRead) a->observed.push_back(r.seq);
        }
        std::sort(a->observed.begin(), a->observed.end());
        observed_known = true;
      }
      const uint64_t effect = s.kind == OpKind::kWrite ? s.seq : 0;
      if (!std::binary_search(a->observed.begin(), a->observed.end(),
                              effect)) {
        continue;  // Unobserved and may be omitted: the verdict is unchanged.
      }
    }
    a->ops.push_back(s);
    a->ops.back().rank = a->ops.size() - 1;
  }
  // Invocation order. Ties may fall either way: ops invoked at the same
  // time join a window together, and successors are ordered by rank. A
  // key's ops mostly arrive in this order already: a lock serializes
  // them, so they respond in the order they were invoked.
  const auto by_inv = [](const SearchOp& x, const SearchOp& y) {
    return x.inv < y.inv;
  };
  if (!std::is_sorted(a->ops.begin(), a->ops.end(), by_inv)) {
    std::sort(a->ops.begin(), a->ops.end(), by_inv);
  }
  const std::vector<SearchOp>& sops = a->ops;

  const size_t n = sops.size();
  if (n == 0) return true;
  const size_t words = (n + 63) / 64;
  const size_t key_len = words + 1;  // Mask words, then the value.
  const size_t rec_len = words + 2;  // Key, then the first unsettled op.
  const uint64_t last_word_bits =
      n % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (n % 64)) - 1;
  const auto unsettled = [&](const uint64_t* mask, size_t w) {
    return ~mask[w] & (w + 1 == words ? last_word_bits : ~uint64_t{0});
  };
  // Settle op `i` in record `rec`, leaving the register at `value`.
  const auto settle = [&](uint64_t* rec, size_t i, uint64_t value) {
    rec[i / 64] |= uint64_t{1} << (i % 64);
    rec[words] = value;
    size_t first = rec[words + 1];
    if (i != first) return;
    // The first unsettled op moves on to the next one left (n if none).
    size_t w = first / 64;
    uint64_t open = unsettled(rec, w);
    while (open == 0 && ++w < words) open = unsettled(rec, w);
    rec[words + 1] = open == 0 ? n : 64 * w + __builtin_ctzll(open);
  };

  a->memo_keys.clear();
  a->memo_hashes.clear();
  a->memo_slots.assign(64, 0);
  a->stack.assign(rec_len, 0);
  a->stack[words] = initial;
  a->cur.resize(rec_len);
  uint64_t* cur = a->cur.data();

  // Until the search first branches it walks one path, one state per
  // depth (settled count), and every later state lies below that path's
  // end: no state so far can be reached again, so none needs the memo.
  bool branched = false;
  while (!a->stack.empty()) {
    std::copy(a->stack.end() - rec_len, a->stack.end(), cur);
    a->stack.resize(a->stack.size() - rec_len);
    for (;;) {
      if (--(*budget) <= 0) {
        *over_budget = true;
        return true;
      }
      const size_t first = cur[words + 1];
      if (first == n) return true;
      if (branched && !MemoInsert(a, cur, key_len)) break;  // Seen before.
      const uint64_t value = cur[words];

      // Successors over the window: unsettled ops from the first one up to
      // the first invoked after the earliest response among those before
      // it. Ops past it strictly follow an unsettled op in real time.
      a->successors.clear();
      SimTime frontier = kInfTime;
      for (size_t w = first / 64; w < words; ++w) {
        uint64_t open = unsettled(cur, w);
        for (; open != 0; open &= open - 1) {
          const size_t i = 64 * w + __builtin_ctzll(open);
          const SearchOp& op = sops[i];
          if (op.inv > frontier) break;
          frontier = std::min(frontier, op.resp);
          switch (op.kind) {
            case OpKind::kRead:
              if (op.seq == value) {
                a->successors.push_back({2 * op.rank, i, value});
              }
              break;
            case OpKind::kWrite:
              a->successors.push_back({2 * op.rank, i, op.seq});
              break;
            case OpKind::kDelete:
              a->successors.push_back({2 * op.rank, i, 0});
              break;
            case OpKind::kTxn:
              break;  // Never part of a register history.
          }
          // The indeterminate op never took effect: settle it with no
          // change.
          if (op.optional) {
            a->successors.push_back({2 * op.rank + 1, i, value});
          }
        }
        if (open != 0) break;  // The window ended inside this word.
      }
      if (a->successors.empty()) break;  // Dead end.
      if (a->successors.size() > 1) {
        branched = true;
        std::sort(a->successors.begin(), a->successors.end(),
                  [](const Successor& x, const Successor& y) {
                    return x.order < y.order;
                  });
      }
      // Push all but the last successor; the last is explored next, as a
      // LIFO stack would pop it first.
      for (size_t k = 0; k + 1 < a->successors.size(); ++k) {
        a->stack.insert(a->stack.end(), cur, cur + rec_len);
        settle(a->stack.data() + a->stack.size() - rec_len,
               a->successors[k].op, a->successors[k].value);
      }
      settle(cur, a->successors.back().op, a->successors.back().value);
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
  std::vector<uint64_t> failed_seqs;     ///< Values that must never surface.
  /// (seq, invocation time) of every ok/indeterminate write, sorted by seq;
  /// among writes of one seq the last recorded counts.
  std::vector<std::pair<uint64_t, SimTime>> write_invoked;
  SimTime first_delete_inv = kInfTime;
  bool has_initial = false;
  uint64_t initial = 0;

  /// File one recorded op (never kTxn).
  void Add(const HistoryOp& op) {
    switch (op.kind) {
      case OpKind::kWrite:
      case OpKind::kDelete: {
        if (op.outcome == OpOutcome::kFailed) {
          failed_seqs.push_back(op.seq);
          break;
        }
        if (op.kind == OpKind::kWrite) {
          write_invoked.emplace_back(op.seq, op.invoked_at);
        } else {
          first_delete_inv = std::min(first_delete_inv, op.invoked_at);
        }
        const bool indeterminate = op.outcome == OpOutcome::kIndeterminate;
        strict.push_back({&op, op.invoked_at,
                          indeterminate ? kInfTime : op.responded_at, op.seq,
                          op.kind, indeterminate});
        break;
      }
      case OpKind::kRead: {
        if (op.outcome != OpOutcome::kOk) break;  // Observed nothing usable.
        if (op.from_replica) {
          replica_reads.push_back(&op);
          break;
        }
        strict.push_back(
            {&op, op.invoked_at, op.responded_at, op.seq, op.kind, false});
        break;
      }
      case OpKind::kTxn:
        break;
    }
  }

  /// Sort the lookup vectors once every op of the key is filed.
  void Seal() {
    std::sort(failed_seqs.begin(), failed_seqs.end());
    std::stable_sort(write_invoked.begin(), write_invoked.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
  }

  bool Failed(uint64_t seq) const {
    return std::binary_search(failed_seqs.begin(), failed_seqs.end(), seq);
  }

  /// Invocation time of the write of `seq`, or nullptr when none wrote it.
  const SimTime* WriteInvoked(uint64_t seq) const {
    if (write_invoked.empty()) return nullptr;
    // The last entry with a seq <= `seq`, by a binary search whose step is
    // a conditional move, not a branch: every strict read takes this
    // lookup, and std::upper_bound's mispredicted branches cost a seventh
    // of the whole check.
    const std::pair<uint64_t, SimTime>* base = write_invoked.data();
    for (size_t len = write_invoked.size(); len > 1;) {
      const size_t half = len / 2;
      base = base[half].first <= seq ? base + half : base;
      len -= half;
    }
    return base->first == seq ? &base->second : nullptr;
  }
};

/// Definite-anomaly screen applied to *every* committed read (owner and
/// replica) of `key` that observed `seq` and responded at `responded_at`:
/// values that never existed or were definitely rolled back, and values
/// from the future, are violations no staleness bound can excuse.
std::string CheckObservedValue(const KeySlice& ks, Key key, uint64_t seq,
                               SimTime responded_at) {
  if (seq == 0) return "";
  if (ks.has_initial && seq == ks.initial) return "";
  if (ks.Failed(seq)) {
    return "read observed seq " + std::to_string(seq) +
           " of a refused/rolled-back write on key " + std::to_string(key) +
           " (definitely never committed)";
  }
  const SimTime* invoked = ks.WriteInvoked(seq);
  if (invoked == nullptr) {
    return "read observed seq " + std::to_string(seq) + " on key " +
           std::to_string(key) + " that no recorded write ever wrote";
  }
  if (*invoked > responded_at) {
    return "read on key " + std::to_string(key) + " observed seq " +
           std::to_string(seq) +
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
  const std::string bad =
      CheckObservedValue(ks, read.key, read.seq, read.responded_at);
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

/// Check one key's slice; appends its violations to `result`.
void CheckKey(Key key, const KeySlice& ks, SearchArena* arena,
              HistoryCheckResult* result) {
  ++result->keys_checked;

  // Definite-anomaly screens first: they are cheap, they cover replica
  // reads the strict search never sees, and they produce the sharpest
  // anomaly names.
  bool screened = false;
  for (const SearchOp& s : ks.strict) {
    if (s.kind != OpKind::kRead) continue;
    // A strict read's search response is its recorded response.
    const std::string bad = CheckObservedValue(ks, key, s.seq, s.resp);
    if (!bad.empty()) {
      HistoryViolation v;
      v.anomaly = bad;
      v.key = key;
      for (const SearchOp& o : ks.strict) v.sub_history.push_back(*o.op);
      result->violations.push_back(std::move(v));
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
      result->violations.push_back(std::move(v));
      break;
    }
  }
  if (screened) return;

  // Strict Wing–Gong search over the owner-served committed ops.
  constexpr int64_t kBudgetPerKey = 400000;
  int64_t budget = kBudgetPerKey;
  bool over_budget = false;
  const uint64_t initial = ks.has_initial ? ks.initial : 0;
  if (Linearizable(ks.strict, initial, &budget, &over_budget, arena)) {
    result->search_states += kBudgetPerKey - budget;
    if (over_budget) ++result->keys_over_budget;
    return;
  }
  Truncation min_fail = MinimalFailingTruncation(ks.strict, initial, &budget,
                                                 &over_budget, arena);
  result->search_states += kBudgetPerKey - budget;
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
  result->violations.push_back(std::move(v));
}

}  // namespace

HistoryCheckResult CheckHistory(const HistoryRecorder& recorder) {
  HistoryCheckResult result;

  // --- Per-key independence decomposition --------------------------------
  // One pass files every register op under its key, in record order.
  std::unordered_map<Key, KeySlice> slices;
  for (const auto& [key, seq] : recorder.initial()) {
    KeySlice& ks = slices[key];
    ks.has_initial = true;
    ks.initial = seq;
  }
  for (const HistoryOp& op : recorder.ops()) {
    if (op.kind == OpKind::kTxn) continue;  // Whole-txn markers.
    slices[op.key].Add(op);
    ++result.ops_checked;
  }

  // --- Check every key, loaded or touched, in key order ------------------
  std::vector<std::pair<Key, KeySlice*>> order;
  order.reserve(slices.size());
  for (auto& [key, ks] : slices) order.emplace_back(key, &ks);
  std::sort(order.begin(), order.end());
  SearchArena arena;
  for (const auto& [key, ks] : order) {
    ks->Seal();
    CheckKey(key, *ks, &arena, &result);
  }
  return result;
}

}  // namespace wattdb::chaos
