#include "tx/lock_manager.h"

#include <algorithm>

namespace wattdb::tx {

bool LockCompatible(LockMode held, LockMode requested) {
  // Standard MGL compatibility matrix (rows: held, cols: requested).
  static constexpr bool kCompat[4][4] = {
      //            IS     IX     S      X
      /* IS */ {true, true, true, false},
      /* IX */ {true, true, false, false},
      /* S  */ {true, false, true, false},
      /* X  */ {false, false, false, false},
  };
  return kCompat[static_cast<int>(held)][static_cast<int>(requested)];
}

const char* LockModeName(LockMode mode) {
  switch (mode) {
    case LockMode::kIS:
      return "IS";
    case LockMode::kIX:
      return "IX";
    case LockMode::kS:
      return "S";
    case LockMode::kX:
      return "X";
  }
  return "?";
}

namespace {
/// Lock-strength order for in-place upgrades: X > S/IX > IS.
int Strength(LockMode m) {
  switch (m) {
    case LockMode::kIS:
      return 0;
    case LockMode::kIX:
    case LockMode::kS:
      return 1;
    case LockMode::kX:
      return 2;
  }
  return 0;
}

/// Whether any grant counted in `held` has a mode incompatible with `mode`.
bool AnyConflicting(const std::array<uint32_t, 4>& held, LockMode mode) {
  for (int h = 0; h < 4; ++h) {
    if (held[h] != 0 && !LockCompatible(static_cast<LockMode>(h), mode)) {
      return true;
    }
  }
  return false;
}
}  // namespace

SimTime LockManager::EarliestIn(const Entry& entry, LockMode mode, TxnId txn,
                                SimTime now) {
  // The result is the latest release among incompatible foreign grants,
  // which does not depend on their order: with none of a conflicting mode
  // held, the scan could only return `now`.
  if (!AnyConflicting(entry.held, mode)) return now;
  SimTime t = now;
  for (const Grant& g : entry.grants) {
    if (g.txn == txn) continue;           // Own grants never conflict.
    if (g.until <= t) continue;           // Already released by then.
    if (!LockCompatible(g.mode, mode)) {
      t = std::max(t, g.until);
    }
  }
  return t;
}

SimTime LockManager::EarliestGrant(const LockResource& res, LockMode mode,
                                   TxnId txn, SimTime now) const {
  auto it = table_.find(res);
  if (it == table_.end()) return now;
  return EarliestIn(it->second, mode, txn, now);
}

LockGrant LockManager::Acquire(const LockResource& res, LockMode mode,
                               TxnId txn, SimTime now, SimTime release_at) {
  Entry& entry = table_[res];
  auto& grants = entry.grants;
  // In-place upgrade if this transaction already holds the resource. It
  // holds at most one grant, none if it is newer than every grant here, and
  // otherwise usually one of the newest, so search backwards.
  const bool may_hold = txn.value() <= entry.max_txn;
  for (auto g = grants.rbegin(); may_hold && g != grants.rend(); ++g) {
    if (g->txn != txn) continue;
    if (Strength(mode) > Strength(g->mode)) {
      // Upgrades must additionally wait for conflicting peers.
      const SimTime t = EarliestIn(entry, mode, txn, now);
      --entry.held[static_cast<int>(g->mode)];
      ++entry.held[static_cast<int>(mode)];
      g->mode = mode;
      g->until = std::max(g->until, release_at);
      return LockGrant{t, t - now};
    }
    g->until = std::max(g->until, release_at);
    return LockGrant{now, 0};
  }
  const SimTime t = EarliestIn(entry, mode, txn, now);
  grants.push_back(Grant{txn, mode, t, std::max(release_at, t)});
  ++entry.held[static_cast<int>(mode)];
  entry.max_txn = std::max(entry.max_txn, txn.value());
  by_txn_[txn].push_back(res);
  return LockGrant{t, t - now};
}

void LockManager::SettleAll(TxnId txn, SimTime at) {
  auto it = by_txn_.find(txn);
  if (it == by_txn_.end()) return;
  for (const LockResource& res : it->second) {
    auto tit = table_.find(res);
    if (tit == table_.end()) continue;
    // Its one grant here is usually among the newest.
    auto& grants = tit->second.grants;
    for (auto g = grants.rbegin(); g != grants.rend(); ++g) {
      if (g->txn == txn) {
        g->until = std::max(g->from, at);
        break;
      }
    }
  }
  by_txn_.erase(it);
}

template <typename Pred>
bool LockManager::EraseIf(Entry& entry, Pred drop) {
  auto& grants = entry.grants;
  auto out = grants.begin();
  for (auto g = grants.begin(); g != grants.end(); ++g) {
    if (drop(*g)) {
      --entry.held[static_cast<int>(g->mode)];
    } else {
      *out++ = *g;
    }
  }
  grants.erase(out, grants.end());
  return grants.empty();
}

void LockManager::ReleaseAll(TxnId txn) {
  auto it = by_txn_.find(txn);
  if (it == by_txn_.end()) return;
  for (const LockResource& res : it->second) {
    auto tit = table_.find(res);
    if (tit == table_.end()) continue;
    if (EraseIf(tit->second, [&](const Grant& g) { return g.txn == txn; })) {
      table_.erase(tit);
    }
  }
  by_txn_.erase(it);
}

size_t LockManager::GrantCount() const {
  size_t n = 0;
  for (const auto& [res, entry] : table_) n += entry.grants.size();
  return n;
}

void LockManager::Prune(SimTime before) {
  for (auto it = table_.begin(); it != table_.end();) {
    if (EraseIf(it->second,
                [&](const Grant& g) { return g.until <= before; })) {
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
  // by_txn_ entries are erased by SettleAll and ReleaseAll; stale references
  // to pruned resources are tolerated (lookups simply miss).
}

}  // namespace wattdb::tx
