// The post-scenario invariant audit. Runs against a quiesced cluster
// (after the heal phase) and answers, with human-readable violations:
// did every committed write survive and get read exactly once, did any
// aborted write resurrect, is no range double-owned or orphaned, and did
// the cluster actually re-converge (live owners, no stuck moves, fences,
// standbys, or overload)?

#include <map>
#include <string>
#include <vector>

#include "api/db.h"
#include "chaos/chaos.h"

namespace wattdb::chaos {

namespace {

std::string RangeStr(const KeyRange& r) {
  return "[" + std::to_string(r.lo) + ", " + std::to_string(r.hi) + ")";
}

}  // namespace

std::vector<std::string> CheckInvariants(Db& db, TableId table, Key max_key,
                                         const GroundTruth& truth) {
  std::vector<std::string> violations;
  catalog::GlobalPartitionTable& cat = db.cluster().catalog();

  // --- Catalog route audit ----------------------------------------------
  // Disjointness (no segment double-owned) and live-partition references
  // are the catalog's own invariant; on top of it the routes must cover
  // the whole key space, name active owners, and carry no leftover moves
  // or fences.
  if (!cat.CheckInvariants()) {
    violations.push_back(
        "catalog invariants violated (overlapping routes or dangling "
        "partition references)");
  }
  Key covered_to = 0;
  for (const auto& entry : cat.AllRoutes(table)) {
    if (entry.range.lo > covered_to) {
      violations.push_back("routing hole: keys [" +
                           std::to_string(covered_to) + ", " +
                           std::to_string(entry.range.lo) +
                           ") are owned by nobody");
    }
    if (entry.range.hi > covered_to) covered_to = entry.range.hi;
    if (entry.secondary.valid()) {
      violations.push_back("stuck move: route " + RangeStr(entry.range) +
                           " still carries a secondary pointer");
    }
    const catalog::Partition* p = cat.GetPartition(entry.primary);
    if (p == nullptr) {
      violations.push_back("route " + RangeStr(entry.range) +
                           " names a dropped partition");
      continue;
    }
    if (p->route_epoch() < entry.epoch) {
      violations.push_back("orphaned fence: route " + RangeStr(entry.range) +
                           " epoch " + std::to_string(entry.epoch) +
                           " > owner claim token " +
                           std::to_string(p->route_epoch()));
    }
    if (p->state() != catalog::PartitionState::kNormal) {
      violations.push_back("partition " + std::to_string(p->id().value()) +
                           " stuck in a non-normal state");
    }
    const NodeId owner = p->owner();
    cluster::Node* node = db.cluster().node(owner);
    if (node == nullptr || !node->IsActive() ||
        db.cluster().node_state(owner).crashed) {
      violations.push_back("route " + RangeStr(entry.range) +
                           " owned by inactive node " +
                           std::to_string(owner.value()));
    } else if (db.cluster().node_state(owner).partitioned) {
      violations.push_back("route " + RangeStr(entry.range) +
                           " owned by a node still partitioned from the "
                           "master");
    } else if (db.cluster().node_state(owner).excluded) {
      violations.push_back("route " + RangeStr(entry.range) +
                           " owned by excluded node " +
                           std::to_string(owner.value()));
    }
  }
  if (covered_to < max_key) {
    violations.push_back("routing hole: keys [" + std::to_string(covered_to) +
                         ", " + std::to_string(max_key) +
                         ") are owned by nobody");
  }

  // --- Control-plane quiescence -----------------------------------------
  if (db.scheme().InProgress()) {
    violations.push_back("rebalance still in progress after settle");
  }
  for (const auto& rep : db.replicas().replicas()) {
    cluster::Node* host = db.cluster().node(rep->host);
    if (host == nullptr || !host->IsActive()) {
      violations.push_back("stuck replica of " + RangeStr(rep->range) +
                           " hosted on inactive node " +
                           std::to_string(rep->host.value()));
    } else if (rep->state == replica::ReplicaState::kBootstrapping &&
               db.Now() > rep->created_at + 2 * kUsPerSec) {
      // Grace window: replica maintenance runs during settle, so a stream
      // started in the instants before the audit is healthy, not stuck —
      // a real wedge has been bootstrapping for many seconds.
      violations.push_back("stuck replica of " + RangeStr(rep->range) +
                           " still bootstrapping after settle");
    }
  }
  if (db.master().OverloadPressure()) {
    violations.push_back("overload pressure not cleared after settle");
  }

  // --- Data audit: one full scan vs the ground truth ---------------------
  // Exactly-once: a key may appear at most once. Every committed write
  // survives: each non-fuzzy committed key must be present with the exact
  // (key, seq) payload of its last committed write. Nothing resurrects:
  // no record may carry an explicitly-aborted (key, seq), and no
  // non-fuzzy key outside the committed map may exist at all.
  Session session = db.OpenSession();
  TxnHandle txn = session.Begin(/*read_only=*/true);
  std::map<Key, std::vector<uint8_t>> seen;
  int duplicates = 0;
  auto scanned =
      txn.Scan(table, {0, max_key}, [&](const storage::Record& rec) {
        if (!seen.emplace(rec.key, rec.payload).second) ++duplicates;
        return true;
      });
  (void)txn.Commit();
  if (!scanned.ok()) {
    violations.push_back("final audit scan failed: " +
                         scanned.status().ToString());
    return violations;
  }
  if (duplicates > 0) {
    violations.push_back("exactly-once violated: " +
                         std::to_string(duplicates) +
                         " keys returned more than once by one scan");
  }
  for (const auto& [key, seq] : truth.committed) {
    if (truth.fuzzy.count(key) > 0) continue;
    auto it = seen.find(key);
    if (it == seen.end()) {
      violations.push_back("lost write: committed key " + std::to_string(key) +
                           " (seq " + std::to_string(seq) +
                           ") missing from the final scan");
      continue;
    }
    Key pk = 0;
    uint64_t pseq = 0;
    if (!DecodePayload(it->second, &pk, &pseq)) {
      violations.push_back("corrupt payload on key " + std::to_string(key));
    } else if (pk != key || pseq != seq) {
      violations.push_back("wrong value: key " + std::to_string(key) +
                           " expected seq " + std::to_string(seq) +
                           " but holds (key=" + std::to_string(pk) +
                           ", seq=" + std::to_string(pseq) + ")");
    }
  }
  for (const auto& [key, payload] : seen) {
    Key pk = 0;
    uint64_t pseq = 0;
    if (DecodePayload(payload, &pk, &pseq) &&
        truth.aborted.count({key, pseq}) > 0) {
      violations.push_back("aborted write resurrected: key " +
                           std::to_string(key) + " holds rolled-back seq " +
                           std::to_string(pseq));
    }
    if (truth.committed.count(key) == 0 && truth.fuzzy.count(key) == 0) {
      violations.push_back("phantom record: key " + std::to_string(key) +
                           " (seq " + std::to_string(pseq) +
                           ") exists but was never committed (or was "
                           "deleted)");
    }
  }
  return violations;
}

}  // namespace wattdb::chaos
