#ifndef WATTDB_WORKLOAD_TPCC_LOADER_H_
#define WATTDB_WORKLOAD_TPCC_LOADER_H_

#include <algorithm>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/status.h"
#include "workload/tpcc_schema.h"

namespace wattdb::workload {

/// Loader options. The paper loads TPC-C at scale factor 1000 (~100 GB raw,
/// ~200 GB with indexes and overhead); the reproduction materializes a
/// smaller scale factor and lets the migration cost_scale knob stand in for
/// the data-volume difference: each materialized byte is charged as
/// cost_scale paper bytes, so move durations keep the SF-1000 scale.
struct TpccLoadConfig {
  int warehouses = 4;
  /// Nodes that initially own data, as contiguous warehouse ranges. Node 0
  /// (master) participates unless listed otherwise.
  std::vector<NodeId> home_nodes = {NodeId(0)};
  /// Fraction of initial order/customer rows actually materialized (1.0 =
  /// full TPC-C cardinalities). Lower values speed up unit tests.
  double fill = 1.0;
  uint64_t seed = 7;
};

/// Handle to the loaded database: table ids and generation state the
/// transaction profiles need (next order ids, history sequence...).
class TpccDatabase {
 public:
  TpccDatabase(cluster::Cluster* cluster, const TpccLoadConfig& config);

  /// Generate and bulk-load all nine tables. Bulk loading bypasses the WAL
  /// and transactions (rows are visible "since timestamp 0"); it creates
  /// one partition per (table, home node) and one segment per (table,
  /// warehouse) — the mini-partitions of §4.3.
  Status Load();

  TableId table(TpccTable t) const {
    return tables_[static_cast<int>(t)];
  }
  int warehouses() const { return config_.warehouses; }
  const TpccLoadConfig& config() const { return config_; }
  cluster::Cluster* cluster() { return cluster_; }

  /// Next order id per district, maintained by the NewOrder profile.
  int64_t NextOid(int64_t w, int64_t d) {
    return next_oid_[(w - 1) * kDistrictsPerWarehouse + (d - 1)]++;
  }
  int64_t PeekNextOid(int64_t w, int64_t d) const {
    return next_oid_[(w - 1) * kDistrictsPerWarehouse + (d - 1)];
  }
  /// Oldest undelivered order per district (Delivery profile cursor).
  int64_t& OldestNewOrder(int64_t w, int64_t d) {
    return oldest_new_order_[(w - 1) * kDistrictsPerWarehouse + (d - 1)];
  }
  int64_t NextHistorySeq(int64_t w, int64_t d) {
    return next_history_[(w - 1) * kDistrictsPerWarehouse + (d - 1)]++;
  }

  /// Total rows materialized by Load().
  int64_t rows_loaded() const { return rows_loaded_; }

  /// Materialized cardinalities (scaled by config.fill).
  int64_t customers_per_district() const {
    return std::max<int64_t>(
        1, static_cast<int64_t>(kCustomersPerDistrict * config_.fill));
  }
  int64_t stock_per_warehouse() const {
    return std::max<int64_t>(
        1, static_cast<int64_t>(kStockPerWarehouse * config_.fill));
  }

  /// Random payload of the right width for `t` with structured fields
  /// initialized.
  std::vector<uint8_t> MakePayload(TpccTable t, Rng* rng) const;

 private:
  Status LoadWarehouse(int64_t w, NodeId home);

  cluster::Cluster* cluster_;
  TpccLoadConfig config_;
  Rng rng_;
  std::vector<TableId> tables_;
  std::vector<int64_t> next_oid_;
  std::vector<int64_t> oldest_new_order_;
  std::vector<int64_t> next_history_;
  int64_t rows_loaded_ = 0;
};

}  // namespace wattdb::workload

#endif  // WATTDB_WORKLOAD_TPCC_LOADER_H_
