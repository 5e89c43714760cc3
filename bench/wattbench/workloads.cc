// The four wattbench workloads. Each repetition opens a fresh Db, drives it
// only through public calls (Db, Session/TxnHandle, TpccRunner::Run,
// chaos::RunScenario and read-only observers), checks the outputs, and
// returns its modeled values plus its host timings.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/db.h"
#include "chaos/chaos.h"
#include "sim/event_queue.h"
#include "wattbench.h"

namespace wattdb::wattbench {
namespace {

/// Simulated time advances in slices of this length; busy time, gauges and
/// counter deltas are read at every slice end.
constexpr SimTime kSlice = kUsPerSec;
/// Cadence of the traced FindSlot probe.
constexpr SimTime kPeekEvery = 5 * kUsPerSec;
constexpr size_t kValueBytes = 100;

/// Defeats dead-code elimination of the timed probe loops.
volatile uint64_t g_sink = 0;

double Ms(SimTime us) { return static_cast<double>(us) / kUsPerMs; }
double Mb(int64_t bytes) { return static_cast<double>(bytes) / 1e6; }
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Exact nearest-rank percentile of sorted samples.
double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// --- Cluster counters -------------------------------------------------------

/// Monotone counters the engine exposes through observers; a window's work
/// is the difference of two reads.
struct Counters {
  double joules = 0;
  int64_t disk_bytes = 0;
  int64_t net_bytes = 0;
  int64_t net_msgs = 0;
  int64_t buffer_hits = 0;
  int64_t buffer_misses = 0;
  int64_t dirty_writebacks = 0;
  int64_t log_bytes = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
};

Counters ReadCounters(Db& db) {
  cluster::Cluster& c = db.cluster();
  Counters out;
  out.joules = db.energy().joules();
  out.net_bytes = c.network().bytes_sent();
  out.net_msgs = c.network().messages_sent();
  for (int i = 0; i < c.num_nodes(); ++i) {
    cluster::Node* n = c.node(NodeId(static_cast<uint32_t>(i)));
    for (const auto& d : n->hardware().disks()) {
      out.disk_bytes += d->bytes_transferred();
    }
    out.buffer_hits += n->buffer().hits();
    out.buffer_misses += n->buffer().misses();
    out.dirty_writebacks += n->buffer().dirty_writebacks();
    out.log_bytes += n->log().bytes_written();
  }
  for (auto cls : {admission::OpClass::kLatencySensitive,
                   admission::OpClass::kBatch}) {
    out.admitted += db.admission().admitted(cls);
    out.shed += db.admission().shed(cls);
  }
  return out;
}

/// Deepest admission queue across the active nodes right now.
int64_t MaxQueueDepth(Db& db) {
  int64_t deepest = 0;
  for (const auto& g : db.monitor().QueueDepths()) {
    deepest = std::max(deepest, g.queued_ops);
  }
  return deepest;
}

/// The FindSlot probe: host microseconds of one ResourcePool::Peek(now,
/// 4 ms) — a CPU slice — on the CPU pool with the deepest backlog. Peek is
/// const, so the probe leaves the model untouched.
double PeekBusiestPoolUs(Db& db, Tracer* tracer) {
  Scope s(tracer, "probe:ResourcePool::Peek");
  const SimTime now = db.Now();
  const sim::ResourcePool* busiest = nullptr;
  SimTime deepest = -1;
  for (cluster::Node* n : db.cluster().ActiveNodes()) {
    const SimTime backlog = n->hardware().cpu().Backlog(now);
    if (backlog > deepest) {
      deepest = backlog;
      busiest = &n->hardware().cpu();
    }
  }
  constexpr int kCalls = 16;
  const auto t0 = HostClock::now();
  for (int i = 0; i < kCalls; ++i) {
    g_sink = g_sink + static_cast<uint64_t>(busiest->Peek(now, 4 * kUsPerMs));
  }
  return SecondsSince(t0) * 1e6 / kCalls;
}

/// Drives simulated time and accounts what the hardware did while the
/// measure window is open. Busy time is read per slice with BusyIn: the
/// cluster's SampleTick prunes interval history older than 30 s, so a read
/// over a longer window would silently undercount.
class Meter {
 public:
  Meter(Db* db, Tracer* tracer)
      : db_(db),
        tracer_(tracer),
        node_cpu_us_(static_cast<size_t>(db->cluster().num_nodes()), 0) {}

  void Open() {
    open_ = true;
    from_ = db_->Now();
    start_ = ReadCounters(*db_);
    next_peek_ = from_;
  }
  void Close() {
    open_ = false;
    to_ = db_->Now();
    end_ = ReadCounters(*db_);
  }

  void Run(SimTime duration) {
    const SimTime until = db_->Now() + duration;
    while (db_->Now() < until) {
      const SimTime t0 = db_->Now();
      const SimTime t1 = std::min(until, t0 + kSlice);
      {
        Scope s(tracer_, "Db::RunFor");
        db_->RunFor(t1 - t0);
      }
      if (open_) Sample(t0, t1);
    }
  }

  SimTime window_us() const { return to_ - from_; }
  double window_s() const { return ToSeconds(window_us()); }
  SimTime from() const { return from_; }
  SimTime to() const { return to_; }
  const Counters& start() const { return start_; }
  const Counters& end() const { return end_; }
  SimTime cpu_busy_us() const { return cpu_busy_us_; }
  SimTime disk_busy_us() const { return disk_busy_us_; }
  int64_t queue_depth_max() const { return queue_depth_max_; }
  SimTime lane_backlog_max_us() const { return lane_backlog_max_us_; }
  const std::vector<double>& peek_us() const { return peek_us_; }

  double CpuUtilMax() const {
    double best = 0;
    for (size_t i = 0; i < node_cpu_us_.size(); ++i) {
      const int cores = db_->cluster()
                            .node(NodeId(static_cast<uint32_t>(i)))
                            ->hardware()
                            .spec()
                            .cpu_cores;
      best = std::max(best, Ratio(static_cast<double>(node_cpu_us_[i]),
                                  static_cast<double>(cores) *
                                      static_cast<double>(window_us())));
    }
    return best;
  }
  double MeanActiveNodes() const {
    return Ratio(active_node_us_, static_cast<double>(window_us()));
  }

 private:
  void Sample(SimTime t0, SimTime t1) {
    cluster::Cluster& c = db_->cluster();
    const bool lanes = c.lanes().enabled();
    for (int i = 0; i < c.num_nodes(); ++i) {
      const NodeId id(static_cast<uint32_t>(i));
      cluster::Node* n = c.node(id);
      SimTime busy = n->hardware().cpu().BusyIn(t0, t1);
      if (lanes) {
        for (int l = 0; l < c.lanes().lanes_per_node(); ++l) {
          busy += c.lanes().lane(id, l)->BusyIn(t0, t1);
        }
      }
      node_cpu_us_[static_cast<size_t>(i)] += busy;
      cpu_busy_us_ += busy;
      for (const auto& d : n->hardware().disks()) {
        disk_busy_us_ += d->resource().BusyIn(t0, t1);
      }
      if (lanes && n->IsActive()) {
        for (const auto& ls : db_->monitor().LaneStatsFor(id)) {
          lane_backlog_max_us_ = std::max(lane_backlog_max_us_, ls.backlog_us);
        }
      }
    }
    active_node_us_ +=
        static_cast<double>(c.ActiveNodeCount()) * static_cast<double>(t1 - t0);
    queue_depth_max_ = std::max(queue_depth_max_, MaxQueueDepth(*db_));
    if (tracer_ != nullptr && tracer_->enabled() && t1 >= next_peek_) {
      peek_us_.push_back(PeekBusiestPoolUs(*db_, tracer_));
      next_peek_ += kPeekEvery;
    }
  }

  Db* db_;
  Tracer* tracer_;
  bool open_ = false;
  SimTime from_ = 0;
  SimTime to_ = 0;
  SimTime next_peek_ = 0;
  Counters start_;
  Counters end_;
  std::vector<SimTime> node_cpu_us_;
  SimTime cpu_busy_us_ = 0;
  SimTime disk_busy_us_ = 0;
  double active_node_us_ = 0;
  int64_t queue_depth_max_ = 0;
  SimTime lane_backlog_max_us_ = 0;
  std::vector<double> peek_us_;
};

// --- Transaction outcomes ---------------------------------------------------

/// One finished transaction as the client saw it. Component times are the
/// engine's own booking (tx::Txn) of the final attempt.
struct TxnRecord {
  SimTime due = 0;   ///< When the request was due (open loop) or submitted.
  SimTime done = 0;  ///< Simulated completion time.
  bool committed = false;
  bool shed = false;  ///< Refused by admission control (after retries).
  /// Start of the final attempt minus `due`: earlier shed attempts plus
  /// their retry backoff.
  SimTime retry_wait = 0;
  /// Commit() cost: final-attempt latency minus the elapsed time before
  /// Commit (0 where the runner commits internally).
  SimTime commit = 0;
  SimTime cpu = 0, disk = 0, net = 0, lock = 0, latch = 0, log = 0;
  int round_trips = 0;
  int stragglers = 0;

  SimTime latency() const { return done - due; }
  SimTime booked() const { return cpu + disk + net + lock + latch + log; }
};

void BookComponents(const tx::Txn& t, TxnRecord* r) {
  r->cpu = t.cpu_us;
  r->disk = t.disk_us;
  r->net = t.net_us;
  r->lock = t.lock_wait_us;
  r->latch = t.latch_us;
  r->log = t.log_us;
}

/// Outcomes of the transactions of one window. Throughput counts commits
/// *completing* in the window; latency and failure shares count requests
/// *due* in it (so a stall's late completions still land in the samples).
struct WindowStats {
  int64_t issued = 0;
  int64_t committed_done = 0;
  int64_t failed = 0;  ///< Due in the window and not committed.
  int64_t aborted = 0; ///< ... of which not admission refusals.
  int64_t shed = 0;
  std::vector<double> latency_ms;  ///< Committed, due in window; sorted.
  double sum_cpu = 0, sum_disk = 0, sum_net = 0, sum_lock = 0, sum_latch = 0,
         sum_log = 0, sum_retry = 0, sum_commit = 0, sum_other = 0;
  int64_t round_trips = 0;
  int64_t stragglers = 0;

  double mean_ms(double sum_us) const {
    return latency_ms.empty() ? 0.0 : sum_us / kUsPerMs / latency_ms.size();
  }
};

WindowStats Summarize(const std::vector<TxnRecord>& records, SimTime lo,
                      SimTime hi) {
  WindowStats w;
  for (const TxnRecord& r : records) {
    if (r.committed && r.done >= lo && r.done < hi) ++w.committed_done;
    if (r.due < lo || r.due >= hi) continue;
    ++w.issued;
    w.round_trips += r.round_trips;
    w.stragglers += r.stragglers;
    if (!r.committed) {
      ++w.failed;
      if (r.shed) {
        ++w.shed;
      } else {
        ++w.aborted;
      }
      continue;
    }
    w.latency_ms.push_back(Ms(r.latency()));
    w.sum_cpu += r.cpu;
    w.sum_disk += r.disk;
    w.sum_net += r.net;
    w.sum_lock += r.lock;
    w.sum_latch += r.latch;
    w.sum_log += r.log;
    w.sum_retry += r.retry_wait;
    w.sum_commit += r.commit;
    w.sum_other += static_cast<double>(r.latency() - r.retry_wait - r.commit -
                                       r.booked());
  }
  std::sort(w.latency_ms.begin(), w.latency_ms.end());
  return w;
}

/// Rebalance progress summed over every round: the scheme resets stats()
/// when a round starts, so each finished round is folded in as it ends.
class MoveTotals {
 public:
  explicit MoveTotals(Db* db) : db_(db) {
    db->SetControlEventListener([this](const cluster::ControlEvent& e) {
      if (e.type == cluster::ControlEventType::kHeatRebalanced) Fold();
    });
  }
  MoveTotals(const MoveTotals&) = delete;
  MoveTotals& operator=(const MoveTotals&) = delete;

  /// Fold in the scheme's last round if it finished and is not counted yet.
  void Fold() {
    const cluster::RebalanceStats& st = db_->scheme().stats();
    if (st.running || st.tasks_planned == 0 ||
        !counted_.insert(st.started_at).second) {
      return;
    }
    sum_.segments_moved += st.segments_moved;
    sum_.records_moved += st.records_moved;
    sum_.bytes_shipped += st.bytes_shipped;
    sum_.tasks_failed += st.tasks_failed;
  }
  const cluster::RebalanceStats& sum() const { return sum_; }

 private:
  Db* db_;
  std::set<SimTime> counted_;
  cluster::RebalanceStats sum_;
};

/// Bytes of live user records (records x schema width), for space_amp.
double UserBytes(Db& db) {
  catalog::GlobalPartitionTable& cat = db.cluster().catalog();
  double bytes = 0;
  for (TableId t : cat.Tables()) {
    const double width = static_cast<double>(cat.GetSchema(t)->RecordBytes());
    for (catalog::Partition* p : cat.PartitionsOf(t)) {
      if (p->is_replica()) continue;
      for (const auto& e : p->SegmentsInRange(KeyRange{})) {
        const storage::Segment* seg = db.cluster().segments().Get(e.segment);
        if (seg != nullptr) bytes += width * seg->record_count();
      }
    }
  }
  return bytes;
}

int64_t CountRoutes(Db& db) {
  catalog::GlobalPartitionTable& cat = db.cluster().catalog();
  int64_t n = 0;
  for (TableId t : cat.Tables()) {
    n += static_cast<int64_t>(cat.AllRoutes(t).size());
  }
  return n;
}

/// The layer metrics every Db-backed workload reports, from the window's
/// meter and transaction outcomes.
void AddLayerMetrics(Db& db, const Meter& m, const WindowStats& w,
                     const MoveTotals& moves, double rebalance_s, Rep* rep) {
  const Counters& a = m.start();
  const Counters& b = m.end();
  const double done = static_cast<double>(w.committed_done);
  const double joules = b.joules - a.joules;
  const int64_t hits = b.buffer_hits - a.buffer_hits;
  const int64_t misses = b.buffer_misses - a.buffer_misses;
  const int64_t admitted = b.admitted - a.admitted;
  const int64_t shed = b.shed - a.shed;

  rep->Add("hw.cpu_busy_s", ToSeconds(m.cpu_busy_us()), "sim_s");
  rep->Add("hw.cpu_util_max", m.CpuUtilMax(), "ratio");
  rep->Add("hw.disk_busy_s", ToSeconds(m.disk_busy_us()), "sim_s");
  rep->Add("hw.disk_mb", Mb(b.disk_bytes - a.disk_bytes), "MB");
  rep->Add("hw.net_mb", Mb(b.net_bytes - a.net_bytes), "MB");
  rep->Add("hw.net_msgs_per_txn",
           Ratio(static_cast<double>(b.net_msgs - a.net_msgs), done),
           "msg/txn");
  rep->Add("hw.avg_watts", Ratio(joules, m.window_s()), "W");
  rep->Add("hw.active_nodes", m.MeanActiveNodes(), "nodes");
  rep->Add("hw.energy_j_per_txn", Ratio(joules, done), "J/txn");
  rep->Add("hw.cpu_ms_per_txn", w.mean_ms(w.sum_cpu), "sim_ms");
  rep->Add("hw.net_ms_per_txn", w.mean_ms(w.sum_net), "sim_ms");

  rep->Add("storage.buffer_hit_rate",
           Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
           "ratio");
  rep->Add("storage.misses_per_txn", Ratio(static_cast<double>(misses), done),
           "miss/txn");
  rep->Add("storage.dirty_writebacks",
           static_cast<double>(b.dirty_writebacks - a.dirty_writebacks),
           "count");
  rep->Add("storage.space_amp",
           Ratio(static_cast<double>(db.cluster().segments().TotalDiskBytes()),
                 UserBytes(db)),
           "ratio");
  rep->Add("storage.disk_ms_per_txn", w.mean_ms(w.sum_disk), "sim_ms");
  rep->Add("storage.latch_ms_per_txn", w.mean_ms(w.sum_latch), "sim_ms");

  rep->Add("tx.log_bytes_per_txn",
           Ratio(static_cast<double>(b.log_bytes - a.log_bytes), done),
           "B/txn");
  rep->Add("tx.versions",
           static_cast<double>(db.cluster().tm().versions().VersionCount()),
           "count");
  rep->Add("tx.aborted", static_cast<double>(w.aborted), "count");
  rep->Add("tx.lock_ms_per_txn", w.mean_ms(w.sum_lock), "sim_ms");
  rep->Add("tx.log_ms_per_txn", w.mean_ms(w.sum_log), "sim_ms");
  rep->Add("tx.commit_ms_per_txn", w.mean_ms(w.sum_commit), "sim_ms");

  rep->Add("catalog.routes", static_cast<double>(CountRoutes(db)), "count");

  const cluster::Master& master = db.master();
  rep->Add("cluster.owner_round_trips_per_txn",
           Ratio(static_cast<double>(w.round_trips),
                 static_cast<double>(w.issued)),
           "rt/txn");
  rep->Add("cluster.straggler_retries", static_cast<double>(w.stragglers),
           "count");
  rep->Add("cluster.heat_rounds", master.heat_rebalances(), "count");
  rep->Add("cluster.heat_moves_planned", master.heat_moves_planned(), "count");
  rep->Add("cluster.heat_moves_completed", master.heat_moves_completed(),
           "count");
  rep->Add("cluster.heat_move_success",
           Ratio(master.heat_moves_completed(), master.heat_moves_planned()),
           "ratio");
  rep->Add("cluster.other_ms_per_txn", w.mean_ms(w.sum_other), "sim_ms");

  rep->Add("admission.admitted", static_cast<double>(admitted), "count");
  rep->Add("admission.shed", static_cast<double>(shed), "count");
  rep->Add("admission.admit_ratio",
           Ratio(static_cast<double>(admitted),
                 static_cast<double>(admitted + shed)),
           "ratio");
  rep->Add("admission.queue_depth_max",
           static_cast<double>(m.queue_depth_max()), "ops");
  rep->Add("admission.retry_ms_per_txn", w.mean_ms(w.sum_retry), "sim_ms");

  rep->Add("lanes.backlog_ms_max", Ms(m.lane_backlog_max_us()), "sim_ms");
  rep->Add("lanes.relanes",
           static_cast<double>(db.cluster().lanes().relanes()), "count");

  const cluster::RebalanceStats& mv = moves.sum();
  rep->Add("partition.rebalance_s", rebalance_s, "sim_s");
  rep->Add("partition.mb_shipped", Mb(mv.bytes_shipped), "MB");
  rep->Add("partition.segments_moved", static_cast<double>(mv.segments_moved),
           "count");
  rep->Add("partition.records_moved", static_cast<double>(mv.records_moved),
           "count");
  rep->Add("partition.copy_mb_per_s", Ratio(Mb(mv.bytes_shipped), rebalance_s),
           "MB/sim_s");
  rep->Add("partition.tasks_failed", static_cast<double>(mv.tasks_failed),
           "count");
}

/// Latency outcome of the window: exact percentiles of its samples. A p99
/// needs at least ten samples beyond it, so fewer than 1,000 fail the run.
void AddLatency(const WindowStats& w, Rep* rep) {
  rep->Add("workload.latency_p50_ms", Percentile(w.latency_ms, 50), "sim_ms");
  rep->Add("workload.latency_p99_ms", Percentile(w.latency_ms, 99), "sim_ms");
  rep->Add("workload.latency_samples",
           static_cast<double>(w.latency_ms.size()), "count");
  rep->Check(w.latency_ms.size() >= 1000,
             "only " + std::to_string(w.latency_ms.size()) +
                 " latency samples behind p99 (need >= 1000)");
}

// --- Host probes ------------------------------------------------------------

/// catalog.route_ns: GlobalPartitionTable::Route (const) on uniform keys of
/// `table`'s routed key space.
void ProbeRoute(Db& db, TableId table, Tracer* tracer, Rep* rep) {
  Scope s(tracer, "probe:GlobalPartitionTable::Route");
  const catalog::GlobalPartitionTable& cat = db.cluster().catalog();
  const std::vector<catalog::RouteEntry> routes = cat.AllRoutes(table);
  if (routes.empty()) return;
  const Key lo = routes.front().range.lo;
  const Key span = routes.back().range.hi - lo;
  constexpr int kCalls = 1 << 14;
  std::vector<Key> keys(kCalls);
  Rng rng(12345);
  for (Key& k : keys) k = lo + rng.Next() % span;
  const auto t0 = HostClock::now();
  for (Key k : keys) {
    const auto e = cat.Route(table, k);
    g_sink = g_sink + (e.has_value() ? e->epoch : 0);
  }
  rep->Probe("catalog.route_ns", SecondsSince(t0) * 1e9 / kCalls, "ns");
}

/// sim.event_ns: one no-op ScheduleAt plus its dispatch, on a private event
/// queue holding as many pending events as the Db's — the Db's own queue is
/// never touched, so the model cannot notice the probe.
void ProbeEvents(Db& db, Tracer* tracer, Rep* rep) {
  Scope s(tracer, "probe:EventQueue");
  sim::Clock clock;
  sim::EventQueue queue(&clock);
  const SimTime far = 1000 * kUsPerSec;
  for (size_t i = 0; i < db.events().size(); ++i) {
    queue.ScheduleAt(far + static_cast<SimTime>(i), [] {});
  }
  constexpr int kEvents = 1 << 14;
  int fired = 0;
  const auto t0 = HostClock::now();
  for (int i = 0; i < kEvents; ++i) {
    queue.ScheduleAt(i, [&fired] { ++fired; });
    queue.RunOne();
  }
  const double ns = SecondsSince(t0) * 1e9 / kEvents;
  g_sink = g_sink + static_cast<uint64_t>(fired);
  rep->Probe("sim.event_ns", ns, "ns");
}

// --- Set-up helpers ---------------------------------------------------------

/// Opens the Db inside the set-up span; a failure lands in rep->failures.
std::unique_ptr<Db> Open(const DbOptions& options, Tracer* tracer, Rep* rep) {
  Scope s(tracer, "Db::Open");
  auto opened = Db::Open(options);
  if (!opened.ok()) {
    rep->Check(false, "Db::Open failed: " + opened.status().ToString());
    return nullptr;
  }
  return std::move(opened).value();
}

std::vector<uint8_t> Value(Key key, uint64_t seq, size_t bytes, uint8_t fill) {
  std::vector<uint8_t> v = chaos::EncodePayload(key, seq);
  v.resize(std::max(bytes, v.size()), fill);
  return v;
}

bool DecodeValue(const std::vector<uint8_t>& payload, Key* key, uint64_t* seq) {
  if (payload.size() < 16) return false;
  return chaos::DecodePayload(
      std::vector<uint8_t>(payload.begin(), payload.begin() + 16), key, seq);
}

// --- Open-loop KV client ----------------------------------------------------

struct KvShape {
  int64_t keys = 0;
  size_t value_bytes = kValueBytes;
  double zipf_theta = 0;  ///< 0 = uniform keys; otherwise key = Zipf rank.
  double read_ratio = 0.95;
  int batch = 8;
  int shed_retries = 0;
  SimTime retry_backoff = 0;
};

/// The bench's own open-loop KV client: Poisson arrivals on the event loop,
/// each a MultiGet or MultiPut batch of distinct keys in one transaction.
/// Values are chaos::EncodePayload(key, seq) padded to 100 B, and the
/// client remembers each key's last committed seq, so reads are checked
/// for freshness as they happen and the final state by a full scan.
class KvClient {
 public:
  KvClient(Db* db, TableId table, const KvShape& shape, uint64_t seed,
           Tracer* tracer)
      : db_(db),
        session_(db->OpenSession()),
        table_(table),
        shape_(shape),
        tracer_(tracer),
        load_rng_(seed * 0x9E3779B97F4A7C15ULL + 1),
        arrival_rng_(seed * 0x9E3779B97F4A7C15ULL + 2),
        key_rng_(seed * 0x9E3779B97F4A7C15ULL + 3),
        truth_(static_cast<size_t>(shape.keys), 0) {}
  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  /// Bulk-load every key as system transactions (never shed).
  Status Load() {
    constexpr int64_t kBatch = 256;
    for (int64_t lo = 0; lo < shape_.keys; lo += kBatch) {
      std::vector<KeyValue> kvs;
      for (int64_t k = lo; k < std::min(shape_.keys, lo + kBatch); ++k) {
        const auto key = static_cast<Key>(k);
        const uint64_t seq = ++next_seq_;
        const auto fill = static_cast<uint8_t>(load_rng_.Next());
        truth_[key] = seq;
        kvs.push_back(KeyValue{key, Value(key, seq, shape_.value_bytes, fill)});
      }
      TxnHandle txn = session_.Begin();
      txn.txn()->system = true;
      StatusOr<MultiPutResult> r = txn.MultiPut(table_, kvs);
      if (!r.ok()) return r.status();
      for (const Status& s : r->statuses) {
        if (!s.ok()) return s;
      }
      WATTDB_RETURN_IF_ERROR(txn.Commit());
    }
    return Status::OK();
  }

  /// Poisson arrivals at `qps` from now until `until`.
  void Offer(double qps, SimTime until) {
    db_->events().ScheduleAt(db_->Now() + Gap(qps),
                             [this, qps, until] { Arrive(qps, until); });
  }

  /// Advance until every shed retry has resolved (bounded).
  void Drain(Meter* meter) {
    for (int i = 0; i < 120 && pending_retries_ > 0; ++i) meter->Run(kSlice);
  }

  const std::vector<TxnRecord>& records() const { return records_; }
  int64_t issued() const { return issued_; }
  int64_t errors() const { return errors_; }
  int64_t committed() const { return committed_; }

  /// One full scan: every key exactly once, holding its last committed
  /// value. Returns a digest of the final state.
  uint64_t CheckFinalState(Rep* rep) {
    std::vector<uint8_t> seen(truth_.size(), 0);
    int64_t wrong = 0;
    int64_t dup = 0;
    uint64_t digest = 1469598103934665603ULL;
    auto visited = [&] {
      Scope s(tracer_, "check:Session::Scan");
      return session_.Scan(
          table_, KeyRange{0, static_cast<Key>(shape_.keys)},
          [&](const storage::Record& rec) {
            Key k = 0;
            uint64_t seq = 0;
            const bool right = rec.key < truth_.size() &&
                               DecodeValue(rec.payload, &k, &seq) &&
                               k == rec.key && seq == truth_[rec.key];
            if (!right) {
              ++wrong;
            } else if (seen[rec.key]++ > 0) {
              ++dup;
            }
            digest = (digest ^ (rec.key * 1000003ULL + seq)) * 1099511628211ULL;
            return true;
          });
    }();
    rep->Check(visited.ok(),
               "final scan failed: " + visited.status().ToString());
    const auto missing = std::count(seen.begin(), seen.end(), 0);
    rep->Check(missing == 0 && dup == 0 && wrong == 0,
               "final scan: " + std::to_string(missing) + " key(s) missing, " +
                   std::to_string(dup) + " seen twice, " +
                   std::to_string(wrong) + " with a wrong value");
    rep->Check(errors_ == 0, std::to_string(errors_) +
                                 " transaction(s) ended in an unexpected "
                                 "status or read a stale value");
    return digest;
  }

 private:
  struct Request {
    SimTime due = 0;
    bool write = false;
    std::vector<Key> keys;
  };

  SimTime Gap(double qps) {
    return std::max<SimTime>(
        1, static_cast<SimTime>(arrival_rng_.Exponential(kUsPerSec / qps)));
  }

  Key NextKey() {
    if (shape_.zipf_theta > 0) {
      return static_cast<Key>(key_rng_.Zipf(
          static_cast<uint64_t>(shape_.keys), shape_.zipf_theta));
    }
    return static_cast<Key>(key_rng_.UniformInt(0, shape_.keys - 1));
  }

  void Arrive(double qps, SimTime until) {
    const SimTime next = db_->Now() + Gap(qps);
    if (next < until) {
      db_->events().ScheduleAt(next,
                               [this, qps, until] { Arrive(qps, until); });
    }
    Request req;
    req.due = db_->Now();
    req.write = key_rng_.UniformDouble() >= shape_.read_ratio;
    // Distinct keys: a batch naming one key twice has no single last value.
    for (int draws = 0; static_cast<int>(req.keys.size()) < shape_.batch &&
                        draws < 16 * shape_.batch;
         ++draws) {
      const Key k = NextKey();
      if (std::find(req.keys.begin(), req.keys.end(), k) == req.keys.end()) {
        req.keys.push_back(k);
      }
    }
    ++issued_;
    Attempt(req, 0);
  }

  void Attempt(const Request& req, int attempt) {
    TxnHandle txn = [&] {
      Scope s(tracer_, "Session::Begin");
      return session_.Begin(/*read_only=*/!req.write);
    }();
    TxnRecord r;
    r.due = req.due;
    r.retry_wait = db_->Now() - req.due;
    bool shed = false;
    bool error = false;
    auto classify = [&](const Status& st) {
      if (st.IsResourceExhausted()) {
        shed = true;
      } else if (!st.ok()) {
        error = true;
      }
    };
    std::vector<uint64_t> seqs;
    if (req.write) {
      std::vector<KeyValue> kvs;
      for (Key k : req.keys) {
        const uint64_t seq = ++next_seq_;
        seqs.push_back(seq);
        kvs.push_back(KeyValue{k, Value(k, seq, shape_.value_bytes, 0)});
      }
      auto res = [&] {
        Scope s(tracer_, "TxnHandle::MultiPut");
        return txn.MultiPut(table_, kvs);
      }();
      classify(res.status());
      if (res.ok()) {
        for (const Status& st : res->statuses) classify(st);
        r.round_trips = res->stats.owner_round_trips;
        r.stragglers = res->stats.straggler_retries;
      }
    } else {
      auto res = [&] {
        Scope s(tracer_, "TxnHandle::MultiGet");
        return txn.MultiGet(table_, req.keys);
      }();
      classify(res.status());
      if (res.ok()) {
        for (size_t i = 0; i < req.keys.size(); ++i) {
          const auto& rec = res->records[i];
          if (!rec.ok()) {
            // A fully loaded key space never misses: NotFound is an error.
            classify(rec.status());
            continue;
          }
          Key k = 0;
          uint64_t seq = 0;
          // Every earlier writer committed before this snapshot began.
          if (!DecodeValue(rec->payload, &k, &seq) || k != req.keys[i] ||
              seq != truth_[req.keys[i]]) {
            error = true;
          }
        }
        r.round_trips = res->stats.owner_round_trips;
        r.stragglers = res->stats.straggler_retries;
      }
    }
    BookComponents(*txn.txn(), &r);
    const SimTime pre_commit = txn.txn()->Elapsed();
    bool committed = false;
    if (!shed && !error) {
      const Status st = [&] {
        Scope s(tracer_, "TxnHandle::Commit");
        return txn.Commit();
      }();
      committed = st.ok();
      error = !st.ok();
    } else {
      Scope s(tracer_, "TxnHandle::Abort");
      txn.Abort();
    }
    r.done = txn.completed_at();
    r.commit = committed ? txn.latency_us() - pre_commit : 0;
    if (committed) {
      ++committed_;
      for (size_t i = 0; i < seqs.size(); ++i) truth_[req.keys[i]] = seqs[i];
    }
    if (shed && !error && attempt < shape_.shed_retries) {
      ++pending_retries_;
      db_->events().ScheduleAt(r.done + shape_.retry_backoff,
                               [this, req, attempt] {
                                 --pending_retries_;
                                 Attempt(req, attempt + 1);
                               });
      return;
    }
    r.committed = committed;
    r.shed = shed && !error;
    if (error) ++errors_;
    records_.push_back(r);
  }

  Db* db_;
  Session session_;
  TableId table_;
  KvShape shape_;
  Tracer* tracer_;
  Rng load_rng_;
  Rng arrival_rng_;
  Rng key_rng_;
  /// Last committed seq per key (the loader's seq until a write commits).
  std::vector<uint64_t> truth_;
  uint64_t next_seq_ = 0;
  int64_t issued_ = 0;
  int64_t committed_ = 0;
  int64_t errors_ = 0;
  int pending_retries_ = 0;
  std::vector<TxnRecord> records_;
};

// --- Closed-loop TPC-C clients ----------------------------------------------

/// The bench's own closed loop over TpccRunner::Run: each client submits a
/// mix-drawn transaction, waits for its completion, thinks, repeats.
class TpccClients {
 public:
  TpccClients(Db* db, int clients, SimTime think, uint64_t seed,
              Tracer* tracer)
      : db_(db), runner_(db->tpcc()), think_(think), tracer_(tracer) {
    for (int i = 0; i < clients; ++i) {
      rngs_.emplace_back(seed * 7919 + static_cast<uint64_t>(i));
    }
  }
  TpccClients(const TpccClients&) = delete;
  TpccClients& operator=(const TpccClients&) = delete;

  void Start() {
    running_ = true;
    for (size_t i = 0; i < rngs_.size(); ++i) {
      const auto offset = static_cast<SimTime>(rngs_[i].UniformDouble() *
                                               static_cast<double>(think_));
      db_->events().ScheduleAt(db_->Now() + offset, [this, i] { Submit(i); });
    }
  }
  void Stop() { running_ = false; }

  const std::vector<TxnRecord>& records() const { return records_; }
  int64_t errors() const { return errors_; }
  int64_t committed() const { return committed_; }

 private:
  void Submit(size_t client) {
    if (!running_) return;
    Rng* rng = &rngs_[client];
    const workload::TpccTxnType type = mix_.Pick(rng);
    TxnRecord r;
    r.due = db_->Now();
    const workload::TpccTxnResult res = [&] {
      Scope s(tracer_, "TpccRunner::Run");
      return runner_.Run(type, rng);
    }();
    r.done = res.completed_at;
    r.committed = res.committed;
    BookComponents(res.profile, &r);
    // TPC-C's 1% invalid-item NewOrders roll back by design (Aborted);
    // any other failure is unexpected.
    if (!res.committed && !res.status.IsAborted()) ++errors_;
    if (res.committed) ++committed_;
    records_.push_back(r);
    const auto think = static_cast<SimTime>(
        rng->Exponential(static_cast<double>(think_)));
    db_->events().ScheduleAt(res.completed_at + think,
                             [this, client] { Submit(client); });
  }

  Db* db_;
  workload::TpccRunner runner_;
  workload::TpccMix mix_;
  SimTime think_;
  Tracer* tracer_;
  std::vector<Rng> rngs_;
  bool running_ = false;
  int64_t errors_ = 0;
  int64_t committed_ = 0;
  std::vector<TxnRecord> records_;
};

/// A Db holding one KV table, loaded by the bench's own client.
struct KvRig {
  std::unique_ptr<Db> db;
  std::unique_ptr<KvClient> kv;
  TableId table;
};

/// Set-up shared by the KV workloads: Db::Open, CreateKvTable and the bulk
/// load, timed into rep->setup_s. False (with the reason in rep->failures)
/// when any step fails.
bool SetUpKv(const DbOptions& options, const KvShape& shape,
             int segments_per_partition, uint64_t seed, Tracer* tracer,
             KvRig* rig, Rep* rep) {
  const HostClock::time_point t0 = HostClock::now();
  Scope s(tracer, "setup");
  rig->db = Open(options, tracer, rep);
  if (rig->db == nullptr) return false;
  auto table = rig->db->CreateKvTable("kv", shape.value_bytes,
                                      static_cast<Key>(shape.keys),
                                      segments_per_partition);
  if (!table.ok()) {
    rep->Check(false, "CreateKvTable: " + table.status().ToString());
    return false;
  }
  rig->table = *table;
  rig->kv = std::make_unique<KvClient>(rig->db.get(), rig->table, shape, seed,
                                       tracer);
  Scope l(tracer, "load");
  const Status loaded = rig->kv->Load();
  rep->Check(loaded.ok(), "load: " + loaded.ToString());
  rep->setup_s = SecondsSince(t0);
  return loaded.ok();
}

/// Traced-run host probes of a Db-backed workload.
void ProbeAll(Db& db, TableId table, const Meter& meter, Tracer* tracer,
              Rep* rep) {
  if (tracer == nullptr || !tracer->enabled()) return;
  if (!meter.peek_us().empty()) {
    rep->Probe("sim.pool_peek_us", Median(meter.peek_us()), "us");
    rep->Probe("sim.pool_peek_us_max",
               *std::max_element(meter.peek_us().begin(),
                                 meter.peek_us().end()),
               "us");
  }
  ProbeRoute(db, table, tracer, rep);
  ProbeEvents(db, tracer, rep);
}

}  // namespace

// --- kv-skew-rebalance ------------------------------------------------------

Rep RunKvSkewRebalance(uint64_t seed, Tracer* tracer) {
  constexpr double kRate = 1200;  // txn/s offered
  constexpr SimTime kWarmup = 2 * kUsPerSec;
  constexpr SimTime kWindow = 45 * kUsPerSec;
  KvShape shape;
  shape.keys = 16384;
  shape.zipf_theta = 0.99;
  shape.read_ratio = 0.95;
  shape.batch = 8;

  cluster::MasterPolicy policy;
  policy.check_period = kUsPerSec / 2;
  policy.stats_window = kUsPerSec;
  policy.enable_scale_out = false;
  policy.enable_scale_in = false;
  policy.balance.enabled = true;
  policy.balance.trigger_ratio = 1.3;
  policy.balance.ewma_alpha = 0.5;
  policy.balance.trigger_after = 2;
  policy.balance.cooldown = 4 * kUsPerSec;
  policy.balance.max_moves_per_round = 6;
  policy.balance.min_total_heat = 100.0;
  DbOptions options = DbOptions()
                          .WithNodes(4)
                          .WithActiveNodes(4)
                          .WithBufferPages(8000)
                          .WithSeed(seed)
                          .WithoutTpccLoad()
                          .WithMasterLoop(policy);
  // Inflated Atom CPU costs: the node holding the contiguous Zipf head is
  // far over capacity until the balancer spreads its segments.
  options.cluster.costs.cpu_record_read_us = 300;
  options.cluster.costs.cpu_record_write_us = 600;

  Rep rep;
  KvRig rig;
  if (!SetUpKv(options, shape, /*segments_per_partition=*/32, seed, tracer,
               &rig, &rep)) {
    return rep;
  }
  Db& db = *rig.db;
  KvClient& kv = *rig.kv;

  const HostClock::time_point t0 = HostClock::now();
  MoveTotals moves(&db);
  Meter meter(&db, tracer);
  kv.Offer(kRate, db.Now() + kWarmup + kWindow);
  meter.Run(kWarmup);
  meter.Open();
  meter.Run(kWindow);
  meter.Close();
  kv.Drain(&meter);
  moves.Fold();
  rep.run_s = SecondsSince(t0);

  const WindowStats w = Summarize(kv.records(), meter.from(), meter.to());
  SimTime first_trigger = -1;
  SimTime last_done = -1;
  for (const auto& e : db.control_events()) {
    if (e.type == cluster::ControlEventType::kHeatImbalance &&
        first_trigger < 0) {
      first_trigger = e.at;
    }
    if (e.type == cluster::ControlEventType::kHeatRebalanced) {
      last_done = e.at;
      rep.notes.push_back("heat round done at " + chaos::FormatSimTime(e.at) +
                          ": " + e.detail);
    }
  }
  const double rebalance_s = first_trigger >= 0 && last_done >= first_trigger
                                 ? ToSeconds(last_done - first_trigger)
                                 : 0.0;

  rep.Add("committed_txn_per_s",
          Ratio(static_cast<double>(w.committed_done), meter.window_s()),
          "txn/s");
  rep.Add("committed_share",
          Ratio(static_cast<double>(w.issued - w.failed),
                static_cast<double>(w.issued)),
          "ratio");
  AddLatency(w, &rep);
  rep.Add("workload.failed_share",
          Ratio(static_cast<double>(w.failed), static_cast<double>(w.issued)),
          "ratio");
  AddLayerMetrics(db, meter, w, moves, rebalance_s, &rep);

  rep.Check(db.master().heat_rebalances() >= 1,
            "intent: the heat balancer never completed a round");
  rep.Check(last_done >= 0 && last_done < meter.to(),
            "intent: rebalancing did not finish inside the window");
  rep.attempted = kv.issued();
  rep.failed = kv.errors();
  rep.committed = kv.committed();
  rep.state_digest = kv.CheckFinalState(&rep);
  ProbeAll(db, rig.table, meter, tracer, &rep);
  return rep;
}

// --- kv-rw-ramp -------------------------------------------------------------

Rep RunKvRwRamp(uint64_t seed, Tracer* tracer) {
  // Fixed offered rates from about 30 % of capacity to well past it.
  const std::vector<double> kSteps = {1200, 2000, 2800, 3600,
                                      4400, 6000, 8000};
  constexpr SimTime kStep = 2 * kUsPerSec;
  // The top step's goodput is the end-to-end number: a longer step averages
  // over more shed-and-retry cycles of the collapse past capacity.
  constexpr SimTime kTopStep = 6 * kUsPerSec;
  constexpr double kSloMs = 50;
  constexpr int kQueueCap = 64;
  KvShape shape;
  shape.keys = 262144;
  shape.read_ratio = 0.5;
  shape.batch = 4;
  shape.shed_retries = 1;
  shape.retry_backoff = 10 * kUsPerMs;

  cluster::MasterPolicy policy;
  policy.check_period = kUsPerSec / 2;
  policy.stats_window = kUsPerSec;
  policy.enable_scale_out = false;
  policy.enable_scale_in = false;
  // On, but uniform keys never give it an imbalance to act on.
  policy.balance.enabled = true;
  policy.balance.trigger_ratio = 1.3;
  policy.balance.trigger_after = 2;
  policy.balance.min_total_heat = 100.0;
  admission::AdmissionPolicy shedding;
  shedding.enabled = true;
  shedding.max_queue_ops = kQueueCap;
  lanes::LanePolicy lanes;
  lanes.enabled = true;
  lanes.lanes_per_node = 2;
  const DbOptions options = DbOptions()
                                .WithNodes(4)
                                .WithActiveNodes(4)
                                .WithBufferPages(250)
                                .WithSeed(seed)
                                .WithoutTpccLoad()
                                .WithMasterLoop(policy)
                                .WithAdmissionPolicy(shedding)
                                .WithLanePolicy(lanes);

  Rep rep;
  KvRig rig;
  if (!SetUpKv(options, shape, /*segments_per_partition=*/0, seed, tracer,
               &rig, &rep)) {
    return rep;
  }
  Db& db = *rig.db;
  KvClient& kv = *rig.kv;

  const HostClock::time_point t0 = HostClock::now();
  MoveTotals moves(&db);
  Meter meter(&db, tracer);
  // The loader runs in zero simulated time and leaves the disks a deep
  // write-back backlog; every step must start from the same settled state.
  for (int i = 0; i < 300; ++i) {
    SimTime backlog = 0;
    for (cluster::Node* n : db.cluster().ActiveNodes()) {
      for (const auto& d : n->hardware().disks()) {
        backlog = std::max(backlog, d->resource().Backlog(db.Now()));
      }
    }
    if (backlog == 0) break;
    meter.Run(kSlice);
  }
  struct Step {
    double rate;
    SimTime lo, hi;
    int64_t depth_before, depth_after;
  };
  std::vector<Step> steps;
  meter.Open();
  for (double rate : kSteps) {
    const SimTime length = rate == kSteps.back() ? kTopStep : kStep;
    Step st{rate, db.Now(), db.Now() + length, MaxQueueDepth(db), 0};
    kv.Offer(rate, st.hi);
    meter.Run(length);
    st.depth_after = MaxQueueDepth(db);
    steps.push_back(st);
  }
  meter.Close();
  kv.Drain(&meter);
  moves.Fold();
  rep.run_s = SecondsSince(t0);

  double capacity = 0;
  double max_rate_at_slo = 0;
  std::vector<WindowStats> stats;
  for (const Step& st : steps) {
    stats.push_back(Summarize(kv.records(), st.lo, st.hi));
    const WindowStats& w = stats.back();
    const double committed_per_s =
        Ratio(static_cast<double>(w.committed_done), ToSeconds(st.hi - st.lo));
    capacity = std::max(capacity, committed_per_s);
    // No backlog growth: the deepest admission queue may not climb by more
    // than a quarter of its cap across the step.
    const bool steady = st.depth_after - st.depth_before <= kQueueCap / 4;
    char row[160];
    std::snprintf(row, sizeof(row),
                  "ramp step %6.0f txn/s offered: %7.1f committed/s, p50 "
                  "%8.2f ms, p99 %8.2f ms, failed %5.3f, queue %3lld -> %3lld",
                  st.rate, committed_per_s, Percentile(w.latency_ms, 50),
                  Percentile(w.latency_ms, 99),
                  Ratio(static_cast<double>(w.failed),
                        static_cast<double>(w.issued)),
                  static_cast<long long>(st.depth_before),
                  static_cast<long long>(st.depth_after));
    rep.notes.push_back(row);
    if (Percentile(w.latency_ms, 99) <= kSloMs &&
        Ratio(static_cast<double>(w.failed), static_cast<double>(w.issued)) <=
            0.01 &&
        steady) {
      max_rate_at_slo = std::max(max_rate_at_slo, st.rate);
    }
  }
  size_t nearest = 0;
  for (size_t i = 1; i < steps.size(); ++i) {
    if (std::abs(steps[i].rate - 0.7 * capacity) <
        std::abs(steps[nearest].rate - 0.7 * capacity)) {
      nearest = i;
    }
  }
  const WindowStats all = Summarize(kv.records(), meter.from(), meter.to());
  const WindowStats& top = stats.back();

  rep.Add("committed_txn_per_s",
          Ratio(static_cast<double>(top.committed_done),
                ToSeconds(steps.back().hi - steps.back().lo)),
          "txn/s");
  rep.Add("committed_share",
          Ratio(static_cast<double>(all.issued - all.failed),
                static_cast<double>(all.issued)),
          "ratio");
  AddLatency(stats[nearest], &rep);
  rep.Add("workload.failed_share",
          Ratio(static_cast<double>(all.failed),
                static_cast<double>(all.issued)),
          "ratio");
  rep.Add("workload.max_rate_at_slo_txn_per_s", max_rate_at_slo, "txn/s");
  AddLayerMetrics(db, meter, all, moves, /*rebalance_s=*/0.0, &rep);

  rep.Check(db.master().heat_rebalances() == 0,
            "intent: the balancer acted on uniform keys");
  rep.Check(moves.sum().segments_moved == 0,
            "intent: segments moved without skew");
  rep.Check(top.shed > 0, "intent: the top step never shed");
  rep.attempted = kv.issued();
  rep.failed = kv.errors();
  rep.committed = kv.committed();
  rep.state_digest = kv.CheckFinalState(&rep);
  ProbeAll(db, rig.table, meter, tracer, &rep);
  return rep;
}

// --- tpcc-scaleout ----------------------------------------------------------

Rep RunTpccScaleout(uint64_t seed, Tracer* tracer) {
  constexpr int kClients = 20;
  constexpr SimTime kThink = 60 * kUsPerMs;
  constexpr SimTime kWarmup = 30 * kUsPerSec;
  constexpr SimTime kWindow = 25 * kUsPerSec;
  // Fig. 6's physiological arm at smoke scale: data on nodes 0-1, half of
  // it moved onto freshly booted nodes 2-3 while clients keep running.
  const DbOptions options = DbOptions()
                                .WithNodes(10)
                                .WithActiveNodes(2)
                                .WithBufferPages(400)
                                .WithCc(tx::CcScheme::kMvcc)
                                .WithSeed(seed)
                                .WithWarehouses(4)
                                .WithFill(0.3)
                                .WithHomeNodes({NodeId(0), NodeId(1)})
                                .WithScheme("physiological")
                                .WithCostScale(4.0);

  Rep rep;
  std::unique_ptr<Db> db;
  {
    const HostClock::time_point setup_t0 = HostClock::now();
    Scope s(tracer, "setup");
    db = Open(options, tracer, &rep);
    rep.setup_s = SecondsSince(setup_t0);
  }
  if (db == nullptr) return rep;

  const HostClock::time_point t0 = HostClock::now();
  MoveTotals moves(db.get());
  Meter meter(db.get(), tracer);
  TpccClients clients(db.get(), kClients, kThink, seed, tracer);
  clients.Start();
  meter.Run(kWarmup);
  bool moved = false;
  const Status triggered = [&] {
    Scope s(tracer, "Db::TriggerRebalance");
    return db->TriggerRebalance({NodeId(2), NodeId(3)}, 0.5,
                                [&moved] { moved = true; });
  }();
  rep.Check(triggered.ok(), "TriggerRebalance: " + triggered.ToString());
  meter.Open();
  meter.Run(kWindow);
  meter.Close();
  clients.Stop();
  moves.Fold();
  rep.run_s = SecondsSince(t0);

  const cluster::RebalanceStats& st = db->scheme().stats();
  const double rebalance_s =
      moved ? ToSeconds(st.finished_at - st.started_at) : 0.0;
  const WindowStats w = Summarize(clients.records(), meter.from(), meter.to());
  rep.Add("committed_txn_per_s",
          Ratio(static_cast<double>(w.committed_done), meter.window_s()),
          "txn/s");
  rep.Add("committed_share",
          Ratio(static_cast<double>(w.issued - w.failed),
                static_cast<double>(w.issued)),
          "ratio");
  AddLatency(w, &rep);
  rep.Add("workload.failed_share",
          Ratio(static_cast<double>(w.failed), static_cast<double>(w.issued)),
          "ratio");
  AddLayerMetrics(*db, meter, w, moves, rebalance_s, &rep);

  rep.Check(moved && st.finished_at <= meter.to(),
            "the rebalance did not finish inside the window");
  // Every table stays routed end to end, to live owners, after the move.
  bool moved_out = false;
  for (int t = 0; t < workload::kNumTpccTables; ++t) {
    const std::vector<TableRoute> routes =
        db->Routes(db->table(static_cast<workload::TpccTable>(t)));
    rep.Check(!routes.empty(), "table " + std::to_string(t) + " has no route");
    for (size_t i = 0; i < routes.size(); ++i) {
      const cluster::Node* owner = db->cluster().node(routes[i].owner);
      rep.Check(owner != nullptr && owner->IsActive(),
                "table " + std::to_string(t) + " routes " +
                    routes[i].range.ToString() + " to an inactive node");
      if (i > 0) {
        rep.Check(routes[i - 1].range.hi == routes[i].range.lo,
                  "table " + std::to_string(t) + " has a routing gap at " +
                      routes[i].range.ToString());
      }
      moved_out = moved_out || routes[i].owner.value() >= 2;
    }
  }
  rep.Check(moved_out, "intent: no range moved onto the new nodes");
  rep.attempted = static_cast<int64_t>(clients.records().size());
  rep.failed = clients.errors();
  rep.committed = clients.committed();
  rep.Check(clients.errors() == 0,
            std::to_string(clients.errors()) +
                " transaction(s) ended in an unexpected status");
  ProbeAll(*db, db->table(workload::TpccTable::kOrderLine), meter, tracer,
           &rep);
  return rep;
}

// --- chaos-history ----------------------------------------------------------

Rep RunChaosHistory(uint64_t seed, Tracer* tracer) {
  constexpr int kSeeds = 64;
  // A scenario's own set-up is a few milliseconds, so it is repeated and
  // the median kept, like a run's repetitions.
  constexpr int kSetUps = 8;
  Rep rep;
  // Each scenario opens its own Db inside RunScenario; the set-up here is a
  // Db of the scenarios' shape (4 active nodes + 2 spares, a 2,048-key
  // table), which also hosts the traced probes.
  KvShape shape;
  shape.keys = 2048;
  shape.value_bytes = 16;
  KvRig rig;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetUps; ++i) {
    rig.kv.reset();  // The client refers to the Db: release it first.
    rig.db.reset();
    if (!SetUpKv(DbOptions()
                     .WithNodes(6)
                     .WithActiveNodes(4)
                     .WithSeed(seed)
                     .WithoutTpccLoad()
                     .WithSampling(false),
                 shape, /*segments_per_partition=*/2, seed, tracer, &rig,
                 &rep)) {
      return rep;
    }
    setup_s.push_back(rep.setup_s);
  }
  rep.setup_s = Median(setup_s);

  const HostClock::time_point t0 = HostClock::now();
  std::vector<double> seed_s;
  int64_t committed = 0, aborted = 0, indeterminate = 0, history_ops = 0;
  int64_t keys_checked = 0, over_budget = 0, crashes = 0, dead = 0;
  int64_t promoted = 0;
  SimTime sim_us = 0;
  for (int i = 0; i < kSeeds; ++i) {
    chaos::ChaosConfig cfg;
    cfg.seed = seed + static_cast<uint64_t>(i);
    cfg.record_history = true;
    cfg.elasticity = true;
    const HostClock::time_point seed_t0 = HostClock::now();
    const chaos::ScenarioResult r = [&] {
      Scope s(tracer, "chaos::RunScenario");
      return chaos::RunScenario(cfg);
    }();
    seed_s.push_back(SecondsSince(seed_t0));
    rep.Check(r.passed, "chaos seed " + std::to_string(cfg.seed) + ": " +
                            (r.violations.empty() ? std::string("failed")
                                                  : r.violations.front()));
    if (!r.passed) ++rep.failed;
    committed += static_cast<int64_t>(r.committed_txns);
    aborted += static_cast<int64_t>(r.aborted_txns);
    indeterminate += static_cast<int64_t>(r.indeterminate_txns);
    history_ops += r.history_ops;
    keys_checked += r.history_keys_checked;
    over_budget += r.history_keys_over_budget;
    crashes += r.crashes_injected;
    dead += r.nodes_declared_dead;
    promoted += r.replicas_promoted;
    sim_us += r.sim_end;
    rep.state_digest = (rep.state_digest ^ (r.passed ? 1 : 2) ^
                        (static_cast<uint64_t>(r.sim_end) << 2)) *
                       1099511628211ULL;
  }
  rep.run_s = SecondsSince(t0);

  rep.Add("committed_txn_per_s",
          Ratio(static_cast<double>(committed), ToSeconds(sim_us)), "txn/s");
  rep.Add("committed_share",
          Ratio(static_cast<double>(committed),
                static_cast<double>(committed + aborted + indeterminate)),
          "ratio");
  rep.Add("workload.failed_share",
          Ratio(static_cast<double>(aborted + indeterminate),
                static_cast<double>(committed + aborted + indeterminate)),
          "ratio");
  rep.Add("chaos.history_ops", static_cast<double>(history_ops), "count");
  rep.Add("chaos.keys_over_budget", static_cast<double>(over_budget), "count");
  rep.Add("chaos.unchecked_key_share",
          Ratio(static_cast<double>(over_budget),
                static_cast<double>(keys_checked)),
          "ratio");
  rep.Add("fault.crashes", static_cast<double>(crashes), "count");
  rep.Add("fault.nodes_declared_dead", static_cast<double>(dead), "count");
  rep.Add("replica.promoted", static_cast<double>(promoted), "count");
  rep.attempted = kSeeds;
  rep.committed = committed;
  rep.state_digest ^= rig.kv->CheckFinalState(&rep);
  if (tracer != nullptr && tracer->enabled()) {
    const double p50 = Median(seed_s);
    rep.Probe("chaos.seeds_per_min", Ratio(60.0, p50), "1/min");
    rep.Probe("chaos.slowest_seed_ratio",
              Ratio(*std::max_element(seed_s.begin(), seed_s.end()), p50),
              "ratio");
    const double peek_us = PeekBusiestPoolUs(*rig.db, tracer);
    rep.Probe("sim.pool_peek_us", peek_us, "us");
    rep.Probe("sim.pool_peek_us_max", peek_us, "us");
    ProbeRoute(*rig.db, rig.table, tracer, &rep);
    ProbeEvents(*rig.db, tracer, &rep);
  }
  return rep;
}

}  // namespace wattdb::wattbench
