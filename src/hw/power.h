#ifndef WATTDB_HW_POWER_H_
#define WATTDB_HW_POWER_H_

#include "common/types.h"

namespace wattdb::hw {

/// Power state of a cluster node.
enum class PowerState {
  kStandby,   ///< Suspended-to-RAM; ~2.5 W (§3.1).
  kActive,    ///< Powered and participating in the cluster.
  kBooting,   ///< Transitioning standby -> active; draws active-idle power.
};

/// The paper's measured power envelope (§3.1):
///  - each wimpy node draws ~22 W idle-active to ~26 W fully utilized,
///  - ~2.5 W in standby,
///  - the interconnect switch draws a constant 20 W,
///  - minimal config (1 node + switch + 9 standby) ~65 W,
///  - all 10 nodes at full load: ~260-280 W.
struct PowerModelSpec {
  double node_active_idle_watts = 22.0;
  double node_active_full_watts = 26.0;
  double node_standby_watts = 2.5;
  double switch_watts = 20.0;
};

/// Maps node power state + CPU utilization to watts per §3.1. Disk power is
/// included in the node envelope (the paper quotes node totals); disks have
/// no power model of their own.
class PowerModel {
 public:
  explicit PowerModel(PowerModelSpec spec = PowerModelSpec()) : spec_(spec) {}

  /// Instantaneous node draw for the given state and utilization in [0, 1].
  double NodeWatts(PowerState state, double utilization) const;

  double SwitchWatts() const { return spec_.switch_watts; }

  const PowerModelSpec& spec() const { return spec_; }

 private:
  PowerModelSpec spec_;
};

/// Integrates watts over simulated time to produce joules.
class EnergyMeter {
 public:
  /// Add `watts` drawn over the window [from, to).
  void Accumulate(double watts, SimTime from, SimTime to);

  double joules() const { return joules_; }
  void Reset() { joules_ = 0.0; }

 private:
  double joules_ = 0.0;
};

}  // namespace wattdb::hw

#endif  // WATTDB_HW_POWER_H_
