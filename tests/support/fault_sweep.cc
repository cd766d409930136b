#include "support/fault_sweep.h"

#include <string>
#include <utility>

#include "common/macros.h"
#include "storage/fault_plan.h"

namespace qbism {

using storage::DiskDevice;
using storage::FaultDurability;
using storage::FaultPlan;
using storage::FaultStats;

namespace {

/// Runs one instance with `plan` installed on `target` (or no plan when
/// target is null) and folds the outcome into the report.
struct PointOutcome {
  Status run_status;
  bool fired = false;
  std::vector<uint64_t> transfers;  // per device, this run only
};

Result<PointOutcome> RunPoint(const FaultSweepFactory& factory,
                              size_t target_device, const FaultPlan* plan,
                              std::string* violation) {
  QBISM_ASSIGN_OR_RETURN(FaultSweepInstance instance, factory());
  if (!instance.run) {
    return Status::InvalidArgument("FaultSweep: instance has no run()");
  }
  // Snapshot counters first: instances may share long-lived devices
  // (e.g. a read-only database swept across many query runs).
  std::vector<FaultStats> before;
  before.reserve(instance.devices.size());
  for (DiskDevice* device : instance.devices) {
    before.push_back(device->fault_stats());
  }
  if (plan != nullptr) {
    instance.devices.at(target_device)->InstallFaultPlan(*plan);
  }
  PointOutcome outcome;
  outcome.run_status = instance.run();
  if (plan != nullptr) {
    instance.devices.at(target_device)->ClearFault();
  }
  for (size_t d = 0; d < instance.devices.size(); ++d) {
    FaultStats delta = instance.devices[d]->fault_stats() - before[d];
    outcome.transfers.push_back(delta.transfers);
    if (plan != nullptr && d == target_device) {
      outcome.fired = delta.faults_injected > 0;
    }
  }
  if (instance.verify) {
    Status verified = instance.verify(outcome.run_status);
    if (!verified.ok() && violation != nullptr) {
      *violation = verified.ToString();
    }
  }
  return outcome;
}

}  // namespace

Result<FaultSweepReport> RunFaultSweep(const FaultSweepFactory& factory,
                                       const FaultSweepOptions& options) {
  FaultSweepReport report;
  uint64_t stride = options.stride == 0 ? 1 : options.stride;

  // Fault-free baseline: must succeed, and its per-device transfer
  // counts enumerate the fault points.
  {
    std::string violation;
    QBISM_ASSIGN_OR_RETURN(
        PointOutcome clean,
        RunPoint(factory, /*target_device=*/0, /*plan=*/nullptr, &violation));
    if (!clean.run_status.ok()) {
      return Status::InvalidArgument(
          "FaultSweep: the fault-free pipeline run failed: " +
          clean.run_status.ToString());
    }
    if (!violation.empty()) {
      return Status::InvalidArgument(
          "FaultSweep: invariants already broken on the fault-free run: " +
          violation);
    }
    report.clean_transfers = std::move(clean.transfers);
  }

  for (size_t d = 0; d < report.clean_transfers.size(); ++d) {
    for (uint64_t op = 0; op < report.clean_transfers[d]; op += stride) {
      FaultPlan plan = FaultPlan::FailAtTransfer(
          op, options.persistent ? FaultDurability::kPersistent
                                 : FaultDurability::kTransient);
      std::string violation;
      QBISM_ASSIGN_OR_RETURN(PointOutcome outcome,
                             RunPoint(factory, d, &plan, &violation));
      ++report.points_tested;
      const Status& st = outcome.run_status;
      if (outcome.fired) ++report.faults_fired;
      if (!st.ok()) {
        ++report.surfaced;
      } else if (outcome.fired) {
        ++report.absorbed;
      }
      auto tag = [&](const std::string& what) {
        report.violations.push_back("device " + std::to_string(d) +
                                    " transfer " + std::to_string(op) + ": " +
                                    what);
      };
      // Clean propagation: the only acceptable failure is the injected
      // IOError. A different code means some layer mistranslated or
      // swallowed-and-corrupted the error.
      if (!st.ok() && !st.IsIOError()) {
        tag("fault surfaced as " + st.ToString() + " instead of IOError");
      }
      if (!st.ok() && !outcome.fired) {
        tag("pipeline failed (" + st.ToString() +
            ") but the plan never fired");
      }
      if (!violation.empty()) {
        tag(violation);
      }
    }
  }
  return report;
}

}  // namespace qbism
