#ifndef QBISM_TESTS_SUPPORT_FAULT_SWEEP_H_
#define QBISM_TESTS_SUPPORT_FAULT_SWEEP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/disk_device.h"

namespace qbism {

/// One pipeline instance under fault sweep. The harness calls the
/// factory once per fault point; the instance carries the devices to
/// instrument, the pipeline to execute, and the invariants to verify
/// after it ran (or failed).
struct FaultSweepInstance {
  /// Devices whose page transfers are fault points. The harness sweeps
  /// each device separately; the factory must return them in a stable
  /// order across calls.
  std::vector<storage::DiskDevice*> devices;

  /// Executes the pipeline (e.g. load a study, run a query, render).
  /// Returns the pipeline's end-to-end Status.
  std::function<Status()> run;

  /// Post-run invariant check, called with the pipeline's status. Runs
  /// whether the pipeline succeeded or not — this is where leak checks
  /// (LongFieldManager::CheckPageAccounting), cache-poisoning probes,
  /// and metrics assertions live. Optional (may be null).
  std::function<Status(const Status& run_status)> verify;

  /// Keeps the world (database, extension, service, ...) alive for the
  /// duration of the point. Optional.
  std::shared_ptr<void> state;
};

using FaultSweepFactory = std::function<Result<FaultSweepInstance>()>;

struct FaultSweepOptions {
  /// Test every `stride`-th transfer (1 = every page-transfer site).
  uint64_t stride = 1;
  /// Inject persistent faults (the device dies at the fault point)
  /// instead of transient one-shot faults.
  bool persistent = false;
};

/// What the sweep saw. `violations` empty means every fault point
/// behaved: clean Status propagation and all instance invariants held.
struct FaultSweepReport {
  /// Transfer counts per device observed on the fault-free run — the
  /// fault-point universe.
  std::vector<uint64_t> clean_transfers;
  uint64_t points_tested = 0;
  uint64_t faults_fired = 0;  // runs where the plan actually injected
  uint64_t surfaced = 0;      // runs that returned a non-OK status
  uint64_t absorbed = 0;      // runs OK despite a fired fault (retries)
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  uint64_t total_clean_transfers() const {
    uint64_t total = 0;
    for (uint64_t n : clean_transfers) total += n;
    return total;
  }
};

/// The fault-injection sweep (the systematic half of the paper's "LFM
/// writes straight to the raw device" robustness story): first runs the
/// pipeline fault-free to enumerate every page-transfer site on every
/// device, then re-executes it once per site with a deterministic fault
/// plan targeting exactly that transfer, asserting after each run that
///   - the pipeline returned OK or the injected IOError (no crash,
///     abort, or mistranslated error), and
///   - the instance's own invariants hold (no leaked pages, no
///     poisoned cache, errors counted).
/// Returns the report; only setup errors (a factory or clean-run
/// failure) surface as a non-OK Result. Invariant violations are
/// collected in the report so a single sweep lists every misbehaving
/// site at once.
Result<FaultSweepReport> RunFaultSweep(const FaultSweepFactory& factory,
                                       const FaultSweepOptions& options = {});

}  // namespace qbism

#endif  // QBISM_TESTS_SUPPORT_FAULT_SWEEP_H_
