#include "qbism/parallel_extractor.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "storage/epoch.h"

namespace qbism {

using storage::ByteRange;
using storage::kPageSize;
using storage::LongFieldId;
using storage::PlannedExtent;
using storage::ReadPlan;

namespace {

/// Upper bound on the number of shard tasks per extraction.
constexpr size_t kMaxShards = 16;
/// Upper bound on pool helpers donated to one extraction (the pool's
/// fair-share policy may grant fewer under load).
constexpr int kMaxHelpers = 8;

std::function<Status()>& ThreadInterruptSlot() {
  static thread_local std::function<Status()> slot;
  return slot;
}

Status Poll(const std::function<Status()>& interrupt) {
  return interrupt ? interrupt() : Status::OK();
}

/// The epoch one extraction or scan reads as of: the caller's snapshot
/// when it holds one, otherwise a pin taken into `own` for the run. A
/// fresh pin over the caller's would move the caller's view (nested
/// snapshots stack and the innermost wins), so it is never taken.
uint64_t PinRun(storage::EpochManager* epochs,
                std::optional<storage::ReadSnapshot>* own) {
  uint64_t epoch = storage::EpochManager::PinnedEpoch(epochs);
  if (epoch == 0 && epochs != nullptr) epoch = own->emplace(epochs).epoch();
  return epoch;
}

/// Pages a read-per-run execution would transfer: every run pays for
/// each of its own pages, shared pages counted once per run.
uint64_t PagesDemanded(const std::vector<ByteRange>& ranges) {
  uint64_t pages = 0;
  for (const ByteRange& r : ranges) {
    if (r.length == 0) continue;
    pages += (r.offset + r.length - 1) / kPageSize - r.offset / kPageSize + 1;
  }
  return pages;
}

}  // namespace

ExtractorStatsSnapshot ExtractorStatsSnapshot::operator-(
    const ExtractorStatsSnapshot& o) const {
  ExtractorStatsSnapshot d;
  d.extractions = extractions - o.extractions;
  d.scans = scans - o.scans;
  d.runs = runs - o.runs;
  d.extents_planned = extents_planned - o.extents_planned;
  d.pages_read = pages_read - o.pages_read;
  d.pages_demanded = pages_demanded - o.pages_demanded;
  d.bytes_moved = bytes_moved - o.bytes_moved;
  d.shard_tasks = shard_tasks - o.shard_tasks;
  d.helper_tasks = helper_tasks - o.helper_tasks;
  d.busy_seconds = busy_seconds - o.busy_seconds;
  d.wall_seconds = wall_seconds - o.wall_seconds;
  return d;
}

ParallelExtractor::ParallelExtractor(storage::LongFieldManager* lfm,
                                     ExtractOptions options)
    : lfm_(lfm), options_(options) {}

void ParallelExtractor::SetThreadInterrupt(std::function<Status()> interrupt) {
  ThreadInterruptSlot() = std::move(interrupt);
}

const std::function<Status()>& ParallelExtractor::ThreadInterrupt() {
  return ThreadInterruptSlot();
}

ExtractorStatsSnapshot ParallelExtractor::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

/// Per-extraction scratchpad shared by its shard tasks.
struct ParallelExtractor::ShardOutcome {
  std::thread::id owner;
  uint64_t owner_epoch = 0;  // the run's pinned epoch, 0 = no epochs
  std::mutex mu;
  storage::IoStats helper_io;  // I/O charged to non-owner threads; mu
  uint64_t helper_tasks = 0;   // mu
  double busy_seconds = 0.0;   // mu
};

Status ParallelExtractor::RunShard(
    LongFieldId field, const std::vector<PlannedExtent>& units,
    const std::vector<ByteRange>& ranges,
    const std::vector<uint64_t>& dest_offsets,
    const std::vector<size_t>& range_lo, size_t first_extent,
    size_t extent_count, uint8_t* out,
    const std::function<Status()>& interrupt, ShardOutcome* outcome) const {
  WallTimer timer;
  // Helpers enter with the owner's context installed by TaskPool, so
  // this span (and the kIo spans under ReadExtents) joins the owning
  // query's trace regardless of which thread runs the shard.
  obs::Span shard(obs::Stage::kShard);
  obs::ScopedTraceContext shard_ctx(shard.context());
  // Same for the run's epoch: a helper thread holds no snapshot of its
  // own, so it adopts the owner's pinned epoch (the owner blocks on its
  // shards, keeping that pin alive) and every version lookup below
  // resolves against the same version the planner saw.
  storage::ReadSnapshot shard_snap(lfm_->epochs(), outcome->owner_epoch);
  storage::DiskDevice* device = lfm_->device();
  storage::IoStats io_before = device->thread_stats();

  Status status = Poll(interrupt);
  if (status.ok()) {
    // Destination per extent: straight into the result buffer when one
    // range covers the extent end to end (the common case — a coalesced
    // extent is usually interior to a long run), a scratch arena for
    // boundary extents whose pages carry bytes of several ranges or
    // bytes outside every range.
    std::vector<PlannedExtent> extents(
        units.begin() + static_cast<ptrdiff_t>(first_extent),
        units.begin() + static_cast<ptrdiff_t>(first_extent + extent_count));
    std::vector<uint8_t*> outs(extent_count, nullptr);
    std::vector<uint64_t> scratch_off(extent_count, UINT64_MAX);
    uint64_t scratch_bytes = 0;
    for (size_t i = 0; i < extent_count; ++i) {
      const PlannedExtent& e = extents[i];
      uint64_t start = e.ByteOffset();
      uint64_t bytes = e.ByteCount();
      const ByteRange& r = ranges[range_lo[first_extent + i]];
      if (r.offset <= start && r.offset + r.length >= start + bytes) {
        outs[i] = out + dest_offsets[range_lo[first_extent + i]] +
                  (start - r.offset);
      } else {
        scratch_off[i] = scratch_bytes;
        scratch_bytes += bytes;
      }
    }
    std::vector<uint8_t> scratch(scratch_bytes);
    for (size_t i = 0; i < extent_count; ++i) {
      if (scratch_off[i] != UINT64_MAX) {
        outs[i] = scratch.data() + scratch_off[i];
      }
    }

    // One scatter-gather device call for the whole shard.
    status = lfm_->ReadExtents(field, extents, outs);

    if (status.ok()) {
      // Scatter the boundary extents' pieces to their ranges.
      for (size_t i = 0; i < extent_count; ++i) {
        if (scratch_off[i] == UINT64_MAX) continue;
        uint64_t start = extents[i].ByteOffset();
        uint64_t end = start + extents[i].ByteCount();
        for (size_t j = range_lo[first_extent + i];
             j < ranges.size() && ranges[j].offset < end; ++j) {
          uint64_t ov_start = std::max(ranges[j].offset, start);
          uint64_t ov_end = std::min(ranges[j].offset + ranges[j].length, end);
          if (ov_start >= ov_end) continue;
          std::memcpy(out + dest_offsets[j] + (ov_start - ranges[j].offset),
                      scratch.data() + scratch_off[i] + (ov_start - start),
                      ov_end - ov_start);
        }
      }
    }
  }

  storage::IoStats delta = device->thread_stats() - io_before;
  shard.AddPages(delta.pages_read);
  if (!status.ok()) shard.SetFailed();
  std::lock_guard<std::mutex> lock(outcome->mu);
  outcome->busy_seconds += timer.Seconds();
  if (std::this_thread::get_id() != outcome->owner) {
    ++outcome->helper_tasks;
    outcome->helper_io.pages_read += delta.pages_read;
    outcome->helper_io.pages_written += delta.pages_written;
    outcome->helper_io.seeks += delta.seeks;
    outcome->helper_io.simulated_seconds += delta.simulated_seconds;
  }
  return status;
}

Result<std::vector<uint8_t>> ParallelExtractor::ExtractBytes(
    LongFieldId field, const std::vector<ByteRange>& ranges) const {
  WallTimer wall;
  // Everything below — PlanRead, the caller's own shards, and donated
  // helper shards (whose context TaskPool captures at RunBatch) — nests
  // under this span.
  obs::Span extract(obs::Stage::kExtract);
  obs::ScopedTraceContext extract_ctx(extract.context());
  // The scatter offsets are prefix sums over the input order, which is
  // only meaningful for a canonical (sorted, disjoint) run list.
  std::vector<uint64_t> dest_offsets(ranges.size(), 0);
  uint64_t total = 0;
  uint64_t prev_end = 0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (i > 0 && ranges[i].offset < prev_end) {
      return Status::InvalidArgument(
          "ExtractBytes: ranges must be sorted and disjoint");
    }
    dest_offsets[i] = total;
    total += ranges[i].length;
    prev_end = ranges[i].offset + ranges[i].length;
  }

  // One snapshot for the whole run: the plan and every shard resolve
  // the same version of the field, whatever commits meanwhile.
  std::optional<storage::ReadSnapshot> own_snapshot;
  ShardOutcome outcome;
  outcome.owner = std::this_thread::get_id();
  outcome.owner_epoch = PinRun(lfm_->epochs(), &own_snapshot);

  storage::ReadPlanOptions plan_options{options_.gap_fill_pages};
  QBISM_ASSIGN_OR_RETURN(ReadPlan plan,
                         lfm_->PlanRead(field, ranges, plan_options));
  std::vector<uint8_t> out(total);

  TaskPool* pool = this->pool();
  size_t num_shards = 1;
  if (pool != nullptr && pool->num_threads() > 0 && plan.pages_read > 0 &&
      plan.pages_read >= options_.min_parallel_pages) {
    num_shards = std::min(kMaxShards,
                          static_cast<size_t>(pool->num_threads()) + 1);
  }

  // The shard unit list: the plan's extents, with any extent larger than
  // the per-shard page target split so a single long run (a full-study
  // extraction is one extent) still fans out across workers. Splitting
  // never changes which pages move — only how many device calls carry
  // them — so pages_read and the fault sweep's transfer-site count stay
  // deterministic.
  std::vector<PlannedExtent> units;
  uint64_t target =
      num_shards <= 1 ? 0 : (plan.pages_read + num_shards - 1) / num_shards;
  if (target == 0) {
    units = plan.extents;
  } else {
    for (const PlannedExtent& e : plan.extents) {
      for (uint64_t p = 0; p < e.page_count; p += target) {
        units.push_back(
            {e.first_page + p, std::min(target, e.page_count - p)});
      }
    }
  }
  if (units.size() <= 1) num_shards = 1;

  // First range overlapping each unit (ranges and units are both
  // ascending, so one forward sweep suffices).
  std::vector<size_t> range_lo(units.size(), 0);
  for (size_t i = 0, j = 0; i < units.size(); ++i) {
    uint64_t start = units[i].ByteOffset();
    while (j < ranges.size() &&
           ranges[j].offset + ranges[j].length <= start) {
      ++j;
    }
    range_lo[i] = j;
  }

  const std::function<Status()> interrupt = ThreadInterrupt();

  Status status;
  uint64_t num_tasks = 1;
  if (num_shards <= 1) {
    status = RunShard(field, units, ranges, dest_offsets, range_lo, 0,
                      units.size(), out.data(), interrupt, &outcome);
  } else {
    // Contiguous unit slices balanced by page count: greedy cuts at
    // ceil(pages/shards) produce at most num_shards tasks.
    std::vector<std::function<Status()>> tasks;
    uint8_t* out_data = out.data();
    size_t begin = 0;
    uint64_t acc = 0;
    for (size_t i = 0; i < units.size(); ++i) {
      acc += units[i].page_count;
      if (acc >= target || i + 1 == units.size()) {
        size_t count = i + 1 - begin;
        tasks.push_back([this, field, &units, &ranges, &dest_offsets,
                         &range_lo, &interrupt, &outcome, out_data, begin,
                         count]() {
          return RunShard(field, units, ranges, dest_offsets, range_lo, begin,
                          count, out_data, interrupt, &outcome);
        });
        begin = i + 1;
        acc = 0;
      }
    }
    num_tasks = tasks.size();
    status = pool->RunBatch(std::move(tasks), kMaxHelpers);
  }

  // Re-attribute helper I/O to this (query-owning) thread so the
  // server's per-request ledger deltas stay exact, success or not.
  lfm_->device()->AddToThreadLedger(outcome.helper_io);

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.shard_tasks += num_tasks;
    stats_.helper_tasks += outcome.helper_tasks;
    stats_.busy_seconds += outcome.busy_seconds;
    if (status.ok()) {
      ++stats_.extractions;
      stats_.runs += ranges.size();
      stats_.extents_planned += plan.extents.size();
      stats_.pages_read += plan.pages_read;
      stats_.pages_demanded += PagesDemanded(ranges);
      stats_.bytes_moved += total;
      stats_.wall_seconds += wall.Seconds();
    }
  }
  extract.AddPages(plan.pages_read);
  extract.AddBytes(total);
  if (!status.ok()) {
    extract.SetFailed();
    return status;
  }
  return out;
}

Status ParallelExtractor::ScanField(
    LongFieldId field, uint64_t chunk_bytes,
    const std::function<Status(uint64_t offset, const uint8_t* data,
                               uint64_t len)>& fn) const {
  WallTimer wall;
  obs::Span scan(obs::Stage::kScan);
  obs::ScopedTraceContext scan_ctx(scan.context());
  // One snapshot for the whole scan: every chunk reads the version
  // whose size is taken here.
  std::optional<storage::ReadSnapshot> own_snapshot;
  PinRun(lfm_->epochs(), &own_snapshot);
  QBISM_ASSIGN_OR_RETURN(uint64_t size, lfm_->Size(field));
  const std::function<Status()> interrupt = ThreadInterrupt();
  uint64_t chunk_pages = std::max<uint64_t>(1, chunk_bytes / kPageSize);
  uint64_t field_pages = (size + kPageSize - 1) / kPageSize;
  if (field_pages > 0) chunk_pages = std::min(chunk_pages, field_pages);
  std::vector<uint8_t> buffer(chunk_pages * kPageSize);
  uint64_t pages_read = 0;
  for (uint64_t page = 0; page < field_pages; page += chunk_pages) {
    QBISM_RETURN_NOT_OK(Poll(interrupt));
    uint64_t count = std::min(chunk_pages, field_pages - page);
    PlannedExtent extent{page, count};
    QBISM_RETURN_NOT_OK(lfm_->ReadExtents(field, {extent}, {buffer.data()}));
    pages_read += count;
    uint64_t offset = page * kPageSize;
    QBISM_RETURN_NOT_OK(
        fn(offset, buffer.data(),
           std::min<uint64_t>(count * kPageSize, size - offset)));
  }
  scan.AddPages(pages_read);
  scan.AddBytes(size);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.scans;
  stats_.pages_read += pages_read;
  stats_.pages_demanded += pages_read;  // a scan wants every page once
  stats_.bytes_moved += size;
  stats_.busy_seconds += wall.Seconds();  // a scan is serial: busy == wall
  stats_.wall_seconds += wall.Seconds();
  return Status::OK();
}

}  // namespace qbism
