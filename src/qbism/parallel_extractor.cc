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

/// Where a shard writes its pieces. They are one contiguous part of the
/// answer, in order: appended to `append` (the inline path's reserved
/// answer), or else copied from `next` on (the shard's part of the
/// sharded path's pre-sized answer).
struct ParallelExtractor::Sink {
  std::vector<uint8_t>* append = nullptr;
  uint8_t* next = nullptr;

  void Put(const uint8_t* bytes, uint64_t len) {
    if (append != nullptr) {
      append->insert(append->end(), bytes, bytes + len);
    } else {
      std::memcpy(next, bytes, len);
      next += len;
    }
  }
};

Status ParallelExtractor::RunShard(LongFieldId field,
                                   const std::vector<PlannedExtent>& units,
                                   const std::vector<ByteRange>& ranges,
                                   size_t first_range, Sink sink,
                                   const std::function<Status()>& interrupt,
                                   ShardOutcome* outcome) const {
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
    // One batch device read for the whole shard. The visitor sees each
    // unit's pages in place and copies every range's overlap with them
    // once, straight to the answer; a range running past a unit goes on
    // in the next one, so pieces arrive in range order.
    size_t j = first_range;
    status = lfm_->ReadExtents(
        field, units, [&](size_t i, const uint8_t* pages) {
          const uint64_t start = units[i].ByteOffset();
          const uint64_t end = start + units[i].ByteCount();
          for (; j < ranges.size() && ranges[j].offset < end; ++j) {
            const ByteRange& r = ranges[j];
            const uint64_t r_end = r.offset + r.length;
            const uint64_t from = std::max(r.offset, start);
            const uint64_t to = std::min(r_end, end);
            if (from < to) {
              sink.Put(pages + (from - start), to - from);
            }
            if (r_end > end) break;
          }
        });
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
  // The answer is the ranges' bytes in input order, which a shard
  // writes in one ascending walk only for a canonical (sorted,
  // disjoint) run list.
  uint64_t total = 0;
  uint64_t demanded = 0;  // pages a read per run would transfer
  uint64_t prev_end = 0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    const ByteRange& r = ranges[i];
    if (i > 0 && r.offset < prev_end) {
      return Status::InvalidArgument(
          "ExtractBytes: ranges must be sorted and disjoint");
    }
    total += r.length;
    prev_end = r.offset + r.length;
    if (r.length > 0) {
      demanded += (prev_end - 1) / kPageSize - r.offset / kPageSize + 1;
    }
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

  // Shards pay only by overlapping transfers that wait. Where a
  // transfer is a memcpy, more threads add handoffs and, under load,
  // take cores from other queries, so the caller reads inline. A
  // one-page plan cannot split.
  TaskPool* pool = this->pool();
  size_t num_shards = 1;
  if (pool != nullptr && pool->num_threads() > 0 && plan.pages_read > 1 &&
      plan.pages_read >= options_.min_parallel_pages &&
      lfm_->device()->transfers_wait()) {
    num_shards = std::min(kMaxShards,
                          static_cast<size_t>(pool->num_threads()) + 1);
  }

  const std::function<Status()> interrupt = ThreadInterrupt();
  std::vector<uint8_t> out;
  Status status;
  uint64_t num_tasks = 1;
  if (num_shards <= 1) {
    // Inline: one shard on the caller appends every piece, in order, to
    // the reserved answer, so each answer byte is written once.
    out.reserve(total);
    Sink sink;
    sink.append = &out;
    status = RunShard(field, plan.extents, ranges, 0, sink, interrupt,
                      &outcome);
  } else {
    // Sharded. Units: the plan's extents chopped at `target` pages, so a
    // single long extent (a full study) still fans out, dealt greedily
    // into contiguous slices of about `target` pages, at most num_shards
    // of them. Splitting never changes which pages move, only how many
    // device calls carry them, so pages_read and the fault sweep's
    // transfer-site count stay deterministic. A slice's pieces are one
    // contiguous part of the pre-sized answer, from where the first
    // range overlapping its first unit meets that unit.
    out.resize(total);
    struct Slice {
      std::vector<PlannedExtent> units;
      size_t first_range = 0;
      uint64_t answer_offset = 0;
    };
    const uint64_t target = (plan.pages_read + num_shards - 1) / num_shards;
    std::vector<Slice> slices(1);
    uint64_t acc = 0;
    size_t j = 0;
    uint64_t before = 0;  // answer bytes of ranges[0, j)
    for (const PlannedExtent& e : plan.extents) {
      for (uint64_t p = 0; p < e.page_count; p += target) {
        PlannedExtent unit{e.first_page + p,
                           std::min(target, e.page_count - p)};
        if (acc >= target) {
          const uint64_t start = unit.ByteOffset();
          while (j < ranges.size() &&
                 ranges[j].offset + ranges[j].length <= start) {
            before += ranges[j].length;
            ++j;
          }
          Slice& slice = slices.emplace_back();
          slice.first_range = j;
          slice.answer_offset = before;
          if (j < ranges.size() && ranges[j].offset < start) {
            slice.answer_offset += start - ranges[j].offset;
          }
          acc = 0;
        }
        slices.back().units.push_back(unit);
        acc += unit.page_count;
      }
    }
    std::vector<std::function<Status()>> tasks;
    for (const Slice& slice : slices) {
      tasks.push_back([this, field, &slice, &ranges, &interrupt, &outcome,
                       &out]() {
        Sink sink;
        sink.next = out.data() + slice.answer_offset;
        return RunShard(field, slice.units, ranges, slice.first_range, sink,
                        interrupt, &outcome);
      });
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
      stats_.pages_demanded += demanded;
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
