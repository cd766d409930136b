#include "qbism/ingest.h"

#include <string>
#include <vector>

#include "common/macros.h"
#include "index/manager.h"
#include "obs/trace.h"

namespace qbism {

namespace {

/// The study's long-field handles across the three study tables, in a
/// deterministic order (rawVolume, warpedVolume, intensityBand rows).
Result<std::vector<storage::LongFieldId>> StudyFields(sql::Database* db,
                                                      int study_id) {
  std::vector<storage::LongFieldId> fields;
  const char* kQueries[] = {
      "select data from rawVolume where studyId = ",
      "select data from warpedVolume where studyId = ",
      "select region from intensityBand where studyId = ",
  };
  for (const char* q : kQueries) {
    QBISM_ASSIGN_OR_RETURN(sql::ResultSet rows,
                           db->Execute(q + std::to_string(study_id)));
    for (const sql::Row& row : rows.rows) {
      QBISM_ASSIGN_OR_RETURN(storage::LongFieldId field, row[0].AsLongField());
      if (!field.IsNull()) fields.push_back(field);
    }
  }
  return fields;
}

Result<bool> StudyExists(sql::Database* db, int study_id) {
  QBISM_ASSIGN_OR_RETURN(
      sql::ResultSet rows,
      db->Execute("select studyId from rawVolume where studyId = " +
                  std::to_string(study_id)));
  return !rows.rows.empty();
}

}  // namespace

Status IngestManager::IngestStudy(const med::StudyRecord& record) {
  return RunLocked(record, /*replace=*/false);
}

Status IngestManager::ReplaceStudy(const med::StudyRecord& record) {
  return RunLocked(record, /*replace=*/true);
}

Status IngestManager::RunLocked(const med::StudyRecord& record, bool replace) {
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  obs::Span span(obs::Stage::kIngest);
  sql::Database* db = ext_->db();
  storage::LongFieldManager* lfm = db->lfm();
  if (!lfm->durable()) {
    return Status::FailedPrecondition(
        "IngestManager: the database was not opened with enable_wal");
  }
  QBISM_ASSIGN_OR_RETURN(bool exists, StudyExists(db, record.study_id));
  if (exists && !replace) {
    return Status::AlreadyExists("study " + std::to_string(record.study_id) +
                                 " already exists (use ReplaceStudy)");
  }

  // Take the study offline before touching anything: from here until
  // commit (or fresh-ingest cleanup) no reader may be served this
  // study, because its catalog rows mutate eagerly while its long
  // fields stay staged.
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    offline_.insert(record.study_id);
  }

  Status status = [&]() -> Status {
    std::vector<storage::LongFieldId> old_fields;
    if (exists) {
      QBISM_ASSIGN_OR_RETURN(old_fields, StudyFields(db, record.study_id));
    }
    QBISM_ASSIGN_OR_RETURN(uint64_t txn, lfm->BeginTxn());
    (void)txn;
    Status body = [&]() -> Status {
      if (exists) {
        // Retire the old study inside the same transaction: logged row
        // deletes plus staged long-field drops, so the swap is atomic
        // both in memory (published at commit) and across a crash
        // (replayed or discarded as a unit).
        QBISM_RETURN_NOT_OK(
            db->DeleteRowsLogged("rawVolume", "studyId", record.study_id));
        QBISM_RETURN_NOT_OK(
            db->DeleteRowsLogged("warpedVolume", "studyId", record.study_id));
        QBISM_RETURN_NOT_OK(
            db->DeleteRowsLogged("intensityBand", "studyId", record.study_id));
        for (storage::LongFieldId field : old_fields) {
          QBISM_RETURN_NOT_OK(lfm->Delete(field));
        }
      }
      index::StudySummary summary;
      QBISM_RETURN_NOT_OK(med::StoreStudyRecord(
          ext_, record, index_ != nullptr ? &summary : nullptr));
      if (index_ != nullptr) {
        // Logged into this transaction (kIndexUpsert) and staged in
        // memory; published only after the commit below succeeds.
        QBISM_RETURN_NOT_OK(index_->StageUpsert(std::move(summary)));
      }
      return Status::OK();
    }();
    if (!body.ok()) {
      QBISM_RETURN_NOT_OK(lfm->AbortTxn());
      return body;
    }
    QBISM_RETURN_NOT_OK(lfm->CommitTxn());
    if (index_ != nullptr) index_->PublishStaged();
    return Status::OK();
  }();

  if (!status.ok() && index_ != nullptr) index_->DropStaged();

  if (!status.ok()) {
    // The transaction never committed: staged extents are already freed
    // (Abort/CommitTxn rollback). Scrub the eagerly inserted rows so
    // the in-memory catalog carries no half-study.
    ScrubRows(record.study_id);
    bool quarantined = false;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      ++stats_.failures;
      if (exists) {
        // A failed replace gutted the old study's rows in memory while
        // its durable (recoverable) state still holds them: quarantine
        // the id rather than serve a state that would not survive a
        // crash.
        ++stats_.quarantined;
        ++commit_versions_[record.study_id];
        quarantined = true;
      } else {
        offline_.erase(record.study_id);
      }
    }
    if (quarantined) {
      // Quarantine changes the study's servable state just as a commit
      // does: results cached before the failed replace must not outlive
      // it, and an in-flight query must not fill the cache afterwards.
      NotifyCommitted(record.study_id);
    }
    return status;
  }

  {
    std::lock_guard<std::mutex> lock(state_mu_);
    offline_.erase(record.study_id);
    ++commit_versions_[record.study_id];
    if (exists) {
      ++stats_.replaces;
    } else {
      ++stats_.ingests;
    }
  }
  NotifyCommitted(record.study_id);
  return Status::OK();
}

void IngestManager::ScrubRows(int study_id) {
  sql::Database* db = ext_->db();
  const char* kTables[] = {"rawVolume", "warpedVolume", "intensityBand"};
  for (const char* table : kTables) {
    // Unlogged: this repairs only the in-memory catalog after an abort;
    // the WAL never saw a committed trace of these rows.
    (void)db->Execute(std::string("delete from ") + table +
                      " where studyId = " + std::to_string(study_id));
  }
}

bool IngestManager::IsVisible(int study_id) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return offline_.find(study_id) == offline_.end();
}

uint64_t IngestManager::CommitVersion(int study_id) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = commit_versions_.find(study_id);
  return it == commit_versions_.end() ? 0 : it->second;
}

storage::LongFieldManager::VacuumStats IngestManager::Vacuum() {
  storage::LongFieldManager::VacuumStats out = ext_->db()->lfm()->Vacuum();
  if (index_ != nullptr) index_->Vacuum();
  std::lock_guard<std::mutex> lock(state_mu_);
  stats_.vacuum_extents_freed += out.extents_freed;
  stats_.vacuum_pages_freed += out.pages_freed;
  return out;
}

uint64_t IngestManager::AddCommitListener(CommitListener listener) {
  std::lock_guard<std::mutex> lock(state_mu_);
  uint64_t token = next_listener_token_++;
  listeners_[token] = std::move(listener);
  return token;
}

void IngestManager::RemoveCommitListener(uint64_t token) {
  std::lock_guard<std::mutex> lock(state_mu_);
  listeners_.erase(token);
}

void IngestManager::NotifyCommitted(int study_id) {
  std::vector<CommitListener> listeners;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    listeners.reserve(listeners_.size());
    for (const auto& [token, fn] : listeners_) listeners.push_back(fn);
  }
  for (const CommitListener& fn : listeners) fn(study_id);
}

IngestManager::Stats IngestManager::stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return stats_;
}

}  // namespace qbism
