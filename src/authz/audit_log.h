// AuditLog: a record of every authorization decision the engine makes.
//
// Access-control systems live and die by their audit trails; the paper's
// model makes particularly good audit material because each decision
// carries a precise description of the delivered portion (the inferred
// permit statements). The log stores one entry per decision and can
// materialize itself as a relation, so administrators inspect it with
// the same retrieve machinery (under their own permissions).
//
// The log keeps only the newest kAuditLogCapacity entries: every
// retrieve records one, so an unbounded log grows a long-running
// server's memory with the number of requests served. Sequence numbers
// keep counting across the trim, so a gap below the oldest retained
// entry shows how much was dropped.

#ifndef VIEWAUTH_AUTHZ_AUDIT_LOG_H_
#define VIEWAUTH_AUTHZ_AUDIT_LOG_H_

#include <deque>
#include <string>

#include "storage/relation.h"

namespace viewauth {

enum class AuditOutcome {
  kFullAccess = 0,
  kPartial = 1,
  kDenied = 2,
  kInsertAllowed = 3,
  kInsertDenied = 4,
  kDeleteApplied = 5,
  kModifyApplied = 6,
  kError = 7,
};

std::string_view AuditOutcomeToString(AuditOutcome outcome);

struct AuditEntry {
  // Monotonic sequence number within the log.
  long long sequence = 0;
  std::string user;
  // The statement as submitted (normalized rendering).
  std::string statement;
  AuditOutcome outcome = AuditOutcome::kDenied;
  // Rows delivered / affected; withheld counterpart where applicable.
  int affected = 0;
  int withheld = 0;
  // The inferred permit statements accompanying a partial delivery.
  std::string permits;
};

// Entries an AuditLog retains; older ones are dropped as new ones arrive.
inline constexpr size_t kAuditLogCapacity = 4096;

class AuditLog {
 public:
  // Appends `entry` with the next sequence number, dropping the oldest
  // retained entry when the log is at capacity.
  void Record(AuditEntry entry);

  // The retained entries, oldest first.
  const std::deque<AuditEntry>& entries() const { return entries_; }
  int size() const { return static_cast<int>(entries_.size()); }
  void Clear() { entries_.clear(); }

  // The retained entries as a relation:
  // AUDIT = (SEQ, USER, STATEMENT, OUTCOME, AFFECTED, WITHHELD, PERMITS).
  Relation Materialize() const;

  // Human-readable listing of the retained entries, or of the newest
  // `last_n` of them (most recent last).
  std::string ToString(int last_n = 0) const;

 private:
  std::deque<AuditEntry> entries_;
  long long next_sequence_ = 1;
};

}  // namespace viewauth

#endif  // VIEWAUTH_AUTHZ_AUDIT_LOG_H_
