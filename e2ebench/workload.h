// The benchmark's inputs, generated from a workload name and a seed.
//
// Everything here is the benchmark's own model of the database: the rows
// it loads, the view definitions and grants it issues, and the request
// streams it sends. The oracle (oracle.h) checks replies against this
// model alone; nothing in this file calls into the viewauth libraries.
//
// All three workloads share one schema and one catalog shape: relations
// R0 and R1 (KEY int key, A, B, C int) and eight users U0..U7, each
// holding staggered range views over R0 and R1, one R0-R1 key-join view
// and one view T<i> that is the user's only grant on R1.C. A ninth user,
// the Auditor, sees both relations whole; recovery is checked through it.

#ifndef VIEWAUTH_E2EBENCH_WORKLOAD_H_
#define VIEWAUTH_E2EBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace e2ebench {

enum class WorkloadKind { kParamLookups, kJoinScans, kGrantChurn };

std::optional<WorkloadKind> ParseWorkload(const std::string& name);
const char* WorkloadName(WorkloadKind kind);

constexpr int kUsers = 8;
// grant_churn toggles T<i> for users U0..U5; U6 and U7 keep their grants.
constexpr int kToggledUsers = 6;
// Column indices of R0/R1 (and of Row::v).
constexpr int kKey = 0, kA = 1, kB = 2, kC = 3;
// T<i> admits R1 rows with A below this.
constexpr int64_t kToggleLimit = 600;

struct Col {
  int rel = 0;  // 0 = R0, 1 = R1
  int col = 0;  // kKey..kC
};

enum class CmpOp { kGe, kLt, kEq };

struct Atom {
  Col col;
  CmpOp op = CmpOp::kEq;
  int64_t value = 0;
};

struct Row {
  std::array<int64_t, 4> v{};  // KEY, A, B, C
};

// A single-relation view over `rel`, or (join) a view over R0 and R1
// joined on KEY.
struct ViewDef {
  std::string name;
  bool join = false;
  int rel = 0;
  std::vector<Col> cols;
  std::vector<Atom> atoms;
};

// kDefine: a relation or view definition (set-up only).
enum class RequestKind { kRetrieve, kPermit, kDeny, kInsert, kDefine };

struct Request {
  RequestKind kind = RequestKind::kRetrieve;
  // The statement as it goes over the wire.
  std::string text;

  // --- retrieve -------------------------------------------------------
  std::string user;  // the user the retrieve runs as; "admin" for writes
  bool join = false;  // R0 joined with R1 on KEY; else over `rel` alone
  int rel = 0;
  std::vector<Col> targets;  // targets[0] is always a KEY column
  std::vector<Atom> atoms;
  // One granted view covers the whole request, so the answer must come
  // back whole with no permit lines (the paper's Example 3).
  bool covered = false;

  // --- permit / deny and insert --------------------------------------
  // A measured permit/deny flips grant_view (an index into
  // Inputs::views) for grant_user; set-up grants leave them -1.
  int grant_user = -1;
  int grant_view = -1;
  int insert_rel = 1;
  Row row;
};

struct Inputs {
  WorkloadKind kind = WorkloadKind::kParamLookups;
  uint64_t seed = 0;
  int rows_per_relation = 0;
  std::vector<Row> rows[2];  // rows[r][k] has KEY k
  std::vector<ViewDef> views;
  // grants[u] = indices into views granted to user u (U0..U7, then the
  // Auditor, who holds full views of R0 and R1).
  std::vector<std::vector<int>> grants;
  // The set-up load, sent by the admin over the wire: relations, rows,
  // views and grants. Every statement is a write.
  std::vector<Request> load;

  // The measured request streams, one per connection. Connection 0 is the
  // admin connection on grant_churn; elsewhere both are user sessions, a
  // connection reconnects whenever the next request's user changes, and
  // its writes are sent by short admin sessions.
  std::vector<Request> streams[2];

  // The first request a run sends, which ends set-up. Its reply also
  // feeds the oracle self-test: row `probe_key` of R0 has a cell that
  // no view of U0 covers.
  Request probe;
  int64_t probe_key = 0;
};

// True when connection c of the streams logs in as the admin.
inline bool AdminStream(const Inputs& in, int c) {
  return in.kind == WorkloadKind::kGrantChurn && c == 0;
}

int UserIndex(const std::string& user);  // "U3" -> 3, "Auditor" -> kUsers
std::string UserName(int user);

// Builds the inputs of `kind` for `seed`. `scale` multiplies the number
// of requests per stream (the run length), not the database size.
Inputs MakeInputs(WorkloadKind kind, uint64_t seed, int scale);

std::string RetrieveText(const Request& r, bool with_as_clause);

// The reads that check a restarted server holds every acknowledged
// write: the Auditor's whole R0 and R1, and each toggled user's view of
// R1.C (present exactly when the last acknowledged toggle permitted it).
std::vector<Request> RecoveryChecks();

}  // namespace e2ebench

#endif  // VIEWAUTH_E2EBENCH_WORKLOAD_H_
