#include "workload.h"

#include <cstdlib>

namespace e2ebench {
namespace {

// SplitMix64: a fixed generator, so the same seed gives the same inputs
// with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % static_cast<uint64_t>(n)); }
  // A percentage draw in [0, 100).
  int Percent() { return static_cast<int>(Below(100)); }

 private:
  uint64_t state_;
};

const char* const kColNames[4] = {"KEY", "A", "B", "C"};

std::string ColText(Col c) {
  return "R" + std::to_string(c.rel) + "." + kColNames[c.col];
}

std::string AtomText(const Atom& a) {
  const char* op = a.op == CmpOp::kGe ? " >= " : a.op == CmpOp::kLt ? " < " : " = ";
  return ColText(a.col) + op + std::to_string(a.value);
}

// Per-user range bounds: user i's range views start at lo(i) on A, its
// second R0 view at hi(i) on B, and its join view at jlo(i) on R0.A.
int64_t Lo(int user) { return 100 + 50 * user; }
int64_t Hi(int user) { return 450 + 50 * user; }
int64_t JoinLo(int user) { return Lo(user) - 60; }

Atom Ge(int rel, int col, int64_t v) { return Atom{Col{rel, col}, CmpOp::kGe, v}; }
Atom Lt(int rel, int col, int64_t v) { return Atom{Col{rel, col}, CmpOp::kLt, v}; }
Atom Eq(int rel, int col, int64_t v) { return Atom{Col{rel, col}, CmpOp::kEq, v}; }

std::vector<Col> Cols(int rel, std::initializer_list<int> cols) {
  std::vector<Col> out;
  for (int c : cols) out.push_back(Col{rel, c});
  return out;
}

std::string ViewText(const ViewDef& v) {
  std::string text = "view " + v.name + " (";
  for (size_t i = 0; i < v.cols.size(); ++i) {
    text += (i ? ", " : "") + ColText(v.cols[i]);
  }
  text += ")";
  std::vector<std::string> conds;
  if (v.join) conds.push_back("R0.KEY = R1.KEY");
  for (const Atom& a : v.atoms) conds.push_back(AtomText(a));
  for (size_t i = 0; i < conds.size(); ++i) {
    text += (i ? " and " : " where ") + conds[i];
  }
  return text;
}

Request Retrieve(const std::string& user, bool join, int rel, std::vector<Col> targets,
                 std::vector<Atom> atoms, bool covered, bool as_clause) {
  Request r;
  r.kind = RequestKind::kRetrieve;
  r.user = user;
  r.join = join;
  r.rel = rel;
  r.targets = std::move(targets);
  r.atoms = std::move(atoms);
  r.covered = covered;
  r.text = RetrieveText(r, as_clause);
  return r;
}

// --- request shapes --------------------------------------------------------

Request KeyLookup(int user, int rel, int64_t key, bool as_clause) {
  return Retrieve(UserName(user), false, rel, Cols(rel, {kKey, kA, kB, kC}),
                  {Eq(rel, kKey, key)}, false, as_clause);
}

// Covered by PA<user>: the range predicate repeats the view's.
Request CoveredLookup(int user, int64_t key, bool as_clause) {
  return Retrieve(UserName(user), false, 0, Cols(0, {kKey, kA, kB}),
                  {Eq(0, kKey, key), Ge(0, kA, Lo(user))}, true, as_clause);
}

Request JoinLookup(int user, int64_t key, bool as_clause) {
  return Retrieve(UserName(user), true, 0, {Col{0, kKey}, Col{0, kA}, Col{1, kB}},
                  {Eq(0, kKey, key)}, false, as_clause);
}

Request JoinWindow(int user, int64_t lo, int64_t hi, bool as_clause) {
  return Retrieve(UserName(user), true, 0, {Col{0, kKey}, Col{0, kA}, Col{1, kB}},
                  {Ge(0, kKey, lo), Lt(0, kKey, hi)}, false, as_clause);
}

// R1 rows with KEY in [lo, hi) (hi < 0: unbounded), projecting the
// toggled column R1.C and the attribute T<i>'s predicate tests.
Request ToggleWindow(int user, int64_t lo, int64_t hi, bool as_clause) {
  std::vector<Atom> atoms = {Ge(1, kKey, lo)};
  if (hi >= 0) atoms.push_back(Lt(1, kKey, hi));
  return Retrieve(UserName(user), false, 1, Cols(1, {kKey, kA, kC}), std::move(atoms),
                  false, as_clause);
}

// The three fixed join scans of join_scans.
Request JoinScan(int user, int which) {
  const std::vector<Col> narrow = {Col{0, kKey}, Col{0, kA}, Col{1, kB}};
  switch (which) {
    case 0:
      return Retrieve(UserName(user), true, 0, narrow, {}, false, false);
    case 1:
      return Retrieve(UserName(user), true, 0,
                      {Col{0, kKey}, Col{0, kA}, Col{0, kC}, Col{1, kA}, Col{1, kB}},
                      {Ge(0, kB, 300)}, false, false);
    default:  // covered by J<user>
      return Retrieve(UserName(user), true, 0, narrow, {Ge(0, kA, JoinLo(user))}, true,
                      false);
  }
}

Request Grant(const Inputs& in, int user, int view, bool permit) {
  Request r;
  r.kind = permit ? RequestKind::kPermit : RequestKind::kDeny;
  r.user = "admin";
  r.grant_user = user;
  r.grant_view = view;
  r.text = std::string(permit ? "permit " : "deny ") + in.views[static_cast<size_t>(view)].name +
           " to " + UserName(user);
  return r;
}

int ViewIndex(const Inputs& in, const std::string& name) {
  for (size_t v = 0; v < in.views.size(); ++v) {
    if (in.views[v].name == name) return static_cast<int>(v);
  }
  return -1;
}

Request Insert(int rel, const Row& row) {
  Request r;
  r.kind = RequestKind::kInsert;
  r.user = "admin";
  r.insert_rel = rel;
  r.row = row;
  r.text = "insert into R" + std::to_string(rel) + " values (" + std::to_string(row.v[0]) + ", " +
           std::to_string(row.v[1]) + ", " + std::to_string(row.v[2]) + ", " +
           std::to_string(row.v[3]) + ")";
  return r;
}

Row RandomRow(Rng& rng, int64_t key) {
  Row row;
  row.v = {key, rng.Below(1000), rng.Below(1000), rng.Below(1000)};
  return row;
}

// User sessions: connection c serves users c, c+2, c+4, c+6, c, ... in
// sessions of `session` requests; `make(user, rng)` draws one request.
template <typename MakeFn>
std::vector<Request> SessionStream(int conn, int count, int session, Rng& rng, MakeFn make) {
  std::vector<Request> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int user = conn + 2 * ((i / session) % (kUsers / 2));
    out.push_back(make(user, rng));
  }
  return out;
}

}  // namespace

std::optional<WorkloadKind> ParseWorkload(const std::string& name) {
  if (name == "param_lookups") return WorkloadKind::kParamLookups;
  if (name == "join_scans") return WorkloadKind::kJoinScans;
  if (name == "grant_churn") return WorkloadKind::kGrantChurn;
  return std::nullopt;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kParamLookups:
      return "param_lookups";
    case WorkloadKind::kJoinScans:
      return "join_scans";
    case WorkloadKind::kGrantChurn:
      return "grant_churn";
  }
  return "?";
}

int UserIndex(const std::string& user) {
  if (user == "Auditor") return kUsers;
  return std::atoi(user.c_str() + 1);
}

std::string UserName(int user) {
  return user == kUsers ? "Auditor" : "U" + std::to_string(user);
}

std::string RetrieveText(const Request& r, bool with_as_clause) {
  std::string text = "retrieve (";
  for (size_t i = 0; i < r.targets.size(); ++i) {
    text += (i ? ", " : "") + ColText(r.targets[i]);
  }
  text += ")";
  std::vector<std::string> conds;
  if (r.join) conds.push_back("R0.KEY = R1.KEY");
  for (const Atom& a : r.atoms) conds.push_back(AtomText(a));
  for (size_t i = 0; i < conds.size(); ++i) {
    text += (i ? " and " : " where ") + conds[i];
  }
  if (with_as_clause) text += " as " + r.user;
  return text;
}

std::vector<Request> RecoveryChecks() {
  std::vector<Request> out;
  for (int r = 0; r < 2; ++r) {
    out.push_back(Retrieve(UserName(kUsers), false, r, Cols(r, {kKey, kA, kB, kC}),
                           {Ge(r, kKey, 0)}, true, true));
  }
  for (int u = 0; u < kToggledUsers; ++u) out.push_back(ToggleWindow(u, 0, 64, true));
  return out;
}

Inputs MakeInputs(WorkloadKind kind, uint64_t seed, int scale) {
  Inputs in;
  in.kind = kind;
  in.seed = seed;
  // The database is seeded apart from the request streams, so a longer
  // run sends more requests against the same rows.
  Rng data_rng(seed * 2 + 1);
  Rng req_rng(seed * 2 + 2);

  int per_stream = 0;
  int session = 0;  // requests per user session
  switch (kind) {
    case WorkloadKind::kParamLookups:
      in.rows_per_relation = 2048;
      per_stream = 1200 * scale;
      session = 200;
      break;
    case WorkloadKind::kJoinScans:
      in.rows_per_relation = 2048;
      per_stream = 80 * scale;
      session = 16;
      break;
    case WorkloadKind::kGrantChurn:
      in.rows_per_relation = 1024;
      per_stream = 1450 * scale;
      session = 200;
      break;
  }
  const int n = in.rows_per_relation;

  for (int r = 0; r < 2; ++r) {
    in.rows[r].reserve(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k) in.rows[r].push_back(RandomRow(data_rng, k));
  }

  // Views: PA<i>, PB<i> (range views over R0, R1), Q<i> (second range
  // view over R0), J<i> (key join) and T<i> (R1.C, toggled on
  // grant_churn), then ALL0 and ALL1, the Auditor's full views.
  in.grants.resize(kUsers + 1);
  auto add_view = [&in](int user, ViewDef v) {
    in.grants[static_cast<size_t>(user)].push_back(static_cast<int>(in.views.size()));
    in.views.push_back(std::move(v));
  };
  for (int i = 0; i < kUsers; ++i) {
    const std::string s = std::to_string(i);
    add_view(i, ViewDef{"PA" + s, false, 0, Cols(0, {kKey, kA, kB}), {Ge(0, kA, Lo(i))}});
    add_view(i, ViewDef{"PB" + s, false, 1, Cols(1, {kKey, kA, kB}), {Ge(1, kA, Lo(i))}});
    add_view(i, ViewDef{"Q" + s, false, 0, Cols(0, {kKey, kB, kC}), {Ge(0, kB, Hi(i))}});
    add_view(i, ViewDef{"J" + s, true, 0, {Col{0, kKey}, Col{0, kA}, Col{1, kB}},
                        {Ge(0, kA, JoinLo(i))}});
    add_view(i, ViewDef{"T" + s, false, 1, Cols(1, {kKey, kC}), {Lt(1, kA, kToggleLimit)}});
  }
  add_view(kUsers, ViewDef{"ALL0", false, 0, Cols(0, {kKey, kA, kB, kC}), {}});
  add_view(kUsers, ViewDef{"ALL1", false, 1, Cols(1, {kKey, kA, kB, kC}), {}});

  auto define = [&in](std::string text) {
    Request r;
    r.kind = RequestKind::kDefine;
    r.text = std::move(text);
    in.load.push_back(std::move(r));
  };
  for (int r = 0; r < 2; ++r) {
    define("relation R" + std::to_string(r) + " (KEY int key, A int, B int, C int)");
  }
  for (int r = 0; r < 2; ++r) {
    for (const Row& row : in.rows[r]) in.load.push_back(Insert(r, row));
  }
  for (const ViewDef& v : in.views) define(ViewText(v));
  for (int u = 0; u <= kUsers; ++u) {
    for (int v : in.grants[static_cast<size_t>(u)]) {
      Request r;
      r.kind = RequestKind::kPermit;
      r.text = "permit " + in.views[static_cast<size_t>(v)].name + " to " + UserName(u);
      in.load.push_back(std::move(r));
    }
  }

  // The probe: an R0 row whose A no view of U0 covers, with a B that Q0
  // delivers, so the reply has both a withheld and a delivered cell.
  in.probe_key = -1;
  for (const Row& row : in.rows[0]) {
    if (row.v[kA] < JoinLo(0) && row.v[kB] >= Hi(0)) {
      in.probe_key = row.v[kKey];
      break;
    }
  }
  in.probe = KeyLookup(0, 0, in.probe_key, /*as_clause=*/true);

  switch (kind) {
    case WorkloadKind::kParamLookups:
      for (int c = 0; c < 2; ++c) {
        in.streams[c] = SessionStream(c, per_stream, session, req_rng,
                                      [n](int user, Rng& rng) {
                                        const int64_t key = rng.Below(n);
                                        const int p = rng.Percent();
                                        if (p < 60) return KeyLookup(user, 0, key, false);
                                        if (p < 75) return KeyLookup(user, 1, key, false);
                                        if (p < 90) return JoinLookup(user, key, false);
                                        return CoveredLookup(user, key, false);
                                      });
      }
      break;
    case WorkloadKind::kJoinScans:
      for (int c = 0; c < 2; ++c) {
        in.streams[c] = SessionStream(c, per_stream, session, req_rng,
                                      [](int user, Rng& rng) {
                                        const int p = rng.Percent();
                                        return JoinScan(user, p < 40 ? 0 : p < 70 ? 1 : 2);
                                      });
      }
      break;
    case WorkloadKind::kGrantChurn: {
      // Connection 0, the admin: blocks of ten requests, one write then
      // nine `as USER` retrieves. A toggle is followed by a read as the
      // toggled user (read-your-writes for grants); an insert by a read
      // of the inserted rows' range.
      std::vector<Request>& admin = in.streams[0];
      std::vector<bool> granted(kToggledUsers, true);
      int toggles = 0;
      int64_t next_key = n;
      for (int block = 0; static_cast<int>(admin.size()) < per_stream; ++block) {
        if (block % 2 == 0) {
          const int user = toggles++ % kToggledUsers;
          granted[static_cast<size_t>(user)] = !granted[static_cast<size_t>(user)];
          admin.push_back(Grant(in, user, ViewIndex(in, "T" + std::to_string(user)),
                                granted[static_cast<size_t>(user)]));
          const int64_t lo = 32 * req_rng.Below(8);
          admin.push_back(ToggleWindow(user, lo, lo + 32, true));
        } else {
          admin.push_back(Insert(1, RandomRow(req_rng, next_key++)));
          const int64_t lo = n + 64 * ((next_key - 1 - n) / 64);
          admin.push_back(ToggleWindow(static_cast<int>(req_rng.Below(kToggledUsers)), lo, -1,
                                       true));
        }
        for (int i = 0; i < 8; ++i) {
          const int user = static_cast<int>(req_rng.Below(kToggledUsers));
          if (req_rng.Percent() < 50) {
            const int64_t lo = 32 * req_rng.Below(8);
            admin.push_back(ToggleWindow(user, lo, lo + 32, true));
          } else {
            admin.push_back(KeyLookup(user, 0, req_rng.Below(n), true));
          }
        }
      }
      // Connection 1, a user session (U6, then U7, ...) that only reads;
      // none of its answers depends on the admin's writes.
      std::vector<Request>& reader = in.streams[1];
      for (int i = 0; i < per_stream; ++i) {
        const int user = kToggledUsers + (i / session) % 2;
        const int p = req_rng.Percent();
        if (p < 50) {
          reader.push_back(KeyLookup(user, 0, req_rng.Below(n), false));
        } else if (p < 80) {
          const int64_t lo = 64 * req_rng.Below(4);
          reader.push_back(JoinWindow(user, lo, lo + 64, false));
        } else {
          reader.push_back(CoveredLookup(user, req_rng.Below(n), false));
        }
      }
      break;
    }
  }
  if (kind != WorkloadKind::kGrantChurn) {
    // The read-only workloads' writes: spread evenly over each connection,
    // each a short admin session toggling the Auditor's grant of ALL<c>
    // (one view per connection, so the two never race on one grant). No
    // other user's answers or cache entries depend on those grants. An
    // even count, so both grants end permitted.
    const int writes = 76 * scale;
    for (int c = 0; c < 2; ++c) {
      const int all = ViewIndex(in, "ALL" + std::to_string(c));
      std::vector<Request> merged;
      for (int i = 0; i < per_stream; ++i) {
        const long long due = static_cast<long long>(i) * writes / per_stream;
        if (static_cast<long long>(i + 1) * writes / per_stream > due) {
          merged.push_back(Grant(in, kUsers, all, due % 2 == 1));
        }
        merged.push_back(std::move(in.streams[c][static_cast<size_t>(i)]));
      }
      in.streams[c] = std::move(merged);
    }
  }
  return in;
}

}  // namespace e2ebench
