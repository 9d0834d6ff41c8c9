// The reply oracle: checks each server reply against the benchmark's own
// copy of the rows, view definitions and grants (workload.h). It shares
// no code with the program's mask derivation, evaluation or rendering.
//
// Checks, for a retrieve reply:
//   (a) soundness — each delivered cell equals its row's true value and
//       is covered by a view granted to the user that projects the
//       column and whose predicate holds on the row;
//   (b) completeness where the method must give it — a request covered
//       by one granted view comes back whole, with no permit lines;
//   (c) read-your-writes for grants — while T<i> is granted, R1.C is
//       delivered on every requested row T<i> admits (soundness already
//       rejects any R1.C cell while it is denied).
// The recovery check (d) reuses (a)-(c) against the acknowledged state.

#ifndef VIEWAUTH_E2EBENCH_ORACLE_H_
#define VIEWAUTH_E2EBENCH_ORACLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "workload.h"

namespace e2ebench {

class Oracle {
 public:
  explicit Oracle(const Inputs& inputs);

  // Checks one retrieve reply; on failure returns false and says why.
  bool Check(const Request& request, const std::string& reply, std::string* why);

  // Applies an acknowledged churn write to the model (the set-up load is
  // part of the model from the start).
  void Apply(const Request& write);

  // Whether T<user>, the user's only view of R1.C, is granted.
  bool toggle_granted(int user) const;
  void set_toggle_granted(int user, bool on);

 private:
  // A binding of the query's relations to rows: r0 / r1 index rows_[0] /
  // rows_[1], -1 when the relation is not part of the query.
  struct Binding {
    int64_t r0 = -1;
    int64_t r1 = -1;
  };
  const Row* RowOf(const Binding& b, int rel) const;
  bool Holds(const Atom& atom, const Binding& b) const;
  bool Covered(int user, Col col, const Binding& b) const;
  std::vector<Binding> TrueAnswer(const Request& request) const;
  int64_t Value(const Binding& b, Col col) const { return RowOf(b, col.rel)->v[static_cast<size_t>(col.col)]; }

  const Inputs* inputs_;
  std::vector<Row> rows_[2];
  // granted_[u][v]: view v is granted to user u.
  std::vector<std::vector<bool>> granted_;
  std::vector<int> toggle_view_;
  // What a user's answers depend on: the user's grants and the rows.
  std::pair<long long, long long> StateOf(int user) const;

  std::vector<long long> grants_version_;
  long long rows_version_ = 0;
  // Replies already verified, by request text, with the state they were
  // verified in; a later identical reply in the same state passes.
  struct Verified {
    std::string reply;
    std::pair<long long, long long> state;
  };
  std::unordered_map<std::string, Verified> verified_;
};

// The oracle self-test: seeded wrong replies that Check must reject.
// `probe_reply` is the server's reply to inputs.probe. Returns false
// (with `why`) if any wrong reply is accepted or the true one rejected.
bool SelfTestReplies(const Inputs& inputs, const std::string& probe_reply, std::string* why);

// Seeds a lost grant into a post-restart check: the oracle is told that
// the grant of T<user> was acknowledged while `reply` (to `request`, a
// read as that user) shows the state without it. Check must reject.
bool SelfTestLostGrant(Oracle oracle, const Request& request, const std::string& reply,
                       std::string* why);

}  // namespace e2ebench

#endif  // VIEWAUTH_E2EBENCH_ORACLE_H_
