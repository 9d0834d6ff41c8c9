#include "oracle.h"

#include <cstdlib>
#include <map>

namespace e2ebench {
namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(' ');
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(' ');
  return s.substr(b, e - b + 1);
}

// Splits "| a | b |" into its trimmed cells.
std::vector<std::string> SplitCells(const std::string& line) {
  std::vector<std::string> cells;
  size_t pos = 1;  // past the leading '|'
  while (pos < line.size()) {
    size_t bar = line.find('|', pos);
    if (bar == std::string::npos) break;
    cells.push_back(Trim(line.substr(pos, bar - pos)));
    pos = bar + 1;
  }
  return cells;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

bool ParseCell(const std::string& cell, std::optional<int64_t>* out) {
  if (cell == "-") {
    *out = std::nullopt;
    return true;
  }
  std::string digits;
  for (char c : cell) {
    if (c != ',') digits += c;
  }
  if (digits.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool Compare(int64_t lhs, CmpOp op, int64_t rhs) {
  switch (op) {
    case CmpOp::kGe:
      return lhs >= rhs;
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kEq:
      return lhs == rhs;
  }
  return false;
}

// Rewrites cell `col` of table row `row` (0-based, after the caption,
// header and separator lines) of a rendered reply.
std::string ReplaceCell(const std::string& text, size_t row, size_t col,
                        const std::string& cell) {
  std::vector<std::string> lines = SplitLines(text);
  std::string& line = lines.at(3 + row);
  std::vector<std::string> cells = SplitCells(line);
  cells.at(col) = cell;
  line = "|";
  for (const std::string& c : cells) line += " " + c + " |";
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

// One parsed reply row: the cells in target order; nullopt = withheld.
using ReplyRow = std::vector<std::optional<int64_t>>;

struct ParsedReply {
  std::string user;
  std::vector<ReplyRow> rows;
  int permit_lines = 0;
};

// Parses the engine's rendering of a retrieve result. Returns false
// (with `why`) when the text is not a result table of `arity` columns.
bool ParseReply(const std::string& text, size_t arity, ParsedReply* out, std::string* why) {
  const std::vector<std::string> lines = SplitLines(text);
  const std::string kCaption = "result for ";
  if (lines.size() < 3 || lines[0].rfind(kCaption, 0) != 0 || lines[0].back() != ':') {
    *why = "not a result table: " + text.substr(0, 80);
    return false;
  }
  out->user = lines[0].substr(kCaption.size(), lines[0].size() - kCaption.size() - 1);
  if (SplitCells(lines[1]).size() != arity || lines[2].rfind("|-", 0) != 0) {
    *why = "bad table header: " + lines[1];
    return false;
  }
  out->rows.clear();
  out->permit_lines = 0;
  size_t i = 3;
  for (; i < lines.size() && !lines[i].empty() && lines[i][0] == '|'; ++i) {
    const std::vector<std::string> cells = SplitCells(lines[i]);
    if (cells.size() != arity) {
      *why = "row of wrong arity: " + lines[i];
      return false;
    }
    ReplyRow row(arity);
    for (size_t c = 0; c < arity; ++c) {
      if (!ParseCell(cells[c], &row[c])) {
        *why = "unparseable cell '" + cells[c] + "'";
        return false;
      }
    }
    out->rows.push_back(std::move(row));
  }
  for (; i < lines.size(); ++i) {
    if (lines[i].rfind("permit (", 0) == 0) {
      ++out->permit_lines;
    } else if (!lines[i].empty()) {
      *why = "unexpected line after the table: " + lines[i];
      return false;
    }
  }
  return true;
}

}  // namespace

Oracle::Oracle(const Inputs& inputs) : inputs_(&inputs) {
  rows_[0] = inputs.rows[0];
  rows_[1] = inputs.rows[1];
  granted_.assign(inputs.grants.size(), std::vector<bool>(inputs.views.size(), false));
  grants_version_.assign(inputs.grants.size(), 0);
  for (size_t u = 0; u < inputs.grants.size(); ++u) {
    for (int v : inputs.grants[u]) granted_[u][static_cast<size_t>(v)] = true;
  }
  for (int u = 0; u < kUsers; ++u) {
    const std::string name = "T" + std::to_string(u);
    for (size_t v = 0; v < inputs.views.size(); ++v) {
      if (inputs.views[v].name == name) toggle_view_.push_back(static_cast<int>(v));
    }
  }
}

bool Oracle::toggle_granted(int user) const {
  return granted_[static_cast<size_t>(user)][static_cast<size_t>(toggle_view_[static_cast<size_t>(user)])];
}

void Oracle::set_toggle_granted(int user, bool on) {
  granted_[static_cast<size_t>(user)][static_cast<size_t>(toggle_view_[static_cast<size_t>(user)])] = on;
  ++grants_version_[static_cast<size_t>(user)];
}

void Oracle::Apply(const Request& write) {
  switch (write.kind) {
    case RequestKind::kPermit:
    case RequestKind::kDeny:
      if (write.grant_user >= 0) {
        granted_[static_cast<size_t>(write.grant_user)][static_cast<size_t>(write.grant_view)] =
            write.kind == RequestKind::kPermit;
        ++grants_version_[static_cast<size_t>(write.grant_user)];
      }
      break;
    case RequestKind::kInsert: {
      // Set-up rows are in the model from the start; churn rows append.
      std::vector<Row>& rows = rows_[write.insert_rel];
      if (write.row.v[kKey] == static_cast<int64_t>(rows.size())) {
        rows.push_back(write.row);
        ++rows_version_;
      }
      break;
    }
    case RequestKind::kRetrieve:
    case RequestKind::kDefine:
      break;
  }
}

std::pair<long long, long long> Oracle::StateOf(int user) const {
  return {grants_version_[static_cast<size_t>(user)], rows_version_};
}

const Row* Oracle::RowOf(const Binding& b, int rel) const {
  // Keys are row positions, so a join view finds its partner row by key.
  int64_t index = rel == 0 ? b.r0 : b.r1;
  if (index < 0) {
    const int64_t other_key = rel == 0 ? rows_[1][static_cast<size_t>(b.r1)].v[kKey]
                                       : rows_[0][static_cast<size_t>(b.r0)].v[kKey];
    index = other_key;
  }
  if (index < 0 || index >= static_cast<int64_t>(rows_[rel].size())) return nullptr;
  return &rows_[rel][static_cast<size_t>(index)];
}

bool Oracle::Holds(const Atom& atom, const Binding& b) const {
  const Row* row = RowOf(b, atom.col.rel);
  return row != nullptr && Compare(row->v[static_cast<size_t>(atom.col.col)], atom.op, atom.value);
}

bool Oracle::Covered(int user, Col col, const Binding& b) const {
  const std::vector<bool>& grants = granted_[static_cast<size_t>(user)];
  for (size_t v = 0; v < inputs_->views.size(); ++v) {
    if (!grants[v]) continue;
    const ViewDef& view = inputs_->views[v];
    if (!view.join && view.rel != col.rel) continue;
    bool projects = false;
    for (Col c : view.cols) projects = projects || (c.rel == col.rel && c.col == col.col);
    if (!projects) continue;
    // A join view needs both rows present (RowOf finds the partner).
    if (view.join && (RowOf(b, 0) == nullptr || RowOf(b, 1) == nullptr)) continue;
    bool holds = true;
    for (const Atom& a : view.atoms) holds = holds && Holds(a, b);
    if (holds) return true;
  }
  return false;
}

std::vector<Oracle::Binding> Oracle::TrueAnswer(const Request& request) const {
  const int base = request.join ? 0 : request.rel;
  int64_t first = 0;
  int64_t last = static_cast<int64_t>(rows_[base].size());
  for (const Atom& a : request.atoms) {
    if (a.col.rel == base && a.col.col == kKey && a.op == CmpOp::kEq) {
      first = std::max<int64_t>(first, a.value);
      last = std::min<int64_t>(last, a.value + 1);
    }
  }
  std::vector<Binding> out;
  for (int64_t k = first; k < last; ++k) {
    Binding b;
    if (request.join) {
      if (k >= static_cast<int64_t>(rows_[1].size())) continue;
      b.r0 = k;
      b.r1 = k;
    } else if (base == 0) {
      b.r0 = k;
    } else {
      b.r1 = k;
    }
    bool holds = true;
    for (const Atom& a : request.atoms) holds = holds && Holds(a, b);
    if (holds) out.push_back(b);
  }
  return out;
}

bool Oracle::Check(const Request& request, const std::string& reply, std::string* why) {
  const int user = UserIndex(request.user);
  auto seen = verified_.find(request.text);
  if (seen != verified_.end() && seen->second.state == StateOf(user) &&
      seen->second.reply == reply) {
    return true;
  }

  if (reply.rfind("permission denied", 0) == 0) {
    // Sound; expected for a one-relation request exactly when no granted
    // view of that relation projects a requested column. Every user holds
    // views on both relations, so a denied join is always unexpected.
    if (request.join) {
      *why = "join denied: '" + request.text + "'";
      return false;
    }
    const std::vector<bool>& grants = granted_[static_cast<size_t>(user)];
    for (size_t v = 0; v < inputs_->views.size(); ++v) {
      if (!grants[v]) continue;
      const ViewDef& view = inputs_->views[v];
      if (view.join || view.rel != request.rel) continue;
      for (Col c : view.cols) {
        for (Col t : request.targets) {
          if (c.rel == t.rel && c.col == t.col) {
            *why = "denied although " + view.name + " is granted: '" + request.text + "'";
            return false;
          }
        }
      }
    }
    return true;
  }
  ParsedReply parsed;
  if (!ParseReply(reply, request.targets.size(), &parsed, why)) return false;
  if (parsed.user != request.user) {
    *why = "reply for user " + parsed.user + ", expected " + request.user;
    return false;
  }
  const std::vector<Binding> truth = TrueAnswer(request);
  std::map<int64_t, size_t> by_key;
  for (size_t i = 0; i < truth.size(); ++i) by_key[Value(truth[i], request.targets[0])] = i;

  // (a) soundness, row by row.
  auto sound_on = [&](const ReplyRow& row, const Binding& b) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (!row[c]) continue;
      if (*row[c] != Value(b, request.targets[c]) || !Covered(user, request.targets[c], b)) {
        return false;
      }
    }
    return true;
  };
  std::vector<int> full_rows(truth.size(), 0);
  std::vector<bool> toggle_col_seen(truth.size(), false);
  size_t toggle_col = request.targets.size();
  for (size_t c = 0; c < request.targets.size(); ++c) {
    if (request.targets[c].rel == 1 && request.targets[c].col == kC) toggle_col = c;
  }
  for (const ReplyRow& row : parsed.rows) {
    std::optional<size_t> match;
    if (row[0]) {
      auto it = by_key.find(*row[0]);
      if (it != by_key.end() && sound_on(row, truth[it->second])) match = it->second;
    } else {
      for (size_t i = 0; i < truth.size() && !match; ++i) {
        if (sound_on(row, truth[i])) match = i;
      }
    }
    if (!match) {
      *why = "unsound row (" + std::to_string(row[0].value_or(-1)) + ", ...) in reply to '" +
             request.text + "'";
      return false;
    }
    bool whole = true;
    for (const auto& cell : row) whole = whole && cell.has_value();
    if (whole) ++full_rows[*match];
    if (toggle_col < row.size() && row[toggle_col]) toggle_col_seen[*match] = true;
  }

  // (b) completeness of a request one granted view covers.
  if (request.covered) {
    if (parsed.permit_lines != 0 || parsed.rows.size() != truth.size()) {
      *why = "covered request not delivered whole: " + std::to_string(parsed.rows.size()) +
             " rows for " + std::to_string(truth.size()) + ", " +
             std::to_string(parsed.permit_lines) + " permit lines: '" + request.text + "'";
      return false;
    }
    for (size_t i = 0; i < truth.size(); ++i) {
      if (full_rows[i] != 1) {
        *why = "covered request lost a cell: '" + request.text + "'";
        return false;
      }
    }
  }

  // (c) a granted T<i> delivers R1.C on every row it admits.
  if (toggle_col < request.targets.size() && user < kToggledUsers && toggle_granted(user)) {
    for (size_t i = 0; i < truth.size(); ++i) {
      if (RowOf(truth[i], 1)->v[kA] < kToggleLimit && !toggle_col_seen[i]) {
        *why = "granted T" + std::to_string(user) + " but R1.C withheld on key " +
               std::to_string(Value(truth[i], request.targets[0])) + ": '" + request.text + "'";
        return false;
      }
    }
  }
  verified_[request.text] = Verified{reply, StateOf(user)};
  return true;
}

bool SelfTestReplies(const Inputs& inputs, const std::string& probe_reply, std::string* why) {
  const Request& probe = inputs.probe;
  if (!Oracle(inputs).Check(probe, probe_reply, why)) {
    *why = "self-test: true probe reply rejected: " + *why;
    return false;
  }
  ParsedReply parsed;
  ParseReply(probe_reply, probe.targets.size(), &parsed, why);
  const Row& row = inputs.rows[0][static_cast<size_t>(inputs.probe_key)];
  // Wrong reply 1: an extra delivered cell (A, which no view of U0
  // covers on this row, filled in with its true value).
  // Wrong reply 2: a delivered value changed.
  bool seeded_extra = false, seeded_change = false;
  for (size_t r = 0; r < parsed.rows.size(); ++r) {
    for (size_t c = 1; c < parsed.rows[r].size(); ++c) {
      std::string wrong;
      if (!parsed.rows[r][c] && c == kA && !seeded_extra) {
        wrong = ReplaceCell(probe_reply, r, c, std::to_string(row.v[kA]));
        seeded_extra = true;
      } else if (parsed.rows[r][c] && !seeded_change) {
        wrong = ReplaceCell(probe_reply, r, c, std::to_string(*parsed.rows[r][c] + 1));
        seeded_change = true;
      } else {
        continue;
      }
      std::string ignored;
      if (Oracle(inputs).Check(probe, wrong, &ignored)) {
        *why = "self-test: seeded wrong reply accepted:\n" + wrong;
        return false;
      }
    }
  }
  if (!seeded_extra || !seeded_change) {
    *why = "self-test: probe reply has no withheld A cell or no delivered cell";
    return false;
  }
  return true;
}

bool SelfTestLostGrant(Oracle oracle, const Request& request, const std::string& reply,
                       std::string* why) {
  const int user = UserIndex(request.user);
  std::string wrong = reply;
  if (oracle.toggle_granted(user)) {
    // The reply as it would read had the server lost the grant.
    ParsedReply parsed;
    if (!ParseReply(reply, request.targets.size(), &parsed, why)) return false;
    for (size_t r = 0; r < parsed.rows.size(); ++r) {
      if (parsed.rows[r].back()) wrong = ReplaceCell(wrong, r, parsed.rows[r].size() - 1, "-");
    }
  } else {
    // The oracle as it would stand had a permit been acknowledged.
    oracle.set_toggle_granted(user, true);
  }
  std::string ignored;
  if (oracle.Check(request, wrong, &ignored)) {
    *why = "self-test: lost grant of T" + std::to_string(user) + " accepted";
    return false;
  }
  return true;
}

}  // namespace e2ebench
