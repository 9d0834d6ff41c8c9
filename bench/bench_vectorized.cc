// PERF-7: the vectorized columnar data plan. Times the three optimized
// evaluation strategies — tuple-at-a-time (pushdown + hash join),
// late-materialized (row-index intermediates), and vectorized (columnar
// batches + kernel selection) — on selective full scans where no index
// applies, across row counts up to 128K, single-threaded, and writes
// BENCH_vectorized.json. Also reports the end-to-end authorized
// retrieve (mask derivation + data plan + fused batch mask apply) and
// the per-batch governance overhead of the vectorized plan.
//
// Modes:
//   bench_vectorized          full matrix + report (run from the repo
//                             root of a Release build; writes
//                             BENCH_vectorized.json)
//   bench_vectorized --smoke  reference workload only; exits 1 if the
//                             vectorized plan is not at least 2x faster
//                             than the late-materialized plan at 128K
//                             rows (the check.sh regression gate)

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "algebra/evaluator.h"
#include "algebra/latemat.h"
#include "algebra/optimizer.h"
#include "algebra/vectorized.h"
#include "bench/bench_util.h"
#include "common/exec_context.h"

namespace viewauth {
namespace {

using bench_util::Workload;
using Clock = std::chrono::steady_clock;

// Like bench_util::MakeWorkload, but the relations declare no primary
// key. This dates from when Relation::Insert's key check scanned every
// row, which made building a 128K-row keyed workload quadratic; the
// hashed row index now makes keyed and keyless inserts alike amortised
// O(1). The workload stays keyless so the committed numbers remain
// comparable; KEY values are unique anyway, so the scans measured here
// see the same data either way.
std::unique_ptr<Workload> MakeScanWorkload(int relations, int rows,
                                           int views_per_relation) {
  auto w = std::make_unique<Workload>();
  std::mt19937 rng(42);
  std::uniform_int_distribution<int64_t> val(0, 999);

  for (int r = 0; r < relations; ++r) {
    std::string name = "R" + std::to_string(r);
    auto schema = RelationSchema::Make(name, {{"KEY", ValueType::kInt64},
                                              {"A", ValueType::kInt64},
                                              {"B", ValueType::kInt64},
                                              {"C", ValueType::kInt64}});
    VIEWAUTH_CHECK(schema.ok());
    VIEWAUTH_CHECK(w->db.CreateRelation(std::move(*schema)).ok());
    for (int i = 0; i < rows; ++i) {
      VIEWAUTH_CHECK(w->db.Insert(name, Tuple({Value::Int64(i),
                                               Value::Int64(val(rng)),
                                               Value::Int64(val(rng)),
                                               Value::Int64(val(rng))}))
                         .ok());
    }
  }

  w->catalog = std::make_unique<ViewCatalog>(&w->db.schema());
  for (int r = 0; r < relations; ++r) {
    std::string rel = "R" + std::to_string(r);
    for (int v = 0; v < views_per_relation; ++v) {
      int64_t lo = 50 * v;
      std::string name = "V" + std::to_string(r) + "_" + std::to_string(v);
      std::string text = "view " + name + " (" + rel + ".KEY, " + rel +
                         ".A, " + rel + ".B) where " + rel +
                         ".A >= " + std::to_string(lo);
      auto stmt = ParseStatement(text);
      VIEWAUTH_CHECK(stmt.ok()) << stmt.status().ToString();
      VIEWAUTH_CHECK(w->catalog->DefineView(std::get<ViewStmt>(*stmt)).ok());
      VIEWAUTH_CHECK(w->catalog->Permit(name, "u").ok());
    }
  }
  w->authorizer =
      std::make_unique<Authorizer>(&w->db, w->catalog.get(), &w->cache);
  return w;
}

// A selective (~0.1%) column-vs-column predicate: never index-served,
// so every strategy scans all rows and the per-row evaluation cost is
// the whole story.
constexpr const char* kScanQuery =
    "retrieve (R0.KEY, R0.A) where R0.A = R0.B";

// 128K rows: comfortably past the 10^5-row scale where batch effects
// dominate constant overheads.
constexpr int kReferenceRows = 131072;

struct Timing {
  long long total_micros = 0;
  double per_iter_micros = 0;
  EvalStats stats;  // from the final iteration
};

enum class Strategy { kOptimized, kLateMat, kVectorized };

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kOptimized:
      return "optimized";
    case Strategy::kLateMat:
      return "latemat";
    case Strategy::kVectorized:
      return "vectorized";
  }
  return "?";
}

Result<Relation> RunOnce(Strategy s, const ConjunctiveQuery& query,
                         const DatabaseInstance& db, EvalStats* stats,
                         ExecContext* ctx = nullptr) {
  switch (s) {
    case Strategy::kOptimized:
      return EvaluateOptimized(query, db, "ANSWER", stats, ctx);
    case Strategy::kLateMat:
      return EvaluateLateMaterialized(query, db, "ANSWER", stats, ctx);
    case Strategy::kVectorized:
      return EvaluateVectorized(query, db, "ANSWER", stats, ctx);
  }
  return Status::InvalidArgument("unknown strategy");
}

// Times one block of `iterations` runs, in nanoseconds. `stats_out`
// receives the final iteration's counters; `sink` accumulates result
// sizes so the loop cannot be elided.
long long TimedBlock(Strategy s, const ConjunctiveQuery& query,
                     const DatabaseInstance& db, int iterations,
                     bool governed, EvalStats* stats_out, long long* sink) {
  const auto start = Clock::now();
  for (int i = 0; i < iterations; ++i) {
    EvalStats stats;
    auto result = [&]() -> Result<Relation> {
      if (!governed) return RunOnce(s, query, db, &stats);
      // A generous deadline: never trips, but the plan runs fully
      // governed (per-batch ticks + amortized wall-clock probes).
      ExecContext ctx(ExecLimits{/*deadline_ms=*/600000, /*max_rows=*/0,
                                 /*max_bytes=*/0});
      return RunOnce(s, query, db, &stats, &ctx);
    }();
    VIEWAUTH_CHECK(result.ok()) << result.status().ToString();
    *sink += result->size();
    if (i + 1 == iterations) *stats_out = stats;
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

// Best of several repeats: the minimum total is the least-perturbed
// run, which keeps the reported deltas out of scheduler/timer noise.
constexpr int kRepeats = 7;

Timing Measure(Strategy s, const ConjunctiveQuery& query,
               const DatabaseInstance& db, int iterations,
               bool governed = false) {
  Timing t;
  // Warmup: populates any lazy indexes so every strategy is measured
  // against warm storage.
  {
    EvalStats warm;
    auto result = RunOnce(s, query, db, &warm);
    VIEWAUTH_CHECK(result.ok()) << result.status().ToString();
  }
  long long sink = 0;
  long long best_nanos = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const long long total =
        TimedBlock(s, query, db, iterations, governed, &t.stats, &sink);
    if (rep == 0 || total < best_nanos) best_nanos = total;
  }
  t.total_micros = best_nanos / 1000;
  t.per_iter_micros =
      iterations > 0 ? static_cast<double>(t.total_micros) / iterations : 0;
  if (sink < 0) std::cerr << sink;
  return t;
}

// Measures the ungoverned and governed vectorized plan by alternating
// single iterations and keeping each side's fastest, so a CPU frequency
// or load shift perturbs both sides equally instead of skewing the
// few-percent governance-overhead delta; the per-side floor over
// thousands of interleaved samples is the steady-state cost. Returns
// {ungoverned, governed} with totals scaled to `iterations`.
std::pair<Timing, Timing> MeasureGovernedPair(const ConjunctiveQuery& query,
                                              const DatabaseInstance& db,
                                              int iterations) {
  Timing plain;
  Timing governed;
  {
    EvalStats warm;
    auto result = RunOnce(Strategy::kVectorized, query, db, &warm);
    VIEWAUTH_CHECK(result.ok()) << result.status().ToString();
  }
  long long sink = 0;
  long long min_plain = 0;
  long long min_governed = 0;
  for (int i = 0; i < kRepeats * iterations; ++i) {
    const long long p =
        TimedBlock(Strategy::kVectorized, query, db, /*iterations=*/1,
                   /*governed=*/false, &plain.stats, &sink);
    const long long g =
        TimedBlock(Strategy::kVectorized, query, db, /*iterations=*/1,
                   /*governed=*/true, &governed.stats, &sink);
    if (i == 0 || p < min_plain) min_plain = p;
    if (i == 0 || g < min_governed) min_governed = g;
  }
  plain.total_micros = min_plain * iterations / 1000;
  governed.total_micros = min_governed * iterations / 1000;
  plain.per_iter_micros = static_cast<double>(min_plain) / 1000.0;
  governed.per_iter_micros = static_cast<double>(min_governed) / 1000.0;
  if (sink < 0) std::cerr << sink;
  return {plain, governed};
}

// End-to-end authorized retrieve through a warmed cache, so the delta
// between the two timings is the data plan plus the mask-apply path.
long long MeasureRetrieve(Workload& w, const ConjunctiveQuery& query,
                          const AuthorizationOptions& options,
                          int iterations) {
  {
    auto warm = w.authorizer->Retrieve("u", query, options);
    VIEWAUTH_CHECK(warm.ok()) << warm.status().ToString();
  }
  long long sink = 0;
  const auto start = Clock::now();
  for (int i = 0; i < iterations; ++i) {
    auto result = w.authorizer->Retrieve("u", query, options);
    VIEWAUTH_CHECK(result.ok()) << result.status().ToString();
    sink += result->answer.size();
  }
  const long long micros =
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count();
  if (sink < 0) std::cerr << sink;
  return micros;
}

struct MatrixRow {
  int rows;
  Strategy strategy;
  int iterations;
  Timing timing;
};

void AppendStats(std::ostream& out, const EvalStats& s) {
  out << "\"rows_scanned\": " << s.rows_scanned
      << ", \"output_rows\": " << s.output_rows
      << ", \"tuples_materialized\": " << s.tuples_materialized
      << ", \"batches_evaluated\": " << s.batches_evaluated;
}

int RunSmoke() {
  // The regression gate: at the reference 128K-row selective scan the
  // vectorized plan must be at least 2x faster than late-materialized.
  auto w = MakeScanWorkload(/*relations=*/1, kReferenceRows,
                            /*views_per_relation=*/1);
  ConjunctiveQuery query = w->Query(kScanQuery);
  constexpr int kIterations = 50;
  const Timing latemat =
      Measure(Strategy::kLateMat, query, w->db, kIterations);
  const Timing vectorized =
      Measure(Strategy::kVectorized, query, w->db, kIterations);
  const double speedup =
      vectorized.total_micros > 0
          ? static_cast<double>(latemat.total_micros) /
                vectorized.total_micros
          : 0.0;
  std::cout << "smoke: latemat=" << latemat.per_iter_micros
            << "us/iter vectorized=" << vectorized.per_iter_micros
            << "us/iter speedup=" << speedup << "x\n";
  if (speedup < 2.0) {
    std::cerr << "FAIL: vectorized plan below the 2x gate vs "
                 "late-materialized at "
              << kReferenceRows << " rows (" << speedup << "x < 2.0x)\n";
    return 1;
  }
  return 0;
}

int RunFull(const std::string& path) {
  std::vector<MatrixRow> matrix;
  for (int rows : {4096, 32768, kReferenceRows}) {
    auto w = MakeScanWorkload(/*relations=*/1, rows,
                              /*views_per_relation=*/1);
    ConjunctiveQuery query = w->Query(kScanQuery);
    const int iterations = rows >= kReferenceRows ? 50 : 400;
    for (Strategy s : {Strategy::kOptimized, Strategy::kLateMat,
                       Strategy::kVectorized}) {
      MatrixRow row{rows, s, iterations,
                    Measure(s, query, w->db, iterations)};
      std::cout << "  rows=" << rows << " " << StrategyName(s) << ": "
                << row.timing.per_iter_micros << "us/iter\n";
      matrix.push_back(row);
    }
  }

  // Reference numbers for the acceptance criterion, plus the governance
  // overhead of per-batch ticking and the end-to-end retrieve.
  auto w = MakeScanWorkload(/*relations=*/1, kReferenceRows,
                            /*views_per_relation=*/1);
  ConjunctiveQuery query = w->Query(kScanQuery);
  // The governed-vs-ungoverned delta is a few microseconds per
  // iteration; hundreds of iterations keep it above timer noise.
  constexpr int kRefIterations = 400;
  const Timing latemat =
      Measure(Strategy::kLateMat, query, w->db, kRefIterations);
  const Timing vectorized =
      Measure(Strategy::kVectorized, query, w->db, kRefIterations);
  // The governed-overhead ratio compares the interleaved pair's floors
  // against each other only — block timings and floors are different
  // estimators and must not be mixed across a ratio.
  const auto [floor_plain, governed] =
      MeasureGovernedPair(query, w->db, kRefIterations);
  const double speedup =
      vectorized.total_micros > 0
          ? static_cast<double>(latemat.total_micros) /
                vectorized.total_micros
          : 0.0;
  const double governed_overhead =
      floor_plain.total_micros > 0
          ? static_cast<double>(governed.total_micros) /
                    floor_plain.total_micros -
                1.0
          : 0.0;

  AuthorizationOptions latemat_options;
  latemat_options.use_vectorized_data_plan = false;
  latemat_options.parallel_meta_evaluation = false;
  AuthorizationOptions vectorized_options;
  vectorized_options.parallel_meta_evaluation = false;
  constexpr int kRetrieveIterations = 100;
  const long long retrieve_latemat =
      MeasureRetrieve(*w, query, latemat_options, kRetrieveIterations);
  const long long retrieve_vectorized =
      MeasureRetrieve(*w, query, vectorized_options, kRetrieveIterations);
  const double retrieve_speedup =
      retrieve_vectorized > 0
          ? static_cast<double>(retrieve_latemat) / retrieve_vectorized
          : 0.0;

  std::ofstream out(path);
  out << "{\n"
      << "  \"benchmark\": \"vectorized columnar data plan\",\n"
      << "  \"single_threaded\": true,\n"
      << "  \"reference\": {\n"
      << "    \"workload\": {\"relations\": 1, \"rows\": " << kReferenceRows
      << ", \"views_per_relation\": 1},\n"
      << "    \"query\": \"" << kScanQuery << "\",\n"
      << "    \"iterations\": " << kRefIterations << ",\n"
      << "    \"latemat_total_micros\": " << latemat.total_micros << ",\n"
      << "    \"vectorized_total_micros\": " << vectorized.total_micros
      << ",\n"
      << "    \"vectorized_speedup_vs_latemat\": " << speedup << ",\n"
      << "    \"ungoverned_floor_total_micros\": "
      << floor_plain.total_micros << ",\n"
      << "    \"governed_floor_total_micros\": " << governed.total_micros
      << ",\n"
      << "    \"governed_overhead\": " << governed_overhead << ",\n"
      << "    \"retrieve_latemat_total_micros\": " << retrieve_latemat
      << ",\n"
      << "    \"retrieve_vectorized_total_micros\": " << retrieve_vectorized
      << ",\n"
      << "    \"retrieve_speedup\": " << retrieve_speedup << ",\n"
      << "    \"latemat_stats\": {";
  AppendStats(out, latemat.stats);
  out << "},\n"
      << "    \"vectorized_stats\": {";
  AppendStats(out, vectorized.stats);
  out << "}\n"
      << "  },\n"
      << "  \"matrix\": [\n";
  for (size_t i = 0; i < matrix.size(); ++i) {
    const MatrixRow& row = matrix[i];
    out << "    {\"rows\": " << row.rows << ", \"strategy\": \""
        << StrategyName(row.strategy)
        << "\", \"iterations\": " << row.iterations
        << ", \"total_micros\": " << row.timing.total_micros
        << ", \"per_iter_micros\": " << row.timing.per_iter_micros << ", ";
    AppendStats(out, row.timing.stats);
    out << "}" << (i + 1 < matrix.size() ? "," : "") << "\n";
  }
  out << "  ]\n"
      << "}\n";
  std::cout << "wrote " << path << ": reference speedup=" << speedup
            << "x (vectorized vs latemat, " << kReferenceRows
            << " rows), governed overhead=" << governed_overhead * 100
            << "%, retrieve speedup=" << retrieve_speedup << "x\n";
  return 0;
}

}  // namespace
}  // namespace viewauth

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return viewauth::RunSmoke();
    }
  }
  return viewauth::RunFull("BENCH_vectorized.json");
}
