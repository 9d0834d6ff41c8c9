#include "authz/authorizer.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>

#include "algebra/latemat.h"
#include "algebra/optimizer.h"
#include "algebra/vectorized.h"
#include "storage/column_batch.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "meta/self_join.h"

namespace viewauth {

namespace {

using SteadyClock = std::chrono::steady_clock;

long long MicrosSince(SteadyClock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             SteadyClock::now() - start)
      .count();
}

// Cache key of a derived mask: the user, the delivery flavor (final or
// wide), every option that changes the derived tuples, and the query's
// canonical signature.
std::string MaskCacheKey(std::string_view user, const ConjunctiveQuery& query,
                         const AuthorizationOptions& o, bool wide) {
  std::string key(user);
  key += wide ? "|W|" : "|F|";
  key += o.padding ? 'p' : '-';
  key += o.four_case ? 'f' : '-';
  key += o.subsumption ? 's' : '-';
  key += o.prune_dangling ? 'd' : '-';
  key += o.self_joins ? std::to_string(o.self_join_rounds) : "0";
  key += "|";
  key += query.CanonicalSignature();
  return key;
}

// The data-side evaluation (S), timed. Runs on a pool worker during
// parallel retrieves; never waits on anything.
struct TimedEval {
  Result<Relation> relation = Relation();
  EvalStats stats;
  long long micros = 0;
};

TimedEval EvaluateData(const ConjunctiveQuery& query,
                       const DatabaseInstance& db, const char* name,
                       const AuthorizationOptions& options,
                       ExecContext* ctx) {
  TimedEval out;
  const auto start = SteadyClock::now();
  if (!options.use_optimized_data_plan) {
    out.relation = EvaluateCanonical(query, db, name, &out.stats, ctx);
  } else if (options.use_vectorized_data_plan) {
    out.relation = EvaluateVectorized(query, db, name, &out.stats, ctx);
  } else if (options.use_latemat_data_plan) {
    out.relation = EvaluateLateMaterialized(query, db, name, &out.stats, ctx);
  } else {
    out.relation = EvaluateOptimized(query, db, name, &out.stats, ctx);
  }
  out.micros = MicrosSince(start);
  return out;
}

// The read set of a mask derived for (user, query): the query's base
// relations plus every granted view the derivation folded in — exactly
// the views PrunedMetaRelationGoverned's coverage filter admits (the
// view's relations all appear in the query). This is what selective
// invalidation matches catalog mutations against.
AuthzDependencies CaptureReadSet(const ViewCatalog& catalog,
                                 std::string_view user,
                                 const ConjunctiveQuery& query) {
  AuthzDependencies deps;
  deps.user = std::string(user);
  for (const MembershipAtom& atom : query.atoms()) {
    deps.relations.insert(atom.relation);
  }
  for (const ViewDefinition* view : catalog.PermittedViews(user)) {
    const bool covered = std::all_of(
        view->relations.begin(), view->relations.end(),
        [&](const std::string& r) { return deps.relations.contains(r); });
    if (covered) deps.views.insert(view->name);
  }
  return deps;
}

// The compiled form of a derived mask, cached under the same key and
// generation as the mask itself (compiled_ is a separate map, so the key
// may be shared). Compiling is cheap relative to derivation but still
// worth caching: warm retrieves then skip even the one-pass compile.
// Routed through the retrieve's txn so an abort leaves no compiled entry.
std::shared_ptr<const CompiledMask> ObtainCompiledMask(
    AuthzCacheTxn* txn, bool use_cache, const std::string& key,
    const AuthzGeneration& gen, const MetaRelation& mask,
    AuthzDependencies deps) {
  if (use_cache) {
    if (std::shared_ptr<const CompiledMask> cached =
            txn->LookupCompiledMask(key, gen)) {
      return cached;
    }
  }
  auto compiled =
      std::make_shared<const CompiledMask>(CompiledMask::Compile(mask));
  txn->CountMaskCompile();
  if (use_cache) {
    txn->StoreCompiledMask(key, gen, compiled, std::move(deps));
  }
  return compiled;
}

}  // namespace

std::string InferredPermit::ToString() const {
  std::string out = "permit (" + Join(columns, ", ") + ")";
  if (!where.empty()) out += " where " + where;
  return out;
}

AuthzGeneration Authorizer::CurrentGeneration() const {
  // Reading the clock brings the cache up to date with the catalog's
  // mutation journal first. This is what keeps callers that mutate the
  // catalog directly (no engine routing) sound: any entitlement change
  // is replayed — selectively — before the generation it stamps on new
  // entries is observed.
  if (cache_ != nullptr) cache_->SyncCatalog(*catalog_);
  return AuthzGeneration{catalog_->catalog_version(), db_->ddl_version()};
}

Result<MetaRelation> Authorizer::PrunedMetaRelation(
    std::string_view user, const ConjunctiveQuery& query, int atom,
    const AuthorizationOptions& options) const {
  std::optional<ExecContext> local;
  const ExecLimits limits = ExecLimitsOf(options);
  if (limits.any()) local.emplace(limits);
  AuthzCacheTxn txn(cache_);
  Result<MetaRelation> result = PrunedMetaRelationGoverned(
      user, query, atom, options, local.has_value() ? &*local : nullptr,
      &txn);
  if (result.ok()) txn.Commit();
  return result;
}

Result<MetaRelation> Authorizer::PrunedMetaRelationGoverned(
    std::string_view user, const ConjunctiveQuery& query, int atom,
    const AuthorizationOptions& options, ExecContext* ctx,
    AuthzCacheTxn* txn) const {
  if (atom < 0 || atom >= static_cast<int>(query.atoms().size())) {
    return Status::InvalidArgument("atom index out of range");
  }
  const std::string& relation = query.atoms()[atom].relation;
  const RelationSchema& schema = query.atom_schema(atom);

  std::set<std::string> query_relations;
  for (const MembershipAtom& a : query.atoms()) {
    query_relations.insert(a.relation);
  }

  // Cache lookup: the result depends only on the user, the target
  // relation, the set of query relations (the pruning scope), and the
  // self-join settings. Freshness is the generation check.
  const bool use_cache = cache_ != nullptr && options.enable_authz_cache &&
                         options.use_meta_cache;
  std::string cache_key;
  AuthzGeneration gen;
  if (use_cache) {
    gen = CurrentGeneration();
    cache_key = std::string(user) + "|" + relation + "|";
    for (const std::string& r : query_relations) {
      cache_key += r;
      cache_key += ",";
    }
    cache_key += "|sj=";
    cache_key += options.self_joins
                     ? std::to_string(options.self_join_rounds)
                     : "0";
    if (std::optional<MetaRelation> cached =
            txn->LookupPrepared(cache_key, gen)) {
      return std::move(*cached);
    }
  }

  MetaRelation out(schema.attributes());
  // Read-set capture rides the existing walk: the views folded into the
  // prepared meta-relation are exactly the covered grants.
  AuthzDependencies deps;
  deps.user = std::string(user);
  deps.relations = query_relations;
  for (const ViewDefinition* view : catalog_->PermittedViews(user)) {
    // The paper's pruning: keep only views "defined in these relations in
    // their entirety" — every relation the view mentions must appear in
    // the query.
    bool covered = std::all_of(
        view->relations.begin(), view->relations.end(),
        [&](const std::string& r) { return query_relations.contains(r); });
    if (!covered) continue;
    deps.views.insert(view->name);
    for (size_t i = 0; i < view->tuples.size(); ++i) {
      if (view->tuple_relations[i] == relation) {
        out.Add(view->tuples[i]);
      }
    }
  }
  if (options.self_joins) {
    out = WithSelfJoins(out, schema, options.self_join_rounds);
  }
  // Charge the prepared meta-relation in one batch (self-join inference
  // can expand it well past the stored tuples).
  if (ctx != nullptr &&
      !ctx->Tick(out.size(),
                 static_cast<long long>(out.size()) * 64 * schema.arity())) {
    return ctx->status();
  }
  if (use_cache) {
    txn->StorePrepared(std::move(cache_key), gen, out, std::move(deps));
  }
  return out;
}

std::string MaskTrace::ToString() const {
  std::ostringstream out;
  out << "authorization trace:\n";
  for (const OperandStage& stage : operands) {
    out << "  " << stage.relation << "': " << stage.view_tuples
        << " stored tuple(s)";
    if (stage.with_self_joins != stage.view_tuples) {
      out << " -> " << stage.with_self_joins << " with self-joins";
    }
    out << "\n";
  }
  out << "  products: " << after_products << " combined tuple(s), "
      << after_dangling_prune << " after pruning\n";
  for (const SelectionStage& stage : selections) {
    out << "  select " << stage.predicate << ": " << stage.before
        << " -> " << stage.after << "\n";
  }
  out << "  projection: " << after_projection << " tuple(s)\n"
      << "  final mask: " << final_mask << " tuple(s)\n";
  return out.str();
}

Result<MaskTrace> Authorizer::Explain(std::string_view user,
                                      const ConjunctiveQuery& query,
                                      const AuthorizationOptions& options)
    const {
  MaskTrace trace;
  VIEWAUTH_RETURN_NOT_OK(
      DeriveMask(user, query, options, nullptr, &trace).status());
  return trace;
}

Result<MetaRelation> Authorizer::DeriveWideMask(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, MetaRelation* product_stage,
    MaskTrace* trace) const {
  std::optional<ExecContext> local;
  const ExecLimits limits = ExecLimitsOf(options);
  if (limits.any()) local.emplace(limits);
  AuthzCacheTxn txn(cache_);
  Result<MetaRelation> result = DeriveWideMaskGoverned(
      user, query, options, product_stage, trace,
      local.has_value() ? &*local : nullptr, &txn);
  if (result.ok()) txn.Commit();
  return result;
}

Result<MetaRelation> Authorizer::DeriveWideMaskGoverned(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, MetaRelation* product_stage,
    MaskTrace* trace, ExecContext* ctx, AuthzCacheTxn* txn) const {
  MetaOpOptions op_options;
  op_options.padding = options.padding;
  op_options.four_case = options.four_case;

  // Per-relation meta-relations are identical for repeated occurrences;
  // compute once per relation name. The per-relation preparations are
  // independent, so without tracing they fan out across the pool when
  // the query spans more than one relation.
  std::vector<std::pair<std::string, int>> distinct;  // relation, first atom
  for (size_t a = 0; a < query.atoms().size(); ++a) {
    const std::string& rel = query.atoms()[a].relation;
    bool seen = false;
    for (const auto& d : distinct) {
      if (d.first == rel) {
        seen = true;
        break;
      }
    }
    if (!seen) distinct.emplace_back(rel, static_cast<int>(a));
  }
  std::map<std::string, MetaRelation> per_relation;
  // A saturated pool degrades gracefully to inline preparation: with the
  // bounded submission queue, fanning out from within an already-full
  // pool would only trade queue waits for inline work.
  if (options.parallel_meta_evaluation && trace == nullptr &&
      distinct.size() > 1 && !GlobalThreadPool().Saturated()) {
    std::vector<std::future<Result<MetaRelation>>> futures;
    futures.reserve(distinct.size());
    for (const auto& [rel, atom] : distinct) {
      (void)rel;
      // ctx and txn are internally synchronized; the workers share both.
      futures.push_back(
          GlobalThreadPool().Submit([this, user, &query, atom = atom,
                                     &options, ctx, txn] {
            return PrunedMetaRelationGoverned(user, query, atom, options,
                                              ctx, txn);
          }));
    }
    // Collect every future before acting on errors: the tasks reference
    // this call's locals.
    std::vector<Result<MetaRelation>> prepared;
    prepared.reserve(futures.size());
    for (std::future<Result<MetaRelation>>& f : futures) {
      prepared.push_back(f.get());
    }
    for (size_t i = 0; i < prepared.size(); ++i) {
      VIEWAUTH_RETURN_NOT_OK(prepared[i].status());
      per_relation.emplace(distinct[i].first, std::move(*prepared[i]));
    }
  } else {
    for (const auto& [rel, atom] : distinct) {
      if (trace != nullptr) {
        AuthorizationOptions bare = options;
        bare.self_joins = false;
        bare.use_meta_cache = false;
        VIEWAUTH_ASSIGN_OR_RETURN(
            MetaRelation stored,
            PrunedMetaRelationGoverned(user, query, atom, bare, ctx, txn));
        trace->operands.push_back(
            MaskTrace::OperandStage{rel, stored.size(), 0});
      }
      VIEWAUTH_ASSIGN_OR_RETURN(
          MetaRelation meta,
          PrunedMetaRelationGoverned(user, query, atom, options, ctx, txn));
      if (trace != nullptr) {
        trace->operands.back().with_self_joins = meta.size();
      }
      per_relation.emplace(rel, std::move(meta));
    }
  }

  // S' step 1: all products first (the paper's canonical strategy).
  // Intermediate duplicate elimination keeps the padded products from
  // stacking combinatorially, and hopeless tuples — those missing an
  // atom of a relation that no remaining operand ranges over — are
  // pruned early rather than multiplied.
  const std::map<AtomId, ViewCatalog::AtomInfo>& atom_info =
      catalog_->atom_info();
  auto prune_hopeless = [&](MetaRelation rel, size_t next_atom_index) {
    std::map<std::string, int> remaining;
    for (size_t a = next_atom_index; a < query.atoms().size(); ++a) {
      ++remaining[query.atoms()[a].relation];
    }
    MetaRelation out(rel.columns());
    for (MetaTuple& tuple : rel.tuples()) {
      // Any operand tuple carries at most one atom of a given view (the
      // self-join refinement never pairs a view with itself), so needing
      // more atoms of one view over relation X than there are X slots
      // left is hopeless.
      std::set<AtomId> missing;
      for (VarId var : tuple.CellVars()) {
        auto it = tuple.var_atoms().find(var);
        if (it == tuple.var_atoms().end()) continue;
        for (AtomId atom : it->second) {
          if (!tuple.origin_atoms().contains(atom)) missing.insert(atom);
        }
      }
      std::map<std::pair<std::string, std::string>, int> needed;
      for (AtomId atom : missing) {
        auto info = atom_info.find(atom);
        if (info != atom_info.end()) {
          ++needed[{info->second.view, info->second.relation}];
        }
      }
      bool hopeless = false;
      for (const auto& [view_relation, count] : needed) {
        auto rem = remaining.find(view_relation.second);
        if (rem == remaining.end() || rem->second < count) {
          hopeless = true;
          break;
        }
      }
      if (!hopeless) out.Add(std::move(tuple));
    }
    return out;
  };

  long long pruned = 0;  // hopeless + dangling tuples removed
  MetaRelation current;
  for (size_t a = 0; a < query.atoms().size(); ++a) {
    const MetaRelation& operand = per_relation.at(query.atoms()[a].relation);
    if (a == 0) {
      current = operand;
    } else {
      current = RemoveDuplicates(
          MetaProduct(current, operand, op_options, ctx));
      if (ctx != nullptr && !ctx->ok()) return ctx->status();
    }
    if (options.prune_dangling) {
      const int before = current.size();
      current = prune_hopeless(std::move(current), a + 1);
      pruned += before - current.size();
    }
  }

  if (trace != nullptr) trace->after_products = current.size();

  // Prune combined tuples that reference meta-tuples outside the result,
  // and tuples that project nothing (padding residue): no later operator
  // ever adds a projected column, so they can never contribute to the
  // mask.
  if (options.prune_dangling) {
    const int before = current.size();
    current = PruneDanglingTuples(current);
    pruned += before - current.size();
  }
  {
    MetaRelation projecting(current.columns());
    for (MetaTuple& tuple : current.tuples()) {
      bool any_star = false;
      for (const MetaCell& cell : tuple.cells()) {
        if (cell.projected) {
          any_star = true;
          break;
        }
      }
      if (any_star) projecting.Add(std::move(tuple));
    }
    current = std::move(projecting);
  }
  current = RemoveDuplicates(current);
  if (trace != nullptr) trace->after_dangling_prune = current.size();
  if (product_stage != nullptr) *product_stage = current;

  // S' step 2: selections.
  std::vector<std::string> product_names = query.ProductColumnNames();
  for (const CalculusCondition& cond : query.conditions()) {
    MetaSelection sel =
        cond.rhs_is_column
            ? MetaSelection::ColumnColumn(query.FlatIndex(cond.lhs), cond.op,
                                          query.FlatIndex(cond.rhs_column))
            : MetaSelection::ColumnConst(query.FlatIndex(cond.lhs), cond.op,
                                         cond.rhs_const);
    const int before = current.size();
    current = MetaSelect(current, sel, op_options,
                         catalog_->synthetic_allocator(), ctx);
    if (ctx != nullptr && !ctx->ok()) return ctx->status();
    if (trace != nullptr) {
      std::string predicate =
          product_names[static_cast<size_t>(query.FlatIndex(cond.lhs))];
      predicate += " ";
      predicate += ComparatorToString(cond.op);
      predicate += " ";
      predicate += cond.rhs_is_column
                       ? product_names[static_cast<size_t>(
                             query.FlatIndex(cond.rhs_column))]
                       : cond.rhs_const.ToDisplayString(false);
      trace->selections.push_back(MaskTrace::SelectionStage{
          std::move(predicate), before, current.size()});
    }
  }

  // Four-case post-pass: a conjunction of query predicates may jointly
  // imply a tuple's restriction even when no single predicate does
  // (the paper's case "between 400,000 and 500,000" against the view
  // "between 300,000 and 600,000"). Express the query's full selection
  // over column terms and clear implied cells.
  if (options.four_case) {
    // The implied-restriction pass may call the constraint solver per
    // tuple; probe the deadline once before entering it.
    if (ctx != nullptr && !ctx->CheckNow()) return ctx->status();
    auto column_term = [](int col) -> TermId { return -(col + 1); };
    ConstraintSet lambda;
    {
      int col = 0;
      for (size_t a = 0; a < query.atoms().size(); ++a) {
        const RelationSchema& rel = query.atom_schema(static_cast<int>(a));
        for (int i = 0; i < rel.arity(); ++i, ++col) {
          lambda.DeclareTermType(column_term(col), rel.attribute(i).type);
        }
      }
    }
    for (const CalculusCondition& cond : query.conditions()) {
      if (cond.rhs_is_column) {
        lambda.AddTermTerm(column_term(query.FlatIndex(cond.lhs)), cond.op,
                           column_term(query.FlatIndex(cond.rhs_column)));
      } else {
        lambda.AddTermConst(column_term(query.FlatIndex(cond.lhs)), cond.op,
                            cond.rhs_const);
      }
    }
    ClearImpliedRestrictions(&current, lambda, column_term);
  }

  txn->CountPruned(pruned);
  return current;
}

Result<MetaRelation> Authorizer::DeriveMask(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, MetaRelation* product_stage,
    MaskTrace* trace) const {
  std::optional<ExecContext> local;
  const ExecLimits limits = ExecLimitsOf(options);
  if (limits.any()) local.emplace(limits);
  AuthzCacheTxn txn(cache_);
  Result<MetaRelation> result = DeriveMaskGoverned(
      user, query, options, product_stage, trace,
      local.has_value() ? &*local : nullptr, &txn);
  if (result.ok()) txn.Commit();
  return result;
}

Result<MetaRelation> Authorizer::DeriveMaskGoverned(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, MetaRelation* product_stage,
    MaskTrace* trace, ExecContext* ctx, AuthzCacheTxn* txn) const {
  // The full S' run is cacheable whenever no intermediate stage was
  // requested: the mask depends only on the user, the query signature,
  // and the options folded into the key.
  const bool use_cache = cache_ != nullptr && options.enable_authz_cache &&
                         product_stage == nullptr && trace == nullptr;
  std::string cache_key;
  AuthzGeneration gen;
  if (use_cache) {
    gen = CurrentGeneration();
    cache_key = MaskCacheKey(user, query, options, /*wide=*/false);
    if (std::optional<MetaRelation> cached =
            txn->LookupMask(cache_key, gen)) {
      return std::move(*cached);
    }
  }

  VIEWAUTH_ASSIGN_OR_RETURN(
      MetaRelation current,
      DeriveWideMaskGoverned(user, query, options, product_stage, trace,
                             ctx, txn));

  // S' step 3: the final projection onto the requested columns.
  std::vector<int> keep;
  keep.reserve(query.targets().size());
  for (const ColumnRef& target : query.targets()) {
    keep.push_back(query.FlatIndex(target));
  }
  current = MetaProject(current, keep);
  if (trace != nullptr) trace->after_projection = current.size();

  // Rename the mask's columns to the answer's column names.
  std::vector<std::string> names = query.OutputColumnNames();
  std::vector<ValueType> types = query.OutputColumnTypes();
  std::vector<Attribute> columns;
  columns.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    columns.push_back(Attribute{names[i], types[i]});
  }
  MetaRelation mask(std::move(columns));
  for (MetaTuple& tuple : current.tuples()) {
    mask.Add(std::move(tuple));
  }

  // Products are done: provenance no longer matters, so tuples that
  // differ only in their origins collapse.
  mask = RemoveDuplicates(mask, /*respect_provenance=*/false);
  if (options.subsumption) mask = RemoveSubsumed(mask);
  if (trace != nullptr) trace->final_mask = mask.size();
  if (use_cache) {
    txn->StoreMask(std::move(cache_key), gen, mask,
                   CaptureReadSet(*catalog_, user, query));
  }
  return mask;
}

bool Authorizer::RowSatisfies(const MetaTuple& tuple, const Tuple& row) {
  // One pass over the cells: constant cells compare directly; every
  // variable cell binds its variable to the row's value, a variable
  // spanning several cells requiring equal values. (All checks are
  // conjunctive, so the merged pass decides identically to checking
  // constants first.)
  std::map<TermId, Value> assignment;
  for (int i = 0; i < tuple.arity(); ++i) {
    const MetaCell& cell = tuple.cells()[i];
    if (cell.kind == CellKind::kConst) {
      if (!row.at(i).Satisfies(Comparator::kEq, cell.constant)) return false;
    } else if (cell.kind == CellKind::kVar) {
      if (row.at(i).is_null()) return false;
      auto [it, inserted] = assignment.emplace(cell.var, row.at(i));
      if (!inserted && !it->second.Satisfies(Comparator::kEq, row.at(i))) {
        return false;
      }
    }
  }
  if (assignment.empty() && tuple.constraints().atom_count() == 0) {
    return true;
  }

  // Fast path: when every constrained term has a cell binding, the atoms
  // evaluate directly — no solver involved.
  bool total = true;
  for (TermId term : tuple.constraints().MentionedTerms()) {
    if (!assignment.contains(term)) {
      total = false;
      break;
    }
  }
  if (total) return tuple.constraints().Satisfied(assignment);

  // Store-only (existential) variables remain: delegate to the solver.
  ConstraintSet check = tuple.constraints();
  for (const auto& [var, value] : assignment) {
    check.AddTermConst(var, Comparator::kEq, value);
  }
  return check.IsSatisfiable();
}

Relation Authorizer::ApplyMask(const Relation& answer,
                               const MetaRelation& mask,
                               bool drop_fully_masked_rows,
                               ExecContext* ctx) {
  return ApplyMask(answer, CompiledMask::Compile(mask),
                   drop_fully_masked_rows, ctx);
}

Relation Authorizer::ApplyMask(const Relation& answer,
                               const CompiledMask& mask,
                               bool drop_fully_masked_rows,
                               ExecContext* ctx) {
  Relation out(answer.schema());
  if (mask.tuples.empty()) return out;

  // Each mask tuple is a separate permitted view of the answer; its rows
  // are delivered with exactly its projected columns. Portions from
  // different mask tuples are NOT merged cell-wise into one row: showing
  // tuple-1's columns and tuple-2's columns side by side would reveal
  // their association, which is derivable from the permitted views only
  // when a (self-)joined mask tuple grants the combination explicitly.
  ExecMeter meter(ctx);
  for (const Tuple& row : answer.rows()) {
    if (!meter.TickRows(1)) break;
    bool any = false;
    for (const CompiledMaskTuple& tuple : mask.tuples) {
      if (!tuple.any_projected()) continue;
      if (!tuple.Satisfies(row)) continue;
      any = true;
      std::vector<Value> values;
      values.reserve(static_cast<size_t>(row.arity()));
      for (int i = 0; i < row.arity(); ++i) {
        values.push_back(tuple.IsProjected(i) ? row.at(i) : Value::Null());
      }
      out.InsertUnchecked(Tuple(std::move(values)));
    }
    if (!any && !drop_fully_masked_rows) {
      out.InsertUnchecked(
          Tuple(std::vector<Value>(static_cast<size_t>(row.arity()))));
    }
  }
  return out;
}

Relation Authorizer::ApplyMaskVectorized(const Relation& answer,
                                         const CompiledMask& mask,
                                         bool drop_fully_masked_rows,
                                         ExecContext* ctx, EvalStats* stats) {
  Relation out(answer.schema());
  if (mask.tuples.empty()) return out;
  const int arity = answer.schema().arity();
  const size_t num_tuples = mask.tuples.size();

  // Per batch: one bitmap word-run per mask tuple recording which batch
  // ordinals it accepted. The kernels run tuple-major (so each gathered
  // column is reused across tuples), while delivery below runs row-major
  // — identical delivery order to the tuple-at-a-time ApplyMask.
  const size_t words = (kColumnBatchRows + 63) / 64;
  std::vector<uint64_t> bits(num_tuples * words);
  ColumnBatch batch;
  std::vector<uint32_t> sel;
  ExecMeter meter(ctx);
  const std::span<const Tuple> rows = answer.rows();
  for (size_t wb = 0; wb < rows.size(); wb += kColumnBatchRows) {
    const size_t n = std::min<size_t>(kColumnBatchRows, rows.size() - wb);
    if (!meter.TickRows(static_cast<long long>(n))) break;
    batch.ResetDense(rows, wb, n, arity);
    std::fill(bits.begin(), bits.end(), 0);
    bool any_delivery = false;
    for (size_t t = 0; t < num_tuples; ++t) {
      const CompiledMaskTuple& tuple = mask.tuples[t];
      if (!tuple.any_projected()) continue;
      ResetSelection(&sel, n);
      tuple.FilterBatch(&batch, &sel);
      if (stats != nullptr) ++stats->mask_batch_applies;
      for (uint32_t i : sel) {
        bits[t * words + i / 64] |= uint64_t{1} << (i % 64);
        any_delivery = true;
      }
    }
    if (!any_delivery && drop_fully_masked_rows) continue;
    for (size_t i = 0; i < n; ++i) {
      bool any = false;
      const Tuple& row = rows[wb + i];
      for (size_t t = 0; t < num_tuples; ++t) {
        if (((bits[t * words + i / 64] >> (i % 64)) & 1) == 0) continue;
        any = true;
        const CompiledMaskTuple& tuple = mask.tuples[t];
        std::vector<Value> values;
        values.reserve(static_cast<size_t>(arity));
        for (int c = 0; c < arity; ++c) {
          values.push_back(tuple.IsProjected(c) ? row.at(c) : Value::Null());
        }
        out.InsertUnchecked(Tuple(std::move(values)));
      }
      if (!any && !drop_fully_masked_rows) {
        out.InsertUnchecked(
            Tuple(std::vector<Value>(static_cast<size_t>(arity))));
      }
    }
  }
  return out;
}

Relation Authorizer::ApplyWideMask(const Relation& wide_answer,
                                   const MetaRelation& wide_mask,
                                   const std::vector<int>& target_columns,
                                   const RelationSchema& answer_schema,
                                   bool drop_fully_masked_rows,
                                   ExecContext* ctx) {
  return ApplyWideMask(wide_answer, CompiledMask::Compile(wide_mask),
                       target_columns, answer_schema, drop_fully_masked_rows,
                       ctx);
}

Relation Authorizer::ApplyWideMask(const Relation& wide_answer,
                                   const CompiledMask& wide_mask,
                                   const std::vector<int>& target_columns,
                                   const RelationSchema& answer_schema,
                                   bool drop_fully_masked_rows,
                                   ExecContext* ctx) {
  Relation out(answer_schema);
  const int width = static_cast<int>(target_columns.size());

  // Per tuple: which answer positions it grants.
  std::vector<std::vector<bool>> grants(wide_mask.tuples.size());
  std::vector<bool> tuple_relevant(wide_mask.tuples.size(), false);
  for (size_t t = 0; t < wide_mask.tuples.size(); ++t) {
    const CompiledMaskTuple& tuple = wide_mask.tuples[t];
    grants[t].assign(static_cast<size_t>(width), false);
    for (int i = 0; i < width; ++i) {
      if (tuple.IsProjected(target_columns[static_cast<size_t>(i)])) {
        grants[t][static_cast<size_t>(i)] = true;
        tuple_relevant[t] = true;
      }
    }
  }

  ExecMeter meter(ctx);
  for (const Tuple& wide_row : wide_answer.rows()) {
    if (!meter.TickRows(1)) break;
    bool any = false;
    for (size_t t = 0; t < wide_mask.tuples.size(); ++t) {
      if (!tuple_relevant[t]) continue;
      if (!wide_mask.tuples[t].Satisfies(wide_row)) continue;
      any = true;
      std::vector<Value> values;
      values.reserve(static_cast<size_t>(width));
      for (int i = 0; i < width; ++i) {
        values.push_back(grants[t][static_cast<size_t>(i)]
                             ? wide_row.at(
                                   target_columns[static_cast<size_t>(i)])
                             : Value::Null());
      }
      out.InsertUnchecked(Tuple(std::move(values)));
    }
    if (!any && !drop_fully_masked_rows) {
      out.InsertUnchecked(
          Tuple(std::vector<Value>(static_cast<size_t>(width))));
    }
  }
  return out;
}

Relation Authorizer::ApplyWideMaskVectorized(
    const Relation& wide_answer, const CompiledMask& wide_mask,
    const std::vector<int>& target_columns,
    const RelationSchema& answer_schema, bool drop_fully_masked_rows,
    ExecContext* ctx, EvalStats* stats) {
  Relation out(answer_schema);
  const int width = static_cast<int>(target_columns.size());
  const int wide_arity = wide_answer.schema().arity();
  const size_t num_tuples = wide_mask.tuples.size();

  // Per tuple: which answer positions it grants (same precomputation as
  // the tuple-at-a-time ApplyWideMask).
  std::vector<std::vector<bool>> grants(num_tuples);
  std::vector<bool> tuple_relevant(num_tuples, false);
  for (size_t t = 0; t < num_tuples; ++t) {
    const CompiledMaskTuple& tuple = wide_mask.tuples[t];
    grants[t].assign(static_cast<size_t>(width), false);
    for (int i = 0; i < width; ++i) {
      if (tuple.IsProjected(target_columns[static_cast<size_t>(i)])) {
        grants[t][static_cast<size_t>(i)] = true;
        tuple_relevant[t] = true;
      }
    }
  }

  const size_t words = (kColumnBatchRows + 63) / 64;
  std::vector<uint64_t> bits(num_tuples * words);
  ColumnBatch batch;
  std::vector<uint32_t> sel;
  ExecMeter meter(ctx);
  const std::span<const Tuple> rows = wide_answer.rows();
  for (size_t wb = 0; wb < rows.size(); wb += kColumnBatchRows) {
    const size_t n = std::min<size_t>(kColumnBatchRows, rows.size() - wb);
    if (!meter.TickRows(static_cast<long long>(n))) break;
    batch.ResetDense(rows, wb, n, wide_arity);
    std::fill(bits.begin(), bits.end(), 0);
    bool any_delivery = false;
    for (size_t t = 0; t < num_tuples; ++t) {
      if (!tuple_relevant[t]) continue;
      ResetSelection(&sel, n);
      wide_mask.tuples[t].FilterBatch(&batch, &sel);
      if (stats != nullptr) ++stats->mask_batch_applies;
      for (uint32_t i : sel) {
        bits[t * words + i / 64] |= uint64_t{1} << (i % 64);
        any_delivery = true;
      }
    }
    if (!any_delivery && drop_fully_masked_rows) continue;
    for (size_t i = 0; i < n; ++i) {
      bool any = false;
      const Tuple& wide_row = rows[wb + i];
      for (size_t t = 0; t < num_tuples; ++t) {
        if (((bits[t * words + i / 64] >> (i % 64)) & 1) == 0) continue;
        any = true;
        std::vector<Value> values;
        values.reserve(static_cast<size_t>(width));
        for (int c = 0; c < width; ++c) {
          values.push_back(grants[t][static_cast<size_t>(c)]
                               ? wide_row.at(
                                     target_columns[static_cast<size_t>(c)])
                               : Value::Null());
        }
        out.InsertUnchecked(Tuple(std::move(values)));
      }
      if (!any && !drop_fully_masked_rows) {
        out.InsertUnchecked(
            Tuple(std::vector<Value>(static_cast<size_t>(width))));
      }
    }
  }
  return out;
}

std::vector<InferredPermit> Authorizer::DescribeWideMask(
    const MetaRelation& wide_mask, const ConjunctiveQuery& query) const {
  // Display names: requested columns use the answer's names; additional
  // attributes use qualified product names.
  std::vector<std::string> product_names = query.ProductColumnNames();
  std::vector<std::string> answer_names = query.OutputColumnNames();
  std::map<int, std::string> display;
  for (int c = 0; c < query.TotalColumns(); ++c) {
    display[c] = product_names[static_cast<size_t>(c)];
  }
  std::set<int> requested;
  for (size_t i = 0; i < query.targets().size(); ++i) {
    int flat = query.FlatIndex(query.targets()[i]);
    requested.insert(flat);
    display[flat] = answer_names[i];
  }

  std::vector<InferredPermit> permits;
  std::set<std::string> seen;
  for (const MetaTuple& tuple : wide_mask.tuples()) {
    InferredPermit permit;
    for (int i = 0; i < tuple.arity(); ++i) {
      if (tuple.cells()[i].projected && requested.contains(i)) {
        permit.columns.push_back(display[i]);
      }
    }
    if (permit.columns.empty()) continue;

    std::vector<std::string> where_parts;
    for (int i = 0; i < tuple.arity(); ++i) {
      const MetaCell& cell = tuple.cells()[i];
      if (cell.kind == CellKind::kConst) {
        where_parts.push_back(display[i] + " = " +
                              cell.constant.ToDisplayString(false));
      }
    }
    std::map<VarId, std::vector<int>> var_cols;
    for (int i = 0; i < tuple.arity(); ++i) {
      const MetaCell& cell = tuple.cells()[i];
      if (cell.kind == CellKind::kVar) var_cols[cell.var].push_back(i);
    }
    for (const auto& [var, cols] : var_cols) {
      (void)var;
      for (size_t k = 1; k < cols.size(); ++k) {
        where_parts.push_back(display[cols[0]] + " = " +
                              display[cols[k]]);
      }
    }
    std::set<VarId> vars = tuple.CellVars();
    std::vector<TermId> terms(vars.begin(), vars.end());
    auto namer = [&](TermId term) -> std::string {
      auto it = var_cols.find(term);
      if (it != var_cols.end()) return display[it->second[0]];
      return catalog_->VarName(term);
    };
    for (const ConstraintAtom& atom :
         tuple.constraints().ExportAtoms(terms)) {
      where_parts.push_back(atom.ToString(namer));
    }
    std::sort(where_parts.begin(), where_parts.end());
    where_parts.erase(std::unique(where_parts.begin(), where_parts.end()),
                      where_parts.end());
    permit.where = Join(where_parts, " and ");

    std::string rendered = permit.ToString();
    if (seen.insert(rendered).second) {
      permits.push_back(std::move(permit));
    }
  }
  return permits;
}

std::vector<InferredPermit> Authorizer::DescribeMask(
    const MetaRelation& mask) const {
  std::vector<InferredPermit> permits;
  std::set<std::string> seen;
  for (const MetaTuple& tuple : mask.tuples()) {
    InferredPermit permit;
    for (int i = 0; i < tuple.arity(); ++i) {
      if (tuple.cells()[i].projected) {
        permit.columns.push_back(mask.columns()[i].name);
      }
    }
    if (permit.columns.empty()) continue;

    std::vector<std::string> where_parts;
    // Constant cells.
    for (int i = 0; i < tuple.arity(); ++i) {
      const MetaCell& cell = tuple.cells()[i];
      if (cell.kind == CellKind::kConst) {
        where_parts.push_back(mask.columns()[i].name + " = " +
                              cell.constant.ToDisplayString(false));
      }
    }
    // Shared variables: column equalities.
    std::map<VarId, std::vector<int>> var_cols;
    for (int i = 0; i < tuple.arity(); ++i) {
      const MetaCell& cell = tuple.cells()[i];
      if (cell.kind == CellKind::kVar) var_cols[cell.var].push_back(i);
    }
    for (const auto& [var, cols] : var_cols) {
      (void)var;
      for (size_t k = 1; k < cols.size(); ++k) {
        where_parts.push_back(mask.columns()[cols[0]].name + " = " +
                              mask.columns()[cols[k]].name);
      }
    }
    // Comparative constraints on cell variables, rendered with column
    // names.
    std::set<VarId> vars = tuple.CellVars();
    std::vector<TermId> terms(vars.begin(), vars.end());
    auto namer = [&](TermId term) -> std::string {
      auto it = var_cols.find(term);
      if (it != var_cols.end()) return mask.columns()[it->second[0]].name;
      return catalog_->VarName(term);
    };
    for (const ConstraintAtom& atom : tuple.constraints().ExportAtoms(terms)) {
      where_parts.push_back(atom.ToString(namer));
    }

    std::sort(where_parts.begin(), where_parts.end());
    where_parts.erase(std::unique(where_parts.begin(), where_parts.end()),
                      where_parts.end());
    permit.where = Join(where_parts, " and ");

    std::string rendered = permit.ToString();
    if (seen.insert(rendered).second) {
      permits.push_back(std::move(permit));
    }
  }
  return permits;
}

Result<AuthorizationResult> Authorizer::RetrieveExtended(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, StageTimes* times,
    ExecContext* ctx, AuthzCacheTxn* txn) const {
  AuthorizationResult result;

  // Evaluate the answer *before* the final projection so that mask
  // predicates over non-requested attributes can be tested per row.
  // During parallel retrieves the data plan runs on the pool, concurrent
  // with mask derivation on this thread. Both sides share `ctx`: the
  // budget is symmetric across S and S' (a trip on either aborts both).
  // A saturated pool falls back to inline evaluation rather than queuing
  // behind every other session's work.
  ConjunctiveQuery wide_query = query.WithAllColumnsProjected();
  std::future<TimedEval> data_future;
  if (options.parallel_meta_evaluation && !GlobalThreadPool().Saturated()) {
    data_future =
        GlobalThreadPool().Submit([this, &wide_query, &options, ctx] {
          return EvaluateData(wide_query, *db_, "WIDE", options, ctx);
        });
  }

  // The post-processed wide mask (deduplicated, subsumption-reduced,
  // renamed to qualified product columns) is what gets cached: it is the
  // exact object every later stage consumes.
  const auto mask_start = SteadyClock::now();
  const bool use_cache = cache_ != nullptr && options.enable_authz_cache;
  std::string cache_key;
  AuthzGeneration gen;
  MetaRelation wide;
  bool have_mask = false;
  if (use_cache) {
    gen = CurrentGeneration();
    cache_key = MaskCacheKey(user, query, options, /*wide=*/true);
    if (std::optional<MetaRelation> cached =
            txn->LookupMask(cache_key, gen)) {
      wide = std::move(*cached);
      have_mask = true;
    }
  }
  if (!have_mask) {
    Result<MetaRelation> derived = DeriveWideMaskGoverned(
        user, query, options, nullptr, nullptr, ctx, txn);
    if (!derived.ok()) {
      // Drain the concurrent data evaluation before unwinding: the task
      // references this call's locals.
      if (data_future.valid()) data_future.get();
      return derived.status();
    }
    wide = std::move(*derived);
    wide = RemoveDuplicates(wide, /*respect_provenance=*/false);
    if (options.subsumption) wide = RemoveSubsumed(wide);
    // Qualified column names for the wide mask's display.
    {
      std::vector<std::string> names = query.ProductColumnNames();
      std::vector<Attribute> columns;
      columns.reserve(names.size());
      int col = 0;
      for (size_t a = 0; a < query.atoms().size(); ++a) {
        const RelationSchema& rel = query.atom_schema(static_cast<int>(a));
        for (int i = 0; i < rel.arity(); ++i, ++col) {
          columns.push_back(Attribute{names[static_cast<size_t>(col)],
                                      rel.attribute(i).type});
        }
      }
      MetaRelation renamed(std::move(columns));
      for (MetaTuple& tuple : wide.tuples()) renamed.Add(std::move(tuple));
      wide = std::move(renamed);
    }
    if (use_cache) {
      txn->StoreMask(std::move(cache_key), gen, wide,
                     CaptureReadSet(*catalog_, user, query));
    }
  }
  times->mask_micros = MicrosSince(mask_start);
  result.mask = wide;

  TimedEval data =
      data_future.valid()
          ? data_future.get()
          : EvaluateData(wide_query, *db_, "WIDE", options, ctx);
  times->data_micros = data.micros;
  VIEWAUTH_RETURN_NOT_OK(data.relation.status());
  if (ctx != nullptr && !ctx->ok()) return ctx->status();
  Relation wide_answer = std::move(*data.relation);
  result.data_stats = data.stats;

  std::vector<int> target_columns;
  target_columns.reserve(query.targets().size());
  for (const ColumnRef& target : query.targets()) {
    target_columns.push_back(query.FlatIndex(target));
  }
  VIEWAUTH_ASSIGN_OR_RETURN(RelationSchema answer_schema,
                            query.OutputSchema("ANSWER"));
  result.raw_answer = Relation(answer_schema);
  const long long answer_bytes =
      ApproxTupleBytes(static_cast<int>(target_columns.size()));
  {
    ExecMeter meter(ctx);
    for (const Tuple& row : wide_answer.rows()) {
      if (!meter.Tick(1, answer_bytes)) return ctx->status();
      result.raw_answer.InsertUnchecked(row.Project(target_columns));
    }
  }
  result.data_stats.output_rows = result.raw_answer.size();

  // Denied when no tuple grants any requested column.
  std::set<int> requested(target_columns.begin(), target_columns.end());
  bool anything = false;
  for (const MetaTuple& tuple : wide.tuples()) {
    for (int col : requested) {
      if (tuple.cells()[col].projected) {
        anything = true;
        break;
      }
    }
    if (anything) break;
  }
  if (!anything) {
    result.denied = true;
    result.answer = Relation(answer_schema);
    return result;
  }

  // Full access: a tuple with every requested column projected and no
  // restriction at all.
  for (const MetaTuple& tuple : wide.tuples()) {
    bool clean = tuple.constraints().atom_count() == 0;
    for (const MetaCell& cell : tuple.cells()) {
      if (!cell.is_blank()) clean = false;
    }
    if (!clean) continue;
    bool covers = true;
    for (int col : requested) {
      if (!tuple.cells()[col].projected) covers = false;
    }
    if (covers) {
      result.full_access = true;
      break;
    }
  }
  if (result.full_access) {
    result.answer = result.raw_answer;
    return result;
  }

  const auto apply_start = SteadyClock::now();
  std::shared_ptr<const CompiledMask> compiled = ObtainCompiledMask(
      txn, use_cache,
      use_cache ? MaskCacheKey(user, query, options, /*wide=*/true)
                : std::string(),
      gen, wide,
      use_cache ? CaptureReadSet(*catalog_, user, query)
                : AuthzDependencies{});
  result.answer =
      options.use_optimized_data_plan && options.use_vectorized_data_plan
          ? ApplyWideMaskVectorized(wide_answer, *compiled, target_columns,
                                    answer_schema,
                                    options.drop_fully_masked_rows, ctx,
                                    &result.data_stats)
          : ApplyWideMask(wide_answer, *compiled, target_columns,
                          answer_schema, options.drop_fully_masked_rows, ctx);
  if (ctx != nullptr && !ctx->ok()) return ctx->status();
  result.permits = DescribeWideMask(wide, query);
  times->apply_micros = MicrosSince(apply_start);
  return result;
}

Result<AuthorizationResult> Authorizer::Retrieve(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, ExecContext* ctx) const {
  const auto start = SteadyClock::now();
  std::optional<ExecContext> local;
  if (ctx == nullptr) {
    const ExecLimits limits = ExecLimitsOf(options);
    if (limits.any()) {
      local.emplace(limits);
      ctx = &*local;
    }
  }
  StageTimes times;
  AuthzCacheTxn txn(cache_);
  Result<AuthorizationResult> result =
      options.extended_masks
          ? RetrieveExtended(user, query, options, &times, ctx, &txn)
          : RetrieveStandard(user, query, options, &times, ctx, &txn);
  // Belt and braces: a tripped context must never deliver an answer,
  // even if every stage individually missed the trip.
  if (result.ok() && ctx != nullptr && !ctx->ok()) result = ctx->status();
  if (cache_ != nullptr && ctx != nullptr) {
    // The governor's own books survive the abort (they record it);
    // everything else rides the txn and commits on success only, so an
    // aborted retrieve leaves cache contents and counters exactly as if
    // it had never run.
    cache_->AddGovernorChecks(ctx->checks());
  }
  if (result.ok()) {
    txn.CountRetrieve(options.parallel_meta_evaluation);
    txn.CountBatches(result->data_stats.batches_evaluated,
                     result->data_stats.mask_batch_applies);
    txn.AddStageTimes(times.mask_micros, times.data_micros,
                      times.apply_micros, MicrosSince(start));
    txn.Commit();
  } else if (cache_ != nullptr) {
    cache_->CountGovernedAbort(result.status().code());
  }
  return result;
}

Result<AuthorizationResult> Authorizer::RetrieveStandard(
    std::string_view user, const ConjunctiveQuery& query,
    const AuthorizationOptions& options, StageTimes* times,
    ExecContext* ctx, AuthzCacheTxn* txn) const {
  AuthorizationResult result;

  // During parallel retrieves the S data plan runs on the pool while
  // this thread derives the S' mask. Both sides share `ctx` — the budget
  // is symmetric across the commutative diagram, so tripping on either
  // aborts the whole retrieve. A saturated pool falls back to inline
  // evaluation rather than queuing behind other sessions' work.
  std::future<TimedEval> data_future;
  if (options.parallel_meta_evaluation && !GlobalThreadPool().Saturated()) {
    data_future = GlobalThreadPool().Submit([this, &query, &options, ctx] {
      return EvaluateData(query, *db_, "ANSWER", options, ctx);
    });
  }

  const auto mask_start = SteadyClock::now();
  Result<MetaRelation> mask =
      DeriveMaskGoverned(user, query, options, nullptr, nullptr, ctx, txn);
  times->mask_micros = MicrosSince(mask_start);

  TimedEval data =
      data_future.valid()
          ? data_future.get()
          : EvaluateData(query, *db_, "ANSWER", options, ctx);
  times->data_micros = data.micros;

  // The data future is drained either way, so unwinding on a mask error
  // is safe.
  VIEWAUTH_RETURN_NOT_OK(mask.status());
  result.mask = std::move(*mask);
  VIEWAUTH_RETURN_NOT_OK(data.relation.status());
  if (ctx != nullptr && !ctx->ok()) return ctx->status();
  result.raw_answer = std::move(*data.relation);
  result.data_stats = data.stats;

  // Denied when no mask tuple projects any column: nothing at all may be
  // delivered (an empty mask is the common case; a mask of tuples with
  // no starred cells is equivalent).
  bool anything_projected = false;
  for (const MetaTuple& tuple : result.mask.tuples()) {
    for (const MetaCell& cell : tuple.cells()) {
      if (cell.projected) {
        anything_projected = true;
        break;
      }
    }
    if (anything_projected) break;
  }
  if (!anything_projected) {
    result.denied = true;
    result.answer = Relation(result.raw_answer.schema());
    return result;
  }

  // Full access: some mask tuple projects every column with no selection.
  for (const MetaTuple& tuple : result.mask.tuples()) {
    bool all_projected = true;
    for (const MetaCell& cell : tuple.cells()) {
      if (!cell.is_blank() || !cell.projected) {
        all_projected = false;
        break;
      }
    }
    if (all_projected && tuple.constraints().atom_count() == 0) {
      result.full_access = true;
      break;
    }
  }

  if (result.full_access) {
    result.answer = result.raw_answer;
    return result;  // delivered without accompanying permit statements
  }

  const auto apply_start = SteadyClock::now();
  const bool use_cache = cache_ != nullptr && options.enable_authz_cache;
  std::shared_ptr<const CompiledMask> compiled = ObtainCompiledMask(
      txn, use_cache,
      use_cache ? MaskCacheKey(user, query, options, /*wide=*/false)
                : std::string(),
      use_cache ? CurrentGeneration() : AuthzGeneration{}, result.mask,
      use_cache ? CaptureReadSet(*catalog_, user, query)
                : AuthzDependencies{});
  result.answer =
      options.use_optimized_data_plan && options.use_vectorized_data_plan
          ? ApplyMaskVectorized(result.raw_answer, *compiled,
                                options.drop_fully_masked_rows, ctx,
                                &result.data_stats)
          : ApplyMask(result.raw_answer, *compiled,
                      options.drop_fully_masked_rows, ctx);
  if (ctx != nullptr && !ctx->ok()) return ctx->status();
  result.permits = DescribeMask(result.mask);
  times->apply_micros = MicrosSince(apply_start);
  return result;
}

}  // namespace viewauth
