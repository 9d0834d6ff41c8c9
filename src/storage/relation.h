// In-memory relations with set semantics (the relational model of the
// paper: a relation is a *set* of tuples over the scheme's domains), and
// the database instance holding one relation per relation scheme.

#ifndef VIEWAUTH_STORAGE_RELATION_H_
#define VIEWAUTH_STORAGE_RELATION_H_

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "schema/schema.h"
#include "storage/column_batch.h"
#include "storage/tuple.h"

namespace viewauth {

class Relation {
 public:
  Relation() = default;
  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {}

  // A copy is O(1) in the number of rows: it shares the row store and
  // sees the same visible prefix. Copies and moves do not carry the
  // lazily-built indexes (each copy rebuilds its own on demand, under its
  // own lock).
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  const RelationSchema& schema() const { return schema_; }

  // Inserts a tuple; duplicates are silently absorbed (set semantics).
  // Fails on arity or type mismatch, or on a primary-key violation (same
  // key, different non-key values) when the schema declares a key.
  Status Insert(Tuple tuple);
  // Inserts without schema validation or key check (for operator outputs
  // whose tuples are correct by construction). Still deduplicates.
  // Returns true if the tuple was new.
  bool InsertUnchecked(Tuple tuple);

  // Removes a tuple if present; returns true if it was removed.
  bool Erase(const Tuple& tuple);
  void Clear();

  bool Contains(const Tuple& tuple) const;
  int size() const { return static_cast<int>(count_); }
  bool empty() const { return count_ == 0; }

  // Insertion-ordered rows. The span stays valid, and its rows never
  // move, for as long as this relation is not mutated — other copies
  // appending to the shared store do not disturb it.
  std::span<const Tuple> rows() const {
    if (store_ == nullptr) return {};
    return {store_->rows.get(), count_};
  }

  // Rows sorted lexicographically (deterministic display/comparison).
  std::vector<Tuple> SortedRows() const;

  // A hash index over one column: value -> indices into rows(). Built
  // lazily on first use and rebuilt after mutations (cheap version
  // check). Building is mutex-guarded, so concurrent read-only sessions
  // may share one relation; mutations must still be externally excluded
  // from readers of the same Relation object (the engine's snapshots
  // give every reader its own object).
  // Index lookups use strict Value equality, so callers must
  // coerce probe constants to the column's type (the engine's literal
  // coercion already guarantees this for stored data).
  using ColumnIndex = std::unordered_multimap<Value, int, ValueHash>;
  const ColumnIndex& IndexOn(int column) const;

  // An ordered index over one column: (value, row index) pairs sorted by
  // value (Value's total order). Built lazily like IndexOn; enables
  // binary-searched range scans for one-sided and interval predicates.
  using OrderedIndex = std::vector<std::pair<Value, int>>;
  const OrderedIndex& OrderedIndexOn(int column) const;

  // The whole column gathered into a ColumnVector (a flat typed array
  // when the column is uniform and null-free, boxed pointers
  // otherwise). Built lazily like IndexOn and invalidated by the same
  // version check; the vectorized plan's full scans run predicate
  // kernels directly over this image — selection entries are row
  // indices — instead of re-gathering cells tuple-by-tuple on every
  // scan. Cell pointers alias rows(), so the same reader/mutator
  // exclusion rules as the indexes apply.
  const ColumnVector& ColumnOn(int column) const;

  // True if both relations hold the same set of tuples (schema names are
  // not compared; arity must match).
  bool SameTuples(const Relation& other) const;

 private:
  // The hash index of one append history; defined in relation.cc.
  struct RowIndex;

  // An append-only tuple buffer (DESIGN.md §16). Every copy forked from
  // one writer shares it and sees its own prefix [0, count_). The
  // buffer is allocated once at a fixed capacity, so row addresses are
  // stable, and an append writes a slot no other copy can see; when it
  // is full the writer doubles into a new RowStore that shares `index`,
  // and older copies keep the old buffer alive.
  struct RowStore {
    explicit RowStore(size_t capacity)
        : capacity(capacity), rows(std::make_unique<Tuple[]>(capacity)) {}
    const size_t capacity;
    const std::unique_ptr<Tuple[]> rows;
    std::shared_ptr<RowIndex> index;
  };

  enum class AddOutcome { kAppended, kDuplicate, kKeyConflict };

  // Validates tuple types against the schema; NULLs are always accepted.
  Status ValidateTuple(const Tuple& tuple) const;
  // Hash and equality of the index key: the primary key's cells, or the
  // whole tuple when the schema declares no key.
  size_t KeyHash(const Tuple& tuple) const;
  bool KeyEqual(const Tuple& a, const Tuple& b) const;
  // The visible row equal to `tuple`, or -1.
  long long Find(const Tuple& tuple) const;
  // Appends `tuple` unless an equal row is visible or, with `check_key`,
  // a visible row shares its key. Moves from `tuple` only when appending.
  AddOutcome Add(Tuple& tuple, bool check_key);
  // Leaves this relation the sole owner of a store holding exactly its
  // visible rows: in place when it already is, otherwise by copying the
  // visible prefix into a fresh store and index.
  void Privatize();
  // Rebuilds the row index of an exclusively owned store.
  void Reindex();

  RelationSchema schema_;
  std::shared_ptr<RowStore> store_;
  size_t count_ = 0;
  // Lazily-built per-column indexes, keyed by column; `version_` detects
  // staleness after Insert/Erase/Clear. `index_mutex_` serializes builds
  // from concurrent readers.
  long long version_ = 0;
  mutable std::mutex index_mutex_;
  mutable long long indexed_version_ = -1;
  mutable std::map<int, ColumnIndex> column_indexes_;
  mutable std::map<int, OrderedIndex> ordered_indexes_;
  mutable std::map<int, ColumnVector> column_cache_;
};

// A database instance: one relation per relation scheme of the database
// scheme, addressable by name.
//
// Copies are shallow and copy-on-write: a copy shares the schema object
// and every Relation object with the original, and the first mutation
// through either instance copies just the touched Relation (or the
// schema, for DDL) before writing. A Relation copy shares the row store
// and only fixes its visible row count, so forking an engine snapshot
// is O(#relations) pointer copies and a write costs no row copies —
// readers pinning the old instance keep an immutable view.
class DatabaseInstance {
 public:
  DatabaseInstance() : schema_(std::make_shared<DatabaseSchema>()) {}
  DatabaseInstance(const DatabaseInstance&) = default;
  DatabaseInstance& operator=(const DatabaseInstance&) = default;
  DatabaseInstance(DatabaseInstance&&) = default;
  DatabaseInstance& operator=(DatabaseInstance&&) = default;

  // Creates a relation for `schema`, registering it in the database
  // scheme as well.
  Status CreateRelation(RelationSchema schema);
  Status DropRelation(std::string_view name);

  // The non-const lookup is the write path: if the Relation object is
  // shared with another instance (a pinned snapshot), the writer gets its
  // own O(1) copy first, so the mutation stays invisible to the sharer.
  Result<Relation*> GetRelation(std::string_view name);
  Result<const Relation*> GetRelation(std::string_view name) const;
  bool HasRelation(std::string_view name) const {
    return schema_->HasRelation(name);
  }

  Status Insert(std::string_view relation_name, Tuple tuple);

  const DatabaseSchema& schema() const { return *schema_; }
  // The schema as a shareable handle — the ViewCatalog binds to this so
  // catalog snapshots keep their schema alive independently of the
  // instance that created it.
  std::shared_ptr<const DatabaseSchema> schema_ptr() const { return schema_; }

  // Bumped on every relation create/drop; the authorization cache folds
  // it into its generation so DDL invalidates cached masks (data
  // mutations deliberately do not bump it — masks are data-independent).
  long long ddl_version() const { return ddl_version_; }

 private:
  // Clones the schema first when it is shared with a snapshot.
  DatabaseSchema& MutableSchema();

  std::shared_ptr<DatabaseSchema> schema_;
  std::map<std::string, std::shared_ptr<Relation>, std::less<>> relations_;
  long long ddl_version_ = 0;
};

}  // namespace viewauth

#endif  // VIEWAUTH_STORAGE_RELATION_H_
