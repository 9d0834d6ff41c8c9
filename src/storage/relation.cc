#include "storage/relation.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace viewauth {

namespace {

// Rows a fresh store reserves; stores double from there.
constexpr size_t kMinStoreRows = 8;

// Spreads a Value-combined hash over the low bits the table masks with
// (integer keys hash to themselves).
uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

// The row index of one append history: (key hash, row id) pairs in an
// open-addressing table with linear probing, shared by every buffer
// generation of the history and so by every relation copy forked from
// it. `rows` is the history's frontier — the number of rows appended,
// which is also the next row id; only a copy whose visible count equals
// it may append. A copy probing the index ignores row ids at or past its
// own count. `mu` guards everything: a writer appends while readers of
// older copies probe.
struct Relation::RowIndex {
  static constexpr uint32_t kEmpty = ~uint32_t{0};
  struct Slot {
    uint64_t hash = 0;
    uint32_t row = kEmpty;
  };

  std::mutex mu;
  std::vector<Slot> slots;  // empty or a power of two, at most half full
  size_t rows = 0;

  void Add(uint64_t hash, uint32_t row) {
    if (2 * (rows + 1) > slots.size()) {
      std::vector<Slot> old = std::move(slots);
      slots.assign(std::max<size_t>(16, 2 * old.size()), Slot{});
      for (const Slot& slot : old) {
        if (slot.row != kEmpty) Place(slot);
      }
    }
    Place(Slot{hash, row});
    ++rows;
  }

  // Calls `fn(row)` for every row id stored under `hash` until it
  // returns true; returns whether one did.
  template <typename Fn>
  bool AnyOf(uint64_t hash, Fn&& fn) const {
    if (slots.empty()) return false;
    const size_t mask = slots.size() - 1;
    for (size_t i = Mix(hash) & mask; slots[i].row != kEmpty;
         i = (i + 1) & mask) {
      if (slots[i].hash == hash && fn(slots[i].row)) return true;
    }
    return false;
  }

 private:
  void Place(const Slot& slot) {
    const size_t mask = slots.size() - 1;
    size_t i = Mix(slot.hash) & mask;
    while (slots[i].row != kEmpty) i = (i + 1) & mask;
    slots[i] = slot;
  }
};

Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      store_(other.store_),
      count_(other.count_),
      version_(other.version_) {}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  store_ = other.store_;
  count_ = other.count_;
  version_ = other.version_;
  indexed_version_ = -1;
  column_indexes_.clear();
  ordered_indexes_.clear();
  column_cache_.clear();
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      store_(std::move(other.store_)),
      count_(std::exchange(other.count_, 0)),
      version_(other.version_) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  store_ = std::move(other.store_);
  count_ = std::exchange(other.count_, 0);
  version_ = other.version_;
  indexed_version_ = -1;
  column_indexes_.clear();
  ordered_indexes_.clear();
  column_cache_.clear();
  return *this;
}

Status Relation::ValidateTuple(const Tuple& tuple) const {
  if (tuple.arity() != schema_.arity()) {
    return Status::SchemaMismatch(
        "tuple arity " + std::to_string(tuple.arity()) +
        " does not match relation '" + schema_.name() + "' arity " +
        std::to_string(schema_.arity()));
  }
  for (int i = 0; i < tuple.arity(); ++i) {
    const Value& v = tuple.at(i);
    if (v.is_null()) continue;
    const ValueType expected = schema_.attribute(i).type;
    if (v.type() == expected) continue;
    // int64 is acceptable where a double is expected.
    if (expected == ValueType::kDouble && v.is_int64()) continue;
    return Status::SchemaMismatch(
        "attribute '" + schema_.attribute(i).name + "' of relation '" +
        schema_.name() + "' expects " +
        std::string(ValueTypeToString(expected)) + ", got " +
        std::string(ValueTypeToString(v.type())));
  }
  return Status::OK();
}

size_t Relation::KeyHash(const Tuple& tuple) const {
  if (!schema_.has_key()) return tuple.Hash();
  size_t h = 0x345678;
  for (int c : schema_.key()) h = h * 1000003 ^ tuple.at(c).Hash();
  return h;
}

bool Relation::KeyEqual(const Tuple& a, const Tuple& b) const {
  if (!schema_.has_key()) return a == b;
  for (int c : schema_.key()) {
    if (!(a.at(c) == b.at(c))) return false;
  }
  return true;
}

long long Relation::Find(const Tuple& tuple) const {
  if (store_ == nullptr) return -1;
  // A keyed relation's key columns may lie past a short probe tuple.
  if (schema_.has_key() && tuple.arity() != schema_.arity()) return -1;
  const size_t hash = KeyHash(tuple);
  const Tuple* rows = store_->rows.get();
  long long found = -1;
  std::lock_guard<std::mutex> lock(store_->index->mu);
  store_->index->AnyOf(hash, [&](uint32_t row) {
    if (row >= count_ || rows[row] != tuple) return false;
    found = row;
    return true;
  });
  return found;
}

Relation::AddOutcome Relation::Add(Tuple& tuple, bool check_key) {
  const size_t hash = KeyHash(tuple);
  if (store_ == nullptr) Privatize();
  std::unique_lock<std::mutex> lock(store_->index->mu);
  if (count_ != store_->index->rows) {
    // Another copy appended past this one's rows (or a discarded
    // statement left its rows behind): this copy can no longer append
    // in place.
    lock.unlock();
    Privatize();
    lock = std::unique_lock<std::mutex>(store_->index->mu);
  }
  RowIndex& index = *store_->index;
  Tuple* rows = store_->rows.get();
  AddOutcome outcome = AddOutcome::kAppended;
  index.AnyOf(hash, [&](uint32_t row) {
    if (rows[row] == tuple) {
      outcome = AddOutcome::kDuplicate;
    } else if (check_key && KeyEqual(rows[row], tuple)) {
      outcome = AddOutcome::kKeyConflict;
    }
    return outcome != AddOutcome::kAppended;
  });
  if (outcome != AddOutcome::kAppended) return outcome;
  if (count_ == store_->capacity) {
    // Full: double into a new buffer that continues the same history.
    // Copies still reading the old buffer keep it alive, unmoved.
    auto grown = std::make_shared<RowStore>(2 * store_->capacity);
    std::copy(rows, rows + count_, grown->rows.get());
    grown->index = store_->index;
    store_ = std::move(grown);
    rows = store_->rows.get();
  }
  rows[count_] = std::move(tuple);
  index.Add(hash, static_cast<uint32_t>(count_));
  ++count_;
  ++version_;
  return outcome;
}

void Relation::Privatize() {
  if (store_ != nullptr && store_.use_count() == 1 &&
      store_->index.use_count() == 1) {
    // Sole owner: drop in place whatever was appended past count_ (it
    // may extend past this buffer, into a grown one since freed).
    RowIndex& index = *store_->index;
    if (index.rows != count_) {
      for (size_t row = count_; row < std::min(index.rows, store_->capacity);
           ++row) {
        store_->rows[row] = Tuple();
      }
      Reindex();
    }
    return;
  }
  auto fresh = std::make_shared<RowStore>(
      std::max(kMinStoreRows, std::bit_ceil(count_ + 1)));
  std::copy(rows().begin(), rows().end(), fresh->rows.get());
  fresh->index = std::make_shared<RowIndex>();
  store_ = std::move(fresh);
  Reindex();
}

void Relation::Reindex() {
  RowIndex& index = *store_->index;
  index.slots.clear();
  index.rows = 0;
  for (size_t row = 0; row < count_; ++row) {
    index.Add(KeyHash(store_->rows[row]), static_cast<uint32_t>(row));
  }
}

Status Relation::Insert(Tuple tuple) {
  VIEWAUTH_RETURN_NOT_OK(ValidateTuple(tuple));
  if (Add(tuple, /*check_key=*/schema_.has_key()) ==
      AddOutcome::kKeyConflict) {
    return Status::SchemaMismatch("primary-key violation in relation '" +
                                  schema_.name() + "' for key " +
                                  tuple.Project(schema_.key()).ToString());
  }
  return Status::OK();
}

bool Relation::InsertUnchecked(Tuple tuple) {
  return Add(tuple, /*check_key=*/false) == AddOutcome::kAppended;
}

bool Relation::Erase(const Tuple& tuple) {
  const long long row = Find(tuple);
  if (row < 0) return false;
  Privatize();
  Tuple* rows = store_->rows.get();
  std::move(rows + row + 1, rows + count_, rows + row);
  rows[--count_] = Tuple();
  Reindex();
  ++version_;
  return true;
}

void Relation::Clear() {
  store_.reset();
  count_ = 0;
  ++version_;
}

const Relation::ColumnIndex& Relation::IndexOn(int column) const {
  // Serialize lazy builds: concurrent read-only sessions may race to
  // index the same relation. Map nodes are stable, so the returned
  // reference stays valid after unlock as long as no mutation intervenes
  // (mutations are externally excluded from readers).
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (indexed_version_ != version_) {
    column_indexes_.clear();
    ordered_indexes_.clear();
    column_cache_.clear();
    indexed_version_ = version_;
  }
  auto it = column_indexes_.find(column);
  if (it == column_indexes_.end()) {
    ColumnIndex built;
    built.reserve(count_);
    const std::span<const Tuple> all = rows();
    for (int row = 0; row < static_cast<int>(all.size()); ++row) {
      built.emplace(all[static_cast<size_t>(row)].at(column), row);
    }
    it = column_indexes_.emplace(column, std::move(built)).first;
  }
  return it->second;
}

const Relation::OrderedIndex& Relation::OrderedIndexOn(int column) const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (indexed_version_ != version_) {
    column_indexes_.clear();
    ordered_indexes_.clear();
    column_cache_.clear();
    indexed_version_ = version_;
  }
  auto it = ordered_indexes_.find(column);
  if (it == ordered_indexes_.end()) {
    OrderedIndex built;
    built.reserve(count_);
    const std::span<const Tuple> all = rows();
    for (int row = 0; row < static_cast<int>(all.size()); ++row) {
      built.emplace_back(all[static_cast<size_t>(row)].at(column), row);
    }
    std::sort(built.begin(), built.end(),
              [](const std::pair<Value, int>& a,
                 const std::pair<Value, int>& b) {
                if (a.first < b.first) return true;
                if (b.first < a.first) return false;
                return a.second < b.second;
              });
    it = ordered_indexes_.emplace(column, std::move(built)).first;
  }
  return it->second;
}

const ColumnVector& Relation::ColumnOn(int column) const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (indexed_version_ != version_) {
    column_indexes_.clear();
    ordered_indexes_.clear();
    column_cache_.clear();
    indexed_version_ = version_;
  }
  auto it = column_cache_.find(column);
  if (it == column_cache_.end()) {
    ColumnVector built;
    built.GatherDense(rows(), 0, count_, column);
    it = column_cache_.emplace(column, std::move(built)).first;
  }
  return it->second;
}

bool Relation::Contains(const Tuple& tuple) const {
  return Find(tuple) >= 0;
}

std::vector<Tuple> Relation::SortedRows() const {
  std::vector<Tuple> sorted(rows().begin(), rows().end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

bool Relation::SameTuples(const Relation& other) const {
  if (size() != other.size()) return false;
  for (const Tuple& row : rows()) {
    if (!other.Contains(row)) return false;
  }
  return true;
}

DatabaseSchema& DatabaseInstance::MutableSchema() {
  if (schema_.use_count() > 1) {
    schema_ = std::make_shared<DatabaseSchema>(*schema_);
  }
  return *schema_;
}

Status DatabaseInstance::CreateRelation(RelationSchema schema) {
  VIEWAUTH_RETURN_NOT_OK(MutableSchema().AddRelation(schema));
  // Copy the name out first: argument evaluation order is unspecified, so
  // passing schema.name() and std::move(schema) in one call would race.
  std::string name = schema.name();
  relations_.emplace(std::move(name),
                     std::make_shared<Relation>(std::move(schema)));
  ++ddl_version_;
  return Status::OK();
}

Status DatabaseInstance::DropRelation(std::string_view name) {
  VIEWAUTH_RETURN_NOT_OK(MutableSchema().DropRelation(name));
  relations_.erase(relations_.find(name));
  ++ddl_version_;
  return Status::OK();
}

Result<Relation*> DatabaseInstance::GetRelation(std::string_view name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + std::string(name) +
                            "' does not exist");
  }
  // Copy-on-write: a use count above one means a snapshot still reads
  // this relation object; give the writer its own copy. The copy shares
  // the row store, so this costs no row copies — the writer's appends
  // land past the snapshot's visible count. (Refcounts only move under
  // the engine's exclusive mutation lock or when a reader releases its
  // snapshot — a concurrent release can at worst leave the count
  // momentarily high, causing a spurious copy, never a shared mutation.)
  if (it->second.use_count() > 1) {
    it->second = std::make_shared<Relation>(*it->second);
  }
  return it->second.get();
}

Result<const Relation*> DatabaseInstance::GetRelation(
    std::string_view name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + std::string(name) +
                            "' does not exist");
  }
  return it->second.get();
}

Status DatabaseInstance::Insert(std::string_view relation_name, Tuple tuple) {
  VIEWAUTH_ASSIGN_OR_RETURN(Relation * rel, GetRelation(relation_name));
  return rel->Insert(std::move(tuple));
}

}  // namespace viewauth
