#ifndef BRYQL_STORAGE_DATABASE_H_
#define BRYQL_STORAGE_DATABASE_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/relation.h"

namespace bryql {

/// A catalog of named base relations — the "database instance" queries run
/// against. Lookup is by predicate name as it appears in calculus atoms.
class Database {
 public:
  Database() = default;

  /// Registers `relation` under `name`, replacing any previous binding.
  void Put(const std::string& name, Relation relation);

  /// Convenience: registers a relation built from `rows`.
  Status PutRows(const std::string& name, std::vector<Tuple> rows);

  bool Has(const std::string& name) const {
    return relations_.count(name) != 0;
  }

  /// The relation bound to `name`, or NotFound. The name "dom" — unless
  /// shadowed by a stored relation — resolves to the active domain (the
  /// paper's Domain Closure Assumption view, §2.1), cached and rebuilt
  /// after updates. Safe to call from concurrent readers.
  Result<const Relation*> Get(const std::string& name) const;

  /// Arity of the relation bound to `name`, or NotFound.
  Result<size_t> ArityOf(const std::string& name) const;

  /// Builds a hash index on `column` of the stored relation `name`.
  Status BuildIndex(const std::string& name, size_t column);

  /// Builds indexes on every column of every stored relation.
  void BuildAllIndexes();

  /// Builds zone maps over the rows of relation `name` (NotFound when no
  /// such relation). Once built they are maintained by inserts, and every
  /// scan with a selection over the relation prunes by them. No plan
  /// depends on them, so the catalog version does not move: prepared
  /// plans stay valid and prune from their next run.
  Status EnableColumnar(const std::string& name);

  /// Builds zone maps for every relation that lacks them; the version
  /// does not move either.
  void EnableColumnarAll();

  /// Registered names in lexicographic order.
  std::vector<std::string> Names() const;

  /// The active domain: every value appearing in any relation, as a unary
  /// relation. This is the paper's "dom" view under the Domain Closure
  /// Assumption (§2.1); the classical baseline translation ranges
  /// unrestricted variables over it.
  Relation ActiveDomain() const;

  /// Total number of stored tuples across all relations.
  size_t TotalTuples() const;

  /// Catalog version, advanced by every mutation (Put, BuildIndex).
  /// Cached query plans record the version they were prepared against and
  /// are re-prepared when it moves.
  uint64_t version() const { return version_; }

 private:
  /// The "dom" view, rebuilt when version_ advances. Concurrent readers
  /// may be the first to touch it, so the rebuild is locked. A copy starts
  /// empty and rebuilds on first use, which keeps Database copyable.
  struct DomainCache {
    DomainCache() = default;
    DomainCache(const DomainCache&) {}
    DomainCache& operator=(const DomainCache&) {
      relation = Relation(1);
      version = 0;
      return *this;
    }
    std::mutex mutex;
    Relation relation{1};
    uint64_t version = 0;
  };

  std::map<std::string, Relation> relations_;
  mutable DomainCache domain_;
  uint64_t version_ = 1;
};

}  // namespace bryql

#endif  // BRYQL_STORAGE_DATABASE_H_
