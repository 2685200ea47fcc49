#include "nestedloop/nested_loop.h"

#include <functional>
#include <optional>
#include <span>

#include "algebra/predicate.h"  // CompareValues
#include "calculus/range_analysis.h"
#include "common/failpoints.h"

namespace bryql {

namespace {

/// Variable bindings of the current loop nest.
using Env = std::map<std::string, Value>;

/// Resolves a term under `env`; nullopt for an unbound variable.
std::optional<Value> Resolve(const Term& t, const Env& env) {
  if (t.is_constant()) return t.constant();
  auto it = env.find(t.var());
  if (it == env.end()) return std::nullopt;
  return it->second;
}

std::vector<FormulaPtr> Conjuncts(const FormulaPtr& f) {
  if (f->kind() == FormulaKind::kAnd) return f->children();
  return {f};
}

std::set<std::string> BoundVars(const Env& env) {
  std::set<std::string> out;
  for (const auto& [k, v] : env) out.insert(k);
  return out;
}

/// A solution callback: returns true to stop the enumeration early (closed
/// queries stop at the first witness / counterexample, Figure 1a/1b).
using SolutionCallback = std::function<bool(const Env&)>;

class Interpreter {
 public:
  Interpreter(const Database* db, ExecStats* stats,
              ResourceGovernor* governor)
      : db_(db), stats_(stats), governor_(governor) {}

  /// Truth of a formula all of whose free variables are bound in `env`.
  Result<bool> EvalTruth(const FormulaPtr& f, Env& env) {
    switch (f->kind()) {
      case FormulaKind::kAtom: {
        BRYQL_ASSIGN_OR_RETURN(const Relation* rel, db_->Get(f->predicate()));
        if (rel->arity() != f->terms().size()) {
          return Status::InvalidArgument("atom arity mismatch for '" +
                                         f->predicate() + "'");
        }
        std::vector<Value> values;
        values.reserve(f->terms().size());
        for (const Term& t : f->terms()) {
          std::optional<Value> v = Resolve(t, env);
          if (!v) {
            return Status::Unsupported("unbound variable '" + t.var() +
                                       "' in negated or closed context");
          }
          values.push_back(std::move(*v));
        }
        ++stats_->hash_probes;
        stats_->comparisons += values.size();
        return rel->Contains(Tuple(std::move(values)));
      }
      case FormulaKind::kCompare: {
        std::optional<Value> l = Resolve(f->lhs(), env);
        std::optional<Value> r = Resolve(f->rhs(), env);
        if (!l || !r) {
          return Status::Unsupported("unbound variable in comparison " +
                                     f->ToString());
        }
        ++stats_->comparisons;
        return CompareValues(f->compare_op(), *l, *r);
      }
      case FormulaKind::kNot: {
        BRYQL_ASSIGN_OR_RETURN(bool v, EvalTruth(f->child(), env));
        return !v;
      }
      case FormulaKind::kAnd: {
        for (const FormulaPtr& c : f->children()) {
          BRYQL_ASSIGN_OR_RETURN(bool v, EvalTruth(c, env));
          if (!v) return false;
        }
        return true;
      }
      case FormulaKind::kOr: {
        for (const FormulaPtr& c : f->children()) {
          BRYQL_ASSIGN_OR_RETURN(bool v, EvalTruth(c, env));
          if (v) return true;
        }
        return false;
      }
      case FormulaKind::kImplies: {
        BRYQL_ASSIGN_OR_RETURN(bool a, EvalTruth(f->children()[0], env));
        if (!a) return true;
        return EvalTruth(f->children()[1], env);
      }
      case FormulaKind::kIff: {
        BRYQL_ASSIGN_OR_RETURN(bool a, EvalTruth(f->children()[0], env));
        BRYQL_ASSIGN_OR_RETURN(bool b, EvalTruth(f->children()[1], env));
        return a == b;
      }
      case FormulaKind::kExists: {
        // Figure 1a: loop over the range, stop at the first witness.
        bool found = false;
        BRYQL_RETURN_NOT_OK(
            ForEachSolution(f->vars(), f->child(), env, [&](const Env&) {
              found = true;
              return true;  // stop
            }));
        return found;
      }
      case FormulaKind::kForall: {
        // Figure 1b: loop over the range, stop at the first
        // counterexample. ∀x̄ (R ⇒ F) fails iff ∃x̄ (R ∧ ¬F) succeeds —
        // the symmetry the paper's Rules 4/5 formalize.
        const FormulaPtr& body = f->child();
        FormulaPtr as_exists;
        if (body->kind() == FormulaKind::kImplies) {
          as_exists = Formula::And(body->children()[0],
                                   Formula::Not(body->children()[1]));
        } else if (body->kind() == FormulaKind::kNot) {
          as_exists = body->child();
        } else {
          as_exists = Formula::Not(body);
        }
        bool counterexample = false;
        BRYQL_RETURN_NOT_OK(
            ForEachSolution(f->vars(), as_exists, env, [&](const Env&) {
              counterexample = true;
              return true;  // stop
            }));
        return !counterexample;
      }
    }
    return Status::Internal("unreachable formula kind");
  }

  /// Enumerates all bindings of `vars` satisfying `body`, invoking `cb`
  /// for each complete solution.
  Status ForEachSolution(const std::vector<std::string>& vars,
                         const FormulaPtr& body, Env& env,
                         const SolutionCallback& cb) {
    BRYQL_FAILPOINT("nestedloop.enumerate");
    BRYQL_RETURN_NOT_OK(governor_->CheckNow());
    std::set<std::string> required(vars.begin(), vars.end());
    auto split =
        SplitProducersAndFilters(Conjuncts(body), required, BoundVars(env));
    if (!split) {
      return Status::Unsupported("no range found for variables in: " +
                                 body->ToString());
    }
    bool stop = false;
    return EvalBlock(*split, 0, env, cb, &stop);
  }

 private:
  /// Evaluates a producer/filter chain depth-first: producers drive loops,
  /// filters test, the callback fires on complete bindings. `*stop`
  /// propagates early termination outward through all loop levels.
  Status EvalBlock(const ProducerFilterSplit& split, size_t index, Env& env,
                   const SolutionCallback& cb, bool* stop) {
    if (index == split.ordered.size()) {
      *stop = cb(env);
      return Status::Ok();
    }
    const FormulaPtr& c = split.ordered[index];
    // A conjunct whose variables were all produced by earlier conjuncts
    // acts as a filter even if the split classified it as a producer.
    bool all_bound = true;
    for (const std::string& v : c->FreeVariableSet()) {
      if (!env.count(v)) {
        all_bound = false;
        break;
      }
    }
    if (!split.is_producer[index] || all_bound) {
      BRYQL_ASSIGN_OR_RETURN(bool pass, EvalTruth(c, env));
      if (!pass) return Status::Ok();
      return EvalBlock(split, index + 1, env, cb, stop);
    }
    return Enumerate(c, env,
                     [&](const Env&) {
                       Status st = EvalBlock(split, index + 1, env, cb, stop);
                       if (!st.ok()) {
                         error_ = st;
                         return true;
                       }
                       return *stop;
                     },
                     stop);
  }

  /// Enumerates the bindings a producer generates, binding into `env`
  /// around each callback. Errors raised inside callbacks are carried in
  /// error_ and rethrown here.
  Status Enumerate(const FormulaPtr& f, Env& env, const SolutionCallback& cb,
                   bool* stop) {
    BRYQL_RETURN_NOT_OK(EnumerateImpl(f, env, cb, stop));
    if (!error_.ok()) {
      Status st = error_;
      error_ = Status::Ok();
      return st;
    }
    return Status::Ok();
  }

  Status EnumerateImpl(const FormulaPtr& f, Env& env,
                       const SolutionCallback& cb, bool* stop) {
    switch (f->kind()) {
      case FormulaKind::kAtom: {
        BRYQL_ASSIGN_OR_RETURN(const Relation* rel, db_->Get(f->predicate()));
        if (rel->arity() != f->terms().size()) {
          return Status::InvalidArgument("atom arity mismatch for '" +
                                         f->predicate() + "'");
        }
        // When an argument is already bound and its column is indexed,
        // loop only over the matching rows.
        std::optional<std::span<const uint32_t>> index_rows;
        for (size_t i = 0; i < f->terms().size(); ++i) {
          if (!rel->HasIndex(i)) continue;
          std::optional<Value> bound = Resolve(f->terms()[i], env);
          if (!bound) continue;
          ++stats_->hash_probes;
          index_rows = rel->Matches(i, *bound);
          break;
        }
        size_t row_count = index_rows ? index_rows->size() : rel->size();
        for (size_t r = 0; r < row_count; ++r) {
          // Innermost loop of the whole Figure 1 interpreter: every row of
          // every loop level passes through here, so the admission check
          // bounds total work regardless of nesting depth.
          if (!governor_->AdmitScan()) return governor_->status();
          const std::span<const Value> row =
              rel->Row(index_rows ? (*index_rows)[r] : r);
          ++stats_->tuples_scanned;
          std::vector<std::string> newly_bound;
          bool match = true;
          for (size_t i = 0; i < f->terms().size() && match; ++i) {
            const Term& t = f->terms()[i];
            std::optional<Value> bound = Resolve(t, env);
            if (bound) {
              ++stats_->comparisons;
              match = *bound == row[i];
            } else {
              env.emplace(t.var(), row[i]);
              newly_bound.push_back(t.var());
            }
          }
          bool do_stop = match && cb(env);
          for (const std::string& v : newly_bound) env.erase(v);
          if (do_stop || !error_.ok()) {
            *stop = do_stop;
            return Status::Ok();
          }
        }
        return Status::Ok();
      }
      case FormulaKind::kCompare: {
        // Producer equality x = c (or c = x): a single binding.
        const Term& l = f->lhs();
        const Term& r = f->rhs();
        std::optional<Value> lv = Resolve(l, env);
        std::optional<Value> rv = Resolve(r, env);
        if (lv && rv) {
          ++stats_->comparisons;
          if (CompareValues(f->compare_op(), *lv, *rv)) *stop = cb(env);
          return Status::Ok();
        }
        if (f->compare_op() != CompareOp::kEq || (!lv && !rv)) {
          return Status::Unsupported("cannot enumerate " + f->ToString());
        }
        const std::string& var = lv ? r.var() : l.var();
        env.emplace(var, lv ? *lv : *rv);
        *stop = cb(env);
        env.erase(var);
        return Status::Ok();
      }
      case FormulaKind::kAnd: {
        std::set<std::string> required;
        for (const std::string& v : f->FreeVariableSet()) {
          if (!env.count(v)) required.insert(v);
        }
        auto split =
            SplitProducersAndFilters(f->children(), required, BoundVars(env));
        if (!split) {
          return Status::Unsupported("no range order for: " + f->ToString());
        }
        return EvalBlock(*split, 0, env, cb, stop);
      }
      case FormulaKind::kOr: {
        // A disjunctive range: enumerate each branch in turn. Duplicate
        // bindings may repeat across branches; callers deduplicate (open
        // queries insert into a set; closed queries stop at the first).
        for (const FormulaPtr& d : f->children()) {
          BRYQL_RETURN_NOT_OK(EnumerateImpl(d, env, cb, stop));
          if (*stop || !error_.ok()) return Status::Ok();
        }
        return Status::Ok();
      }
      case FormulaKind::kExists: {
        // Range with local projection (Definition 1 case 5): enumerate the
        // body; the extra variables are bound during cb but invisible to
        // the caller afterwards.
        return EnumerateImpl(f->child(), env, cb, stop);
      }
      default:
        return Status::Unsupported("cannot enumerate bindings from: " +
                                   f->ToString());
    }
  }

  const Database* db_;
  ExecStats* stats_;
  ResourceGovernor* governor_;
  Status error_;
};

}  // namespace

Result<bool> NestedLoopEvaluator::EvaluateClosed(const FormulaPtr& formula) {
  if (!formula->FreeVariables().empty()) {
    return Status::InvalidArgument(
        "EvaluateClosed requires a closed formula, got: " +
        formula->ToString());
  }
  Interpreter interp(db_, &stats_, governor_);
  Env env;
  Result<bool> truth = interp.EvalTruth(formula, env);
  // Existential/universal loops swallow the stop signal; surface a trip.
  if (truth.ok()) BRYQL_RETURN_NOT_OK(governor_->status());
  return truth;
}

Result<Relation> NestedLoopEvaluator::EvaluateOpen(const Query& query) {
  if (query.closed()) {
    return Status::InvalidArgument("EvaluateOpen requires target variables");
  }
  Interpreter interp(db_, &stats_, governor_);
  Env env;
  Relation result(query.targets.size());
  // Figure 1c: enumerate all bindings of the producers; every binding
  // passing the filters contributes an answer. Top-level disjunctions
  // (Definition 3 case 2) enumerate each branch.
  std::vector<FormulaPtr> branches;
  if (query.formula->kind() == FormulaKind::kOr) {
    branches = query.formula->children();
  } else {
    branches = {query.formula};
  }
  for (const FormulaPtr& branch : branches) {
    BRYQL_RETURN_NOT_OK(interp.ForEachSolution(
        query.targets, branch, env, [&](const Env& done) {
          if (!governor_->AdmitMaterialize()) return true;  // stop: tripped
          std::vector<Value> values;
          values.reserve(query.targets.size());
          for (const std::string& t : query.targets) {
            values.push_back(done.at(t));
          }
          result.Insert(Tuple(std::move(values)));
          return false;  // collect all answers
        }));
    BRYQL_RETURN_NOT_OK(governor_->status());
  }
  return result;
}

}  // namespace bryql
