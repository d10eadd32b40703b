#pragma once
// The query fast path: row sources, compiled predicates and the access-path
// planner.
//
// The seed engine materialized every row of the target space as a
// std::vector<Value> (string copies included), then re-dispatched each
// condition through the Value variant per row.  The fast path splits that
// into:
//
//   RowSource           a zero-copy cursor over one target space; cells are
//                       produced on demand, and interned string columns
//                       (activity, designer, tool, type, name) expose their
//                       SymbolId so equality never touches the string.
//   CompiledPredicate   the parsed Condition tree flattened once into a
//                       postfix program; each leaf carries its pre-resolved
//                       column index and, for =/!= on an interned column,
//                       the literal's SymbolId (one integer compare per row).
//   plan_access         picks index-seek + residual-filter over full scan
//                       when a top-level conjunctive equality leaf hits one
//                       of the database's secondary indexes.
//
// There is no result cache here: a repeated statement within one epoch is
// answered by hercules::ReadView's per-epoch memo, the read path's one cache.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/query.hpp"

namespace herc::query {

// --- row sources -------------------------------------------------------------

/// Cursor over one target space.  Row indexes are dense [0, count()) in id
/// order, so scanning in row order reproduces the seed engine's output order.
class RowSource {
 public:
  virtual ~RowSource() = default;
  [[nodiscard]] virtual std::size_t count() const = 0;
  /// Materializes one cell (same values the seed engine produced).
  [[nodiscard]] virtual Value cell(std::size_t row, std::size_t col) const = 0;
  /// True when the column is backed by an interned symbol.
  [[nodiscard]] virtual bool symbol_col(std::size_t) const { return false; }
  /// The row's symbol for a symbol-backed column (invalid otherwise).
  [[nodiscard]] virtual util::SymbolId sym(std::size_t, std::size_t) const {
    return {};
  }
  /// Probes the owning pool for a literal; invalid when never interned,
  /// which lets =/!= decide without looking at any row.
  [[nodiscard]] virtual util::SymbolId probe(std::size_t, const std::string&) const {
    return {};
  }
};

[[nodiscard]] std::unique_ptr<RowSource> make_row_source(
    Target target, const meta::Database& db, const sched::ScheduleSpace& space);

// --- compiled predicates -----------------------------------------------------

struct CompiledLeaf {
  std::size_t col = 0;
  Op op = Op::kEq;
  Value literal;
  bool sym_compare = false;  ///< =/!= on a symbol column with a string literal
  util::SymbolId sym;        ///< resolved literal; invalid = not in the pool
};

/// The Condition tree flattened to postfix.  Evaluation walks the program
/// with a caller-provided bool stack — no recursion, no per-row name lookup,
/// no variant dispatch on the symbol fast path.
class CompiledPredicate {
 public:
  enum class OpCode : std::uint8_t { kLeaf, kAnd, kOr, kNot };
  struct Instr {
    OpCode op;
    std::uint32_t arg;  ///< kLeaf: leaf index; kAnd/kOr: child count
  };

  [[nodiscard]] bool empty() const { return code_.empty(); }
  [[nodiscard]] std::size_t leaf_count() const { return leaves_.size(); }

  /// True when the row passes.  `stack` is reused scratch (resized inside).
  [[nodiscard]] bool eval(const RowSource& src, std::size_t row,
                          std::vector<char>& stack) const;

 private:
  friend util::Result<CompiledPredicate> compile_predicate(
      const Expr* where, Target target, const std::vector<std::string>& columns,
      const RowSource& src);
  std::vector<Instr> code_;
  std::vector<CompiledLeaf> leaves_;
};

/// Compiles `where` (null = always-true) against the target's columns.
/// Unknown fields produce the same kNotFound message as the seed engine,
/// first offender in depth-first order.
[[nodiscard]] util::Result<CompiledPredicate> compile_predicate(
    const Expr* where, Target target, const std::vector<std::string>& columns,
    const RowSource& src);

// --- access-path planning ----------------------------------------------------

struct AccessPath {
  bool index = false;             ///< false = full scan
  std::string column;             ///< seek column, e.g. "designer"
  std::string key;                ///< seek literal
  std::vector<std::size_t> rows;  ///< candidate row indexes, ascending
};

/// Considers every equality leaf in the top-level conjunction; if one (or
/// more) hits a maintained secondary index, returns the most selective seek.
/// The full predicate still runs as the residual filter over the candidates,
/// so the planner can never change results, only skip rows.
[[nodiscard]] AccessPath plan_access(const Expr& where, Target target,
                                     const meta::Database& db,
                                     const sched::ScheduleSpace& space);

}  // namespace herc::query
