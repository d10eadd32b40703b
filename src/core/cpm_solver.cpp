#include "core/cpm_solver.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/topo.hpp"

namespace herc::sched {

util::Result<CpmSolver> CpmSolver::compile(
    const std::vector<CpmActivity>& activities) {
  const std::size_t n = activities.size();
  if (n > std::numeric_limits<std::uint32_t>::max())
    return util::invalid("CPM: network too large for the CSR kernel");

  CpmSolver s;
  s.n_ = n;
  s.durations_.resize(n);
  s.releases_.resize(n);

  // One fused pass validates, copies the value arrays, and counts both CSR
  // sides: the per-activity pred vectors live in scattered heap blocks, so
  // every traversal of them is cache-hostile — this is the dominant cost of
  // a one-shot compile, and it happens exactly twice (count here, fill
  // below), not three times.
  s.pred_off_.assign(n + 1, 0);
  s.succ_off_.assign(n + 1, 0);
  std::size_t edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const CpmActivity& a = activities[i];
    if (a.duration < 0)
      return util::invalid("CPM: activity " + std::to_string(i) +
                           " has negative duration");
    if (a.release < 0)
      return util::invalid("CPM: activity " + std::to_string(i) +
                           " has negative release time");
    for (std::size_t p : a.preds) {
      if (p >= n)
        return util::invalid("CPM: activity " + std::to_string(i) +
                             " references unknown predecessor " + std::to_string(p));
      ++s.succ_off_[p + 1];
    }
    s.durations_[i] = a.duration;
    s.releases_[i] = a.release;
    edges += a.preds.size();
    // Only read back after the overflow check below.
    s.pred_off_[i + 1] = static_cast<std::uint32_t>(edges);
  }
  if (edges > std::numeric_limits<std::uint32_t>::max())
    return util::invalid("CPM: network too large for the CSR kernel");

  // Predecessors: flat copy (finalize sorts each block ascending).
  // Successors: counting sort — filling in ascending activity order leaves
  // every successor list sorted, which the critical-path walk relies on.
  s.pred_.resize(edges);
  s.succ_.resize(edges);
  for (std::size_t v = 0; v < n; ++v) s.succ_off_[v + 1] += s.succ_off_[v];
  std::vector<std::uint32_t> cursor(s.succ_off_.begin(), s.succ_off_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t at = s.pred_off_[i];
    for (std::size_t p : activities[i].preds) {
      s.pred_[at++] = static_cast<std::uint32_t>(p);
      s.succ_[cursor[p]++] = static_cast<std::uint32_t>(i);
    }
  }

  return finalize(std::move(s));
}

util::Result<CpmSolver> CpmSolver::finalize(CpmSolver s) {
  const std::size_t n = s.n_;

  // Sort each predecessor block ascending.  Predecessors are only max'ed
  // over, so the order is free — and the sorted scan walks early-finish
  // slots monotonically, which is measurably kinder to the cache on random
  // shapes (the BM_CpmRandomDag outlier).
  for (std::size_t v = 0; v < n; ++v) {
    std::uint32_t* lo = s.pred_.data() + s.pred_off_[v];
    std::uint32_t* hi = s.pred_.data() + s.pred_off_[v + 1];
    if (hi - lo <= 16) {
      // Insertion sort: blocks are almost always tiny (and often already
      // ascending), where std::sort's dispatch overhead dominates.
      for (std::uint32_t* p = lo + 1; p < hi; ++p)
        for (std::uint32_t* q = p; q > lo && q[-1] > q[0]; --q)
          std::swap(q[-1], q[0]);
    } else {
      std::sort(lo, hi);
    }
  }

  // Topological order.  Forward-indexed networks (every predecessor index
  // below the activity's own — what every generator and the planner's
  // creation-order networks produce) are cycle-free by construction and
  // index order is already topological, so Kahn's random-access queue is
  // skipped entirely.  Blocks are sorted, so "largest pred < v" is one
  // comparison per block.
  bool forward_indexed = true;
  for (std::size_t v = 0; v < n && forward_indexed; ++v) {
    const std::uint32_t lo = s.pred_off_[v], hi = s.pred_off_[v + 1];
    if (hi > lo && s.pred_[hi - 1] >= v) forward_indexed = false;
  }

  if (forward_indexed) {
    s.order_.resize(n);
    std::iota(s.order_.begin(), s.order_.end(), std::uint32_t{0});
  } else {
    // FIFO Kahn over the CSR arrays; the queue is the order.
    s.order_.reserve(n);
    std::vector<std::uint32_t> indeg(n);
    for (std::size_t v = 0; v < n; ++v) {
      indeg[v] = s.pred_off_[v + 1] - s.pred_off_[v];
      if (indeg[v] == 0) s.order_.push_back(static_cast<std::uint32_t>(v));
    }
    for (std::size_t head = 0; head < s.order_.size(); ++head) {
      const std::uint32_t v = s.order_[head];
      for (std::uint32_t e = s.succ_off_[v]; e < s.succ_off_[v + 1]; ++e)
        if (--indeg[s.succ_[e]] == 0) s.order_.push_back(s.succ_[e]);
    }
    if (s.order_.size() != n) {
      // Rare path: rebuild the adjacency form only to name the cycle.
      util::Digraph g(n);
      for (std::size_t i = 0; i < n; ++i)
        for (std::uint32_t e = s.pred_off_[i]; e < s.pred_off_[i + 1]; ++e)
          g.add_edge(s.pred_[e], i);
      std::string msg = "CPM: precedence cycle:";
      for (std::size_t v : util::find_cycle(g)) msg += " " + std::to_string(v);
      return util::invalid(msg);
    }
  }

  s.stats_.compiles = 1;
  return s;
}

void CpmSolver::solve(CpmResult& out) {
  count_solve();
  const std::size_t n = n_;
  // Every element of every buffer is written unconditionally below, so a
  // size fixup is all the preparation needed — no prefill pass.  On reuse
  // with an unchanged network size these resizes are no-ops, which is what
  // makes the re-solve path allocation-free.
  out.early_start.resize(n);
  out.early_finish.resize(n);
  out.late_start.resize(n);
  out.late_finish.resize(n);
  out.total_slack.resize(n);
  out.free_slack.resize(n);
  out.critical.resize(n);
  out.makespan = 0;

  // Forward pass: ES = max(release, max pred EF).
  for (std::uint32_t v : order_) {
    std::int64_t es = releases_[v];
    for (std::uint32_t e = pred_off_[v]; e < pred_off_[v + 1]; ++e)
      es = std::max(es, out.early_finish[pred_[e]]);
    out.early_start[v] = es;
    out.early_finish[v] = es + durations_[v];
    out.makespan = std::max(out.makespan, out.early_finish[v]);
  }

  // Backward pass: LF = min succ LS; sinks anchor at the makespan.  Slack
  // and criticality fall out of the same successor scan (free slack needs
  // min succ ES, fetched alongside LS), so one traversal covers all of it.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    std::uint32_t v = *it;
    std::int64_t lf = out.makespan;
    std::int64_t min_succ_es = out.makespan;
    for (std::uint32_t e = succ_off_[v]; e < succ_off_[v + 1]; ++e) {
      std::uint32_t t = succ_[e];
      lf = std::min(lf, out.late_start[t]);
      min_succ_es = std::min(min_succ_es, out.early_start[t]);
    }
    const std::int64_t ls = lf - durations_[v];
    out.late_finish[v] = lf;
    out.late_start[v] = ls;
    out.total_slack[v] = ls - out.early_start[v];
    out.free_slack[v] = min_succ_es - out.early_finish[v];
    out.critical[v] = ls == out.early_start[v];
  }

  // One critical path: walk forward from a critical source, always stepping
  // to the smallest-index critical successor whose ES equals our EF.  CSR
  // successor lists are pre-sorted, so each step is a plain scan.
  out.critical_path.clear();
  if (n > 0) {
    std::size_t cur = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (out.critical[v] && pred_off_[v] == pred_off_[v + 1]) {
        cur = v;
        break;
      }
    }
    // A release time can make every source non-critical only if it pushes
    // some other chain later; criticality then starts at a released activity
    // with no critical predecessor feeding it directly.
    if (cur == n) {
      for (std::size_t v = 0; v < n; ++v) {
        if (!out.critical[v]) continue;
        bool has_critical_pred = false;
        for (std::uint32_t e = pred_off_[v]; e < pred_off_[v + 1]; ++e) {
          std::uint32_t p = pred_[e];
          if (out.critical[p] && out.early_finish[p] == out.early_start[v])
            has_critical_pred = true;
        }
        if (!has_critical_pred) {
          cur = v;
          break;
        }
      }
    }
    while (cur != n) {
      out.critical_path.push_back(cur);
      std::size_t next = n;
      for (std::uint32_t e = succ_off_[cur]; e < succ_off_[cur + 1]; ++e) {
        std::uint32_t t = succ_[e];
        if (out.critical[t] && out.early_start[t] == out.early_finish[cur]) {
          next = t;
          break;
        }
      }
      cur = next;
    }
  }
}

std::int64_t CpmSolver::solve_makespan() {
  count_solve();
  scratch_ef_.resize(n_);
  std::int64_t makespan = 0;
  for (std::uint32_t v : order_) {
    std::int64_t es = releases_[v];
    for (std::uint32_t e = pred_off_[v]; e < pred_off_[v + 1]; ++e)
      es = std::max(es, scratch_ef_[pred_[e]]);
    scratch_ef_[v] = es + durations_[v];
    makespan = std::max(makespan, scratch_ef_[v]);
  }
  return makespan;
}

void CpmSolver::solve_batch(const std::int64_t* durations, std::size_t lanes,
                            std::int64_t* makespans, std::uint8_t* critical) {
  if (lanes == 0) return;
  count_batch(lanes);
  const std::size_t n = n_;
  batch_es_.resize(n * lanes);
  batch_ef_.resize(n * lanes);
  batch_ls_.resize(n * lanes);

  // Forward: per activity, all lanes advance together.  The lane loops are
  // contiguous int64 arithmetic with no cross-lane dependencies, so the
  // compiler can vectorize them; per lane the operations are exactly the
  // serial forward pass, so every value is bit-identical to a per-sample
  // solve with that lane's durations.
  for (std::size_t l = 0; l < lanes; ++l) makespans[l] = 0;
  for (std::uint32_t v : order_) {
    const std::size_t base = static_cast<std::size_t>(v) * lanes;
    std::int64_t* es = batch_es_.data() + base;
    std::int64_t* ef = batch_ef_.data() + base;
    const std::int64_t release = releases_[v];
    for (std::size_t l = 0; l < lanes; ++l) es[l] = release;
    for (std::uint32_t e = pred_off_[v]; e < pred_off_[v + 1]; ++e) {
      const std::int64_t* pef =
          batch_ef_.data() + static_cast<std::size_t>(pred_[e]) * lanes;
      for (std::size_t l = 0; l < lanes; ++l) es[l] = std::max(es[l], pef[l]);
    }
    const std::int64_t* dur = durations + base;
    for (std::size_t l = 0; l < lanes; ++l) ef[l] = es[l] + dur[l];
    for (std::size_t l = 0; l < lanes; ++l)
      makespans[l] = std::max(makespans[l], ef[l]);
  }

  // Backward: only LS is needed — criticality is LS == ES.  Sinks anchor at
  // their lane's makespan.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const std::uint32_t v = *it;
    const std::size_t base = static_cast<std::size_t>(v) * lanes;
    std::int64_t* ls = batch_ls_.data() + base;
    for (std::size_t l = 0; l < lanes; ++l) ls[l] = makespans[l];
    for (std::uint32_t e = succ_off_[v]; e < succ_off_[v + 1]; ++e) {
      const std::int64_t* sls =
          batch_ls_.data() + static_cast<std::size_t>(succ_[e]) * lanes;
      for (std::size_t l = 0; l < lanes; ++l) ls[l] = std::min(ls[l], sls[l]);
    }
    const std::int64_t* dur = durations + base;
    const std::int64_t* es = batch_es_.data() + base;
    std::uint8_t* crit = critical + base;
    for (std::size_t l = 0; l < lanes; ++l) ls[l] -= dur[l];
    for (std::size_t l = 0; l < lanes; ++l)
      crit[l] = ls[l] == es[l] ? 1 : 0;
  }
}

}  // namespace herc::sched
