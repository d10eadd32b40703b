// Randomized integration ("torture") test: long random operation sequences
// against the facade with global invariants checked after every step, plus
// persistence round-trips at random points.  Catches interactions between
// planning, execution, iteration, linking, slips and re-planning that
// directed tests miss.

#include <gtest/gtest.h>

#include <map>

#include "common.hpp"
#include "hercules/persist.hpp"
#include "util/rng.hpp"

namespace herc {
namespace {

class Torture : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Torture() : rng_(GetParam()) { reset(); }

  void reset() {
    m_ = test::make_asic_manager();
    // A flaky tool exercises the failed-run path.
    m_->register_tool({.instance_name = "dc-flaky",
                       .tool_type = "synthesizer",
                       .nominal = cal::WorkDuration::hours(10),
                       .noise_frac = 0.3,
                       .fail_rate = 0.2})
        .expect("tool");
  }

  /// Checks every cross-module invariant we can state globally.
  void check_invariants() {
    const auto& db = m_->db();
    const auto& space = m_->schedule_space();

    // Runs: time-ordered by id, finish >= start, completed runs have outputs
    // whose producer points back.
    cal::WorkInstant prev_finish;
    for (const auto& run : db.runs()) {
      EXPECT_LE(run.started_at, run.finished_at);
      EXPECT_GE(run.started_at, prev_finish) << "runs overlap on the single clock";
      prev_finish = run.finished_at;
      if (run.status == meta::RunStatus::kCompleted) {
        ASSERT_TRUE(run.output.valid());
        EXPECT_EQ(db.instance(run.output).produced_by, run.id);
      } else {
        EXPECT_FALSE(run.output.valid());
      }
    }

    // Instances: versions within a (type, name) strictly increase with id.
    std::map<std::pair<std::string, std::string>, int> last_version;
    for (const auto& inst : db.instances()) {
      int& v = last_version[{inst.type_name, inst.name}];
      EXPECT_EQ(inst.version, v + 1);
      v = inst.version;
      if (inst.data.valid()) { EXPECT_TRUE(m_->store().contains(inst.data)); }
    }

    // Schedule space: baselines immutable once set (checked via snapshot),
    // deps respected by projections of incomplete nodes, links unique and
    // consistent.
    for (const auto& plan : space.plans()) {
      for (const auto& dep : plan.deps) {
        const auto& from = space.node(dep.from);
        const auto& to = space.node(dep.to);
        if (!to.completed && !to.actual_start) {
          cal::WorkInstant from_finish =
              from.actual_finish ? *from.actual_finish : from.planned_finish;
          EXPECT_GE(to.planned_start, from_finish)
              << plan.str() << ": " << from.activity << " -> " << to.activity;
        }
      }
      for (sched::ScheduleNodeId nid : plan.nodes) {
        const auto& n = space.node(nid);
        EXPECT_LE(n.planned_start, n.planned_finish);
        EXPECT_LE(n.baseline_start, n.baseline_finish);
        if (n.completed) {
          EXPECT_TRUE(n.actual_finish.has_value());
          EXPECT_TRUE(space.link_of(nid).has_value());
        }
      }
    }
    for (const auto& link : space.links()) {
      EXPECT_TRUE(space.node(link.schedule_node).completed);
      EXPECT_LE(link.entity_instance.value(), db.instance_count());
    }

    // Baseline snapshots never move after first observation.
    for (std::size_t i = 1; i <= space.node_count(); ++i) {
      sched::ScheduleNodeId nid{i};
      const auto& n = space.node(nid);
      auto it = baselines_.find(i);
      if (it == baselines_.end()) {
        baselines_[i] = {n.baseline_start, n.baseline_finish};
      } else {
        EXPECT_EQ(it->second.first, n.baseline_start) << "baseline moved";
        EXPECT_EQ(it->second.second, n.baseline_finish) << "baseline moved";
      }
    }
  }

  /// One random operation; returns a label for diagnostics.
  std::string random_op() {
    switch (rng_.uniform_int(0, 9)) {
      case 0: {
        sched::PlanRequest req;
        req.anchor = m_->clock().now();
        req.strategy = static_cast<sched::EstimateStrategy>(rng_.uniform_int(0, 4));
        if (m_->plan_of("chip")) {
          (void)m_->replan_task("chip", req);
          return "replan";
        }
        (void)m_->plan_task("chip", req);
        return "plan";
      }
      case 1:
      case 2: {
        const char* activities[] = {"Synthesize", "Place", "Route"};
        (void)m_->run_activity("chip", activities[rng_.uniform_int(0, 2)], "carol");
        return "run";
      }
      case 3: {
        (void)m_->execute_task("chip", "carol");
        return "execute";
      }
      case 4: {
        const char* activities[] = {"Synthesize", "Place", "Route"};
        (void)m_->link_completion("chip", activities[rng_.uniform_int(0, 2)]);
        return "link";
      }
      case 5: {
        m_->clock().advance(cal::WorkDuration::minutes(rng_.uniform_int(0, 2000)));
        return "idle";
      }
      case 6: {
        // Rebind the synthesizer between the stable and flaky instances.
        (void)m_->bind("chip", "synthesizer",
                       rng_.chance(0.5) ? "dc" : "dc-flaky");
        return "rebind";
      }
      case 7: {
        if (m_->plan_of("chip")) (void)m_->status_report("chip");
        (void)m_->query("select runs where status = \"failed\"");
        return "read";
      }
      case 8: {
        auto browser = m_->browser();
        if (m_->schedule_space().node_count() > 0) {
          auto id = sched::ScheduleNodeId{
              static_cast<std::uint64_t>(rng_.uniform_int(
                  1, static_cast<std::int64_t>(m_->schedule_space().node_count())))};
          if (browser.select(id).ok()) (void)browser.delete_selected();
        }
        return "browse";
      }
      default: {
        // Persistence round trip mid-flight; continue on the clone.
        std::string saved = hercules::save_to_json(*m_);
        auto loaded = hercules::load_from_json(saved);
        EXPECT_TRUE(loaded.ok()) << loaded.error().str();
        if (loaded.ok()) {
          EXPECT_EQ(hercules::save_to_json(*loaded.value()), saved);
          // The snapshot carries the tools: execution goes on as before.
          m_ = std::move(loaded).take();
        }
        return "persist";
      }
    }
  }

  std::unique_ptr<hercules::WorkflowManager> m_;
  util::Rng rng_;
  std::map<std::uint64_t, std::pair<cal::WorkInstant, cal::WorkInstant>> baselines_;
};

TEST_P(Torture, RandomOperationSequencesKeepInvariants) {
  std::string history;
  for (int step = 0; step < 120; ++step) {
    history += random_op() + " ";
    check_invariants();
    if (HasFatalFailure() || HasNonfatalFailure()) {
      ADD_FAILURE() << "op history: " << history;
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Torture, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace herc
