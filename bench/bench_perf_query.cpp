// P3: query engine throughput vs. database size — filtering, ordering and
// the paper's two query classes (schedule data, schedule metadata).

#include <iostream>

#include "bench_main.hpp"
#include "query/query.hpp"
#include "workloads.hpp"

using namespace herc;

namespace {

std::unique_ptr<hercules::WorkflowManager> populated(std::size_t executions) {
  auto m = bench::make_manager(bench::chain_schema(8), "d8",
                               cal::WorkDuration::minutes(7));
  m->plan_task("job", {.anchor = m->clock().now()}).value();
  for (std::size_t i = 0; i < executions; ++i)
    m->execute_task("job", i % 2 ? "alice" : "bob").value();
  return m;
}

void print_artifact() {
  auto m = populated(10);
  std::cout << "P3 — query engine over a database of " << m->db().run_count()
            << " runs / " << m->db().instance_count() << " instances\n\n";
  std::cout << "schedule-data query (paper: duration of the last run):\n"
            << m->query("select runs where activity = \"A5\" order by finished desc "
                        "limit 1")
                   .value()
            << "\n";
  m->replan_task("job", {.anchor = m->clock().now()}).value();
  query::QueryEngine engine(m->db(), m->schedule_space());
  std::cout << "schedule-metadata query (paper: plan evolution):\n"
            << engine.plan_lineage(m->plan_of("job").value()).render(&m->calendar())
            << "\n";
}

void BM_QueryFilterScan(benchmark::State& state) {
  auto m = populated(static_cast<std::size_t>(state.range(0)));
  query::QueryEngine engine(m->db(), m->schedule_space());
  auto q = query::parse_query("select runs where designer = \"alice\"").take();
  for (auto _ : state) benchmark::DoNotOptimize(engine.execute(q).value().rows.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m->db().run_count()));
}
BENCHMARK(BM_QueryFilterScan)->Arg(10)->Arg(100)->Arg(1000);

void BM_QueryOrderLimit(benchmark::State& state) {
  auto m = populated(static_cast<std::size_t>(state.range(0)));
  query::QueryEngine engine(m->db(), m->schedule_space());
  auto q = query::parse_query(
               "select runs where activity = \"A5\" order by finished desc limit 1")
               .take();
  for (auto _ : state) benchmark::DoNotOptimize(engine.execute(q).value().rows.size());
}
BENCHMARK(BM_QueryOrderLimit)->Arg(10)->Arg(100)->Arg(1000);

// --- fast path: indexed seek vs full scan ------------------------------------
//
// Mixed-designer population: alice/bob alternate per execution, with carol
// taking every 64th execution, so `designer = "carol"` is a selective
// equality an index seek can exploit (~1/64 of all runs).

std::unique_ptr<hercules::WorkflowManager> populated_mixed(std::size_t runs) {
  const std::size_t executions = runs / 8;  // chain_schema(8): 8 runs each
  auto m = bench::make_manager(bench::chain_schema(8), "d8",
                               cal::WorkDuration::minutes(7));
  m->plan_task("job", {.anchor = m->clock().now()}).value();
  for (std::size_t i = 0; i < executions; ++i) {
    const char* designer = i % 64 == 0 ? "carol" : (i % 2 ? "alice" : "bob");
    m->execute_task("job", designer).value();
  }
  return m;
}

constexpr const char* kSelective =
    "select runs where designer = \"carol\" and duration >= 0";

void BM_QueryIndexedEq(benchmark::State& state) {
  auto m = populated_mixed(static_cast<std::size_t>(state.range(0)));
  query::QueryEngine engine(m->db(), m->schedule_space());
  auto q = query::parse_query(kSelective).take();
  for (auto _ : state) benchmark::DoNotOptimize(engine.execute(q).value().rows.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m->db().run_count()));
}
BENCHMARK(BM_QueryIndexedEq)->Arg(512)->Arg(4096)->Arg(16384);

void BM_QueryScanResidual(benchmark::State& state) {
  auto m = populated_mixed(static_cast<std::size_t>(state.range(0)));
  query::QueryEngine engine(m->db(), m->schedule_space());
  engine.set_options({.use_index = false});
  auto q = query::parse_query(kSelective).take();
  for (auto _ : state) benchmark::DoNotOptimize(engine.execute(q).value().rows.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m->db().run_count()));
}
BENCHMARK(BM_QueryScanResidual)->Arg(512)->Arg(4096)->Arg(16384);

// An aggregate over every run: each execution scans the whole run table.
constexpr const char* kAggregate = "select avg(duration) from runs";

void BM_QueryFirstExec(benchmark::State& state) {
  auto m = populated_mixed(static_cast<std::size_t>(state.range(0)));
  query::QueryEngine engine(m->db(), m->schedule_space());
  auto q = query::parse_query(kAggregate).take();
  for (auto _ : state) benchmark::DoNotOptimize(engine.execute(q).value().rows.size());
}
BENCHMARK(BM_QueryFirstExec)->Arg(512)->Arg(4096)->Arg(16384);

void BM_QueryParse(benchmark::State& state) {
  const std::string text =
      "select schedule where critical = true and est_duration >= 240 "
      "order by planned_start desc limit 10";
  for (auto _ : state)
    benchmark::DoNotOptimize(query::parse_query(text).value().str().size());
}
BENCHMARK(BM_QueryParse);

void BM_PlanLineage(benchmark::State& state) {
  auto m = bench::make_manager(bench::chain_schema(4), "d4");
  m->plan_task("job", {.anchor = m->clock().now()}).value();
  for (int i = 0; i < state.range(0); ++i)
    m->replan_task("job", {.anchor = m->clock().now()}).value();
  query::QueryEngine engine(m->db(), m->schedule_space());
  auto plan = m->plan_of("job").value();
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.plan_lineage(plan).rows.size());
}
BENCHMARK(BM_PlanLineage)->Arg(4)->Arg(32)->Arg(128);

// --- rendering: dates at a project's age ------------------------------------
//
// Every status row, Gantt bar and time-column query cell renders a date, so
// their cost must not grow with the project's age: the /5000 rows (about
// 20 years of work days) gate that against the /0 rows.

void BM_CalendarFormat(benchmark::State& state) {
  cal::WorkCalendar::Config cfg;
  cfg.epoch = cal::Date(1995, 6, 12);
  const cal::WorkCalendar calendar(cfg);
  const std::int64_t per_day = calendar.minutes_per_day();
  const std::int64_t base = state.range(0) * per_day;
  std::int64_t minute = 0;
  for (auto _ : state) {
    std::string text = calendar.format(cal::WorkInstant(base + minute));
    benchmark::DoNotOptimize(text.data());
    minute = (minute + 7) % per_day;
  }
}
BENCHMARK(BM_CalendarFormat)->Arg(0)->Arg(5000);

// A dashboard drill-down: ~150 `select runs` rows, two time columns each,
// rendered with the project clock 5,000 work days past the epoch.
void BM_QueryRenderRuns(benchmark::State& state) {
  auto m = bench::make_manager(bench::chain_schema(8), "d8",
                               cal::WorkDuration::minutes(7));
  m->clock().advance(cal::WorkDuration::minutes(5000 * m->calendar().minutes_per_day()));
  m->plan_task("job", {.anchor = m->clock().now()}).value();
  for (int i = 0; i < 19; ++i) m->execute_task("job", i % 2 ? "alice" : "bob").value();
  query::QueryEngine engine(m->db(), m->schedule_space());
  const query::QueryResult runs = engine.execute("select runs").value();
  for (auto _ : state) {
    std::string text = runs.render(&m->calendar());
    benchmark::DoNotOptimize(text.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(runs.rows.size()));
}
BENCHMARK(BM_QueryRenderRuns);

}  // namespace

HERC_BENCH_MAIN(print_artifact)
