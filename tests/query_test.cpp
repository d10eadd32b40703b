// Unit tests for the query language and engine.

#include <gtest/gtest.h>

#include "common.hpp"
#include "query/query.hpp"

namespace herc::query {
namespace {

// --- parser -----------------------------------------------------------------

TEST(QueryParser, MinimalSelect) {
  auto q = parse_query("select runs");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().target, Target::kRuns);
  EXPECT_EQ(q.value().where, nullptr);
  EXPECT_FALSE(q.value().limit.has_value());
}

TEST(QueryParser, FullStatement) {
  auto q = parse_query(
      "select runs where activity = \"Simulate\" and duration > 100 "
      "order by finished desc limit 5");
  ASSERT_TRUE(q.ok()) << q.error().str();
  const Query& query = q.value();
  ASSERT_NE(query.where, nullptr);
  ASSERT_EQ(query.where->kind, Expr::Kind::kAnd);
  ASSERT_EQ(query.where->children.size(), 2u);
  const Condition& first = query.where->children[0]->condition;
  const Condition& second = query.where->children[1]->condition;
  EXPECT_EQ(first.field, "activity");
  EXPECT_EQ(first.op, Op::kEq);
  EXPECT_EQ(std::get<std::string>(first.literal), "Simulate");
  EXPECT_EQ(second.op, Op::kGt);
  EXPECT_EQ(std::get<std::int64_t>(second.literal), 100);
  EXPECT_EQ(query.order_by.value(), "finished");
  EXPECT_TRUE(query.descending);
  EXPECT_EQ(query.limit.value(), 5);
}

TEST(QueryParser, AllOperators) {
  for (const char* op : {"=", "!=", "<", "<=", ">", ">=", "contains"}) {
    auto q = parse_query(std::string("select runs where tool ") + op + " \"x\"");
    EXPECT_TRUE(q.ok()) << op << ": " << q.error().str();
  }
}

TEST(QueryParser, BoolAndBareWordLiterals) {
  auto q = parse_query("select schedule where critical = true and activity = Create");
  ASSERT_TRUE(q.ok());
  const auto& children = q.value().where->children;
  EXPECT_TRUE(std::get<bool>(children[0]->condition.literal));
  EXPECT_EQ(std::get<std::string>(children[1]->condition.literal), "Create");
}

TEST(QueryParser, BooleanExpressionStructure) {
  auto q = parse_query(
      "select runs where designer = \"bob\" or (duration > 100 and not "
      "status = \"failed\")");
  ASSERT_TRUE(q.ok()) << q.error().str();
  const Expr& root = *q.value().where;
  ASSERT_EQ(root.kind, Expr::Kind::kOr);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->kind, Expr::Kind::kCondition);
  const Expr& right = *root.children[1];
  ASSERT_EQ(right.kind, Expr::Kind::kAnd);
  EXPECT_EQ(right.children[1]->kind, Expr::Kind::kNot);
}

TEST(QueryParser, AndBindsTighterThanOr) {
  auto q = parse_query("select runs where a = 1 and b = 2 or c = 3");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().where->kind, Expr::Kind::kOr);
  EXPECT_EQ(q.value().where->children[0]->kind, Expr::Kind::kAnd);
}

TEST(QueryParser, DeepNestingRejectedNotCrashed) {
  std::string deep = "select runs where " + std::string(100000, '(');
  EXPECT_FALSE(parse_query(deep).ok());
  std::string too_deep = "select runs where " + std::string(150, '(') + "a = 1" +
                         std::string(150, ')');
  auto r = parse_query(too_deep);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("nested"), std::string::npos);
  std::string fine = "select runs where " + std::string(50, '(') + "a = 1" +
                     std::string(50, ')');
  EXPECT_TRUE(parse_query(fine).ok());
}

TEST(QueryParser, BooleanExpressionErrors) {
  EXPECT_FALSE(parse_query("select runs where (a = 1").ok());
  EXPECT_FALSE(parse_query("select runs where a = 1 or").ok());
  EXPECT_FALSE(parse_query("select runs where not").ok());
  EXPECT_FALSE(parse_query("select runs where and a = 1").ok());
}

TEST(QueryParser, AllTargets) {
  EXPECT_EQ(parse_query("select runs").value().target, Target::kRuns);
  EXPECT_EQ(parse_query("select instances").value().target, Target::kInstances);
  EXPECT_EQ(parse_query("select schedule").value().target, Target::kSchedule);
  EXPECT_EQ(parse_query("select schedule_nodes").value().target, Target::kSchedule);
  EXPECT_EQ(parse_query("select plans").value().target, Target::kPlans);
  EXPECT_EQ(parse_query("select links").value().target, Target::kLinks);
}

TEST(QueryParser, Errors) {
  EXPECT_FALSE(parse_query("").ok());
  EXPECT_FALSE(parse_query("delete runs").ok());
  EXPECT_FALSE(parse_query("select nothing").ok());
  EXPECT_FALSE(parse_query("select runs where").ok());
  EXPECT_FALSE(parse_query("select runs where x").ok());
  EXPECT_FALSE(parse_query("select runs where x = ").ok());
  EXPECT_FALSE(parse_query("select runs order finished").ok());
  EXPECT_FALSE(parse_query("select runs limit").ok());
  EXPECT_FALSE(parse_query("select runs limit -1").ok());
  EXPECT_FALSE(parse_query("select runs extra").ok());
  EXPECT_FALSE(parse_query("select runs where a ! b").ok());
  EXPECT_FALSE(parse_query("select runs where a = \"unterminated").ok());
}

TEST(QueryParser, CanonicalFormRoundTrips) {
  const char* statements[] = {
      "select runs",
      "select instances where type = \"netlist\"",
      "select runs where duration >= 100 and designer != \"bob\" order by id desc",
      "select schedule where critical = true limit 3",
      "select plans order by created",
  };
  for (const char* s : statements) {
    auto q1 = parse_query(s);
    ASSERT_TRUE(q1.ok()) << s;
    std::string canon = q1.value().str();
    auto q2 = parse_query(canon);
    ASSERT_TRUE(q2.ok()) << canon;
    EXPECT_EQ(q2.value().str(), canon);
  }
}

// --- values --------------------------------------------------------------------

TEST(Values, CompareOrdering) {
  EXPECT_EQ(compare_values(Value{std::int64_t{1}}, Value{std::int64_t{2}}), -1);
  EXPECT_EQ(compare_values(Value{std::string("a")}, Value{std::string("a")}), 0);
  EXPECT_EQ(compare_values(Value{true}, Value{false}), 1);
  EXPECT_EQ(compare_values(Value{std::monostate{}}, Value{std::monostate{}}), 0);
  // null sorts before everything
  EXPECT_LT(compare_values(Value{std::monostate{}}, Value{std::int64_t{0}}), 0);
}

TEST(Values, Render) {
  EXPECT_EQ(value_str(Value{std::monostate{}}), "-");
  EXPECT_EQ(value_str(Value{std::int64_t{-3}}), "-3");
  EXPECT_EQ(value_str(Value{true}), "true");
  EXPECT_EQ(value_str(Value{std::string("x")}), "x");
}

// --- engine ------------------------------------------------------------------

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() : m_(test::make_circuit_manager()) {
    m_->plan_task("adder", {.anchor = m_->clock().now()}).value();
    m_->execute_task("adder", "alice").value();
    m_->run_activity("adder", "Simulate", "bob").value();
    m_->link_completion("adder", "Create").expect("link");
    m_->link_completion("adder", "Simulate").expect("link");
  }

  QueryResult run(const std::string& text) {
    QueryEngine engine(m_->db(), m_->schedule_space());
    auto r = engine.execute(text);
    if (!r.ok()) throw std::runtime_error(r.error().str());
    return std::move(r).take();
  }

  std::unique_ptr<hercules::WorkflowManager> m_;
};

TEST_F(QueryEngineTest, SelectAllRuns) {
  auto r = run("select runs");
  EXPECT_EQ(r.rows.size(), 3u);  // Create + 2x Simulate
  EXPECT_EQ(r.columns.front(), "id");
}

TEST_F(QueryEngineTest, FilterByActivity) {
  auto r = run("select runs where activity = \"Simulate\"");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(QueryEngineTest, PaperQueryLastRunDuration) {
  // "a query to show the duration of an activity the last time it was
  //  performed" — paper Sec. IV.B.
  auto r = run("select runs where activity = \"Simulate\" order by finished desc "
               "limit 1");
  ASSERT_EQ(r.rows.size(), 1u);
  // duration column = index 7.
  EXPECT_EQ(std::get<std::int64_t>(r.rows[0][7]), 6 * 60);
}

TEST_F(QueryEngineTest, NumericComparisons) {
  EXPECT_EQ(run("select runs where duration > 500").rows.size(), 1u);   // Create 840
  EXPECT_EQ(run("select runs where duration <= 360").rows.size(), 2u);  // Simulates
  EXPECT_EQ(run("select runs where duration != 840").rows.size(), 2u);
}

TEST_F(QueryEngineTest, ContainsOperator) {
  EXPECT_EQ(run("select runs where tool contains \"spice\"").rows.size(), 2u);
  EXPECT_EQ(run("select runs where tool contains \"zzz\"").rows.size(), 0u);
}

TEST_F(QueryEngineTest, OrderAscendingAndDescending) {
  auto asc = run("select runs order by duration");
  auto desc = run("select runs order by duration desc");
  ASSERT_EQ(asc.rows.size(), 3u);
  EXPECT_LE(std::get<std::int64_t>(asc.rows[0][7]),
            std::get<std::int64_t>(asc.rows[2][7]));
  EXPECT_EQ(std::get<std::int64_t>(desc.rows[0][7]),
            std::get<std::int64_t>(asc.rows[2][7]));
}

TEST_F(QueryEngineTest, ScheduleTargetSeesCompletionAndLinks) {
  auto r = run("select schedule where completed = true");
  EXPECT_EQ(r.rows.size(), 2u);
  auto linked = run("select schedule where linked = true");
  EXPECT_EQ(linked.rows.size(), 2u);
}

TEST_F(QueryEngineTest, InstancesTargetVersions) {
  auto r = run("select instances where type = \"performance\" and version = 2");
  ASSERT_EQ(r.rows.size(), 1u);
}

TEST_F(QueryEngineTest, LinksTargetJoinsActivity) {
  auto r = run("select links where activity = \"Create\"");
  ASSERT_EQ(r.rows.size(), 1u);
}

TEST_F(QueryEngineTest, UnknownFieldRejected) {
  QueryEngine engine(m_->db(), m_->schedule_space());
  auto r = engine.execute("select runs where nope = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, util::Error::Code::kNotFound);
  EXPECT_FALSE(engine.execute("select runs order by nope").ok());
}

TEST_F(QueryEngineTest, PlanLineageQuery) {
  m_->replan_task("adder", {.anchor = m_->clock().now()}).value();
  auto current = m_->plan_of("adder").value();
  QueryEngine engine(m_->db(), m_->schedule_space());
  auto lineage = engine.plan_lineage(current);
  ASSERT_EQ(lineage.rows.size(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(lineage.rows[0][0]), 0);  // generation
  EXPECT_EQ(std::get<std::string>(lineage.rows[0][4]), "active");
  EXPECT_EQ(std::get<std::string>(lineage.rows[1][4]), "superseded");
}

TEST_F(QueryEngineTest, RenderFormatsTable) {
  auto r = run("select runs limit 1");
  std::string plain = r.render();
  EXPECT_NE(plain.find("activity"), std::string::npos);
  EXPECT_NE(plain.find("(1 row)"), std::string::npos);
  std::string with_dates = r.render(&m_->calendar());
  EXPECT_NE(with_dates.find("1995-06-"), std::string::npos);
}

TEST(QueryResult, RenderPinsEveryValueKind) {
  QueryResult r;
  r.columns = {"id", "name", "ok", "note", "started", "wide_column_header", "x"};
  r.rows = {
      {std::int64_t{7}, std::string("alpha"), true, std::monostate{},
       std::int64_t{480 * 5 + 90}, std::int64_t{3}, std::string("a cell wider than x")},
      {std::int64_t{-1234567890123}, std::string("b"), false, std::string("n"),
       std::monostate{}, std::int64_t{-4}, std::string("")},
  };
  cal::WorkCalendar::Config cfg;
  cfg.epoch = cal::Date(1995, 6, 12);
  const cal::WorkCalendar calendar(cfg);
  EXPECT_EQ(r.render(&calendar),
            "id              name   ok     note  started           wide_column_header  x"
            "                  \n"
            "---------------------------------------------------------------------------"
            "------------------\n"
            "7               alpha  true   -     1995-06-19 10:30  3                   "
            "a cell wider than x\n"
            "-1234567890123  b      false  n     -                 -4                  "
            "                   \n"
            "(2 rows)\n");
  EXPECT_EQ(r.render(),
            "id              name   ok     note  started  wide_column_header  x          "
            "        \n"
            "---------------------------------------------------------------------------"
            "---------\n"
            "7               alpha  true   -     2490     3                   a cell wider "
            "than x\n"
            "-1234567890123  b      false  n     -        -4                             "
            "        \n"
            "(2 rows)\n");
  QueryResult one;
  one.columns = {"finished"};
  one.rows = {{std::int64_t{0}}};
  EXPECT_EQ(one.render(&calendar),
            "finished        \n----------------\n1995-06-12 09:00\n(1 row)\n");
  EXPECT_EQ(QueryResult{}.render(&calendar), "\n\n(0 rows)\n");
}

TEST_F(QueryEngineTest, OrFilterUnionsRows) {
  // Create (1 run) or designer bob (1 run) = 2 distinct rows.
  auto r = run("select runs where activity = \"Create\" or designer = \"bob\"");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(QueryEngineTest, NotFilterComplements) {
  auto all = run("select runs").rows.size();
  auto bob = run("select runs where designer = \"bob\"").rows.size();
  auto not_bob = run("select runs where not designer = \"bob\"").rows.size();
  EXPECT_EQ(bob + not_bob, all);
}

TEST_F(QueryEngineTest, ParenthesesGroup) {
  // Without parens: (Simulate and bob) or Create = 2 rows.
  auto a = run("select runs where activity = \"Simulate\" and designer = \"bob\" "
               "or activity = \"Create\"");
  EXPECT_EQ(a.rows.size(), 2u);
  // With parens: Simulate and (bob or Create) = 1 row (only bob's Simulate).
  auto b = run("select runs where activity = \"Simulate\" and "
               "(designer = \"bob\" or activity = \"Create\")");
  EXPECT_EQ(b.rows.size(), 1u);
}

TEST_F(QueryEngineTest, BooleanCanonicalFormRoundTrips) {
  for (const char* s :
       {"select runs where a = 1 or (b = 2 and not c = 3)",
        "select runs where not (a = 1 or b = 2)",
        "select count from runs where a = 1 and b = 2 or c = 3"}) {
    auto q1 = parse_query(s);
    ASSERT_TRUE(q1.ok()) << s;
    auto canon = q1.value().str();
    auto q2 = parse_query(canon);
    ASSERT_TRUE(q2.ok()) << canon;
    EXPECT_EQ(q2.value().str(), canon) << s;
  }
}

// --- aggregates ---------------------------------------------------------------

TEST_F(QueryEngineTest, ExplicitFromFormEqualsLegacy) {
  auto legacy = run("select runs where designer = \"bob\"");
  auto modern = run("select * from runs where designer = \"bob\"");
  EXPECT_EQ(legacy.rows.size(), modern.rows.size());
  EXPECT_EQ(legacy.columns, modern.columns);
}

TEST_F(QueryEngineTest, CountAggregates) {
  auto r = run("select count from runs");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.columns, (std::vector<std::string>{"count"}));
  EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 3);
  // With a filter.
  auto filtered = run("select count from runs where activity = \"Simulate\"");
  EXPECT_EQ(std::get<std::int64_t>(filtered.rows[0][0]), 2);
  // Empty result still yields one zero row.
  auto empty = run("select count from runs where designer = \"nobody\"");
  ASSERT_EQ(empty.rows.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(empty.rows[0][0]), 0);
}

TEST_F(QueryEngineTest, NumericAggregates) {
  // Durations: Create 840, Simulate 360, 360.
  EXPECT_EQ(std::get<std::int64_t>(run("select sum(duration) from runs").rows[0][0]),
            840 + 360 + 360);
  EXPECT_EQ(std::get<std::int64_t>(run("select avg(duration) from runs").rows[0][0]),
            (840 + 360 + 360) / 3);
  EXPECT_EQ(std::get<std::int64_t>(run("select min(duration) from runs").rows[0][0]),
            360);
  EXPECT_EQ(std::get<std::int64_t>(run("select max(duration) from runs").rows[0][0]),
            840);
}

TEST_F(QueryEngineTest, GroupByProducesOneRowPerGroup) {
  auto r = run("select avg(duration) from runs group by activity");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.columns, (std::vector<std::string>{"activity", "avg(duration)"}));
  // Groups sorted by value: Create, Simulate.
  EXPECT_EQ(std::get<std::string>(r.rows[0][0]), "Create");
  EXPECT_EQ(std::get<std::int64_t>(r.rows[0][1]), 840);
  EXPECT_EQ(std::get<std::string>(r.rows[1][0]), "Simulate");
  EXPECT_EQ(std::get<std::int64_t>(r.rows[1][1]), 360);
}

TEST_F(QueryEngineTest, CountGroupByCountsIterations) {
  auto r = run("select count from runs group by activity");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(r.rows[1][1]), 2);  // Simulate ran twice
}

TEST_F(QueryEngineTest, AggregateOverAllNullFieldIsNull) {
  // 'output' of failed runs is null; filter to none-completed is empty here,
  // so aggregate over a string field instead: avg over non-numeric = null.
  auto r = run("select avg(designer) from runs");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(r.rows[0][0]));
}

TEST_F(QueryEngineTest, AggregateErrors) {
  QueryEngine engine(m_->db(), m_->schedule_space());
  EXPECT_FALSE(engine.execute("select avg(nope) from runs").ok());
  EXPECT_FALSE(engine.execute("select count from runs group by nope").ok());
  EXPECT_FALSE(parse_query("select avg duration from runs").ok());   // missing parens
  EXPECT_FALSE(parse_query("select avg(duration from runs").ok());
  EXPECT_FALSE(parse_query("select count from runs order by id").ok());
  EXPECT_FALSE(parse_query("select runs group by activity").ok());  // no aggregate
  EXPECT_FALSE(parse_query("select * runs").ok());                  // missing from
}

TEST_F(QueryEngineTest, AggregateCanonicalFormRoundTrips) {
  for (const char* s : {"select count from runs",
                        "select avg(duration) from runs group by activity",
                        "select max(duration) from runs where designer = \"bob\"",
                        "select count from schedule group by plan limit 2"}) {
    auto q1 = parse_query(s);
    ASSERT_TRUE(q1.ok()) << s;
    auto canon = q1.value().str();
    auto q2 = parse_query(canon);
    ASSERT_TRUE(q2.ok()) << canon;
    EXPECT_EQ(q2.value().str(), canon);
  }
}

TEST_F(QueryEngineTest, PaperPredictionQueryViaAggregate) {
  // "previous schedule data can be used to predict the duration of future
  // projects": the mean measured duration per activity in one statement.
  auto r = run("select avg(duration) from runs where status = \"completed\" "
               "group by activity");
  ASSERT_EQ(r.rows.size(), 2u);
}

TEST_F(QueryEngineTest, EngineAgreesWithHandFilter) {
  // Property-ish: engine filtering == manual filtering over db().runs().
  auto r = run("select runs where designer = \"bob\"");
  std::size_t expected = 0;
  for (const auto& run_row : m_->db().runs())
    if (run_row.designer == "bob") ++expected;
  EXPECT_EQ(r.rows.size(), expected);
}

}  // namespace
}  // namespace herc::query
