// Unit tests for herc::util: ids, Result/Status, strings, topo, rng.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "util/fsio.hpp"
#include "util/ids.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/topo.hpp"

namespace herc::util {
namespace {

// --- ids ----------------------------------------------------------------

TEST(Ids, DefaultIsInvalid) {
  RunId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, RunId::invalid());
  EXPECT_EQ(id.str(), "#-");
}

TEST(Ids, AllocatorIsDenseFromOne) {
  IdAllocator<RunTag> alloc;
  EXPECT_EQ(alloc.next().value(), 1u);
  EXPECT_EQ(alloc.next().value(), 2u);
  EXPECT_EQ(alloc.next().value(), 3u);
}

TEST(Ids, ReserveAtLeastSkipsPastLoadedIds) {
  IdAllocator<RunTag> alloc;
  alloc.reserve_at_least(RunId{10});
  EXPECT_EQ(alloc.next().value(), 11u);
  alloc.reserve_at_least(RunId{5});  // lower than current: no effect
  EXPECT_EQ(alloc.next().value(), 12u);
}

TEST(Ids, DistinctTagsDistinctTypes) {
  static_assert(!std::is_same_v<RunId, ScheduleRunId>);
  RunId a{7};
  EXPECT_EQ(a.str(), "#7");
  EXPECT_LT(RunId{3}, RunId{4});
}

TEST(Ids, HashUsableInUnorderedContainers) {
  std::hash<RunId> h;
  EXPECT_NE(h(RunId{1}), h(RunId{2}));
}

// --- Result / Status -------------------------------------------------------

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = not_found("no such thing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kNotFound);
  EXPECT_NE(r.error().str().find("no such thing"), std::string::npos);
}

TEST(Result, ValueOnErrorThrows) {
  Result<int> r = invalid("nope");
  EXPECT_THROW((void)r.value(), std::runtime_error);
}

TEST(Result, ErrorOnValueThrows) {
  Result<int> r = 1;
  EXPECT_THROW((void)r.error(), std::logic_error);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r = std::string("payload");
  std::string s = std::move(r).take();
  EXPECT_EQ(s, "payload");
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_NO_THROW(s.expect("fine"));
}

TEST(Status, ErrorStatusThrowsOnExpect) {
  Status s = conflict("busy");
  EXPECT_FALSE(s.ok());
  EXPECT_THROW(s.expect("ctx"), std::runtime_error);
}

TEST(Status, ErrorCodeNamesAreDistinct) {
  std::set<std::string> names;
  for (auto c : {Error::Code::kParse, Error::Code::kNotFound, Error::Code::kInvalid,
                 Error::Code::kUnbound, Error::Code::kConflict,
                 Error::Code::kUnsupported})
    names.insert(Error::code_name(c));
  EXPECT_EQ(names.size(), 6u);
}

// --- strings -----------------------------------------------------------------

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitPreservesEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitTrailingSeparator) {
  auto parts = split("a,b,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitWsDropsEmpties) {
  auto parts = split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(is_identifier("abc_123"));
  EXPECT_TRUE(is_identifier("_x"));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a-b"));
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcdef", 4), "abcdef");  // never truncates
}

TEST(Strings, JsonQuoteEscapes) {
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json_quote("back\\slash"), "\"back\\\\slash\"");
}

TEST(Strings, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.125, 3), "0.125");
}

// --- topo ---------------------------------------------------------------------

TEST(Topo, EmptyGraph) {
  Digraph g(0);
  auto order = topo_sort(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(order->empty());
}

TEST(Topo, ChainOrders) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto order = topo_sort(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Topo, DeterministicAmongReady) {
  // 2 and 0 both ready; smallest index first.
  Digraph g(3);
  g.add_edge(2, 1);
  g.add_edge(0, 1);
  auto order = topo_sort(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<std::size_t>{0, 2, 1}));
}

TEST(Topo, CycleDetected) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_FALSE(topo_sort(g).has_value());
  auto cycle = find_cycle(g);
  EXPECT_EQ(cycle.size(), 3u);
}

TEST(Topo, SelfLoopIsACycle) {
  Digraph g(2);
  g.add_edge(1, 1);
  EXPECT_FALSE(topo_sort(g).has_value());
  auto cycle = find_cycle(g);
  ASSERT_EQ(cycle.size(), 1u);
  EXPECT_EQ(cycle[0], 1u);
}

TEST(Topo, FindCycleOnDagIsEmpty) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  EXPECT_TRUE(find_cycle(g).empty());
}

TEST(Topo, LongestPath) {
  Digraph g(4);  // diamond
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  auto dist = longest_path_to(g);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[3], 2u);
}

TEST(Topo, LongestPathThrowsOnCycle) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_THROW(longest_path_to(g), std::logic_error);
}

/// Property: for random DAGs (edges only forward), topo order respects all
/// edges and is a permutation.
class TopoProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopoProperty, RandomDagOrderRespectsEdges) {
  Rng rng(GetParam());
  const std::size_t n = 30;
  Digraph g(n);
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (rng.chance(0.15)) {
        g.add_edge(i, j);
        edges.emplace_back(i, j);
      }
  auto order = topo_sort(g);
  ASSERT_TRUE(order.has_value());
  ASSERT_EQ(order->size(), n);
  std::vector<std::size_t> pos(n);
  std::set<std::size_t> seen(order->begin(), order->end());
  EXPECT_EQ(seen.size(), n);  // permutation
  for (std::size_t i = 0; i < n; ++i) pos[(*order)[i]] = i;
  for (auto [a, b] : edges) EXPECT_LT(pos[a], pos[b]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopoProperty, ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// --- rng ------------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalRoughlyCentred) {
  Rng rng(11);
  double sum = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// --- fsio ----------------------------------------------------------------

TEST(Fsio, ReadWriteRoundTrip) {
  const std::string path = "/tmp/herc_fsio_rw.txt";
  ASSERT_TRUE(write_file(path, "hello\nworld\n").ok());
  auto back = read_file(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "hello\nworld\n");
  std::remove(path.c_str());
}

TEST(Fsio, ReadMissingFileIsNotFound) {
  auto r = read_file("/tmp/herc_fsio_no_such_file");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kNotFound);
}

// Only a missing file may read as "no file": recovery treats kNotFound as an
// empty journal, so any other failure must not look like one.
TEST(Fsio, ReadingADirectoryIsAnIoError) {
  auto r = read_file("/tmp");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kIoError) << r.error().str();
}

TEST(Fsio, AtomicWriteReplacesAndCleansUpTemp) {
  const std::string path = "/tmp/herc_fsio_atomic.txt";
  ASSERT_TRUE(write_file(path, "old").ok());
  ASSERT_TRUE(write_file_atomic(path, "new contents").ok());
  EXPECT_EQ(read_file(path).value(), "new contents");
  EXPECT_FALSE(read_file(path + ".tmp").ok());  // no temp left behind
  std::remove(path.c_str());
}

TEST(Fsio, AtomicWriteToBadDirectoryFailsCleanly) {
  EXPECT_FALSE(write_file_atomic("/no/such/dir/f.txt", "x").ok());
  EXPECT_FALSE(write_file("/no/such/dir/f.txt", "x").ok());
}

}  // namespace
}  // namespace herc::util
