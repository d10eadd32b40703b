// Unit + property tests for dates and work calendars.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>

#include "calendar/date.hpp"
#include "calendar/work_calendar.hpp"
#include "util/rng.hpp"

namespace herc::cal {
namespace {

// --- Date --------------------------------------------------------------------

TEST(Date, EpochIs1970) {
  Date d;
  EXPECT_EQ(d.days(), 0);
  EXPECT_EQ(d.str(), "1970-01-01");
  EXPECT_EQ(d.weekday(), Weekday::kThursday);
}

TEST(Date, ComponentsRoundTrip) {
  Date d(1995, 6, 12);
  EXPECT_EQ(d.year(), 1995);
  EXPECT_EQ(d.month(), 6);
  EXPECT_EQ(d.day(), 12);
  EXPECT_EQ(d.weekday(), Weekday::kMonday);  // DAC'95 week
}

TEST(Date, LeapYearHandling) {
  EXPECT_NO_THROW(Date(2024, 2, 29));
  EXPECT_THROW(Date(2023, 2, 29), std::invalid_argument);
  EXPECT_THROW(Date(2100, 2, 29), std::invalid_argument);  // century non-leap
  EXPECT_NO_THROW(Date(2000, 2, 29));                      // 400-year leap
}

TEST(Date, InvalidComponentsThrow) {
  EXPECT_THROW(Date(2020, 0, 1), std::invalid_argument);
  EXPECT_THROW(Date(2020, 13, 1), std::invalid_argument);
  EXPECT_THROW(Date(2020, 4, 31), std::invalid_argument);
}

TEST(Date, PlusDaysAndDifference) {
  Date a(1995, 6, 12);
  Date b = a.plus_days(30);
  EXPECT_EQ(b.str(), "1995-07-12");
  EXPECT_EQ(b - a, 30);
  EXPECT_EQ(a.plus_days(-1).str(), "1995-06-11");
}

TEST(Date, Comparisons) {
  EXPECT_LT(Date(1995, 1, 1), Date(1995, 1, 2));
  EXPECT_EQ(Date(1995, 1, 1), Date(1995, 1, 1));
}

TEST(Date, ParseValid) {
  auto d = Date::parse("1995-06-12");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), Date(1995, 6, 12));
}

TEST(Date, ParseInvalid) {
  EXPECT_FALSE(Date::parse("1995/06/12").ok());
  EXPECT_FALSE(Date::parse("1995-13-01").ok());
  EXPECT_FALSE(Date::parse("1995-02-30").ok());
  EXPECT_FALSE(Date::parse("abcd-ef-gh").ok());
  EXPECT_FALSE(Date::parse("").ok());
}

/// Property: day-number conversion round-trips across a wide range.
class DateRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DateRoundTrip, SerialToCivilToSerial) {
  std::int64_t days = GetParam();
  Date d = Date::from_days(days);
  Date rebuilt(d.year(), d.month(), d.day());
  EXPECT_EQ(rebuilt.days(), days);
  // str -> parse also round-trips
  auto parsed = Date::parse(d.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().days(), days);
}

INSTANTIATE_TEST_SUITE_P(Samples, DateRoundTrip,
                         ::testing::Values(-100000, -1, 0, 1, 9280, 10000, 36525,
                                           100000, 2932896));

// --- WorkDuration ------------------------------------------------------------

TEST(WorkDuration, Arithmetic) {
  auto d = WorkDuration::hours(2) + WorkDuration::minutes(30);
  EXPECT_EQ(d.count_minutes(), 150);
  EXPECT_EQ((d - WorkDuration::hours(1)).count_minutes(), 90);
  EXPECT_EQ((WorkDuration::hours(1) * 3).count_minutes(), 180);
}

TEST(WorkDuration, Format) {
  EXPECT_EQ(WorkDuration::minutes(0).str(480), "0m");
  EXPECT_EQ(WorkDuration::hours(2).str(480), "2h");
  EXPECT_EQ(WorkDuration::minutes(150).str(480), "2h 30m");
  EXPECT_EQ(WorkDuration::minutes(480 * 3 + 60).str(480), "3d 1h");
  EXPECT_EQ(WorkDuration::minutes(-90).str(480), "-1h 30m");
}

// --- WorkCalendar --------------------------------------------------------------

WorkCalendar monday_calendar() {
  WorkCalendar::Config cfg;
  cfg.epoch = Date(1995, 6, 12);  // a Monday
  return WorkCalendar(cfg);
}

TEST(WorkCalendar, DefaultWorkweek) {
  auto cal = monday_calendar();
  EXPECT_TRUE(cal.is_workday(Date(1995, 6, 12)));   // Mon
  EXPECT_TRUE(cal.is_workday(Date(1995, 6, 16)));   // Fri
  EXPECT_FALSE(cal.is_workday(Date(1995, 6, 17)));  // Sat
  EXPECT_FALSE(cal.is_workday(Date(1995, 6, 18)));  // Sun
}

TEST(WorkCalendar, HolidaysAreNotWorkdays) {
  auto cal = monday_calendar();
  cal.add_holiday(Date(1995, 6, 14));
  EXPECT_FALSE(cal.is_workday(Date(1995, 6, 14)));
  EXPECT_TRUE(cal.is_holiday(Date(1995, 6, 14)));
}

TEST(WorkCalendar, NthWorkdaySkipsWeekend) {
  auto cal = monday_calendar();
  EXPECT_EQ(cal.nth_workday(0), Date(1995, 6, 12));  // Mon
  EXPECT_EQ(cal.nth_workday(4), Date(1995, 6, 16));  // Fri
  EXPECT_EQ(cal.nth_workday(5), Date(1995, 6, 19));  // next Mon
  EXPECT_EQ(cal.nth_workday(10), Date(1995, 6, 26));
}

TEST(WorkCalendar, NthWorkdaySkipsHoliday) {
  auto cal = monday_calendar();
  cal.add_holiday(Date(1995, 6, 13));  // Tue off
  EXPECT_EQ(cal.nth_workday(1), Date(1995, 6, 14));
}

TEST(WorkCalendar, WorkdaysUntilInvertsNthWorkday) {
  auto cal = monday_calendar();
  cal.add_holiday(Date(1995, 6, 21));
  for (std::int64_t n = 0; n < 30; ++n) {
    EXPECT_EQ(cal.workdays_until(cal.nth_workday(n)), n) << "n=" << n;
  }
}

TEST(WorkCalendar, ToCivilMapsMinutes) {
  auto cal = monday_calendar();
  CivilTime t = cal.to_civil(WorkInstant(0));
  EXPECT_EQ(t.date, Date(1995, 6, 12));
  EXPECT_EQ(t.minute_of_day, 0);
  // 480 min/day: minute 480 is the start of the second workday.
  t = cal.to_civil(WorkInstant(480));
  EXPECT_EQ(t.date, Date(1995, 6, 13));
  // Friday 480*4 + 60 => Friday, one hour in.
  t = cal.to_civil(WorkInstant(480 * 4 + 60));
  EXPECT_EQ(t.date, Date(1995, 6, 16));
  EXPECT_EQ(t.minute_of_day, 60);
}

TEST(WorkCalendar, FormatUsesDayStart) {
  auto cal = monday_calendar();
  EXPECT_EQ(cal.format(WorkInstant(0)), "1995-06-12 09:00");
  EXPECT_EQ(cal.format(WorkInstant(90)), "1995-06-12 10:30");
  EXPECT_EQ(cal.format_date(WorkInstant(480 * 5)), "1995-06-19");
}

TEST(WorkCalendar, NegativeInstantClampsToEpoch) {
  auto cal = monday_calendar();
  EXPECT_EQ(cal.to_civil(WorkInstant(-100)).date, Date(1995, 6, 12));
}

TEST(WorkCalendar, AtStartOfSkipsToWorkday) {
  auto cal = monday_calendar();
  // Saturday maps to Monday's start.
  EXPECT_EQ(cal.at_start_of(Date(1995, 6, 17)).minutes_since_epoch(), 480 * 5);
  EXPECT_EQ(cal.at_start_of(Date(1995, 6, 12)).minutes_since_epoch(), 0);
  // Before the epoch clamps to the epoch.
  EXPECT_EQ(cal.at_start_of(Date(1995, 6, 1)).minutes_since_epoch(), 0);
}

TEST(WorkCalendar, ParseDuration) {
  auto cal = monday_calendar();
  EXPECT_EQ(cal.parse_duration("3d").value().count_minutes(), 3 * 480);
  EXPECT_EQ(cal.parse_duration("4h").value().count_minutes(), 240);
  EXPECT_EQ(cal.parse_duration("90m").value().count_minutes(), 90);
  EXPECT_EQ(cal.parse_duration("1d 4h 5m").value().count_minutes(), 480 + 240 + 5);
  EXPECT_FALSE(cal.parse_duration("").ok());
  EXPECT_FALSE(cal.parse_duration("3x").ok());
  EXPECT_FALSE(cal.parse_duration("d").ok());
  EXPECT_FALSE(cal.parse_duration("1.5d").ok());
  EXPECT_FALSE(cal.parse_duration("-3d").ok());
  // A count or a total past 64-bit minutes is a parse error, not a throw.
  EXPECT_FALSE(cal.parse_duration("99999999999999999999d").ok());
  EXPECT_FALSE(cal.parse_duration("9223372036854775807d").ok());
  EXPECT_FALSE(cal.parse_duration("9223372036854775807m 1m").ok());
  EXPECT_EQ(cal.parse_duration("9223372036854775807m").value().count_minutes(),
            std::numeric_limits<std::int64_t>::max());
}

TEST(WorkCalendar, CustomWorkweek) {
  WorkCalendar::Config cfg;
  cfg.epoch = Date(1995, 6, 12);
  cfg.workweek[5] = true;  // Saturdays on
  WorkCalendar cal(cfg);
  EXPECT_TRUE(cal.is_workday(Date(1995, 6, 17)));
  EXPECT_EQ(cal.nth_workday(5), Date(1995, 6, 17));
}

TEST(WorkCalendar, RejectsDegenerateConfigs) {
  WorkCalendar::Config no_days;
  for (auto& w : no_days.workweek) w = false;
  EXPECT_THROW(WorkCalendar{no_days}, std::invalid_argument);
  WorkCalendar::Config zero_minutes;
  zero_minutes.minutes_per_day = 0;
  EXPECT_THROW(WorkCalendar{zero_minutes}, std::invalid_argument);
}

TEST(WorkCalendar, InstantsPastTheLastDayRenderAsIt) {
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(WorkCalendar::last_day(), Date(9999, 12, 31));
  for (std::int64_t minutes_per_day : {1, 480, 1440}) {
    WorkCalendar::Config cfg;
    cfg.epoch = Date(1995, 6, 12);
    cfg.minutes_per_day = minutes_per_day;
    WorkCalendar cal(cfg);
    cal.add_holiday(Date(1995, 7, 4));
    EXPECT_EQ(cal.format(WorkInstant(kMax)), "9999-12-31 09:00");
    EXPECT_EQ(cal.format_date(WorkInstant(kMax)), "9999-12-31");
    EXPECT_EQ(cal.format(WorkInstant(kMin)), "1995-06-12 09:00");
    EXPECT_EQ(cal.nth_workday(kMax), WorkCalendar::last_day());
    EXPECT_TRUE(cal.past_last_day(WorkInstant(kMax)));
    EXPECT_FALSE(cal.past_last_day(WorkInstant(kMin)));
    // The last workday on or before 9999-12-31 (a Friday) still renders.
    const std::int64_t last = cal.workdays_until(Date(10000, 1, 1)) - 1;
    EXPECT_EQ(cal.nth_workday(last), Date(9999, 12, 31));
    EXPECT_EQ(cal.format_date(WorkInstant(last * minutes_per_day)), "9999-12-31");
    EXPECT_FALSE(cal.past_last_day(WorkInstant(last * minutes_per_day)));
    EXPECT_TRUE(cal.past_last_day(WorkInstant((last + 1) * minutes_per_day)));
  }
}

/// The day walk the closed form replaced, kept as the reference: the seed's
/// WorkCalendar conversions, one day at a time from the epoch.
struct DayWalk {
  WorkCalendar::Config cfg;
  std::set<Date> holidays;

  bool is_workday(Date d) const {
    return cfg.workweek[static_cast<int>(d.weekday())] && holidays.count(d) == 0;
  }
  Date nth_workday(std::int64_t n) const {
    for (Date d = cfg.epoch;; d = d.plus_days(1)) {
      if (!is_workday(d)) continue;
      if (n == 0) return d;
      --n;
    }
  }
  std::int64_t workdays_until(Date d) const {
    std::int64_t n = 0;
    for (Date x = cfg.epoch; x < d; x = x.plus_days(1))
      if (is_workday(x)) ++n;
    return n;
  }
  CivilTime to_civil(WorkInstant t) const {
    const std::int64_t m = std::max<std::int64_t>(t.minutes_since_epoch(), 0);
    return CivilTime{nth_workday(m / cfg.minutes_per_day),
                     static_cast<int>(m % cfg.minutes_per_day)};
  }
  WorkInstant at_start_of(Date d) const {
    Date w = d < cfg.epoch ? cfg.epoch : d;
    while (!is_workday(w)) w = w.plus_days(1);
    return WorkInstant(workdays_until(w) * cfg.minutes_per_day);
  }
};

/// Differential: the closed form matches the day walk on random calendars
/// covering every epoch weekday, workweeks of 1-7 days, and holidays before
/// the epoch, on non-working days, registered twice and in runs.
TEST(WorkCalendar, ClosedFormMatchesTheDayWalk) {
  util::Rng rng(20260101);
  std::int64_t compared = 0;
  for (int c = 0; c < 3000; ++c) {
    DayWalk walk;
    walk.cfg.epoch = Date(1995, 6, 12).plus_days(c % 7 + 7 * rng.uniform_int(0, 520));
    walk.cfg.minutes_per_day =
        rng.uniform_int(1, 3) == 1 ? 1 : rng.uniform_int(60, 1440);
    int days[7] = {0, 1, 2, 3, 4, 5, 6};
    for (int i = 6; i > 0; --i)
      std::swap(days[i], days[rng.uniform_int(0, i)]);
    const int working = 1 + (c / 7) % 7;
    for (int i = 0; i < 7; ++i) walk.cfg.workweek[days[i]] = i < working;
    WorkCalendar cal(walk.cfg);

    std::vector<Date> added;
    const std::int64_t holidays = rng.uniform_int(0, 12);
    for (std::int64_t h = 0; h < holidays; ++h) {
      Date d = walk.cfg.epoch.plus_days(rng.uniform_int(-30, 400));
      if (!added.empty() && rng.uniform_int(0, 4) == 0) {
        const auto last = static_cast<std::int64_t>(added.size()) - 1;
        d = added[static_cast<std::size_t>(rng.uniform_int(0, last))];
      }
      const std::int64_t run = rng.uniform_int(0, 3) == 0 ? rng.uniform_int(2, 10) : 1;
      for (std::int64_t k = 0; k < run; ++k) {
        added.push_back(d.plus_days(k));
        walk.holidays.insert(d.plus_days(k));
        cal.add_holiday(d.plus_days(k));
      }
    }
    ASSERT_EQ(cal.holidays(),
              std::vector<Date>(walk.holidays.begin(), walk.holidays.end()));

    for (int probe = 0; probe < 45; ++probe) {
      const std::int64_t n = rng.uniform_int(0, 300);
      const Date nth = cal.nth_workday(n);
      ASSERT_EQ(nth, walk.nth_workday(n)) << "calendar " << c << " n=" << n;
      ASSERT_EQ(cal.workdays_until(nth), n) << "calendar " << c << " n=" << n;

      const Date d = walk.cfg.epoch.plus_days(rng.uniform_int(-40, 450));
      ASSERT_EQ(cal.workdays_until(d), walk.workdays_until(d))
          << "calendar " << c << " date " << d.str();
      ASSERT_EQ(cal.at_start_of(d), walk.at_start_of(d))
          << "calendar " << c << " date " << d.str();

      const WorkInstant t(rng.uniform_int(-1000, 300 * walk.cfg.minutes_per_day));
      const CivilTime got = cal.to_civil(t);
      const CivilTime want = walk.to_civil(t);
      ASSERT_EQ(got.date, want.date)
          << "calendar " << c << " t=" << t.minutes_since_epoch();
      ASSERT_EQ(got.minute_of_day, want.minute_of_day);
      compared += 4;
    }
  }
  EXPECT_EQ(compared, 3000 * 45 * 4);
}

/// format/format_date agree with printf's "%04d-%02d-%02d %02d:%02d" over
/// four-digit years and beyond them, and over day starts whose hour is not
/// two digits.
TEST(WorkCalendar, FormatMatchesPrintf) {
  auto reference = [](const CivilTime& c, int day_start, bool with_time) {
    char buf[64];
    const int total = day_start + c.minute_of_day;
    if (with_time)
      std::snprintf(buf, sizeof buf, "%04d-%02d-%02d %02d:%02d", c.date.year(),
                    c.date.month(), c.date.day(), total / 60, total % 60);
    else
      std::snprintf(buf, sizeof buf, "%04d-%02d-%02d", c.date.year(), c.date.month(),
                    c.date.day());
    return std::string(buf);
  };
  util::Rng rng(7);
  for (int c = 0; c < 400; ++c) {
    WorkCalendar::Config cfg;
    // Mostly years 0-9999; some before year 0, where printf's fallback runs.
    const int year = c % 8 == 0 ? static_cast<int>(rng.uniform_int(-2000, -1))
                                : static_cast<int>(rng.uniform_int(0, 9997));
    cfg.epoch = Date(year, static_cast<int>(rng.uniform_int(1, 12)),
                     static_cast<int>(rng.uniform_int(1, 28)));
    cfg.minutes_per_day = c % 5 == 0 ? 10000 : rng.uniform_int(1, 1440);
    cfg.day_start_minute = static_cast<int>(rng.uniform_int(-120, 26 * 60));
    WorkCalendar cal(cfg);
    for (int probe = 0; probe < 20; ++probe) {
      const WorkInstant t(rng.uniform_int(0, 400 * cfg.minutes_per_day));
      const CivilTime civil = cal.to_civil(t);
      ASSERT_EQ(cal.format(t), reference(civil, cfg.day_start_minute, true));
      ASSERT_EQ(cal.format_date(t), reference(civil, cfg.day_start_minute, false));
    }
  }
  for (int year : {-1, 0, 1, 999, 1000, 9999, 10000, 12345, 99999}) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%04d-%02d-%02d", year, 3, 4);
    EXPECT_EQ(Date(year, 3, 4).str(), buf);
  }
}

/// Property: to_civil is monotone and never lands on a non-workday.
class CalendarProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CalendarProperty, CivilMappingMonotoneAndOnWorkdays) {
  util::Rng rng(GetParam());
  auto cal = monday_calendar();
  cal.add_holiday(Date(1995, 7, 4));
  cal.add_holiday(Date(1995, 9, 4));
  std::int64_t prev = -1;
  Date prev_date = Date(1900, 1, 1);
  int prev_minute = 0;
  for (int i = 0; i < 200; ++i) {
    std::int64_t t = prev + rng.uniform_int(0, 600) + 1;
    CivilTime c = cal.to_civil(WorkInstant(t));
    EXPECT_TRUE(cal.is_workday(c.date));
    EXPECT_GE(c.minute_of_day, 0);
    EXPECT_LT(c.minute_of_day, 480);
    if (c.date == prev_date) { EXPECT_GE(c.minute_of_day, prev_minute); }
    else EXPECT_GT(c.date, prev_date);
    prev = t;
    prev_date = c.date;
    prev_minute = c.minute_of_day;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarProperty, ::testing::Values(2, 3, 17, 23));

}  // namespace
}  // namespace herc::cal
