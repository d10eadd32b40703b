#pragma once
// Work calendars: the mapping between *work time* (the space schedules are
// computed in) and civil time (the space people read).
//
// A WorkInstant counts work minutes elapsed since the calendar's epoch; a
// WorkDuration is a span of work minutes.  Schedule arithmetic (CPM passes,
// slack, slip propagation) is plain integer arithmetic on these.  The
// calendar converts instants to civil timestamps for display, skipping
// non-workdays and holidays, exactly like the calendars in MacProject /
// Microsoft Project that the paper cites.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "calendar/date.hpp"
#include "util/result.hpp"

namespace herc::cal {

/// Span of work minutes.  Value type; supports natural arithmetic.
class WorkDuration {
 public:
  constexpr WorkDuration() = default;
  constexpr explicit WorkDuration(std::int64_t minutes) : minutes_(minutes) {}

  [[nodiscard]] static constexpr WorkDuration minutes(std::int64_t m) {
    return WorkDuration(m);
  }
  [[nodiscard]] static constexpr WorkDuration hours(std::int64_t h) {
    return WorkDuration(h * 60);
  }

  [[nodiscard]] constexpr std::int64_t count_minutes() const { return minutes_; }
  [[nodiscard]] constexpr double count_hours() const { return minutes_ / 60.0; }

  friend constexpr WorkDuration operator+(WorkDuration a, WorkDuration b) {
    return WorkDuration(a.minutes_ + b.minutes_);
  }
  friend constexpr WorkDuration operator-(WorkDuration a, WorkDuration b) {
    return WorkDuration(a.minutes_ - b.minutes_);
  }
  friend constexpr WorkDuration operator*(WorkDuration a, std::int64_t k) {
    return WorkDuration(a.minutes_ * k);
  }
  WorkDuration& operator+=(WorkDuration b) {
    minutes_ += b.minutes_;
    return *this;
  }
  friend constexpr auto operator<=>(WorkDuration a, WorkDuration b) = default;

  /// Renders e.g. "3d 4h", "2h 30m", "0m" given minutes-per-workday context.
  [[nodiscard]] std::string str(std::int64_t minutes_per_day = 480) const;

 private:
  std::int64_t minutes_ = 0;
};

/// Point in work time: work minutes since the calendar epoch.  Instants from
/// different calendars are not comparable (not enforced by the type; keep one
/// calendar per project as the WorkflowManager does).
class WorkInstant {
 public:
  constexpr WorkInstant() = default;
  constexpr explicit WorkInstant(std::int64_t m) : minutes_(m) {}

  [[nodiscard]] constexpr std::int64_t minutes_since_epoch() const { return minutes_; }

  friend constexpr WorkInstant operator+(WorkInstant t, WorkDuration d) {
    return WorkInstant(t.minutes_ + d.count_minutes());
  }
  friend constexpr WorkInstant operator-(WorkInstant t, WorkDuration d) {
    return WorkInstant(t.minutes_ - d.count_minutes());
  }
  friend constexpr WorkDuration operator-(WorkInstant b, WorkInstant a) {
    return WorkDuration(b.minutes_ - a.minutes_);
  }
  friend constexpr auto operator<=>(WorkInstant a, WorkInstant b) = default;

 private:
  std::int64_t minutes_ = 0;
};

/// A work instant resolved to civil time.
struct CivilTime {
  Date date;          ///< the workday the instant falls on
  int minute_of_day;  ///< minutes after the workday start (0 .. minutes/day)

  /// "YYYY-MM-DD hh:mm" using the calendar's day-start hour.
  [[nodiscard]] std::string str(int day_start_minute) const;
};

/// Calendar configuration + conversion.  Immutable after construction except
/// for holiday registration.
///
/// Every conversion is closed-form: whole weeks are counted through a
/// per-calendar weekday table and holidays are subtracted by binary search,
/// so rendering a date costs the same at any project age.  Holidays on
/// non-working weekdays or before the epoch remove no workday.  Dates render
/// up to last_day(); instants past it render as that day.
///
/// Thread-safety: ReadViews share one calendar across reader threads, so the
/// const methods keep no mutable state (no caches); add_holiday must not race
/// with them.
class WorkCalendar {
 public:
  struct Config {
    Date epoch;                          ///< project reference date
    std::int64_t minutes_per_day = 480;  ///< 8-hour workday
    int day_start_minute = 9 * 60;       ///< workday starts 09:00 civil
    /// Workweek: true = working.  Index by ISO weekday (Mon=0).
    bool workweek[7] = {true, true, true, true, true, false, false};
  };

  WorkCalendar() : WorkCalendar(Config{}) {}
  explicit WorkCalendar(Config cfg);

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] std::int64_t minutes_per_day() const { return cfg_.minutes_per_day; }

  /// Marks a date as a non-working holiday (again is a no-op).  Adding a
  /// holiday invalidates no WorkInstant values (they are counts of *work*
  /// minutes), only their civil rendering; the WorkflowManager re-renders
  /// rather than re-plans.
  void add_holiday(Date d);
  [[nodiscard]] bool is_holiday(Date d) const;
  /// Every registered holiday, ascending.
  [[nodiscard]] std::vector<Date> holidays() const;

  [[nodiscard]] bool is_workday(Date d) const;

  /// The last day the calendar renders: 9999-12-31, the last four-digit year.
  [[nodiscard]] static Date last_day();

  /// The n-th workday at or after the epoch (n = 0 is the first).  An index
  /// whose workday would fall past last_day() gives last_day().
  [[nodiscard]] Date nth_workday(std::int64_t n) const;

  /// Number of whole workdays in [epoch, d) — the inverse of nth_workday.
  [[nodiscard]] std::int64_t workdays_until(Date d) const;

  /// True when `t` falls on a workday past last_day().
  [[nodiscard]] bool past_last_day(WorkInstant t) const;

  /// `t + d`, or kInvalid when the sum would overflow 64-bit minutes or fall
  /// past last_day().  Every clock step and every executed run's finish
  /// goes through it.
  [[nodiscard]] util::Result<WorkInstant> checked_add(WorkInstant t,
                                                    WorkDuration d) const;

  /// Converts a work instant to civil time.  Instants before the epoch clamp
  /// to the epoch's workday start; instants past last_day() render as the
  /// start of last_day().
  [[nodiscard]] CivilTime to_civil(WorkInstant t) const;

  /// Work instant for the *start* of the first workday on or after `d`.
  [[nodiscard]] WorkInstant at_start_of(Date d) const;

  /// Formats an instant as "YYYY-MM-DD hh:mm".
  [[nodiscard]] std::string format(WorkInstant t) const;

  /// Formats an instant's date only.
  [[nodiscard]] std::string format_date(WorkInstant t) const;

  /// Parses durations like "3d", "4h", "90m", "1d 4h" (d = one workday).
  /// A count or total that overflows 64-bit minutes is a parse error.
  [[nodiscard]] util::Result<WorkDuration> parse_duration(std::string_view text) const;

 private:
  struct Holiday {
    Date date;
    /// Workdays removed by the holidays up to and including this one.
    std::int64_t removed;
  };

  /// Registered holidays before `d` (binary search).
  [[nodiscard]] std::size_t holidays_before(Date d) const;
  /// True when a holiday on `d` would remove a workday: a working weekday
  /// on or after the epoch.
  [[nodiscard]] bool removes_workday(Date d) const;
  /// The n-th workday, 0 <= n < workdays_through_last_day().
  [[nodiscard]] Date workday(std::int64_t n) const;
  /// Workdays in [epoch, last_day()].
  [[nodiscard]] std::int64_t workdays_through_last_day() const;
  /// Working weekdays in [epoch, d), holidays ignored; d >= epoch.
  [[nodiscard]] std::int64_t weekdays_until(Date d) const;

  Config cfg_;
  int working_days_per_week_ = 0;
  /// working_before_[k]: working weekdays among the k days from the epoch.
  std::array<std::int8_t, 8> working_before_{};
  /// working_offset_[r]: days from the epoch to its week's r-th working day.
  std::array<std::int8_t, 7> working_offset_{};
  std::vector<Holiday> holidays_;  ///< ascending, unique
};

}  // namespace herc::cal
