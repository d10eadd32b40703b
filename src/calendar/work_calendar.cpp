#include "calendar/work_calendar.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <stdexcept>

#include "util/strings.hpp"

namespace herc::cal {

std::string WorkDuration::str(std::int64_t minutes_per_day) const {
  std::int64_t m = minutes_;
  std::string sign;
  if (m < 0) {
    sign = "-";
    m = -m;
  }
  std::int64_t days = m / minutes_per_day;
  m %= minutes_per_day;
  std::int64_t hours = m / 60;
  std::int64_t mins = m % 60;
  std::string out = sign;
  if (days) out += std::to_string(days) + "d ";
  if (hours) out += std::to_string(hours) + "h ";
  if (mins || out.empty() || out == "-") out += std::to_string(mins) + "m ";
  out.pop_back();  // trailing space
  return out;
}

namespace {

// Appends `v` exactly as printf's "%02d" would.
void append_2d(std::string& out, int v) {
  if (v >= 0 && v < 100) {
    out += static_cast<char>('0' + v / 10);
    out += static_cast<char>('0' + v % 10);
    return;
  }
  char buf[12];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

std::string CivilTime::str(int day_start_minute) const {
  const int total = day_start_minute + minute_of_day;
  std::string out = date.str();
  out += ' ';
  append_2d(out, total / 60);
  out += ':';
  append_2d(out, total % 60);
  return out;
}

WorkCalendar::WorkCalendar(Config cfg) : cfg_(cfg) {
  if (cfg_.minutes_per_day <= 0)
    throw std::invalid_argument("WorkCalendar: minutes_per_day must be positive");
  const int first = static_cast<int>(cfg_.epoch.weekday());
  for (int k = 0; k < 7; ++k) {
    const bool working = cfg_.workweek[(first + k) % 7];
    working_before_[k + 1] = static_cast<std::int8_t>(working_before_[k] + working);
    if (working) working_offset_[working_days_per_week_++] = static_cast<std::int8_t>(k);
  }
  if (working_days_per_week_ == 0)
    throw std::invalid_argument("WorkCalendar: workweek has no working days");
}

bool WorkCalendar::removes_workday(Date d) const {
  return d >= cfg_.epoch && cfg_.workweek[static_cast<int>(d.weekday())];
}

std::size_t WorkCalendar::holidays_before(Date d) const {
  return static_cast<std::size_t>(
      std::lower_bound(holidays_.begin(), holidays_.end(), d,
                       [](const Holiday& h, Date x) { return h.date < x; }) -
      holidays_.begin());
}

void WorkCalendar::add_holiday(Date d) {
  std::size_t i = holidays_before(d);
  if (i < holidays_.size() && holidays_[i].date == d) return;
  holidays_.insert(holidays_.begin() + static_cast<std::ptrdiff_t>(i), Holiday{d, 0});
  std::int64_t removed = i == 0 ? 0 : holidays_[i - 1].removed;
  for (; i < holidays_.size(); ++i) {
    removed += removes_workday(holidays_[i].date);
    holidays_[i].removed = removed;
  }
}

bool WorkCalendar::is_holiday(Date d) const {
  const std::size_t i = holidays_before(d);
  return i < holidays_.size() && holidays_[i].date == d;
}

std::vector<Date> WorkCalendar::holidays() const {
  std::vector<Date> out;
  out.reserve(holidays_.size());
  for (const Holiday& h : holidays_) out.push_back(h.date);
  return out;
}

bool WorkCalendar::is_workday(Date d) const {
  return cfg_.workweek[static_cast<int>(d.weekday())] && !is_holiday(d);
}

Date WorkCalendar::last_day() {
  return Date::from_days(2932896);  // 9999-12-31
}

std::int64_t WorkCalendar::weekdays_until(Date d) const {
  const std::int64_t days = d - cfg_.epoch;
  return days / 7 * working_days_per_week_ + working_before_[days % 7];
}

Date WorkCalendar::workday(std::int64_t n) const {
  // Every holiday whose own workday index is <= n pushes the answer one
  // working weekday later.  That index (working weekdays before the holiday
  // less the workdays removed before it) never decreases along the sorted
  // vector, so the holidays that push form a prefix.
  auto pushing = std::partition_point(
      holidays_.begin(), holidays_.end(), [&](const Holiday& h) {
        if (h.date < cfg_.epoch) return true;
        return weekdays_until(h.date) - (h.removed - removes_workday(h.date)) <= n;
      });
  const std::int64_t k =
      n + (pushing == holidays_.begin() ? 0 : std::prev(pushing)->removed);
  return cfg_.epoch.plus_days(k / working_days_per_week_ * 7 +
                              working_offset_[k % working_days_per_week_]);
}

std::int64_t WorkCalendar::workdays_through_last_day() const {
  return workdays_until(last_day().plus_days(1));
}

Date WorkCalendar::nth_workday(std::int64_t n) const {
  if (n < 0) throw std::logic_error("nth_workday: negative index");
  return n < workdays_through_last_day() ? workday(n) : last_day();
}

std::int64_t WorkCalendar::workdays_until(Date d) const {
  if (d <= cfg_.epoch) return 0;
  const std::size_t i = holidays_before(d);
  return weekdays_until(d) - (i == 0 ? 0 : holidays_[i - 1].removed);
}

bool WorkCalendar::past_last_day(WorkInstant t) const {
  return std::max<std::int64_t>(t.minutes_since_epoch(), 0) / cfg_.minutes_per_day >=
         workdays_through_last_day();
}

util::Result<WorkInstant> WorkCalendar::checked_add(WorkInstant t, WorkDuration d) const {
  if (d.count_minutes() >
          std::numeric_limits<std::int64_t>::max() - t.minutes_since_epoch() ||
      past_last_day(t + d))
    return util::invalid("the clock would pass " + last_day().str());
  return t + d;
}

CivilTime WorkCalendar::to_civil(WorkInstant t) const {
  const std::int64_t m = std::max<std::int64_t>(t.minutes_since_epoch(), 0);
  const std::int64_t day = m / cfg_.minutes_per_day;
  if (day >= workdays_through_last_day()) return CivilTime{last_day(), 0};
  return CivilTime{workday(day), static_cast<int>(m % cfg_.minutes_per_day)};
}

WorkInstant WorkCalendar::at_start_of(Date d) const {
  return WorkInstant(workdays_until(d) * cfg_.minutes_per_day);
}

std::string WorkCalendar::format(WorkInstant t) const {
  return to_civil(t).str(cfg_.day_start_minute);
}

std::string WorkCalendar::format_date(WorkInstant t) const {
  return to_civil(t).date.str();
}

util::Result<WorkDuration> WorkCalendar::parse_duration(std::string_view text) const {
  auto tokens = util::split_ws(text);
  if (tokens.empty()) return util::parse_error("empty duration");
  std::int64_t total = 0;
  for (const auto& tok : tokens) {
    if (tok.size() < 2) return util::parse_error("bad duration token '" + tok + "'");
    const char* digits_end = tok.data() + tok.size() - 1;
    for (const char* c = tok.data(); c != digits_end; ++c)
      if (*c < '0' || *c > '9')
        return util::parse_error("bad duration token '" + tok + "'");
    std::int64_t n = 0;
    if (std::from_chars(tok.data(), digits_end, n).ec != std::errc{})
      return util::parse_error("duration '" + tok + "' overflows");
    std::int64_t unit = 0;
    switch (tok.back()) {
      case 'd': unit = cfg_.minutes_per_day; break;
      case 'h': unit = 60; break;
      case 'm': unit = 1; break;
      default: return util::parse_error("unknown duration unit '" + tok + "'");
    }
    if (__builtin_mul_overflow(n, unit, &n) || __builtin_add_overflow(total, n, &total))
      return util::parse_error("duration '" + std::string(text) + "' overflows");
  }
  return WorkDuration::minutes(total);
}

}  // namespace herc::cal
