#include "calendar/date.hpp"

#include <cstdio>
#include <stdexcept>

#include "util/strings.hpp"

namespace herc::cal {

namespace {

// Hinnant: days since 1970-01-01 from civil (y, m, d).
std::int64_t days_from_civil(int y, unsigned m, unsigned d) {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

// Hinnant: civil (y, m, d) from days since 1970-01-01.
void civil_from_days(std::int64_t z, int& y, unsigned& m, unsigned& d) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);           // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  y = static_cast<int>(yoe) + static_cast<int>(era) * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);           // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                                // [0, 11]
  d = doy - (153 * mp + 2) / 5 + 1;                                       // [1, 31]
  m = mp + (mp < 10 ? 3 : -9);                                            // [1, 12]
  y += m <= 2;
}

bool is_leap(int y) { return y % 4 == 0 && (y % 100 != 0 || y % 400 == 0); }

int days_in_month(int y, int m) {
  static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  return m == 2 && is_leap(y) ? 29 : kDays[m - 1];
}

}  // namespace

const char* weekday_name(Weekday d) {
  static const char* kNames[] = {"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"};
  return kNames[static_cast<int>(d)];
}

Date::Date(int year, int month, int day) {
  if (month < 1 || month > 12 || day < 1 || day > days_in_month(year, month)) {
    throw std::invalid_argument("Date: impossible date " + std::to_string(year) + "-" +
                                std::to_string(month) + "-" + std::to_string(day));
  }
  days_ = days_from_civil(year, static_cast<unsigned>(month), static_cast<unsigned>(day));
}

Date Date::from_days(std::int64_t days) { return Date(days); }

util::Result<Date> Date::parse(std::string_view text) {
  auto parts = util::split(text, '-');
  if (parts.size() != 3) return util::parse_error("date must be YYYY-MM-DD: '" +
                                                  std::string(text) + "'");
  int vals[3];
  for (int i = 0; i < 3; ++i) {
    if (parts[i].empty()) return util::parse_error("empty date component");
    for (char c : parts[i])
      if (c < '0' || c > '9') return util::parse_error("non-digit in date: '" +
                                                       std::string(text) + "'");
    vals[i] = std::stoi(parts[i]);
  }
  if (vals[1] < 1 || vals[1] > 12 || vals[2] < 1 ||
      vals[2] > days_in_month(vals[0], vals[1])) {
    return util::parse_error("impossible date '" + std::string(text) + "'");
  }
  return Date(vals[0], vals[1], vals[2]);
}

int Date::year() const {
  int y;
  unsigned m, d;
  civil_from_days(days_, y, m, d);
  return y;
}

int Date::month() const {
  int y;
  unsigned m, d;
  civil_from_days(days_, y, m, d);
  return static_cast<int>(m);
}

int Date::day() const {
  int y;
  unsigned m, d;
  civil_from_days(days_, y, m, d);
  return static_cast<int>(d);
}

Weekday Date::weekday() const {
  // 1970-01-01 was a Thursday (ISO index 3).
  std::int64_t w = (days_ + 3) % 7;
  if (w < 0) w += 7;
  return static_cast<Weekday>(w);
}

std::string Date::str() const {
  int y;
  unsigned m, d;
  civil_from_days(days_, y, m, d);
  if (y < 0 || y > 9999) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%04d-%02u-%02u", y, m, d);
    return buf;
  }
  std::string out = "0000-00-00";
  for (std::size_t i = 4; i-- > 0; y /= 10) out[i] = static_cast<char>('0' + y % 10);
  out[5] = static_cast<char>('0' + m / 10);
  out[6] = static_cast<char>('0' + m % 10);
  out[8] = static_cast<char>('0' + d / 10);
  out[9] = static_cast<char>('0' + d % 10);
  return out;
}

}  // namespace herc::cal
