#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace fs = std::filesystem;
using herc::srv::Client;
using herc::srv::Server;
using herc::srv::ServerConfig;

std::string run_root() {
  return ".bench_build/perfbench-runs/" + std::to_string(::getpid());
}

std::string fresh_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = run_root() + "/" + tag + "-" + std::to_string(counter++);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void remove_dir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

Result<std::unique_ptr<HostedServer>> HostedServer::start(const std::string& tag,
                                                         const std::string& dir) {
  std::unique_ptr<HostedServer> host(new HostedServer());
  host->dir_ = dir.empty() ? fresh_dir(tag) : dir;
  ServerConfig config;  // defaults: 4 workers, queue 1024, group commit, MVCC reads
  config.unix_path = host->dir_ + "/s.sock";
  config.shard.dir = host->dir_;
  auto started = Server::start(std::move(config));
  if (!started.ok()) return started.error();
  host->server_ = std::move(started).take();
  return host;
}

HostedServer::~HostedServer() {
  if (server_) server_->stop();
  server_.reset();
  remove_dir(dir_);
}

Result<std::unique_ptr<Client>> HostedServer::connect() const {
  return Client::connect(address());
}

Result<std::string> copy_shard_files(const std::string& from,
                                     const std::vector<std::string>& names) {
  const std::string to = fresh_dir("copy");
  for (const auto& name : names) {
    for (const char* ext : {".snapshot.json", ".wal"}) {
      std::error_code ec;
      fs::copy_file(from + "/" + name + ext, to + "/" + name + ext,
                    fs::copy_options::overwrite_existing, ec);
      if (ec) return herc::util::io_error("copy " + name + ext + ": " + ec.message());
    }
  }
  return to;
}

ProcStat ProcStat::read() {
  ProcStat s;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return s;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    s.total += v;
    if (i == 7) s.steal = v;  // user nice system idle iowait irq softirq steal
  }
  return s;
}

namespace {
std::atomic<const IdlePoller*> live_poller{nullptr};
}  // namespace

IdlePoller::IdlePoller() {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  for (long cpu = 0; cpu < cpus; ++cpu) {
    threads_.emplace_back([this, cpu] {
      sched_param param{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<int>(cpu), &set);
      ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
      while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
    });
    handles_.push_back(threads_.back().native_handle());
  }
  live_poller.store(this);
}

IdlePoller::~IdlePoller() {
  live_poller.store(nullptr);
  stop_.store(true);
  for (auto& t : threads_) t.join();
}

double IdlePoller::cpu_us() const {
  double sum = 0;
  for (const pthread_t handle : handles_) {
    clockid_t clock;
    timespec ts{};
    if (::pthread_getcpuclockid(handle, &clock) == 0 &&
        ::clock_gettime(clock, &ts) == 0)
      sum += static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
  }
  return sum;
}

double IdlePoller::work_cpu_us() {
  const IdlePoller* poller = live_poller.load();
  return process_cpu_us() - (poller ? poller->cpu_us() : 0.0);
}

bool tally(const Result<herc::srv::wire::Response>& r, Failures& f) {
  if (!r.ok()) {
    ++f.transport;
    return false;
  }
  if (!r.value().ok) {
    ++(r.value().error.retryable() ? f.shed : f.hard);
    return false;
  }
  return true;
}

std::optional<long> row_count(const std::string& text) {
  const auto open = text.rfind('(');
  if (open == std::string::npos) return std::nullopt;
  long n = 0;
  std::istringstream in(text.substr(open + 1));
  if (!(in >> n)) return std::nullopt;
  return n;
}

std::string result_text(const herc::srv::wire::Response& r) {
  if (!r.ok || !r.result.is_object()) return {};
  const auto& o = r.result.as_object();
  return o.contains("text") && o.at("text").is_string() ? o.at("text").as_string()
                                                         : std::string();
}

namespace {
const Json* find_path(const Json& doc, const std::string& path) {
  const Json* cur = &doc;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    const auto slash = path.find('/', pos);
    const std::string key =
        path.substr(pos, slash == std::string::npos ? std::string::npos : slash - pos);
    if (!cur->is_object() || !cur->as_object().contains(key)) return nullptr;
    cur = &cur->as_object().at(key);
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
  return cur;
}
}  // namespace

std::int64_t stat_int(const Json& doc, const std::string& path) {
  const Json* v = find_path(doc, path);
  return v && v->is_int() ? v->as_int() : 0;
}

double stat_num(const Json& doc, const std::string& path) {
  const Json* v = find_path(doc, path);
  return v && v->is_number() ? v->as_double() : 0.0;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
