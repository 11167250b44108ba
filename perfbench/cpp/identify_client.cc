// perfbench_identify: the load generator and output check of the
// benchmark's identification-service workloads (perfbench/README.md). It
// drives a running `sentinelctl serve` over loopback with binary
// POST /identify probes and checks every served verdict against
// DeviceIdentifier::Identify() run in-process on the same bank.
//
//   perfbench_identify --port P --pid PID --mode paced|saturated
//                      --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// One generating thread (plus the two idle-priority threads of Placement)
// and at most four keep-alive connections:
//   paced       open loop at 3000 requests/s, round-robin over the
//               connections; GET /healthz interleaved at 20/s on the
//               first connection. Sends never wait on the server (unsent
//               bytes queue in the generator), so a request's send time
//               is its due time plus only the generator's own scheduling
//               delay, which is reported apart (gen.late_us.p99) and
//               makes a run invalid past 1 ms. Latency is timed from
//               when the request was due; timed from the send, it is in
//               the result file too (p90_from_send_us).
//   saturated   closed loop: each connection pipelines 16 requests and
//               sends the next 16 once all are answered (64 in flight at
//               most, below the server's 256-deep admission queue).
// Every request carries a distinct MAC; fingerprints cycle through a pool
// of 512 simulated devices made from the seed.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <thread>

#include "common.h"
#include "core/identify_server.h"
#include "core/security_service.h"
#include "features/fingerprint_codec.h"
#include "ml/rng.h"
#include "net/frame.h"

namespace {

using namespace sentinel;
using perfbench::NowNs;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kPool = 512;
constexpr std::size_t kDepth = 16;
constexpr double kPacedRate = 3000.0;
constexpr std::uint64_t kHealthPeriodNs = 50'000'000;
/// The latency limit of the paced workloads; a failed request counts as
/// missing it, with this latency.
constexpr double kLimitUs = 5000.0;
constexpr double kFailedUs = 1e6;
/// Responses still missing this long after the last send are timeouts.
constexpr std::uint64_t kDrainTimeoutNs = 5'000'000'000;
/// How long the server and the generator stay on one pair of cores.
constexpr std::uint64_t kPlacementNs = 500'000'000;
/// A paced run is invalid when the generator, not the server, fell
/// behind: its p99 send lateness exceeded this.
constexpr double kLateLimitUs = 1000.0;
/// The paced generator stops sleeping this long before a send is due
/// (at most this share of the send period, so it never spins for long).
constexpr double kSpinNs = 200'000.0;
constexpr double kSpinShare = 0.1;

struct PoolEntry {
  int truth = -1;
  std::string request;  // full HTTP request; MAC bytes patched per send
  std::size_t mac_offset = 0;
  std::string verdict;  // oracle's verdict-grade JSON
  double identify_ns = 0.0;
  bool known = false;
  bool multi = false;
  std::size_t edit_distances = 0;
};

struct Names {
  explicit Names(perfbench::SpanRecorder& r)
      : parse(r.Intern("net.parse")),
        fingerprint(r.Intern("features.fingerprint")),
        identify_single(r.Intern("core.identifier.identify.single")),
        identify_multi(r.Intern("core.identifier.identify.multi")),
        assess(r.Intern("core.service.assess")),
        request(r.Intern("client.identify")),
        healthz(r.Intern("obs.http.healthz")) {}
  std::uint32_t parse, fingerprint, identify_single, identify_multi, assess,
      request, healthz;
};

/// The probe pool and its oracle verdicts. Replays of the library's calls
/// on the pool are timed into `rec` when tracing.
std::vector<PoolEntry> MakePool(std::uint64_t seed,
                                core::SecurityService& service,
                                perfbench::SpanRecorder* rec,
                                const Names* names) {
  ml::SmallRng rng(seed * 0x9e3779b97f4a7c15ull + 0x1d);
  devices::DeviceSimulator simulator(rng());
  std::vector<PoolEntry> pool;
  while (pool.size() < kPool) {
    const bool background = rng() % 10 == 0;
    const auto episode =
        background
            ? simulator.RunBackgroundEpisode(
                  static_cast<devices::BackgroundDeviceKind>(rng() % 3))
            : simulator.RunSetupEpisode(static_cast<devices::DeviceTypeId>(
                  rng() % devices::DeviceTypeCount()));
    const std::uint64_t id = pool.size();
    std::vector<net::ParsedPacket> packets;
    for (const auto& frame : episode.trace.frames()) {
      const std::uint64_t start = NowNs();
      net::ParsedPacket packet = net::ParseFrame(frame);
      if (rec != nullptr) rec->Add(names->parse, start, NowNs(), -1, id);
      if (packet.src_mac == episode.device_mac)
        packets.push_back(std::move(packet));
    }
    std::uint64_t start = NowNs();
    const auto built = features::Fingerprint::FromPackets(packets);
    const auto built_fixed = features::FixedFingerprint::FromFingerprint(built);
    if (rec != nullptr)
      rec->Add(names->fingerprint, start, NowNs(), -1, id);
    perfbench::Keep(built_fixed);
    if (built.empty()) continue;

    // The server identifies what it decodes from the wire; so does the
    // oracle.
    const auto bytes = features::SerializeFingerprint(built);
    const auto full = features::ParseFingerprint(bytes);
    const auto fixed = features::FixedFingerprint::FromFingerprint(full);
    start = NowNs();
    const auto result = service.identifier().Identify(full, fixed);
    const std::uint64_t end = NowNs();
    PoolEntry entry;
    entry.truth = episode.type;
    entry.identify_ns = static_cast<double>(end - start);
    entry.known = result.IsKnown();
    entry.multi = result.matched_types.size() > 1;
    entry.edit_distances = result.edit_distance_count;
    entry.verdict = core::IdentifyServer::RenderVerdictJson(result);
    if (rec != nullptr) {
      rec->Add(entry.multi ? names->identify_multi : names->identify_single,
               start, end, -1, id);
      start = NowNs();
      const auto assessment = service.Assess(full, fixed);
      rec->Add(names->assess, start, NowNs(), -1, id);
      perfbench::Keep(assessment);
    }
    std::string body(6, '\0');
    body.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    entry.request = "POST /identify HTTP/1.1\r\nHost: perfbench\r\n"
                    "Content-Type: application/octet-stream\r\n"
                    "Content-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n";
    entry.mac_offset = entry.request.size();
    entry.request += body;
    pool.push_back(std::move(entry));
  }
  return pool;
}

enum class Kind { kIdentify, kHealthz, kMetrics };

struct Outstanding {
  Kind kind = Kind::kIdentify;
  std::uint64_t request = 0;
  std::size_t pool = 0;
  std::uint64_t due_ns = 0;
  std::uint64_t send_ns = 0;
};

struct Connection {
  int fd = -1;
  std::string out;
  std::string in;
  std::deque<Outstanding> waiting;
};

/// Where the server and the generator run. The server gets one core and
/// the generator another, and every kPlacementNs the pair moves on to
/// the next cores the benchmark may use. On a shared machine the cores'
/// speeds differ and drift with their neighbours' load, and a wake-up
/// that crosses to a busy core can take milliseconds; one core per
/// process keeps the server's own hand-offs on one core, and rotating
/// samples every core, so that the better-quartile windows
/// (perfbench::kAcrossWindows) measure the service rather than which
/// cores it landed on. The server runs with its defaults otherwise.
///
/// Neither of the pair's cores is let go idle: one lowest-priority
/// (SCHED_IDLE) busy thread per core runs whenever nothing else does,
/// and yields to the server or the generator as soon as either wakes.
/// In a virtual machine an idle core is halted, and waking a halted
/// core goes through the host's scheduler: on the VM used to write this
/// benchmark that took from 0.1 to several ms when other tenants were
/// busy, and it, not the service, set the paced tail (windowed p90 of
/// 130-160 us in a run with the cores kept busy, 155-2000 us in one
/// without).
class Placement {
 public:
  explicit Placement(std::string server_pid) : pid_(std::move(server_pid)) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof(allowed), &allowed);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    for (auto& keeper : keepers_)
      keeper = std::thread([this] {
        const sched_param lowest{};
        sched_setscheduler(0, SCHED_IDLE, &lowest);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
  }
  ~Placement() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& keeper : keepers_) keeper.join();
  }
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

  /// Moves the server and the generator to the next pair of cores.
  void Next() {
    const std::size_t n = cpus_.size();
    Pin(cpus_[turn_ % n], cpus_[(turn_ + n / 2) % n]);
    ++turn_;
  }

 private:
  void Pin(int server_cpu, int generator_cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(server_cpu, &one);
    pthread_setaffinity_np(keepers_[0].native_handle(), sizeof(one), &one);
    const std::string dir = "/proc/" + pid_ + "/task";
    if (DIR* tasks = ::opendir(dir.c_str())) {
      while (const dirent* entry = ::readdir(tasks))
        if (entry->d_name[0] != '.')
          sched_setaffinity(static_cast<pid_t>(std::atoi(entry->d_name)),
                            sizeof(one), &one);
      ::closedir(tasks);
    }
    CPU_ZERO(&one);
    CPU_SET(generator_cpu, &one);
    pthread_setaffinity_np(keepers_[1].native_handle(), sizeof(one), &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  std::string pid_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
  /// The busy threads of the server's and the generator's core.
  std::thread keepers_[2];
  // ordering: a stop flag; the keepers touch no shared data.
  std::atomic<bool> stop_{false};
};

/// What one measured phase saw.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t served = 0;
  /// From send to response; failed requests at kFailedUs.
  std::vector<double> latency_us;
  /// The same from when each request was due (differs by the
  /// generator's own lateness).
  std::vector<double> from_due_us;
  std::vector<std::uint64_t> served_at_ns;
  std::vector<double> late_us;
  std::vector<double> queue_wait_us;
  std::vector<double> batch_size;
  std::vector<double> healthz_us;
  std::vector<double> http_self_us;
  double attributed_us = 0.0;  // queue wait + identify replay, served
  double rtt_us = 0.0;         // round trips of the same requests
  std::uint64_t correct_type = 0;
  double wall_s = 0.0;
  double server_cpu_ns = 0.0;
};

class Client {
 public:
  Client(std::uint16_t port, const std::string& server_pid,
         std::vector<PoolEntry> pool, perfbench::Result& result)
      : pool_(std::move(pool)),
        result_(result),
        server_pid_(server_pid),
        placement_(server_pid) {
    for (auto& connection : connections_) connection.fd = Connect(port);
  }
  ~Client() {
    for (auto& connection : connections_)
      if (connection.fd >= 0) ::close(connection.fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Open loop at `rate` requests/s for `seconds`.
  Phase Paced(double rate, double seconds, perfbench::SpanRecorder* rec) {
    Begin(rec);
    const auto total = static_cast<std::uint64_t>(rate * seconds);
    const double period_ns = 1e9 / rate;
    const auto spin_ns = static_cast<std::uint64_t>(
        std::min(kSpinNs, period_ns * kSpinShare));
    const std::uint64_t t0 = NowNs() + 1'000'000;
    std::uint64_t sent = 0;
    std::uint64_t next_health = t0 + kHealthPeriodNs / 2;
    auto due = [&](std::uint64_t i) {
      return t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
    };
    for (;;) {
      std::uint64_t now = NowNs();
      MaybeMove(now);
      while (sent < total && due(sent) <= now) {
        SendIdentify(connections_[sent % kConnections], due(sent), now);
        if (phase_) phase_->late_us.push_back(
            static_cast<double>(now - due(sent)) / 1e3);
        ++sent;
        now = NowNs();
      }
      if (sent < total && next_health <= now) {
        Send(connections_[0], Kind::kHealthz,
             "GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n", 0, next_health,
             now);
        next_health += kHealthPeriodNs;
      }
      if (sent >= total) break;
      // Sleep until shortly before the next send is due, then poll
      // without sleeping: waking a sleeping thread on time is not
      // reliable enough to keep the schedule.
      const std::uint64_t wake = std::min(due(sent), next_health);
      Pump(wake > now + spin_ns ? wake - now - spin_ns : 0);
    }
    return Finish(t0);
  }

  /// Closed loop: every connection keeps kDepth requests in flight.
  Phase Saturated(double seconds, perfbench::SpanRecorder* rec) {
    Begin(rec);
    const std::uint64_t t0 = NowNs();
    const std::uint64_t stop = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    for (;;) {
      const std::uint64_t now = NowNs();
      if (now >= stop) break;
      MaybeMove(now);
      for (auto& connection : connections_)
        if (connection.waiting.empty())
          for (std::size_t k = 0; k < kDepth; ++k)
            SendIdentify(connection, now, now);
      Pump(stop - now);
    }
    return Finish(t0);
  }

  /// Sends one GET on the first connection and waits for its body.
  std::string Get(const std::string& path) {
    Send(connections_[0], Kind::kMetrics,
         "GET " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n", 0, NowNs(),
         NowNs());
    const std::uint64_t deadline = NowNs() + kDrainTimeoutNs;
    while (!got_body_ && NowNs() < deadline) Pump(deadline - NowNs());
    if (!got_body_) throw std::runtime_error("no response to GET " + path);
    got_body_.reset();
    return last_body_;
  }

  [[nodiscard]] const std::vector<PoolEntry>& pool() const { return pool_; }
  perfbench::Digest digest;

 private:
  static int Connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      ::close(fd);
      throw std::runtime_error("connect() failed");
    }
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 5000) != 1)
      throw std::runtime_error("connect() timed out");
    return fd;
  }

  void MaybeMove(std::uint64_t now) {
    if (now < next_move_ns_) return;
    placement_.Next();
    next_move_ns_ = now + kPlacementNs;
  }

  void Begin(perfbench::SpanRecorder* rec) {
    phase_.emplace();
    rec_ = rec;
    if (rec != nullptr) names_.emplace(*rec);
    cpu_start_ = perfbench::ProcessCpuNs(server_pid_);
  }

  /// Waits for every outstanding response (timeouts count as failed).
  Phase Finish(std::uint64_t t0) {
    const std::uint64_t last_send = NowNs();
    const std::uint64_t deadline = last_send + kDrainTimeoutNs;
    while (InFlight() > 0 && NowNs() < deadline) Pump(deadline - NowNs());
    for (auto& connection : connections_) {
      for (const auto& lost : connection.waiting) {
        if (lost.kind == Kind::kIdentify) {
          phase_->latency_us.push_back(kFailedUs);
          phase_->from_due_us.push_back(kFailedUs);
          result_.Mismatch("request " + std::to_string(lost.request) +
                           ": no response (timeout)");
        }
        ++phase_->failed;
      }
      if (!connection.waiting.empty())
        throw std::runtime_error("responses lost; connection unusable");
    }
    phase_->wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    phase_->server_cpu_ns = perfbench::ProcessCpuNs(server_pid_) - cpu_start_;
    Phase done = std::move(*phase_);
    phase_.reset();
    return done;
  }

  std::size_t InFlight() const {
    std::size_t n = 0;
    for (const auto& connection : connections_) n += connection.waiting.size();
    return n;
  }

  void SendIdentify(Connection& connection, std::uint64_t due,
                    std::uint64_t now) {
    const std::size_t index = static_cast<std::size_t>(next_request_ % kPool);
    PoolEntry& entry = pool_[index];
    const std::uint64_t mac = next_request_;
    for (int i = 0; i < 6; ++i)
      entry.request[entry.mac_offset + static_cast<std::size_t>(i)] =
          static_cast<char>(i == 0 ? 0x02 : (mac >> (8 * (5 - i))) & 0xff);
    Send(connection, Kind::kIdentify, entry.request, index, due, now);
  }

  void Send(Connection& connection, Kind kind, const std::string& bytes,
            std::size_t pool_index, std::uint64_t due, std::uint64_t now) {
    connection.waiting.push_back(
        {kind, next_request_++, pool_index, due, now});
    if (phase_) ++phase_->attempted;
    connection.out += bytes;
    Flush(connection);
  }

  static void Flush(Connection& connection) {
    while (!connection.out.empty()) {
      const ssize_t n = ::send(connection.fd, connection.out.data(),
                               connection.out.size(), MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) throw std::runtime_error("send() failed");
      connection.out.erase(0, static_cast<std::size_t>(n));
    }
  }

  /// Waits up to `timeout_ns` for socket activity and handles every
  /// complete response that arrived.
  void Pump(std::uint64_t timeout_ns) {
    pollfd fds[kConnections];
    for (std::size_t i = 0; i < kConnections; ++i)
      fds[i] = {connections_[i].fd,
                static_cast<short>(POLLIN |
                                   (connections_[i].out.empty() ? 0 : POLLOUT)),
                0};
    const timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                           static_cast<long>(timeout_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds, kConnections, &timeout, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll() failed");
    if (ready <= 0) return;
    for (std::size_t i = 0; i < kConnections; ++i) {
      Connection& connection = connections_[i];
      if (fds[i].revents & POLLOUT) Flush(connection);
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char chunk[65536];
      for (;;) {
        const ssize_t n = ::recv(connection.fd, chunk, sizeof(chunk), 0);
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) throw std::runtime_error("server closed a connection");
        connection.in.append(chunk, static_cast<std::size_t>(n));
      }
      const std::uint64_t now = NowNs();
      while (TakeResponse(connection, now)) {
      }
    }
  }

  /// Peels one complete response off `connection.in`, if there is one.
  bool TakeResponse(Connection& connection, std::uint64_t now) {
    const auto header_end = connection.in.find("\r\n\r\n");
    if (header_end == std::string::npos) return false;
    const auto length_at = connection.in.find("Content-Length:");
    if (length_at == std::string::npos || length_at > header_end)
      throw std::runtime_error("response without Content-Length");
    const auto length = static_cast<std::size_t>(
        std::atol(connection.in.c_str() + length_at + 15));
    if (connection.in.size() < header_end + 4 + length) return false;
    const int status = std::atoi(connection.in.c_str() + 9);
    const std::string body = connection.in.substr(header_end + 4, length);
    connection.in.erase(0, header_end + 4 + length);
    if (connection.waiting.empty())
      throw std::runtime_error("unsolicited response");
    const Outstanding request = connection.waiting.front();
    connection.waiting.pop_front();
    OnResponse(request, status, body, now);
    return true;
  }

  static double NumberAfter(const std::string& body, const std::string& key) {
    const auto at = body.find(key);
    return at == std::string::npos ? std::nan("")
                                   : std::atof(body.c_str() + at + key.size());
  }

  void OnResponse(const Outstanding& request, int status,
                  const std::string& body, std::uint64_t now) {
    if (request.kind == Kind::kMetrics) {
      last_body_ = body;
      got_body_ = status == 200;
      return;
    }
    if (!phase_) return;
    Phase& phase = *phase_;
    const double rtt_us = static_cast<double>(now - request.send_ns) / 1e3;
    const double due_us = static_cast<double>(now - request.due_ns) / 1e3;
    if (request.kind == Kind::kHealthz) {
      if (status != 200) {
        ++phase.failed;
        return;
      }
      phase.healthz_us.push_back(rtt_us);
      if (rec_ != nullptr)
        rec_->Add(names_->healthz, request.send_ns, now, -1, request.request);
      return;
    }
    const PoolEntry& entry = pool_[request.pool];
    const auto verdict_at = body.find("\"verdict\":");
    const auto verdict_end = body.find(",\"batch_size\":");
    if (status != 200 || verdict_at == std::string::npos ||
        verdict_end == std::string::npos) {
      ++phase.failed;
      phase.latency_us.push_back(kFailedUs);
      phase.from_due_us.push_back(kFailedUs);
      return;
    }
    const std::string verdict =
        body.substr(verdict_at + 10, verdict_end - verdict_at - 10);
    ++result_.checked;
    if (verdict != entry.verdict)
      result_.Mismatch("request " + std::to_string(request.request) +
                       " (pool " + std::to_string(request.pool) +
                       "): served " + verdict + ", oracle " + entry.verdict);
    char key[16];
    std::snprintf(key, sizeof(key), "p%03zu", request.pool);
    digest.Add(key, verdict);
    ++phase.served;
    phase.served_at_ns.push_back(now);
    phase.latency_us.push_back(rtt_us);
    phase.from_due_us.push_back(due_us);
    const double queue_wait_us = NumberAfter(body, "\"queue_wait_ns\":") / 1e3;
    phase.queue_wait_us.push_back(queue_wait_us);
    phase.batch_size.push_back(NumberAfter(body, "\"batch_size\":"));
    const double identify_us = entry.identify_ns / 1e3;
    phase.http_self_us.push_back(rtt_us - queue_wait_us - identify_us);
    phase.attributed_us += queue_wait_us + identify_us;
    phase.rtt_us += rtt_us;
    const bool correct = verdict.find("\"known\":false") != std::string::npos
                             ? entry.truth < 0
                             : verdict.find("\"type\":" +
                                            std::to_string(entry.truth) + ",") !=
                                   std::string::npos;
    phase.correct_type += correct ? 1 : 0;
    if (rec_ != nullptr)
      rec_->Add(names_->request, request.send_ns, now, -1, request.request);
  }

  std::vector<PoolEntry> pool_;
  perfbench::Result& result_;
  Connection connections_[kConnections];
  std::uint64_t next_request_ = 0;
  std::optional<Phase> phase_;
  perfbench::SpanRecorder* rec_ = nullptr;
  std::optional<Names> names_;
  std::string server_pid_;
  Placement placement_;
  std::uint64_t next_move_ns_ = 0;
  double cpu_start_ = 0.0;
  std::optional<bool> got_body_;
  std::string last_body_;
};

/// Serve counters scraped from /metrics; absent counters stay NaN.
std::map<std::string, double> ServeCounters(const std::string& metrics) {
  std::map<std::string, double> out;
  for (const char* name :
       {"sentinel_serve_admitted_total", "sentinel_serve_rejected_total",
        "sentinel_serve_shed_total", "sentinel_serve_probes_total",
        "sentinel_serve_batches_total"}) {
    const std::string key = std::string("\n") + name + " ";
    const auto at = metrics.find(key);
    out[name] = at == std::string::npos
                    ? std::nan("")
                    : std::atof(metrics.c_str() + at + key.size());
  }
  return out;
}

int Main(int argc, char** argv) {
  const perfbench::Flags flags(argc, argv);
  const auto port = static_cast<std::uint16_t>(flags.Num("port", 0));
  const std::string pid = flags.Str("pid", "");
  const std::string mode = flags.Str("mode", "");
  const auto seed = static_cast<std::uint64_t>(flags.Num("seed", 1));
  const double seconds = flags.Num("seconds", 10);
  const bool traced = flags.Num("trace", 0) != 0;
  const std::string trace_out = flags.Str("trace-out", "");
  if (port == 0 || pid.empty() || (mode != "paced" && mode != "saturated"))
    throw std::runtime_error("usage: --port P --pid PID --mode "
                             "paced|saturated --seed N --seconds S "
                             "--trace 0|1");
  ::signal(SIGPIPE, SIG_IGN);
  // Wake from ppoll on time: the default 50 us timer slack would make
  // the open-loop generator late by design.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  // The oracle: the server's bank, trained in-process.
  core::SecurityService service(perfbench::TrainCatalogBank(),
                                core::VulnerabilityDb::SeedFromCatalog());
  perfbench::SpanRecorder rec;
  std::optional<Names> names;
  if (traced) names.emplace(rec);
  perfbench::Result result;
  Client client(port, pid,
                MakePool(seed, service, traced ? &rec : nullptr,
                         names ? &*names : nullptr),
                result);

  // One measured phase, with the serve counters of /metrics before and
  // after it.
  std::map<std::string, double> before, after;
  auto run = [&](double length, perfbench::SpanRecorder* spans) {
    before = ServeCounters(client.Get("/metrics"));
    Phase done = mode == "saturated"
                     ? client.Saturated(length, spans)
                     : client.Paced(kPacedRate, length, spans);
    after = ServeCounters(client.Get("/metrics"));
    return done;
  };
  // Warm-up: connections, server threads and caches; not measured.
  (void)run(0.5, nullptr);
  const Phase phase = run(traced ? seconds / 2 : seconds, nullptr);
  result.attempted = phase.attempted;
  result.failed = phase.failed;
  result.digest = client.digest.Hex();
  const double p50 = perfbench::WindowedQuantile(phase.from_due_us, 0.5);
  const double late_p99 = perfbench::Quantile(phase.late_us, 0.99);
  const bool valid = mode == "saturated" || late_p99 <= kLateLimitUs;
  result.notes["valid"] = valid ? "true" : "false";
  result.notes["served"] = std::to_string(phase.served);
  if (!valid)
    std::fprintf(stderr,
                 "perfbench_identify: INVALID run: the generator fell behind "
                 "(p99 send lateness %.0f us > %.0f us)\n",
                 late_p99, kLateLimitUs);

  if (!traced) {
    result.Metric("rss_peak_mb", perfbench::PeakRssMiB(pid), "MiB");
    result.Metric("served_share",
                  static_cast<double>(phase.attempted - phase.failed) /
                      static_cast<double>(phase.attempted),
                  "share");
    result.Metric("p50_us", p50, "us");
    result.Metric("p90_us",
                  perfbench::WindowedQuantile(phase.from_due_us, 0.9), "us");
    result.Metric("p99_us",
                  perfbench::WindowedQuantile(phase.from_due_us, 0.99), "us");
    result.Metric("throughput_per_s", perfbench::WindowedRate(phase.served_at_ns),
                  "1/s");
    result.Metric("cpu_us_per_op",
                  phase.server_cpu_ns / static_cast<double>(phase.served) / 1e3,
                  "us");
    result.Metric("limit_met_share",
                  static_cast<double>(std::count_if(
                      phase.from_due_us.begin(), phase.from_due_us.end(),
                      [](double us) { return us <= kLimitUs; })) /
                      static_cast<double>(phase.from_due_us.size()),
                  "share");
    result.Metric("gen.late_us.p99", late_p99, "us");
    result.Metric("p90_from_send_us",
                  perfbench::WindowedQuantile(phase.latency_us, 0.9), "us");
    result.Print();
    return 0;
  }

  const Phase traced_phase = run(seconds / 2, &rec);
  result.attempted += traced_phase.attempted;
  result.failed += traced_phase.failed;
  const Names& n = *names;
  // Identifier figures over the pool: requests cycle through it evenly.
  double multi = 0.0, unknown = 0.0, edits = 0.0;
  for (const PoolEntry& entry : client.pool()) {
    multi += entry.multi ? 1.0 : 0.0;
    unknown += entry.known ? 0.0 : 1.0;
    edits += static_cast<double>(entry.edit_distances);
  }
  const auto pool_size = static_cast<double>(client.pool().size());
  const Phase& t = traced_phase;
  const double served = static_cast<double>(t.served);

  // Common per-layer metrics (every workload reports these).
  result.Metric("net.parse_ns", rec.MeanNs(n.parse), "ns");
  result.Metric("features.fingerprint_ns", rec.MeanNs(n.fingerprint), "ns");
  result.Metric("core.identifier.identify_ns.single",
                rec.MeanNs(n.identify_single), "ns");
  result.Metric("core.identifier.identify_ns.multi", rec.MeanNs(n.identify_multi),
                "ns");
  result.Metric("core.identifier.multi_match_share", multi / pool_size,
                "share");
  result.Metric("core.identifier.edit_distances", edits / pool_size, "count");
  result.Metric("core.identifier.unknown_share", unknown / pool_size, "share");
  result.Metric("core.service.assess_ns", rec.MeanNs(n.assess), "ns");
  result.Metric("quality.accuracy", static_cast<double>(t.correct_type) / served,
                "share");
  result.Metric("trace.overhead_share",
                perfbench::WindowedQuantile(t.from_due_us, 0.5) / p50 - 1.0,
                "share");
  result.Metric("trace.coverage", t.attributed_us / t.rtt_us, "share");
  // Service-path layers (reported in the per-layer table).
  result.Metric("core.serve.queue_wait_us.p50",
                perfbench::Quantile(t.queue_wait_us, 0.5), "us");
  result.Metric("core.serve.queue_wait_us.p99",
                perfbench::Quantile(t.queue_wait_us, 0.99), "us");
  result.Metric("core.serve.batch_size.mean", perfbench::Mean(t.batch_size),
                "count");
  result.Metric("core.serve.batch_size.p99",
                perfbench::Quantile(t.batch_size, 0.99), "count");
  result.Metric("obs.http.healthz_rtt_us", perfbench::Quantile(t.healthz_us, 0.5),
                "us");
  result.Metric("obs.http.self_us", perfbench::Quantile(t.http_self_us, 0.5),
                "us");
  result.Metric("server.cpu_util", t.server_cpu_ns / (t.wall_s * 1e9), "cores");
  result.Metric("server.threads", perfbench::ProcStatusField(pid, "Threads"),
                "count");
  const double admitted = after.at("sentinel_serve_admitted_total") -
                          before.at("sentinel_serve_admitted_total");
  const double rejected = after.at("sentinel_serve_rejected_total") -
                          before.at("sentinel_serve_rejected_total");
  const double probes_served = after.at("sentinel_serve_probes_total") -
                               before.at("sentinel_serve_probes_total");
  // NaN (printed null, "missing") when the server exports no such counter.
  result.Metric("core.serve.admitted_share", admitted / (admitted + rejected),
                "share");
  result.Metric("core.serve.served_of_admitted", probes_served / admitted,
                "share");
  result.Metric("gen.late_us.p99", perfbench::Quantile(t.late_us, 0.99), "us");
  result.notes["spans"] = std::to_string(rec.size());
  if (!trace_out.empty()) rec.WriteChromeJson(trace_out);
  result.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_identify: %s\n", error.what());
    return 2;
  }
}
