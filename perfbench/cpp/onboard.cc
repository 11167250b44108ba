// perfbench_onboard: the gateway onboarding workload of the end-to-end
// benchmark (perfbench/README.md). In one thread, as on a home router, it
// drives "households" through the library's public API: each household
// is a fresh SecurityGateway on one shared trained SecurityService, with
// 27 IoT devices and 3 non-IoT devices joining at overlapping times.
// After a device's verdict the benchmark sends it a short stream with one
// allowed and one denied flow. Every device is checked against an
// in-process oracle; the result is one JSON line on stdout.
//
//   perfbench_onboard --seed N --seconds S --trace 0|1
//                     [--trace-out FILE] [--assess-spin-us U]
//
// --assess-spin-us adds a fixed busy spin inside the benchmark's own
// Assess decorator; it exists only for the benchmark's sensitivity
// self-test (perfbench/selftest.py).
#include <sched.h>
#include <time.h>

#include <cstdio>
#include <optional>
#include <unordered_map>

#include "common.h"
#include "core/gateway.h"
#include "core/identify_server.h"
#include "core/security_service.h"
#include "ml/rng.h"
#include "net/frame.h"

namespace {

using namespace sentinel;
using perfbench::NowNs;

constexpr sdn::PortId kDevicePort = 10;
constexpr std::size_t kIotPerHousehold = 27;
constexpr std::size_t kBackgroundPerHousehold = 3;
/// Device joins are spread over this window, so setups overlap.
constexpr std::uint64_t kJoinWindowNs = 20'000'000'000;
/// The router's housekeeping tick: FlushIdle every simulated second.
constexpr std::uint64_t kFlushPeriodNs = 1'000'000'000;
/// Households per measurement window (perfbench::kAcrossWindows).
constexpr std::size_t kWindowHouseholds = 32;
constexpr std::size_t kWindowDevices =
    kWindowHouseholds * (kIotPerHousehold + kBackgroundPerHousehold);
/// Ticks continue this long past a household's last frame: more than
/// the setup-phase idle gap (5 s), so every device completes.
constexpr std::uint64_t kDrainNs = 6'000'000'000;
/// The verdict digest covers the first households of the run, which
/// every run of a seed processes whatever the machine's speed.
constexpr std::size_t kDigestHouseholds = 8;
/// A public address on no catalog allowlist and a local host the
/// gateway never saw: the post-verdict stream's two flows. Exactly one
/// of them is allowed at every isolation level (public Internet for
/// trusted devices, the untrusted overlay for the rest).
const net::Ipv4Address kPublicTarget(203, 0, 113, 77);
const net::Ipv4Address kLocalTarget(192, 168, 1, 250);
const net::MacAddress kLocalTargetMac({0x02, 0x7a, 0x00, 0x00, 0x00, 0xfa});

struct Device {
  net::MacAddress mac;
  net::Ipv4Address ip;
  int truth = -1;  // catalog type; -1 for a non-IoT device
};

struct Household {
  std::vector<net::Frame> frames;
  /// Per frame: index of the household device that sent it, or -1 for
  /// frames entering from the WAN side.
  std::vector<int> source;
  std::vector<Device> devices;
};

Household MakeHousehold(std::uint64_t seed, std::size_t index) {
  ml::SmallRng rng(seed * 0x9e3779b97f4a7c15ull + index + 1);
  devices::DeviceSimulator simulator(rng());
  std::vector<devices::DeviceTypeId> types;
  for (std::size_t i = 0; i < kIotPerHousehold; ++i)
    types.push_back(
        static_cast<devices::DeviceTypeId>(rng() % devices::DeviceTypeCount()));
  auto setup = simulator.RunConcurrentSetupEpisodes(types);
  std::vector<devices::SimulatedEpisode> episodes = std::move(setup.episodes);
  for (std::size_t i = 0; i < kBackgroundPerHousehold; ++i)
    episodes.push_back(simulator.RunBackgroundEpisode(
        static_cast<devices::BackgroundDeviceKind>(rng() % 3)));

  // Re-time every episode to start at its own join instant.
  const std::uint64_t base = 1'000'000'000;
  Household household;
  std::unordered_map<net::MacAddress, int> by_mac;
  for (const auto& episode : episodes) {
    // A simulated MAC is the type's OUI plus 24 random bits, so two
    // devices of a household can draw the same one (about one household
    // in 200,000). To the gateway they would be one device; the
    // household keeps the first.
    if (episode.trace.empty() || by_mac.count(episode.device_mac) != 0)
      continue;
    std::uint64_t first = episode.trace.frames().front().timestamp_ns;
    for (const auto& frame : episode.trace.frames())
      first = std::min(first, frame.timestamp_ns);
    const std::uint64_t join = base + rng() % kJoinWindowNs;
    for (net::Frame frame : episode.trace.frames()) {
      frame.timestamp_ns = frame.timestamp_ns - first + join;
      household.frames.push_back(std::move(frame));
    }
    by_mac.emplace(episode.device_mac,
                   static_cast<int>(household.devices.size()));
    household.devices.push_back(
        {episode.device_mac, episode.device_ip, episode.type});
  }
  std::stable_sort(household.frames.begin(), household.frames.end(),
                   [](const net::Frame& a, const net::Frame& b) {
                     return a.timestamp_ns < b.timestamp_ns;
                   });
  for (const auto& frame : household.frames) {
    std::array<std::uint8_t, 6> octets{};
    for (std::size_t i = 0; i < 6 && 6 + i < frame.bytes.size(); ++i)
      octets[i] = frame.bytes[6 + i];
    const auto it = by_mac.find(net::MacAddress(octets));
    household.source.push_back(it == by_mac.end() ? -1 : it->second);
  }
  return household;
}

/// The benchmark's SecurityServiceClient decorator: times each Assess and
/// remembers which fingerprint it was asked about, so the identification
/// callback can attribute both to the device.
class TimedService : public core::SecurityServiceClient {
 public:
  TimedService(core::SecurityService& inner, std::uint64_t spin_ns)
      : inner_(inner), spin_ns_(spin_ns) {}

  core::AssessmentResult Assess(
      const features::Fingerprint& full,
      const features::FixedFingerprint& fixed) override {
    const std::uint64_t start = NowNs();
    if (spin_ns_ > 0)
      while (NowNs() - start < spin_ns_) {
      }
    core::AssessmentResult result = inner_.Assess(full, fixed);
    last_start_ns = start;
    last_end_ns = NowNs();
    last_full = &full;
    last_fixed = &fixed;
    return result;
  }

  std::uint64_t last_start_ns = 0;
  std::uint64_t last_end_ns = 0;
  const features::Fingerprint* last_full = nullptr;
  const features::FixedFingerprint* last_fixed = nullptr;

 private:
  core::SecurityService& inner_;
  std::uint64_t spin_ns_;
};

double ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

struct Outcome {
  bool identified = false;
  core::AssessmentResult assessment;
  features::Fingerprint full;
  features::FixedFingerprint fixed;
  double complete_ns = 0.0;
  /// Identifications its completing call ran up to its own, itself
  /// included (FlushIdle can end several devices' setup at once).
  std::size_t waited = 0;
  double first_ingress_ns = 0.0;
  std::vector<net::Frame> post_frames;
  std::vector<bool> forwarded;
};

/// Span names of the traced pass.
struct Names {
  explicit Names(perfbench::SpanRecorder& r)
      : ingress_collecting(r.Intern("gateway.ingress.collecting")),
        ingress_enforced(r.Intern("gateway.ingress.enforced")),
        ingress_wan(r.Intern("gateway.ingress.wan")),
        flush(r.Intern("gateway.flush_idle")),
        complete(r.Intern("gateway.complete")),
        assess(r.Intern("core.service.assess")),
        parse(r.Intern("net.parse")),
        fingerprint(r.Intern("features.fingerprint")),
        identify_single(r.Intern("core.identifier.identify.single")),
        identify_multi(r.Intern("core.identifier.identify.multi")),
        authorize(r.Intern("core.enforcement.authorize")),
        match(r.Intern("sdn.match")) {}
  std::uint32_t ingress_collecting, ingress_enforced, ingress_wan, flush,
      complete, assess, parse, fingerprint, identify_single, identify_multi,
      authorize, match;
};

/// Everything one pass (untraced or traced) measures.
struct Pass {
  std::vector<double> onboard_ns;
  /// Per household: frames, wall time inside its gateway calls, thread
  /// CPU of its loop, devices.
  std::vector<double> household_frames, household_call_ns, household_cpu_ns,
      household_devices;
  double frames = 0.0;
  double call_ns = 0.0;      // wall time inside Ingress + FlushIdle
  double loop_ns = 0.0;      // wall time of the household loops
  std::uint64_t devices = 0;
  std::uint64_t failed = 0;
  std::uint64_t households = 0;
  // Verdicts matching the simulator's ground truth.
  std::uint64_t known_correct = 0;
  // Σ Outcome::waited over identified devices.
  std::uint64_t waited = 0;
  // Identifier figures (traced pass).
  std::uint64_t probes = 0, multi = 0, unknown = 0, edit_distances = 0;
  // Datapath figures (traced pass), summed over households.
  double lookups = 0, hits = 0, received = 0, packet_ins = 0;
  double flow_rules = 0, rules = 0;
};

class OnboardBench {
 public:
  OnboardBench(core::SecurityService& service, std::uint64_t seed,
               std::uint64_t spin_ns, perfbench::Result& result)
      : service_(service),
        timed_(service, spin_ns),
        seed_(seed),
        result_(result) {}

  /// Runs households until `seconds` of wall time have passed.
  ///
  /// Each window of kWindowHouseholds households runs on the next CPU the
  /// process may use, in turn. On a shared machine the cores' speeds
  /// differ and drift with their neighbours' load; rotating samples every
  /// core, so a run does not depend on which core the scheduler happened
  /// to pick.
  Pass Run(double seconds, perfbench::SpanRecorder* rec) {
    Pass pass;
    std::optional<Names> names;
    if (rec != nullptr) names.emplace(*rec);
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof(allowed), &allowed);
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    const std::uint64_t stop =
        NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::size_t h = 0; h == 0 || NowNs() < stop; ++h) {
      if (h % kWindowHouseholds == 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[h / kWindowHouseholds % cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
      }
      const Household household = MakeHousehold(seed_, h);
      RunHousehold(household, h, pass, rec, names ? &*names : nullptr);
    }
    sched_setaffinity(0, sizeof(allowed), &allowed);
    return pass;
  }

 private:
  void RunHousehold(const Household& household, std::size_t index, Pass& pass,
                    perfbench::SpanRecorder* rec, const Names* names) {
    core::SecurityGateway gateway(timed_);
    std::uint64_t outputs = 0;
    gateway.AttachWan([&outputs](const net::Frame&) { ++outputs; });
    gateway.AttachPort(kDevicePort, [&outputs](const net::Frame&) { ++outputs; });

    std::unordered_map<net::MacAddress, std::size_t> by_mac;
    for (std::size_t d = 0; d < household.devices.size(); ++d)
      by_mac.emplace(household.devices[d].mac, d);
    std::vector<Outcome> outcomes(household.devices.size());

    // Set when a call into the gateway starts; identification callbacks
    // measure from it.
    std::uint64_t call_start = 0;
    std::int64_t call_span = -1;
    std::uint64_t sim_now = 0;
    std::vector<std::size_t> verdicts;  // identified during the current call
    gateway.sentinel().OnIdentification(
        [&](const core::IdentificationEvent& event) {
          const std::uint64_t now = NowNs();
          const auto it = by_mac.find(event.device_mac);
          if (it == by_mac.end()) {
            result_.Mismatch("verdict for a MAC that is no household device: " +
                             event.device_mac.ToString());
            return;
          }
          Outcome& outcome = outcomes[it->second];
          if (outcome.identified) {
            result_.Mismatch("second verdict for " +
                             event.device_mac.ToString());
            return;
          }
          outcome.identified = true;
          outcome.complete_ns = static_cast<double>(now - call_start);
          outcome.waited = verdicts.size() + 1;
          outcome.assessment = event.assessment;
          if (timed_.last_full != nullptr) {
            outcome.full = *timed_.last_full;
            outcome.fixed = *timed_.last_fixed;
          }
          if (rec != nullptr) {
            rec->Add(names->assess, timed_.last_start_ns, timed_.last_end_ns,
                     call_span, it->second);
            rec->Add(names->complete, call_start, now, call_span, it->second);
          }
          verdicts.push_back(it->second);
        });

    const double frames_before = pass.frames;
    const double call_ns_before = pass.call_ns;
    const std::uint64_t loop_start = NowNs();
    const double cpu_start = ThreadCpuNs();
    // Runs one timed call into the gateway, then the post-verdict streams
    // of every device it identified.
    auto call = [&](auto&& fn, std::uint32_t name, std::uint64_t id) {
      if (rec != nullptr) call_span = rec->Reserve();
      call_start = NowNs();
      fn();
      const std::uint64_t end = NowNs();
      pass.call_ns += static_cast<double>(end - call_start);
      if (rec != nullptr)
        rec->Record(call_span, name, call_start, end, -1, id);
      for (const std::size_t d : verdicts) SendPostVerdict(gateway, d,
          household.devices[d], outcomes[d], sim_now, outputs, pass, rec,
          names);
      verdicts.clear();
    };

    std::uint64_t next_flush = 0;
    for (std::size_t i = 0; i < household.frames.size(); ++i) {
      const net::Frame& frame = household.frames[i];
      sim_now = frame.timestamp_ns;
      if (sim_now >= next_flush) {
        if (next_flush != 0)
          call([&] { gateway.sentinel().FlushIdle(sim_now); },
               names ? names->flush : 0, 0);
        next_flush = sim_now + kFlushPeriodNs;
      }
      const int source = household.source[i];
      std::uint32_t name = 0;
      if (names != nullptr)
        name = source < 0 ? names->ingress_wan
               : outcomes[static_cast<std::size_t>(source)].identified
                   ? names->ingress_enforced
                   : names->ingress_collecting;
      call([&] {
             gateway.Ingress(source < 0 ? gateway.config().wan_port
                                        : kDevicePort,
                             frame);
           },
           name, static_cast<std::uint64_t>(source + 1));
    }
    // Keep ticking until every device's idle gap has expired, so each
    // device completes on the tick a router would complete it on.
    const std::uint64_t last_frame = sim_now;
    while (sim_now < last_frame + kDrainNs) {
      sim_now = next_flush;
      next_flush += kFlushPeriodNs;
      call([&] { gateway.sentinel().FlushIdle(sim_now); },
           names ? names->flush : 0, 0);
    }
    pass.loop_ns += static_cast<double>(NowNs() - loop_start);
    pass.frames += static_cast<double>(household.frames.size());
    pass.household_frames.push_back(pass.frames - frames_before);
    pass.household_call_ns.push_back(pass.call_ns - call_ns_before);
    pass.household_cpu_ns.push_back(ThreadCpuNs() - cpu_start);
    pass.household_devices.push_back(
        static_cast<double>(household.devices.size()));
    ++pass.households;

    Check(gateway, household, index, outcomes, pass);
    if (rec != nullptr) Replay(gateway, household, outcomes, pass, *rec, *names);
  }

  /// Builds and sends one device's post-verdict stream: a flow to a
  /// public address and a flow to an unseen local host, two frames each.
  void SendPostVerdict(core::SecurityGateway& gateway, std::size_t d,
                       const Device& device, Outcome& outcome,
                       std::uint64_t sim_now, std::uint64_t& outputs,
                       Pass& pass, perfbench::SpanRecorder* rec,
                       const Names* names) {
    net::UdpDatagram udp;
    udp.payload.assign(48, 0x5a);
    for (int k = 0; k < 4; ++k) {
      const bool to_public = k % 2 == 0;
      udp.src_port = static_cast<std::uint16_t>(40000 + k % 2);
      udp.dst_port = to_public ? 443 : 5000;
      outcome.post_frames.push_back(net::BuildUdp4Frame(
          sim_now + static_cast<std::uint64_t>(k + 1) * 1'000'000, device.mac,
          to_public ? gateway.config().gateway_mac : kLocalTargetMac,
          device.ip, to_public ? kPublicTarget : kLocalTarget, udp));
    }
    for (std::size_t k = 0; k < outcome.post_frames.size(); ++k) {
      const std::uint64_t before = outputs;
      const std::int64_t slot = rec != nullptr ? rec->Reserve() : -1;
      const std::uint64_t start = NowNs();
      gateway.Ingress(kDevicePort, outcome.post_frames[k]);
      const std::uint64_t end = NowNs();
      if (rec != nullptr)
        rec->Record(slot, names->ingress_enforced, start, end, -1, d + 1);
      pass.call_ns += static_cast<double>(end - start);
      pass.frames += 1.0;
      if (k == 0) outcome.first_ingress_ns = static_cast<double>(end - start);
      outcome.forwarded.push_back(outputs != before);
    }
  }

  /// The oracle checks of every device: a verdict; an installed rule that
  /// matches it; the verdict equals Assess replayed on the fingerprint
  /// the decorator saw; forwarding of the post-verdict frames agrees with
  /// Authorize.
  void Check(core::SecurityGateway& gateway, const Household& household,
             std::size_t index, const std::vector<Outcome>& outcomes,
             Pass& pass) {
    for (std::size_t d = 0; d < outcomes.size(); ++d) {
      const Outcome& outcome = outcomes[d];
      const Device& device = household.devices[d];
      const std::string who = "household " + std::to_string(index) +
                              " device " + std::to_string(d) + " (" +
                              device.mac.ToString() + ")";
      ++pass.devices;
      ++result_.checked;
      if (!outcome.identified) {
        ++pass.failed;
        result_.Mismatch(who + ": no verdict");
        continue;
      }
      const core::AssessmentResult& got = outcome.assessment;
      const core::EnforcementRule* rule = gateway.enforcement().Find(device.mac);
      if (rule == nullptr || rule->level != got.level ||
          rule->device_type != got.type_identifier)
        result_.Mismatch(who + ": installed rule differs from the verdict");
      const core::AssessmentResult want =
          service_.Assess(outcome.full, outcome.fixed);
      const std::string verdict =
          core::IdentifyServer::RenderVerdictJson(got.identification);
      if (want.type != got.type || want.level != got.level ||
          want.type_identifier != got.type_identifier ||
          want.allowed_endpoints != got.allowed_endpoints ||
          want.requires_user_notification != got.requires_user_notification ||
          core::IdentifyServer::RenderVerdictJson(want.identification) !=
              verdict)
        result_.Mismatch(who + ": verdict differs from Assess replayed");
      bool first_ok = true;
      int allowed = 0;
      for (std::size_t k = 0; k < outcome.post_frames.size(); ++k) {
        const bool allow =
            gateway.enforcement()
                .Authorize(net::ParseFrame(outcome.post_frames[k]))
                .allow;
        allowed += allow ? 1 : 0;
        if (allow != outcome.forwarded[k]) {
          if (k == 0) first_ok = false;
          result_.Mismatch(who + ": post-verdict frame " + std::to_string(k) +
                           (allow ? " allowed but dropped"
                                  : " denied but forwarded"));
        }
      }
      if (allowed != 2)
        result_.Mismatch(who + ": post-verdict stream is not one allowed and "
                               "one denied flow");
      if (!first_ok) {
        ++pass.failed;
        continue;
      }
      pass.onboard_ns.push_back(outcome.complete_ns + outcome.first_ingress_ns);
      pass.waited += outcome.waited;
      const bool correct = got.type ? *got.type == device.truth
                                    : device.truth < 0;
      pass.known_correct += correct ? 1 : 0;
      if (index < kDigestHouseholds) {
        char key[32];
        std::snprintf(key, sizeof(key), "h%03zu/d%02zu", index, d);
        std::string value = core::ToString(got.level) + " " + verdict;
        for (const bool f : outcome.forwarded) value += f ? " 1" : " 0";
        digest.Add(key, value);
      }
    }
  }

  /// Traced pass only: replays the layers' public calls on this
  /// household's inputs, outside the timed household loop.
  void Replay(core::SecurityGateway& gateway, const Household& household,
              const std::vector<Outcome>& outcomes, Pass& pass,
              perfbench::SpanRecorder& rec, const Names& names) {
    std::vector<std::vector<net::ParsedPacket>> packets(outcomes.size());
    for (std::size_t i = 0; i < household.frames.size(); ++i) {
      const std::uint64_t start = NowNs();
      net::ParsedPacket packet = net::ParseFrame(household.frames[i]);
      rec.Add(names.parse, start, NowNs(), -1, 0);
      if (household.source[i] >= 0)
        packets[static_cast<std::size_t>(household.source[i])].push_back(
            std::move(packet));
    }
    const auto& table = gateway.datapath().flow_table();
    const auto stats = table.stats();
    pass.lookups += static_cast<double>(stats.lookups);
    pass.hits += static_cast<double>(stats.hash_hits + stats.linear_hits);
    pass.received += static_cast<double>(gateway.datapath().counters().received.Load());
    pass.packet_ins +=
        static_cast<double>(gateway.datapath().counters().packet_ins.Load());
    pass.flow_rules += static_cast<double>(table.size());
    pass.rules += static_cast<double>(gateway.enforcement().rule_count());

    const auto& identifier = service_.identifier();
    for (std::size_t d = 0; d < outcomes.size(); ++d) {
      const Outcome& outcome = outcomes[d];
      std::uint64_t start = NowNs();
      const auto full = features::Fingerprint::FromPackets(packets[d]);
      const auto fixed = features::FixedFingerprint::FromFingerprint(full);
      rec.Add(names.fingerprint, start, NowNs(), -1, d + 1);
      perfbench::Keep(fixed);
      if (!outcome.identified) continue;
      start = NowNs();
      const auto result = identifier.Identify(outcome.full, outcome.fixed);
      const std::uint64_t end = NowNs();
      const bool multi = result.matched_types.size() > 1;
      rec.Add(multi ? names.identify_multi : names.identify_single, start, end,
              -1, d + 1);
      ++pass.probes;
      pass.multi += multi ? 1 : 0;
      pass.unknown += result.IsKnown() ? 0 : 1;
      pass.edit_distances += result.edit_distance_count;
      for (const auto& frame : outcome.post_frames) {
        const auto packet = net::ParseFrame(frame);
        start = NowNs();
        const auto decision = gateway.enforcement().Authorize(packet);
        rec.Add(names.authorize, start, NowNs(), -1, d + 1);
        start = NowNs();
        const auto match =
            table.Match(packet, kDevicePort, frame.timestamp_ns, frame.size());
        rec.Add(names.match, start, NowNs(), -1, d + 1);
        perfbench::Keep(decision);
        perfbench::Keep(match);
      }
    }
  }

 public:
  perfbench::Digest digest;

 private:
  core::SecurityService& service_;
  TimedService timed_;
  std::uint64_t seed_;
  perfbench::Result& result_;
};

/// Σnum ÷ Σden over consecutive windows of households, at quantile q
/// across the windows (perfbench::kAcrossWindows explains why).
double WindowedRatio(const std::vector<double>& num,
                     const std::vector<double>& den, double q) {
  std::vector<double> per_window;
  for (std::size_t start = 0; start < num.size(); start += kWindowHouseholds) {
    const std::size_t end = std::min(start + kWindowHouseholds, num.size());
    double n = 0.0, d = 0.0;
    for (std::size_t i = start; i < end; ++i) {
      n += num[i];
      d += den[i];
    }
    per_window.push_back(n / d);
  }
  return perfbench::Quantile(per_window, q);
}

int Main(int argc, char** argv) {
  const perfbench::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.Num("seed", 1));
  const double seconds = flags.Num("seconds", 10);
  const bool traced = flags.Num("trace", 0) != 0;
  const std::string trace_out = flags.Str("trace-out", "");
  const auto spin_ns =
      static_cast<std::uint64_t>(flags.Num("assess-spin-us", 0) * 1e3);

  // Set-up: train the bank several times and report the median; the
  // last bank serves the run.
  std::vector<double> setups;
  std::unique_ptr<core::SecurityService> service;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t start = NowNs();
    service = std::make_unique<core::SecurityService>(
        perfbench::TrainCatalogBank(),
        core::VulnerabilityDb::SeedFromCatalog());
    setups.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  perfbench::Result result;
  OnboardBench bench(*service, seed, spin_ns, result);
  const Pass untraced = bench.Run(traced ? seconds / 2 : seconds, nullptr);
  const double p50 = perfbench::WindowedQuantile(untraced.onboard_ns, 0.5,
                                                   kWindowDevices) /
                     1e3;
  result.attempted = untraced.devices;
  result.failed = untraced.failed;
  result.digest = bench.digest.Hex();
  result.notes["households"] = std::to_string(untraced.households);
  result.notes["devices"] = std::to_string(untraced.devices);

  if (!traced) {
    result.Metric("setup_s", perfbench::Quantile(setups, 0.5), "s");
    result.Metric("rss_peak_mb", perfbench::PeakRssMiB("self"), "MiB");
    result.Metric("served_share",
                  static_cast<double>(untraced.devices - untraced.failed) /
                      static_cast<double>(untraced.devices),
                  "share");
    result.Metric("p50_us", p50, "us");
    result.Metric("p90_us",
                  perfbench::WindowedQuantile(untraced.onboard_ns, 0.9,
                                              kWindowDevices) /
                      1e3,
                  "us");
    result.Metric("p99_us",
                  perfbench::WindowedQuantile(untraced.onboard_ns, 0.99,
                                              kWindowDevices) /
                      1e3,
                  "us");
    result.Metric("throughput_per_s",
                  WindowedRatio(untraced.household_frames,
                                untraced.household_call_ns,
                                1.0 - perfbench::kAcrossWindows) *
                      1e9,
                  "1/s");
    result.Metric("cpu_us_per_op",
                  WindowedRatio(untraced.household_cpu_ns,
                                untraced.household_devices,
                                perfbench::kAcrossWindows) /
                      1e3,
                  "us");
    result.Print();
    return 0;
  }

  perfbench::SpanRecorder rec;
  const Pass pass = bench.Run(seconds / 2, &rec);
  result.attempted += pass.devices;
  result.failed += pass.failed;
  const Names names(rec);
  const double traced_p50 =
      perfbench::WindowedQuantile(pass.onboard_ns, 0.5, kWindowDevices) / 1e3;
  const double probes = static_cast<double>(pass.probes);

  // Common per-layer metrics (every workload reports these).
  result.Metric("net.parse_ns", rec.MeanNs(names.parse), "ns");
  result.Metric("features.fingerprint_ns", rec.MeanNs(names.fingerprint),
                "ns");
  result.Metric("core.identifier.identify_ns.single",
                rec.MeanNs(names.identify_single), "ns");
  result.Metric("core.identifier.identify_ns.multi",
                rec.MeanNs(names.identify_multi), "ns");
  result.Metric("core.identifier.multi_match_share",
                static_cast<double>(pass.multi) / probes, "share");
  result.Metric("core.identifier.edit_distances",
                static_cast<double>(pass.edit_distances) / probes, "count");
  result.Metric("core.identifier.unknown_share",
                static_cast<double>(pass.unknown) / probes, "share");
  result.Metric("core.service.assess_ns", rec.MeanNs(names.assess), "ns");
  result.Metric("quality.accuracy",
                static_cast<double>(pass.known_correct) /
                    static_cast<double>(pass.devices - pass.failed),
                "share");
  result.Metric("trace.overhead_share", traced_p50 / p50 - 1.0, "share");
  result.Metric("trace.coverage", pass.call_ns / pass.loop_ns, "share");
  // Gateway-path layers (reported in the per-layer table).
  result.Metric("gateway.ingress_ns.collecting",
                rec.MeanNs(names.ingress_collecting), "ns");
  result.Metric("gateway.ingress_ns.enforced",
                rec.MeanNs(names.ingress_enforced), "ns");
  result.Metric("gateway.complete_ns", rec.MeanNs(names.complete), "ns");
  result.Metric("gateway.assess_per_completion",
                static_cast<double>(pass.waited) /
                    static_cast<double>(pass.devices - pass.failed),
                "count");
  result.Metric("core.service.assess_share",
                rec.TotalNs(names.assess) / rec.TotalNs(names.complete),
                "share");
  result.Metric("core.enforcement.authorize_ns", rec.MeanNs(names.authorize),
                "ns");
  result.Metric("core.enforcement.rules",
                pass.rules / static_cast<double>(pass.households), "count");
  result.Metric("sdn.match_ns", rec.MeanNs(names.match), "ns");
  result.Metric("sdn.hit_share", pass.hits / pass.lookups, "share");
  result.Metric("sdn.packet_in_share", pass.packet_ins / pass.received,
                "share");
  result.Metric("sdn.flow_rules",
                pass.flow_rules / static_cast<double>(pass.households),
                "count");
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
    std::fprintf(stderr, "perfbench_onboard: %s\n", error.what());
    return 2;
  }
}
