// End-to-end serving benchmark: CSI in -> (ingest decode ->
// transport) -> DurableSessionManager admission and journal -> per-AP
// estimation pipeline -> fix out, then a crash inside a journal append
// and recovery by a fresh manager.
//
// One process runs one workload:
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --work-dir <dir> [--smoke]
//
// Phases, in order:
//  1. inputs   — captures synthesized by the testbed simulator (and, for
//                the byte-stream workload, encoded with write_trace) before
//                any clock starts;
//  2. setup    — manager construction, recover() on an empty directory,
//                session opens, receiver binding and one warm-up round per
//                session; repeated with cold steering caches, median kept;
//  3. serve    — closed loop: a session's APs offer their next packet group
//                only after that session's previous fix came back;
//  4. crash    — a snapshot, then a fixed window of rounds whose last one
//                dies inside a journal append (CrashInjector, torn tail);
//  5. recover  — a fresh manager recovers from the surviving files,
//                repeated from the same crashed bytes, median kept.
//
// With --trace 1 the serve phase alternates untraced and traced slices:
// the traced slices time every call into a layer from outside and give the
// per-layer metrics, and the ratio of the two slices' fix rates is the
// tracing overhead. Every correctness check runs in both modes; a breach
// is a failed operation and fails the run. The last stdout line is the
// result object (correct, attempted, failed, metrics).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "csi/quality.hpp"
#include "csi/trace.hpp"
#include "durability/crash.hpp"
#include "durability/durability.hpp"
#include "music/steering_cache.hpp"
#include "testbed/experiment.hpp"
#include "transport/link.hpp"
#include "transport/transport.hpp"

#ifndef SERVEBENCH_COMPILER
#define SERVEBENCH_COMPILER "unknown"
#endif
#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace spotfi;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Clocks and small statistics, kept apart from the library under test.

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

constexpr double kPacketIntervalS = 0.1;
constexpr double kRadToDeg = 57.29577951308232;
/// Largest antenna power ratio a synthesized packet may have: 20 dB, 5 dB
/// under the packet screen's 25 dB dead-chain threshold.
constexpr double kRedrawImbalance = 100.0;
/// Wall time from the start of a run after which the serve phase ends even
/// short of its fix floor (a failed operation), so that a much slower
/// program still finishes with measured figures.
constexpr double kServeBudgetS = 100.0;

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadSpec {
  std::string name;
  std::size_t lanes = 1;
  std::size_t sessions = 1;
  std::vector<std::size_t> ap_indices;  ///< office APs each session uses
  std::size_t group = 5;                ///< packets per AP per round
  ApStage entry = ApStage::kPrimary;    ///< fidelity rung of every round
  bool transport = false;  ///< bytes -> decode -> lossy link -> ARQ
  std::size_t pool_rounds = 8;     ///< distinct rounds synthesized per session
  std::size_t snapshot_every = 0;  ///< explicit snapshot() cadence [fixes]
  std::size_t crash_window = 2;    ///< rounds after the last snapshot
  std::size_t setups = 3;
  std::size_t recoveries = 3;
  std::size_t min_fixes = 100;  ///< >= 10 latency samples above p90
  /// Captures redrawn past a deep fade; fixed by the simulator's output.
  std::size_t expected_redraws = 0;
  /// Paper Fig. 7(a) 80th percentile; the RSSI-only rung sets its own.
  double error_ceiling_m = 1.8;
  bool rssi_premise = false;  ///< check RSSI-only is worse on the same input
};

std::optional<WorkloadSpec> workload_spec(const std::string& name,
                                          bool smoke) {
  WorkloadSpec w;
  w.name = name;
  if (name == "office_music") {
    // The paper's setting: six 3-antenna APs, full 2-D MUSIC on the
    // default grid, a few sessions walking distinct targets, 2 lanes.
    w.lanes = 2;
    w.sessions = 3;
    w.ap_indices = {0, 1, 2, 3, 4, 5};
    w.pool_rounds = 56;
    w.snapshot_every = 12;
    w.crash_window = 4;
    w.expected_redraws = 1;
    w.rssi_premise = true;
  } else if (name == "fleet_rssi") {
    // Many tenants at the RSSI-only rung: ingest decode, transport,
    // admission and journal appends carry the load.
    w.lanes = 1;
    w.sessions = 64;
    w.ap_indices = {0, 1, 2, 3};
    w.group = 3;
    w.entry = ApStage::kRssiOnly;
    w.transport = true;
    w.pool_rounds = 14;
    w.snapshot_every = 1000;
    w.crash_window = 128;  // two rounds per session
    w.recoveries = 7;
    w.expected_redraws = 4;
    w.error_ceiling_m = 4.0;
  } else if (name == "recover_esprit") {
    // The search-free ESPRIT rung with sparse snapshots: a long journal
    // suffix for recover() to replay through the subspace stage.
    w.lanes = 1;
    w.sessions = 2;
    w.ap_indices = {0, 1, 2, 3};
    w.entry = ApStage::kEsprit;
    w.pool_rounds = 84;
    w.snapshot_every = 40;
    w.crash_window = 10;
    w.expected_redraws = 1;
  } else {
    return std::nullopt;
  }
  if (smoke) {
    w.sessions = std::min<std::size_t>(w.sessions, 4);
    w.pool_rounds = 28 / w.sessions + 2;  // a whole walk of the grid
    w.snapshot_every = 4;
    w.crash_window = 2;
    w.setups = 1;
    w.recoveries = 1;
    w.min_fixes = 1;  // one walk of the target grid
    w.expected_redraws = 0;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Inputs, synthesized before any clock starts.

struct RoundInput {
  Vec2 truth;
  /// [ap][packet]; empty for the byte-stream workload after encoding.
  std::vector<std::vector<CsiPacket>> packets;
};

struct SessionInput {
  std::vector<RoundInput> rounds;
  /// Per-AP capture streams in the trace format (byte-stream workload).
  std::vector<std::string> streams;
};

struct Inputs {
  Deployment deployment;
  std::vector<ArrayPose> aps;
  std::vector<SessionInput> sessions;
  /// Rounds the direct workloads offer in the crash window: the same
  /// captures on every seed, so recovery replays the same work.
  std::vector<RoundInput> crash_rounds;
  std::size_t bytes = 0;  ///< input bytes held in memory during the run
  std::size_t redrawn = 0;  ///< captures redrawn past a deep fade
};

Inputs make_inputs(const WorkloadSpec& w, const LinkConfig& link) {
  Inputs in;
  in.deployment = office_deployment();
  ExperimentConfig ecfg;
  ecfg.packets_per_group = w.group;
  ecfg.packet_interval_s = kPacketIntervalS;
  ecfg.ap_indices = w.ap_indices;
  const ExperimentRunner runner(link, in.deployment, ecfg);
  in.aps = runner.used_aps();

  // Sessions walk the deployment's target grid. Round k of session s is
  // step g = k * sessions + s of one shared walk, and the serve phase is
  // round-robin over sessions, so every T consecutive steps (T = number of
  // targets) stand on every target exactly once. The capture noise of a
  // target's v-th visit comes from a stream keyed by (target, v), and each
  // session's random stream is keyed by the session: every seed localizes
  // the same captures with the same streams, so the accuracy metrics move
  // with the program, not with the draw of the clustering's random starts.
  Rng rng(0x0ff1ceULL);
  const std::size_t n_targets = in.deployment.targets.size();
  std::vector<std::size_t> order(n_targets);
  for (std::size_t i = 0; i < n_targets; ++i) order[i] = i;
  for (std::size_t i = n_targets; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  // A capture is redrawn (next noise key) when one of its packets has an
  // antenna in a deep fade: the streaming localizer's packet screen drops
  // such a packet as a dead chain, and the closed loop would wait for a fix
  // that never fires. The test is the benchmark's own, on the simulator's
  // output, with a margin under the screen's threshold for the 8-bit
  // quantization of the trace format, so the inputs do not depend on the
  // screen; the run checks the redraw count and that the screen keeps
  // every packet it offers.
  const auto deep_fade = [](const RoundInput& round) {
    for (const auto& group : round.packets) {
      for (const CsiPacket& p : group) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = 0.0;
        for (std::size_t m = 0; m < p.csi.rows(); ++m) {
          double power = 0.0;
          for (const cplx& v : p.csi.row(m)) power += std::norm(v);
          lo = std::min(lo, power);
          hi = std::max(hi, power);
        }
        if (!(hi <= lo * kRedrawImbalance)) return true;
      }
    }
    return false;
  };
  const auto synthesize = [&](std::size_t target, std::uint64_t key) {
    while (true) {
      RoundInput round;
      round.truth = in.deployment.targets[target];
      Rng capture_rng(key);
      for (ApCapture& cap :
           runner.simulate_captures(round.truth, capture_rng)) {
        round.packets.push_back(std::move(cap.packets));
      }
      if (!deep_fade(round)) return round;
      ++in.redrawn;
      key += 0x9e3779b97f4a7c15ULL;
    }
  };
  const auto held_bytes = [](const RoundInput& round) {
    std::size_t bytes = 0;
    for (const auto& group : round.packets) {
      for (const CsiPacket& p : group) {
        bytes += p.csi.rows() * p.csi.cols() * sizeof(cplx) + sizeof(CsiPacket);
      }
    }
    return bytes;
  };
  in.sessions.resize(w.sessions);
  for (std::size_t s = 0; s < w.sessions; ++s) {
    SessionInput& si = in.sessions[s];
    for (std::size_t k = 0; k < w.pool_rounds; ++k) {
      const std::size_t step = k * w.sessions + s;
      const std::size_t target = order[step % n_targets];
      const std::size_t visit = step / n_targets;
      RoundInput round =
          synthesize(target, 0x5107f1ULL + 1000003ULL * visit + target);
      for (auto& group : round.packets) {
        for (std::size_t p = 0; p < group.size(); ++p) {
          group[p].timestamp_s =
              static_cast<double>(k * w.group + p) * kPacketIntervalS;
        }
      }
      si.rounds.push_back(std::move(round));
    }
    if (w.transport) {
      for (std::size_t a = 0; a < in.aps.size(); ++a) {
        std::vector<CsiPacket> stream;
        for (RoundInput& round : si.rounds) {
          for (CsiPacket& p : round.packets[a]) stream.push_back(std::move(p));
        }
        std::ostringstream os;
        write_trace(os, link, stream);
        si.streams.push_back(os.str());
        in.bytes += si.streams.back().size();
      }
      for (RoundInput& round : si.rounds) round.packets.clear();
    } else {
      for (const RoundInput& round : si.rounds) in.bytes += held_bytes(round);
    }
  }
  if (!w.transport) {
    for (std::size_t i = 0; i < w.crash_window; ++i) {
      in.crash_rounds.push_back(
          synthesize((i * 5) % n_targets, 0xc4a5eULL + 7919ULL * i));
      in.bytes += held_bytes(in.crash_rounds.back());
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Per-layer accounting. One bucket for untraced slices, one for traced.

struct Bucket {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t fixes = 0;
  std::size_t packets = 0;
  double decode_s = 0.0;
  double send_s = 0.0;
  double tick_s = 0.0;
  double sink_s = 0.0;   ///< inside the durable sink (part of tick_s)
  double offer_s = 0.0;  ///< inside DurableSessionManager::offer
  double pump_s = 0.0;
  double snapshot_s = 0.0;
  std::array<double, kStagePhaseCount> stage_s{};
  std::size_t fallback_aps = 0;
  std::size_t numerics = 0;
  std::size_t workspace_peak = 0;
  std::vector<double> latency_ms;
  std::vector<double> snapshot_ms;
};

/// Outputs kept to check the recovered fixes byte for byte.
struct FixBytes {
  Vec2 raw;
  Vec2 tracked;
  double time_s = 0.0;
  bool degraded = false;
  std::vector<std::size_t> aps_used;

  explicit FixBytes(const LocationFix& f)
      : raw(f.raw),
        tracked(f.tracked),
        time_s(f.time_s),
        degraded(f.degraded),
        aps_used(f.aps_used) {}

  [[nodiscard]] bool same_bytes(const LocationFix& f) const {
    return std::memcmp(&raw, &f.raw, sizeof(Vec2)) == 0 &&
           std::memcmp(&tracked, &f.tracked, sizeof(Vec2)) == 0 &&
           std::memcmp(&time_s, &f.time_s, sizeof(double)) == 0 &&
           degraded == f.degraded && aps_used == f.aps_used;
  }
};

// ---------------------------------------------------------------------------
// One incarnation of the serving system.

struct Uplink {
  std::unique_ptr<LinkSimulator> link;
  std::unique_ptr<TransportSender> sender;
  std::unique_ptr<TransportReceiver> receiver;
  std::uint64_t sent = 0;  ///< frames handed to send()
};

struct Feed {
  std::unique_ptr<std::istringstream> is;
  std::unique_ptr<TraceReader> reader;
  std::size_t cycle = 0;
};

struct Session {
  SessionId id = 0;
  std::size_t next_round = 0;
  double sim_s = 0.0;  ///< the session's simulated link time
  std::vector<Uplink> uplinks;
  std::vector<Feed> feeds;
};

struct World {
  std::string dir;
  std::unique_ptr<DurableSessionManager> dm;
  // Declared after dm: the receivers deliver into dm's sinks, so they
  // are destroyed first.
  std::vector<Session> sessions;
  std::uint64_t decoded = 0;
  std::uint64_t offered = 0;
};

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;
};

class Bench {
 public:
  Bench(Options opts, WorkloadSpec spec)
      : opts_(std::move(opts)), w_(std::move(spec)) {}

  int run();

 private:
  // -- configuration -------------------------------------------------------
  [[nodiscard]] SessionConfig session_config(std::size_t s) const;
  [[nodiscard]] DurabilityConfig durability(const std::string& dir,
                                            CrashInjector* crash) const;
  [[nodiscard]] SessionManagerConfig manager_config() const {
    SessionManagerConfig m;
    m.num_threads = w_.lanes;
    return m;
  }
  [[nodiscard]] DurableSessionManager::SessionConfigFn config_of() const {
    return [this](SessionId id) {
      return session_config(static_cast<std::size_t>(id - 1) % w_.sessions);
    };
  }

  // -- phases --------------------------------------------------------------
  std::unique_ptr<World> build_world(const std::string& dir);
  void serve();
  void drain_links();
  void check_exactly_once();
  void crash_window();
  void recover_all();
  void check_rssi_premise();
  void check_inputs();

  // -- one closed-loop round -------------------------------------------------
  void round(std::size_t s, Bucket* b);
  CsiPacket decode_next(Session& ses, std::size_t si, std::size_t a,
                        Bucket* b);
  void tick_all(Session& ses, Bucket* b);
  void record_fix(std::size_t s, std::size_t pool_index, Vec2 truth,
                  const LocationFix& fix, Bucket* b);

  // -- checks ----------------------------------------------------------------
  /// Counts one operation. A failed output check makes the run incorrect;
  /// a failed operation that is not one (the serve phase falling short of
  /// its fix floor) leaves the measured figures standing.
  void op(bool ok, const std::string& what, bool output_check = true) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      wrong_ = wrong_ || output_check;
      if (failures_.size() < 20) failures_.push_back(what);
    }
  }

  void print_result();

  Options opts_;
  WorkloadSpec w_;
  LinkConfig link_ = LinkConfig::intel5300_40mhz();
  Inputs in_;
  CrashInjector injector_;
  std::unique_ptr<World> world_;
  std::string crashed_dir_;
  std::vector<std::size_t> service_;  ///< session order in every cycle

  double run_t0_ = 0.0;
  bool tracing_ = false;
  Bucket buckets_[2];
  bool in_crash_window_ = false;
  std::size_t crash_round_ = 0;
  std::map<std::pair<SessionId, std::uint64_t>, FixBytes> window_fixes_;

  // Serve-phase outputs for the correctness checks (both buckets).
  std::vector<double> errors_m_;
  std::vector<double> aoa_errors_deg_;
  std::vector<std::pair<std::size_t, std::size_t>> fix_inputs_;  // (s, k)

  std::vector<double> setup_s_;
  std::vector<double> recovery_s_;
  std::vector<double> replay_us_;
  std::size_t steering_built_ = 0;
  std::size_t fixes_journaled_ = 0;
  std::uint64_t journal_bytes_ = 0;
  double snapshot_kb_ = 0.0;
  std::uint64_t wire_frames_ = 0;
  std::uint64_t wire_packets_ = 0;
  std::size_t queue_high_water_ = 0;
  std::size_t recovery_packets_ = 0;
  StageBreakdown recovery_stages_;
  double recovery_wall_ = 0.0;

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool wrong_ = false;
  std::vector<std::string> failures_;
};

SessionConfig Bench::session_config(std::size_t s) const {
  SessionConfig cfg;
  cfg.streaming.group_size = w_.group;
  cfg.streaming.server.localizer.area_min = in_.deployment.area_min;
  cfg.streaming.server.localizer.area_max = in_.deployment.area_max;
  cfg.streaming.server.ap.fallback.entry_stage = w_.entry;
  // Far above one round's packets, so admission never degrades a round:
  // the closed loop keeps at most one group per AP queued.
  cfg.overload.queue_capacity = 256;
  cfg.aps = in_.aps;
  cfg.seed = s + 1;
  return cfg;
}

DurabilityConfig Bench::durability(const std::string& dir,
                                   CrashInjector* crash) const {
  DurabilityConfig d;
  d.enabled = true;
  d.dir = dir;
  d.snapshot_every_fixes = 0;  // snapshots are explicit, timed from outside
  d.fsync = false;             // the deployed default
  d.crash = crash;
  return d;
}

std::unique_ptr<World> Bench::build_world(const std::string& dir) {
  auto world = std::make_unique<World>();
  world->dir = dir;
  world->dm = std::make_unique<DurableSessionManager>(
      link_, manager_config(), durability(dir, &injector_));
  (void)world->dm->recover(config_of());
  world->sessions.resize(w_.sessions);
  for (std::size_t s = 0; s < w_.sessions; ++s) {
    Session& ses = world->sessions[s];
    ses.id = world->dm->open_session(session_config(s));
    if (!w_.transport) continue;
    TransportConfig tcfg;
    tcfg.send_window = 16;
    tcfg.reorder_window = 16;
    ses.uplinks.resize(in_.aps.size());
    ses.feeds.resize(in_.aps.size());
    for (std::size_t a = 0; a < in_.aps.size(); ++a) {
      Uplink& up = ses.uplinks[a];
      const std::uint64_t link_id = s * in_.aps.size() + a + 1;
      LinkFaultModel model;
      model.delay_s = 0.002;
      model.jitter_s = 0.003;
      model.drop_prob = 0.02;
      model.duplicate_prob = 0.01;
      model.reorder_prob = 0.02;
      model.reorder_extra_s = 0.02;
      // One outage past the liveness timeout, early enough in session 0's
      // stream time (its fourth round) to land in every serve phase:
      // reconnect-resume runs.
      if (s == 0 && a == 0) {
        model.down_windows = {{1.0, 1.0 + 3.0 * tcfg.liveness_timeout_s}};
      }
      up.link = std::make_unique<LinkSimulator>(
          model, opts_.seed * 100003 + link_id, /*reserve_in_flight=*/32);
      tcfg.seed = opts_.seed * 7919 + link_id;
      up.sender = std::make_unique<TransportSender>(*up.link, tcfg);
      TransportSink sink = world->dm->make_sink(ses.id, link_id);
      if (opts_.trace) {
        sink = [this, inner = std::move(sink)](std::size_t ap,
                                               CsiPacket& packet) {
          if (!tracing_) return inner(ap, packet);
          const double t0 = wall_now();
          const bool ok = inner(ap, packet);
          buckets_[1].sink_s += wall_now() - t0;
          return ok;
        };
      }
      up.receiver =
          std::make_unique<TransportReceiver>(*up.link, std::move(sink), tcfg);
      world->dm->bind_receiver(link_id, up.receiver.get());
      Feed& f = ses.feeds[a];
      f.is = std::make_unique<std::istringstream>(in_.sessions[s].streams[a]);
      f.reader = std::make_unique<TraceReader>(*f.is);
    }
  }
  return world;
}

CsiPacket Bench::decode_next(Session& ses, std::size_t si, std::size_t a,
                             Bucket* b) {
  Feed& f = ses.feeds[a];
  const bool timed = b != nullptr && tracing_;
  std::optional<Expected<CsiPacket, IngestError>> item;
  for (int attempt = 0; attempt < 2 && !item.has_value(); ++attempt) {
    if (attempt == 1) {
      // End of this AP's capture stream: replay it, a pool cycle later.
      ++f.cycle;
      f.is = std::make_unique<std::istringstream>(in_.sessions[si].streams[a]);
      f.reader = std::make_unique<TraceReader>(*f.is);
    }
    const double t0 = timed ? wall_now() : 0.0;
    item = f.reader->next();
    if (timed) b->decode_s += wall_now() - t0;
  }
  if (!item.has_value() || !item->has_value()) {
    throw std::runtime_error("capture stream failed to decode");
  }
  ++world_->decoded;
  CsiPacket packet = std::move(item->value());
  packet.timestamp_s += static_cast<double>(f.cycle * w_.pool_rounds *
                                            w_.group) *
                        kPacketIntervalS;
  return packet;
}

void Bench::tick_all(Session& ses, Bucket* b) {
  const bool timed = b != nullptr && tracing_;
  const double t0 = timed ? wall_now() : 0.0;
  for (Uplink& up : ses.uplinks) {
    up.sender->tick(ses.sim_s);
    up.receiver->tick(ses.sim_s);
  }
  if (timed) b->tick_s += wall_now() - t0;
}

void Bench::round(std::size_t s, Bucket* b) {
  Session& ses = world_->sessions[s];
  const std::size_t k = ses.next_round++;
  const std::size_t pool_index = k % w_.pool_rounds;
  const RoundInput& input = in_crash_window_ && !w_.transport
                                ? in_.crash_rounds[crash_round_++]
                                : in_.sessions[s].rounds[pool_index];
  const std::size_t n_aps = in_.aps.size();
  const bool timed = b != nullptr && tracing_;
  double t_last = 0.0;

  if (w_.transport) {
    // Each AP sends its packets at their capture times over its own lossy
    // link; the receivers deliver through the durable sinks.
    constexpr double kTickStepS = 0.01;
    for (std::size_t p = 0; p < w_.group; ++p) {
      for (std::size_t a = 0; a < n_aps; ++a) {
        CsiPacket packet = decode_next(ses, s, a, b);
        ses.sim_s = std::max(ses.sim_s, packet.timestamp_s);
        Uplink& up = ses.uplinks[a];
        const double t0 = wall_now();
        if (p + 1 == w_.group && a + 1 == n_aps) t_last = t0;
        const auto seq = up.sender->send(a, packet, ses.sim_s);
        if (timed) b->send_s += wall_now() - t0;
        if (!seq.has_value()) {
          throw std::runtime_error("transport refused a frame");
        }
        ++up.sent;
        if (b != nullptr) ++b->packets;
      }
      tick_all(ses, b);
    }
    std::size_t steps = 0;
    const auto delivered = [&ses] {
      for (const Uplink& up : ses.uplinks) {
        if (up.receiver->delivered_through() < up.sent) return false;
      }
      return true;
    };
    while (!delivered()) {
      if (++steps > 100000) throw std::runtime_error("transport stalled");
      ses.sim_s += kTickStepS;
      tick_all(ses, b);
    }
  } else {
    for (std::size_t p = 0; p < w_.group; ++p) {
      for (std::size_t a = 0; a < n_aps; ++a) {
        CsiPacket packet = input.packets[a][p];
        packet.timestamp_s =
            static_cast<double>(k * w_.group + p) * kPacketIntervalS;
        const double t0 = wall_now();
        if (p + 1 == w_.group && a + 1 == n_aps) t_last = t0;
        const AdmissionVerdict verdict =
            world_->dm->offer(ses.id, a, std::move(packet));
        if (timed) b->offer_s += wall_now() - t0;
        ++world_->offered;
        if (b != nullptr) ++b->packets;
        if (verdict.kind != AdmissionVerdict::Kind::kAccepted) {
          throw std::runtime_error("a packet was not admitted at full rate");
        }
      }
    }
  }

  const double t0 = wall_now();
  std::vector<LocationFix> fixes = world_->dm->pump(ses.id);
  const double t1 = wall_now();
  if (b != nullptr) {
    b->pump_s += t1 - t0;
    b->latency_ms.push_back((t1 - t_last) * 1e3);
  }
  if (fixes.size() != 1) {
    throw std::runtime_error("a closed-loop round returned " +
                             std::to_string(fixes.size()) + " fixes");
  }
  ++fixes_journaled_;
  record_fix(s, pool_index, input.truth, fixes.front(), b);
}

void Bench::record_fix(std::size_t s, std::size_t pool_index, Vec2 truth,
                       const LocationFix& fix, Bucket* b) {
  const Deployment& d = in_.deployment;
  constexpr double kSlack = 1e-6;
  const bool inside = std::isfinite(fix.raw.x) && std::isfinite(fix.raw.y) &&
                      fix.raw.x >= d.area_min.x - kSlack &&
                      fix.raw.x <= d.area_max.x + kSlack &&
                      fix.raw.y >= d.area_min.y - kSlack &&
                      fix.raw.y <= d.area_max.y + kSlack;
  op(inside, "fix outside the deployment area or not finite");
  if (in_crash_window_) {
    window_fixes_.emplace(
        std::make_pair(world_->sessions[s].id, fix.durable_round_index),
        FixBytes(fix));
    return;
  }
  if (b == nullptr) return;  // warm-up round

  const double err = std::hypot(fix.raw.x - truth.x, fix.raw.y - truth.y);
  errors_m_.push_back(err);
  fix_inputs_.emplace_back(s, pool_index);

  const LocalizationRound& r = fix.round;
  for (std::size_t i = 0; i < r.ap_results.size(); ++i) {
    const ApStage stage =
        i < r.ap_stages.size() ? r.ap_stages[i] : ApStage::kPrimary;
    if (stage > w_.entry) ++b->fallback_aps;
    const ApObservation& obs = r.ap_results[i].observation;
    if (!obs.has_aoa || stage == ApStage::kRssiOnly ||
        stage == ApStage::kFailed) {
      continue;
    }
    if (!d.plan.line_of_sight(obs.pose.position, truth)) continue;
    // The AoA a linear array can observe: the sine of the bearing off its
    // normal, toward the array axis (the normal turned counter-clockwise).
    const Vec2 dir = truth - obs.pose.position;
    const double len = std::hypot(dir.x, dir.y);
    const double axis_x = -std::sin(obs.pose.normal_rad);
    const double axis_y = std::cos(obs.pose.normal_rad);
    const double s_aoa =
        std::clamp((dir.x * axis_x + dir.y * axis_y) / len, -1.0, 1.0);
    aoa_errors_deg_.push_back(std::abs(obs.direct_aoa_rad - std::asin(s_aoa)) *
                              kRadToDeg);
  }
  ++b->fixes;
  for (std::size_t i = 0; i < kStagePhaseCount; ++i) {
    b->stage_s[i] += r.stage_breakdown.seconds[i];
  }
  b->numerics += r.numerics.total();
  b->workspace_peak = std::max(b->workspace_peak, r.workspace_peak_bytes);
}

void Bench::serve() {
  const std::size_t slices = opts_.trace ? 8 : 1;
  const double slice_len = opts_.seconds / static_cast<double>(slices);
  std::size_t slice = 0;
  std::size_t next = 0;
  std::size_t fixes = 0;
  tracing_ = false;
  double slice_t0 = wall_now();
  double slice_cpu0 = cpu_now();
  while (true) {
    Bucket* b = &buckets_[tracing_ ? 1 : 0];
    round(service_[next], b);
    next = (next + 1) % w_.sessions;
    ++fixes;
    if (w_.snapshot_every > 0 && fixes % w_.snapshot_every == 0) {
      const double t0 = wall_now();
      const auto snap = world_->dm->snapshot();
      const double dt = wall_now() - t0;
      if (!snap.has_value()) throw std::runtime_error("snapshot failed");
      b->snapshot_s += dt;
      b->snapshot_ms.push_back(dt * 1e3);
      std::error_code ec;
      const auto size = fs::file_size(snap.value(), ec);
      if (!ec) snapshot_kb_ = static_cast<double>(size) / 1024.0;
    }
    const double t = wall_now();
    const bool slice_done = t - slice_t0 >= slice_len;
    // Untraced runs end on whole walks of the target grid, so every target
    // weighs equally in the accuracy metrics, or at the time budget.
    const bool enough =
        opts_.trace || t - run_t0_ >= kServeBudgetS ||
        (buckets_[0].fixes >= w_.min_fixes &&
         buckets_[0].fixes % in_.deployment.targets.size() == 0);
    if (slice_done && (slice + 1 < slices || enough)) {
      b->wall_s += t - slice_t0;
      b->cpu_s += cpu_now() - slice_cpu0;
      if (++slice == slices) break;
      if (opts_.trace) tracing_ = !tracing_;
      slice_t0 = wall_now();
      slice_cpu0 = cpu_now();
    }
  }
  tracing_ = false;
  steering_built_ = SteeringTableCache::stats().misses;
  std::error_code ec;
  journal_bytes_ = fs::file_size(fs::path(world_->dir) / "journal.wal", ec);
  for (const Session& ses : world_->sessions) {
    queue_high_water_ = std::max(
        queue_high_water_,
        world_->dm->manager().session_stats(ses.id).queue_high_water);
  }
}

void Bench::drain_links() {
  for (Session& ses : world_->sessions) {
    std::size_t steps = 0;
    const auto quiet = [&ses] {
      for (const Uplink& up : ses.uplinks) {
        if (!up.sender->quiescent() || !up.receiver->quiescent()) return false;
      }
      return true;
    };
    while (!quiet()) {
      if (++steps > 100000) throw std::runtime_error("links never quiesced");
      ses.sim_s += 0.01;
      tick_all(ses, nullptr);
    }
  }
}

void Bench::check_exactly_once() {
  const SessionManager& m = world_->dm->manager();
  std::uint64_t accepted = 0;
  bool sessions_ok = true;
  for (const Session& ses : world_->sessions) {
    const SessionStats st = m.session_stats(ses.id);
    accepted += st.accepted;
    sessions_ok = sessions_ok && st.shed_packets == 0 &&
                  st.offered == st.accepted + st.shed_packets &&
                  st.rounds_shed == 0 && st.failed_rounds == 0;
  }
  op(sessions_ok, "session stats: shed or unpartitioned admissions");
  if (!w_.transport) {
    op(world_->offered == accepted, "offered packets != session accepted");
    return;
  }
  std::uint64_t delivered = 0;
  bool tx_ok = true;
  bool rx_ok = true;
  std::uint64_t reconnects = 0;
  for (const Session& ses : world_->sessions) {
    for (const Uplink& up : ses.uplinks) {
      const TransportStats tx = up.sender->stats();
      const TransportStats rx = up.receiver->stats();
      tx_ok = tx_ok && tx.sent == up.sent &&
              tx.sent == tx.acked + tx.pending + tx.failed && tx.failed == 0 &&
              tx.pending == 0;
      rx_ok = rx_ok && rx.received == rx.delivered + rx.duplicates +
                                          rx.out_of_window + rx.corrupt +
                                          rx.buffered;
      delivered += rx.delivered;
      reconnects += tx.reconnects;
      wire_frames_ += tx.transmissions;
      wire_packets_ += tx.sent;
    }
  }
  op(tx_ok, "sender stats: sent != acked + pending + failed, or failed > 0");
  op(rx_ok, "receiver stats: received does not partition");
  op(world_->decoded == delivered && delivered == accepted,
     "decoded records != transport deliveries != session accepted");
  op(reconnects >= 1, "the link outage never forced a reconnect");
}

void Bench::crash_window() {
  const auto snap = world_->dm->snapshot();
  if (!snap.has_value()) throw std::runtime_error("snapshot failed");
  // Journal appends per round: one per packet, one for the fix. The crash
  // tears the append of the middle packet of the window's last round.
  const std::size_t packets = in_.aps.size() * w_.group;
  const std::uint64_t nth =
      injector_.visits(CrashPoint::kJournalAppendTorn) +
      (w_.crash_window - 1) * (packets + 1) + packets / 2 + 1;
  injector_.arm(CrashPoint::kJournalAppendTorn, nth, opts_.seed);
  in_crash_window_ = true;
  bool crashed = false;
  try {
    for (std::size_t i = 0; i < w_.crash_window; ++i) {
      round(service_[i % w_.sessions], nullptr);
    }
  } catch (const CrashInjected&) {
    crashed = true;
  }
  in_crash_window_ = false;
  injector_.disarm();
  op(crashed, "the armed kill point was never reached");
  crashed_dir_ = world_->dir;
  world_.reset();  // the process is gone; only its files remain
  // Hand the freed heap back to the OS, as the crashed process's exit
  // would: recovery then starts from what a restarted process holds, and
  // peak RSS does not hinge on where the allocator left the freed blocks.
  malloc_trim(0);
  recovery_packets_ = (w_.crash_window - 1) * packets + packets / 2;
}

void Bench::recover_all() {
  const std::string& dir = crashed_dir_;
  const fs::path journal = fs::path(dir) / "journal.wal";
  // recover() only ever truncates the torn tail; keep the crashed tail
  // bytes so every repetition starts from the identical crashed files.
  const std::uint64_t size = fs::file_size(journal);
  const std::uint64_t keep = std::min<std::uint64_t>(size, 1 << 20);
  std::string tail(keep, '\0');
  {
    std::ifstream is(journal, std::ios::binary);
    is.seekg(static_cast<std::streamoff>(size - keep));
    is.read(tail.data(), static_cast<std::streamsize>(keep));
  }
  for (std::size_t r = 0; r < w_.recoveries; ++r) {
    SteeringTableCache::clear();  // a restarted process starts cold
    RecoveryReport report;
    const double t0 = wall_now();
    {
      DurableSessionManager dm(link_, manager_config(),
                               durability(dir, nullptr));
      report = dm.recover(config_of());
      const double dt = wall_now() - t0;
      recovery_s_.push_back(dt);
      replay_us_.push_back(
          ratio(dt * 1e6, static_cast<double>(report.packets_replayed)));
      if (r == 0) {
        recovery_wall_ = dt;
        for (const auto& [id, fix] : report.recovered_fixes) {
          recovery_stages_.merge(fix.round.stage_breakdown);
        }
      }
    }
    op(report.fix_mismatches == 0, "recover(): journaled fix digests differ");
    op(report.packets_replayed == recovery_packets_,
       "recover() replayed " + std::to_string(report.packets_replayed) +
           " packets, expected " + std::to_string(recovery_packets_));
    std::size_t matched = 0;
    bool identical = true;
    for (const auto& [id, fix] : report.recovered_fixes) {
      const auto it = window_fixes_.find({id, fix.durable_round_index});
      if (it == window_fixes_.end()) {
        identical = false;
        continue;
      }
      identical = identical && it->second.same_bytes(fix);
      ++matched;
    }
    op(identical && matched == window_fixes_.size() &&
           matched == w_.crash_window - 1,
       "re-emitted fixes are not byte-identical to the first incarnation's");

    std::error_code ec;
    fs::resize_file(journal, size - keep, ec);
    std::ofstream os(journal, std::ios::binary | std::ios::app);
    os.write(tail.data(), static_cast<std::streamsize>(keep));
    os.close();
    if (ec || fs::file_size(journal) != size) {
      throw std::runtime_error("could not restore the crashed journal");
    }
  }
}

void Bench::check_inputs() {
  op(in_.redrawn == w_.expected_redraws,
     std::to_string(in_.redrawn) + " captures redrawn, expected " +
         std::to_string(w_.expected_redraws) + ": the simulator's output moved");
  const QualityConfig quality = session_config(0).streaming.quality;
  std::size_t packets = 0;
  std::size_t dropped = 0;
  const auto screen = [&](const CsiPacket& p) {
    ++packets;
    if (!screen_packet(p, quality).ok) ++dropped;
  };
  for (const SessionInput& si : in_.sessions) {
    for (const std::string& stream : si.streams) {  // as the session sees it
      std::istringstream is(stream);
      for (const CsiPacket& p : read_trace(is).packets) screen(p);
    }
    for (const RoundInput& round : si.rounds) {
      for (const auto& group : round.packets) {
        for (const CsiPacket& p : group) screen(p);
      }
    }
  }
  for (const RoundInput& round : in_.crash_rounds) {
    for (const auto& group : round.packets) {
      for (const CsiPacket& p : group) screen(p);
    }
  }
  op(dropped == 0, "the packet screen drops " + std::to_string(dropped) +
                       " of " + std::to_string(packets) + " offered packets");
}

void Bench::check_rssi_premise() {
  ServerConfig cfg = session_config(0).streaming.server;
  cfg.num_threads = 1;
  cfg.ap.fallback.entry_stage = ApStage::kRssiOnly;
  const SpotFiServer server(link_, cfg);
  std::map<std::pair<std::size_t, std::size_t>, double> rssi_error;
  std::vector<double> rssi;
  Rng rng(1);  // the RSSI-only rung draws no random numbers
  for (const auto& key : fix_inputs_) {
    auto it = rssi_error.find(key);
    if (it == rssi_error.end()) {
      const RoundInput& input = in_.sessions[key.first].rounds[key.second];
      std::vector<ApCapture> caps(in_.aps.size());
      for (std::size_t a = 0; a < caps.size(); ++a) {
        caps[a].pose = in_.aps[a];
        caps[a].packets = input.packets[a];
      }
      const auto result = server.try_localize(caps, rng);
      double err = std::numeric_limits<double>::infinity();
      if (result.has_value()) {
        const Vec2 p = result.value().location.position;
        err = std::hypot(p.x - input.truth.x, p.y - input.truth.y);
      }
      it = rssi_error.emplace(key, err).first;
    }
    rssi.push_back(it->second);
  }
  const double music = quantile(errors_m_, 0.5);
  const double rssi_only = quantile(rssi, 0.5);
  std::printf("check: rssi-only median %.3f m vs %s median %.3f m\n",
              rssi_only, w_.name.c_str(), music);
  op(rssi_only > music, "RSSI-only is not worse than super-resolution");
}

int Bench::run() {
  run_t0_ = wall_now();
  in_ = make_inputs(w_, link_);
  // The seed orders the sessions within every round-robin cycle.
  Rng order_rng(opts_.seed);
  for (std::size_t s = 0; s < w_.sessions; ++s) service_.push_back(s);
  for (std::size_t i = service_.size(); i > 1; --i) {
    std::swap(service_[i - 1], service_[order_rng.uniform_index(i)]);
  }
  std::printf("workload %s: %zu sessions x %zu APs, %zu packets/group, "
              "rung %s, %zu lanes, %s, input %zu bytes, %zu captures "
              "redrawn past a deep fade\n",
              w_.name.c_str(), w_.sessions, in_.aps.size(), w_.group,
              to_string(w_.entry), w_.lanes,
              w_.transport ? "trace bytes -> lossy link -> ARQ"
                           : "direct offers",
              in_.bytes, in_.redrawn);
  check_inputs();
  if (wrong_) {  // a dropped packet would stall the closed loop
    print_result();
    return 1;
  }

  // -- setup (timed), repeated; the last world serves ------------------------
  for (std::size_t i = 0; i < w_.setups; ++i) {
    if (world_ != nullptr) {
      const std::string old = world_->dir;
      world_.reset();
      fs::remove_all(old);
    }
    const std::string dir = opts_.work_dir + "/incarnation-" +
                            std::to_string(i);
    fs::create_directories(dir);
    SteeringTableCache::clear();
    const double t0 = wall_now();
    world_ = build_world(dir);
    for (const std::size_t s : service_) round(s, nullptr);
    setup_s_.push_back(wall_now() - t0);
    fixes_journaled_ = w_.sessions;
    op(true, "setup");
  }
  const auto pool = world_->dm->manager().pool();
  const std::size_t lanes = pool ? pool->size() : 1;
  if (lanes != w_.lanes) {
    throw std::runtime_error("the manager resolved " + std::to_string(lanes) +
                             " lanes, expected " + std::to_string(w_.lanes));
  }

  // -- serve -------------------------------------------------------------------
  serve();
  op(opts_.trace || buckets_[0].fixes >= w_.min_fixes,
     "the serve phase hit its time budget at " +
         std::to_string(buckets_[0].fixes) + " fixes, short of " +
         std::to_string(w_.min_fixes),
     /*output_check=*/false);
  if (w_.transport) drain_links();
  check_exactly_once();

  // -- correctness of the outputs (outside the timed phases) -----------------
  const double err_median = quantile(errors_m_, 0.5);
  std::printf("check: %zu fixes, median error %.3f m (ceiling %.2f m)\n",
              errors_m_.size(), err_median, w_.error_ceiling_m);
  op(err_median < w_.error_ceiling_m,
     "median localization error above the paper-derived ceiling");
  if (w_.entry != ApStage::kRssiOnly) {
    const double aoa = quantile(aoa_errors_deg_, 0.5);
    std::printf("check: %zu line-of-sight AoA estimates, median error %.2f "
                "deg (ceiling 10)\n",
                aoa_errors_deg_.size(), aoa);
    op(!aoa_errors_deg_.empty() && aoa < 10.0,
       "line-of-sight AoA median error above 10 deg");
  }
  if (w_.rssi_premise) check_rssi_premise();

  // -- crash and recover -----------------------------------------------------
  crash_window();
  recover_all();
  fs::remove_all(opts_.work_dir);

  print_result();
  return wrong_ ? 1 : 0;
}

void Bench::print_result() {
  const Bucket& u = buckets_[0];
  const Bucket& t = buckets_[1];
  const double lanes = static_cast<double>(w_.lanes);
  std::vector<std::pair<std::string, std::pair<double, const char*>>> m;
  const auto put = [&m](const char* name, double value, const char* unit) {
    m.emplace_back(name, std::make_pair(value, unit));
  };

  if (!opts_.trace) {
    const std::size_t n = u.latency_ms.size();
    const double p90 = quantile(u.latency_ms, 0.9);
    const auto above = static_cast<std::size_t>(
        std::count_if(u.latency_ms.begin(), u.latency_ms.end(),
                      [p90](double v) { return v > p90; }));
    std::printf("latency samples: %zu (%zu above p90)\n", n, above);
    put("fixes_per_s", ratio(static_cast<double>(u.fixes), u.wall_s), "1/s");
    put("fix_latency_p50_ms", quantile(u.latency_ms, 0.5), "ms");
    put("fix_latency_p90_ms", p90, "ms");
    put("cpu_ms_per_fix", ratio(u.cpu_s * 1e3, static_cast<double>(u.fixes)),
        "ms");
    put("recovery_s", quantile(recovery_s_, 0.5), "s");
    put("setup_s", quantile(setup_s_, 0.5), "s");
    put("peak_rss_mb", peak_rss_mib(), "MiB");
    put("loc_error_median_m", quantile(errors_m_, 0.5), "m");
    put("loc_error_p80_m", quantile(errors_m_, 0.8), "m");
  } else {
    const double fixes = static_cast<double>(t.fixes);
    const double stages = [&t] {
      double s = 0.0;
      for (const double v : t.stage_s) s += v;
      return s;
    }();
    const double admit_s = w_.transport ? t.sink_s : t.offer_s;
    put("csi.decode_us_per_packet",
        ratio(t.decode_s * 1e6, static_cast<double>(t.packets)), "us");
    put("transport.send_us_per_packet",
        ratio(t.send_s * 1e6, static_cast<double>(t.packets)), "us");
    put("transport.tick_self_ms_per_fix",
        ratio((t.tick_s - t.sink_s) * 1e3, fixes), "ms");
    put("transport.wire_frames_per_packet",
        ratio(static_cast<double>(wire_frames_),
              static_cast<double>(wire_packets_)),
        "ratio");
    put("core.admit_us_per_packet",
        ratio(admit_s * 1e6, static_cast<double>(t.packets)), "us");
    put("core.pump_ms_per_fix", ratio(t.pump_s * 1e3, fixes), "ms");
    put("core.pump_self_ms_per_fix",
        ratio((t.pump_s - stages / lanes) * 1e3, fixes), "ms");
    put("core.queue_high_water", static_cast<double>(queue_high_water_),
        "count");
    put("core.fallback_aps", static_cast<double>(t.fallback_aps), "count");
    static constexpr std::array<const char*, kStagePhaseCount> kStageNames = {
        "pipeline.sanitize_ms_per_fix", "pipeline.subspace_ms_per_fix",
        "pipeline.spectrum_ms_per_fix", "pipeline.cluster_ms_per_fix",
        "pipeline.localize_ms_per_fix"};
    for (std::size_t i = 0; i < kStagePhaseCount; ++i) {
      put(kStageNames[i], ratio(t.stage_s[i] * 1e3, fixes), "ms");
    }
    put("pipeline.workspace_peak_kb",
        static_cast<double>(t.workspace_peak) / 1024.0, "KiB");
    put("pipeline.aoa_error_median_deg", quantile(aoa_errors_deg_, 0.5),
        "deg");
    put("linalg.numerics_fallbacks", static_cast<double>(t.numerics),
        "count");
    put("common.lane_busy_ratio", ratio(t.cpu_s, t.wall_s * lanes), "ratio");
    put("music.steering_tables_built", static_cast<double>(steering_built_),
        "count");
    put("durability.journal_bytes_per_fix",
        ratio(static_cast<double>(journal_bytes_),
              static_cast<double>(fixes_journaled_)),
        "B");
    put("durability.snapshot_ms", quantile(t.snapshot_ms, 0.5), "ms");
    put("durability.snapshot_kb", snapshot_kb_, "KiB");
    put("durability.replay_us_per_packet", quantile(replay_us_, 0.5), "us");

    // Self time of each layer as a share of the traced serve wall time.
    // Pipeline stages are summed over lanes, so with several lanes the
    // shares can add up past 100%.
    const double wall = t.wall_s;
    const auto share = [wall](const char* layer, double secs) {
      std::printf("layer-share serve %-22s %6.2f%%\n", layer,
                  100.0 * ratio(secs, wall));
    };
    double accounted = 0.0;
    const auto layer = [&](const char* name, double secs) {
      share(name, secs);
      accounted += secs;
    };
    layer("csi.decode", t.decode_s);
    layer("transport.send", t.send_s);
    layer("transport.tick(self)", t.tick_s - t.sink_s);
    layer("core.admit", admit_s);
    layer("core.pump(self)", t.pump_s - stages / lanes);
    static constexpr std::array<const char*, kStagePhaseCount> kLayers = {
        "pipeline.sanitize", "pipeline.subspace", "pipeline.spectrum",
        "pipeline.cluster", "pipeline.localize"};
    for (std::size_t i = 0; i < kStagePhaseCount; ++i) {
      layer(kLayers[i], t.stage_s[i] / lanes);
    }
    layer("durability.snapshot", t.snapshot_s);
    share("benchmark(rest)", wall - accounted);
    double replay_stages = 0.0;
    for (std::size_t i = 0; i < kStagePhaseCount; ++i) {
      std::printf("layer-share recovery %-19s %6.2f%%\n", kLayers[i],
                  100.0 * ratio(recovery_stages_.seconds[i] / lanes,
                                recovery_wall_));
      replay_stages += recovery_stages_.seconds[i] / lanes;
    }
    std::printf("layer-share recovery %-19s %6.2f%%\n",
                "durability(rest)",
                100.0 * ratio(recovery_wall_ - replay_stages, recovery_wall_));
    const double fps_u = ratio(static_cast<double>(u.fixes), u.wall_s);
    const double fps_t = ratio(static_cast<double>(t.fixes), t.wall_s);
    std::printf("trace overhead: fixes_per_s traced %.4f vs untraced %.4f "
                "(%.2f%% slower)\n",
                fps_t, fps_u, 100.0 * (1.0 - ratio(fps_t, fps_u)));
  }

  for (const std::string& f : failures_) std::printf("FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              wrong_ ? "false" : "true",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m[i].first.c_str(), m[i].second.first,
                m[i].second.second);
  }
  std::printf("}}\n");
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    const auto v = value();
    if (!v.has_value()) return std::nullopt;
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = *v;
    } else if (arg == "--work-dir") {
      o.work_dir = *v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v->c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v->c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) return std::nullopt;
    } else if (arg == "--trace") {
      if (*v != "0" && *v != "1") return std::nullopt;
      o.trace = *v == "1";
    } else {
      return std::nullopt;
    }
  }
  if (o.workload.empty() || o.work_dir.empty()) return std::nullopt;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse(argc, argv);
  if (!opts.has_value()) {
    std::fprintf(stderr,
                 "usage: %s --workload <office_music|fleet_rssi|"
                 "recover_esprit> --seed <n> --seconds <s> --trace <0|1> "
                 "--work-dir <dir> [--smoke]\n",
                 argv[0]);
    return 2;
  }
  auto spec = workload_spec(opts->workload, opts->smoke);
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", opts->workload.c_str());
    return 2;
  }
  if (std::getenv("SPOTFI_THREADS") != nullptr) {
    std::fprintf(stderr, "SPOTFI_THREADS is set; it would override the "
                         "workload's pinned lane count\n");
    return 2;
  }
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const std::size_t cores =
      sched_getaffinity(0, sizeof(affinity), &affinity) == 0
          ? static_cast<std::size_t>(CPU_COUNT(&affinity))
          : 1;
  if (cores < spec->lanes) {
    std::fprintf(stderr, "%zu usable cores, but %s pins %zu lanes\n", cores,
                 spec->name.c_str(), spec->lanes);
    return 2;
  }
  std::printf("context: compiler=\"%s\" build_type=%s cores=%zu seed=%llu "
              "lanes=%zu trace=%d smoke=%d\n",
              SERVEBENCH_COMPILER, SERVEBENCH_BUILD_TYPE, cores,
              static_cast<unsigned long long>(opts->seed), spec->lanes,
              opts->trace ? 1 : 0, opts->smoke ? 1 : 0);
  try {
    Bench bench(*opts, *spec);
    return bench.run();
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 3;
  }
}
