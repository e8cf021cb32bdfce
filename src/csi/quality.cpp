#include "csi/quality.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stats.hpp"

namespace spotfi {
namespace {

/// Total CSI power of a packet in dB (arbitrary reference).
double packet_power_db(const CsiPacket& packet) {
  double p = 0.0;
  for (const auto& v : packet.csi.flat()) p += std::norm(v);
  return 10.0 * std::log10(std::max(p, 1e-300));
}

}  // namespace

QualityVerdict screen_packet(const CsiPacket& packet,
                             const QualityConfig& config) {
  if (packet.csi.empty()) return {false, "empty CSI matrix"};

  if (config.check_finite) {
    for (const auto& v : packet.csi.flat()) {
      if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
        return {false, "non-finite CSI entry"};
      }
    }
    if (!std::isfinite(packet.rssi_dbm)) return {false, "non-finite RSSI"};
  }

  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t m = 0; m < packet.csi.rows(); ++m) {
    double p = 0.0;
    for (const auto& v : packet.csi.row(m)) p += std::norm(v);
    if (config.check_dead_antenna && p < config.dead_antenna_floor) {
      return {false, "dead antenna row " + std::to_string(m)};
    }
    const double p_db = 10.0 * std::log10(std::max(p, 1e-300));
    lo = std::min(lo, p_db);
    hi = std::max(hi, p_db);
  }
  if (hi - lo > config.max_antenna_imbalance_db) {
    return {false, "antenna power imbalance"};
  }
  return {};
}

std::size_t screen_group(std::span<const CsiPacket> packets,
                         std::span<bool> accepted, const QualityConfig& config,
                         std::vector<std::string>* rejected) {
  SPOTFI_EXPECTS(accepted.size() == packets.size(),
                 "screen_group needs one verdict slot per packet");
  if (packets.empty()) return 0;

  // Group power reference: median of the per-packet powers.
  std::vector<double> powers;
  powers.reserve(packets.size());
  for (const auto& p : packets) powers.push_back(packet_power_db(p));
  const double reference = median(powers);

  std::size_t kept = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    QualityVerdict verdict = screen_packet(packets[i], config);
    if (verdict.ok &&
        std::abs(powers[i] - reference) > config.max_power_jump_db) {
      verdict = {false, "power jump vs group median"};
    }
    accepted[i] = verdict.ok;
    if (verdict.ok) {
      ++kept;
    } else if (rejected != nullptr) {
      rejected->push_back("packet " + std::to_string(i) + ": " +
                          verdict.reason);
    }
  }
  return kept;
}

}  // namespace spotfi
