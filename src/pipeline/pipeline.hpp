// Pull-based composition of the per-AP estimation stages.
//
// EstimationPipeline owns no stage and no data: it borrows a stage set
// (sanitize + packet-estimate + cluster + direct-path) and pulls
// packets from a PacketSource, fanning the per-packet stages out over
// an optional ThreadPool exactly like the former monolithic
// ApProcessor loop — slotted by index, folded in packet order, so the
// result is byte-identical at any thread count.
//
// The pull boundary is what enables cross-session batching: the
// SessionManager gathers co-scheduled tenants' groups and runs them
// back-to-back through pipelines sharing one pool and its lane arenas,
// so steering tables (interned in SteeringTableCache) and warmed
// arenas amortize across sessions instead of per-tenant copies.
#pragma once

#include <span>
#include <vector>

#include "channel/csi_synthesis.hpp"
#include "pipeline/stages.hpp"

namespace spotfi {

class ThreadPool;

/// Everything the per-AP stage pipeline produces; the server consumes
/// `observation`, the diagnostics and benches use the rest.
struct ApResult {
  /// Clusters sorted by likelihood (descending).
  std::vector<ClusterSummary> clusters;
  /// Pooled per-packet estimates (Fig. 5(c) scatter).
  std::vector<PathEstimate> pooled_estimates;
  /// The selected direct path as a fusion-ready observation.
  ApObservation observation;
};

/// Pull source of a packet group. next() hands out packets until
/// exhausted (then nullptr); remaining() sizes the fan-out up front.
class PacketSource {
 public:
  virtual ~PacketSource() = default;
  [[nodiscard]] virtual const CsiPacket* next() = 0;
  [[nodiscard]] virtual std::size_t remaining() const = 0;
};

/// A group screened in place: hands out, in order, the packets of the
/// caller's span whose `keep` flag is set (csi/quality.hpp's
/// screen_group verdicts) without copying any of them.
class ScreenedPacketSource final : public PacketSource {
 public:
  ScreenedPacketSource(std::span<const CsiPacket> packets,
                       std::span<const bool> keep)
      : packets_(packets), keep_(keep) {
    SPOTFI_EXPECTS(keep_.size() == packets_.size(),
                   "one keep flag per packet");
    for (const bool k : keep_) left_ += k ? 1 : 0;
  }

  [[nodiscard]] const CsiPacket* next() override {
    while (i_ < packets_.size() && !keep_[i_]) ++i_;
    if (i_ == packets_.size()) return nullptr;
    --left_;
    return &packets_[i_++];
  }
  [[nodiscard]] std::size_t remaining() const override { return left_; }

 private:
  std::span<const CsiPacket> packets_;
  std::span<const bool> keep_;
  std::size_t i_ = 0;
  std::size_t left_ = 0;
};

/// Composes sanitize -> estimate (per packet, fanned out) -> pool ->
/// cluster -> direct-path for one packet group. Which PacketEstimateStage
/// is plugged in IS the fidelity decision — the fallback/shed ladder
/// substitutes stages here instead of branching in the orchestration.
class EstimationPipeline {
 public:
  /// Borrowed stages; every pointer must outlive the pipeline and be
  /// non-null.
  struct Stages {
    const SanitizeStage* sanitize = nullptr;
    const PacketEstimateStage* estimate = nullptr;
    const ClusterStage* cluster = nullptr;
    const DirectPathStage* direct_path = nullptr;
  };

  /// `pool` is the optional per-packet fan-out engine (nullptr =
  /// serial); nested dispatch from a pool worker runs inline.
  explicit EstimationPipeline(Stages stages, ThreadPool* pool = nullptr)
      : stages_(stages), pool_(pool) {}

  /// Runs one group pulled from `source`. The caller's ctx supplies the
  /// group Rng (consumed only by the cluster stage, exactly once), the
  /// optional telemetry sink, and the deadline; workspaces are managed
  /// internally (each packet runs on its executing thread's lane
  /// arena). `ws_peak_out` (when set) receives the largest single-frame
  /// footprint of the group. Requires a non-empty source; throws when
  /// estimation produces no path estimates.
  [[nodiscard]] ApResult run_group(StageContext& ctx, PacketSource& source,
                                   const ArrayPose& pose,
                                   std::size_t* ws_peak_out = nullptr) const;

  [[nodiscard]] const Stages& stages() const { return stages_; }
  [[nodiscard]] ThreadPool* pool() const { return pool_; }

 private:
  Stages stages_;
  ThreadPool* pool_;
};

}  // namespace spotfi
