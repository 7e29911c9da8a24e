// Multi-vantage federation: N sensors, one merged view.
//
// The paper's cross-vantage observation (final vs ccTLD vs root
// authorities, its JP/B/M datasets) becomes a real distributed
// computation here: each vantage (or each originator shard of one busy
// vantage) runs its own Sensor, exports a compact state snapshot, and a
// coordinator imports and merges them.  Merging reuses the same
// merge_from machinery the sharded ingest path trusts, so:
//
//   * originator-disjoint splits (the canonical federation_shard()
//     partition used by `dnsbs_cli export-state --shards N`) merge
//     byte-identically to one sensor having seen the whole stream —
//     per-originator state moves wholesale, preserving flat-container
//     layout and therefore every feature bit;
//   * overlapping splits (per-authority) combine losslessly in exact
//     mode and with bounded error in sketch mode (register max-merge,
//     see util/hll.hpp).
//
// The state file embeds the full sensor config; import refuses a
// mismatch rather than silently merging incompatible windows.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/sensor.hpp"

namespace dnsbs::core {

inline constexpr std::uint32_t kFederationMagic = 0x53424e44;  // "DNBS" little-endian
/// v2: aggregates no longer carry a modification stamp.
inline constexpr std::uint32_t kFederationVersion = 2;

/// Canonical shard assignment for an originator: every record of one
/// originator — hence one dedup (querier, originator) pair — lands in
/// exactly one shard, which is what makes the merged result byte-identical
/// to a single-sensor run.
inline std::size_t federation_shard(net::IPv4Addr originator, std::size_t shards) {
  return std::hash<net::IPv4Addr>{}(originator) % shards;
}

/// Writes a transferable snapshot of one sensor's window state: a header
/// (magic, version, full config echo) followed by Sensor::save_state.
void export_sensor_state(const Sensor& sensor, util::BinaryWriter& out);

/// Verifies the header against `into`'s config, then loads and merges the
/// state.  Returns false (leaving `into` untouched) on magic/version/
/// config mismatch or a corrupt stream.
bool import_sensor_state(util::BinaryReader& in, Sensor& into);

/// N per-shard sensors behind one ingest surface — the in-process
/// coordinator.  Records route by federation_shard(originator); bulk
/// batches ingest per-shard on the PR 1 thread pool.  After merge_into()
/// the pool is spent (shard state has been moved out).
class FederatedSensorPool {
 public:
  FederatedSensorPool(std::size_t shards, const SensorConfig& config,
                      const netdb::AsDb& as_db, const netdb::GeoDb& geo_db,
                      const QuerierResolver& resolver);

  std::size_t shard_count() const noexcept { return sensors_.size(); }
  Sensor& shard(std::size_t i) noexcept { return *sensors_[i]; }
  const Sensor& shard(std::size_t i) const noexcept { return *sensors_[i]; }

  /// Streaming intake: routes one record to its originator's shard.
  void offer(const dns::QueryRecord& record) {
    sensors_[federation_shard(record.originator, sensors_.size())]->ingest(record);
  }

  /// Bulk intake: partitions by originator shard, then every shard sensor
  /// ingests its slice on the thread pool (shard sensors are configured
  /// single-threaded; the parallelism is across shards).
  void ingest_all(std::span<const dns::QueryRecord> records);

  /// Merges every shard's window state into `coordinator` in shard order,
  /// reserving the coordinator's tables from the summed source sizes up
  /// front.  Shards are left empty.
  void merge_into(Sensor& coordinator);

 private:
  std::size_t threads_;
  std::vector<std::unique_ptr<Sensor>> sensors_;
};

}  // namespace dnsbs::core
