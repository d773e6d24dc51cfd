/// \file catalog.h
/// Shared, versioned datasets served to concurrent client sessions.
///
/// A Dataset is an append-only collection of StreamEvents behind a
/// SnapshotRegistry: Ingest() appends a batch, rebuilds the packed R-tree
/// over the full collection *off to the side*, and publishes the result as
/// a new epoch, while in-flight readers keep querying the epoch they
/// pinned. Readers see a DatasetSnapshot — an immutable {version, events,
/// tree} triple whose internal consistency can be checked cheaply (the
/// torn-swap detector of the TSan hammer test).
#ifndef STARK_SERVE_CATALOG_H_
#define STARK_SERVE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/status.h"
#include "core/columnar.h"
#include "index/packed_rtree.h"
#include "serve/snapshot_registry.h"
#include "stream/event.h"

namespace stark {
namespace serve {

/// \brief One immutable published version of a dataset.
///
/// `tree` indexes every event by its envelope; payloads are indices into
/// `events`, so the slab is shared rather than copied into the tree.
struct DatasetSnapshot {
  /// Ingest generation: how many Ingest() batches this version includes.
  uint64_t version = 0;
  std::shared_ptr<const std::vector<stream::StreamEvent>> events;
  std::shared_ptr<const PackedRTree<uint32_t>> tree;
  /// Point slabs of this epoch's events (never null; built on the first
  /// spatial FILTER and shared by every later reader of the epoch). Not
  /// part of the torn-swap consistency contract.
  std::shared_ptr<PointSlabSlot> columnar = std::make_shared<PointSlabSlot>();

  /// Internal-consistency check used by the snapshot hammer test: a torn
  /// publication (events from one version, tree from another) trips this.
  bool Consistent() const {
    return events != nullptr && tree != nullptr &&
           tree->size() == events->size();
  }
};

using DatasetRegistry = SnapshotRegistry<DatasetSnapshot>;
using PinnedDataset = PinnedSnapshot<DatasetSnapshot>;

/// \brief Name -> dataset map shared by the ingestion thread(s) and every
/// serving session. Create/ingest/pin are thread-safe.
class Catalog {
 public:
  Catalog() = default;
  STARK_DISALLOW_COPY_AND_ASSIGN(Catalog);

  /// Registers an empty dataset (idempotent; \p order is the packed R-tree
  /// fan-out for its snapshots). An initial empty epoch is published so
  /// readers always find something to pin.
  Status CreateDataset(const std::string& name, size_t order = 16);

  /// Appends \p batch and publishes a new snapshot (one epoch per call).
  /// Returns the new epoch id. Ingest calls for one dataset serialize;
  /// readers are never blocked by an in-progress rebuild.
  Result<uint64_t> Ingest(const std::string& name,
                          std::vector<stream::StreamEvent> batch);

  /// Pins the newest snapshot of \p name for reading.
  Result<PinnedDataset> Pin(const std::string& name);

  /// The dataset's registry (for epoch accounting in tests/benches).
  Result<DatasetRegistry*> Registry(const std::string& name);

  std::vector<std::string> ListDatasets() const;

 private:
  struct Dataset {
    size_t order = 16;
    /// Serializes ingests; snapshots are built under this, published into
    /// the registry, and never mutated after.
    std::mutex ingest_mu;
    std::vector<stream::StreamEvent> all_events;  // guarded by ingest_mu
    uint64_t version = 0;                         // guarded by ingest_mu
    DatasetRegistry registry;
  };

  Result<Dataset*> Find(const std::string& name) const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Dataset>> datasets_;
};

/// Builds the immutable snapshot for \p events (shared by Catalog::Ingest
/// and the serial-verification path of tests/benches: both must produce
/// identical trees for the differential check to be exact).
DatasetSnapshot BuildSnapshot(uint64_t version,
                              std::vector<stream::StreamEvent> events,
                              size_t order);

}  // namespace serve
}  // namespace stark

#endif  // STARK_SERVE_CATALOG_H_
