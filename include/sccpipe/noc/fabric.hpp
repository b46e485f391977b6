#pragma once

/// \file fabric.hpp
/// Located event posts: the timing model of work that happens *at* a mesh
/// site (a tile) rather than at the host.
///
/// The walkthrough attaches a SiteFabric to the chip (scc/chip.hpp) and
/// the memory system (mem/memory.hpp), which turns each timed primitive
/// into a chain of located events: "run this at tile T" becomes a ranked
/// post on the run's one Simulator, delayed by the calibrated transit time
///
///   transit(a, b) = hop_latency * hop_distance(a, b)
///
/// so every chain leg pays the simulated mesh latency between the site it
/// leaves and the site it reaches. Posts carry a topology rank derived from
/// (source site's post counter, source site): at equal delivery times
/// ranked posts dispatch before unranked host events, and among themselves
/// by rank. Both the delays and the ranks are part of the timing model the
/// published CSVs were produced with.
///
/// The *current site* tracks which tile the executing event belongs to;
/// code that runs outside any fabric-dispatched callback (host-side control
/// logic, setup, collection) executes at the bridge site, the tile the host
/// PCIe link attaches to.

#include <cstdint>
#include <vector>

#include "sccpipe/noc/topology.hpp"
#include "sccpipe/sim/callback.hpp"
#include "sccpipe/sim/simulator.hpp"
#include "sccpipe/support/time.hpp"

namespace sccpipe {

class SiteFabric {
 public:
  /// Posts onto \p sim (which must outlive the fabric) for a mesh of shape
  /// \p layout with \p hop_latency per router hop (must be positive).
  SiteFabric(Simulator& sim, const MeshLayout& layout, SimTime hop_latency);
  SiteFabric(const SiteFabric&) = delete;
  SiteFabric& operator=(const SiteFabric&) = delete;

  /// The tile the host link attaches to (south-west corner router). Events
  /// not dispatched by the fabric — host control logic, setup, collection —
  /// execute here.
  TileId bridge_site() const { return bridge_; }

  /// Site of the executing fabric-dispatched event, or bridge_site() when
  /// outside any fabric-dispatched callback.
  TileId current_site() const { return site_ >= 0 ? site_ : bridge_; }

  /// Calibrated transit delay between two sites: hop_latency x Manhattan
  /// router hops (zero for a == b).
  SimTime transit(TileId from, TileId to) const;

  /// Run \p fn at site \p to, at now + transit(current_site(), to).
  void hop(TileId to, FabricCallback fn);

  /// Run \p fn at site \p to at the explicit instant \p when, which must
  /// be >= now + transit(current_site(), to) — for deferred admissions
  /// (e.g. a fault window's admit-at time).
  void post_at(TileId to, SimTime when, FabricCallback fn);

  /// Run \p fn \p delay later at the *current* site (no mesh crossing).
  void after(SimTime delay, FabricCallback fn);

 private:
  std::uint64_t next_rank(TileId from_site);
  void dispatch(TileId site, SimTime when, FabricCallback fn);

  Simulator& sim_;
  MeshTopology topo_;
  SimTime hop_latency_;
  TileId bridge_ = 0;
  TileId site_ = -1;  ///< site of the executing located event; -1 = none
  /// Per-site monotone post counters feeding next_rank().
  std::vector<std::uint64_t> site_counter_;
};

}  // namespace sccpipe
