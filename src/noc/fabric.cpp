#include "sccpipe/noc/fabric.hpp"

#include <utility>

#include "sccpipe/support/check.hpp"

namespace sccpipe {

SiteFabric::SiteFabric(Simulator& sim, const MeshLayout& layout,
                       SimTime hop_latency)
    : sim_(sim), topo_(layout), hop_latency_(hop_latency) {
  SCCPIPE_CHECK_MSG(hop_latency > SimTime::zero(),
                    "fabric needs a positive hop latency");
  bridge_ = topo_.tile_at(TileCoord{0, layout.height - 1});
  site_counter_.assign(static_cast<std::size_t>(topo_.tile_count()), 0);
}

SimTime SiteFabric::transit(TileId from, TileId to) const {
  return hop_latency_ *
         static_cast<double>(
             topo_.hop_distance(topo_.coord_of(from), topo_.coord_of(to)));
}

std::uint64_t SiteFabric::next_rank(TileId from_site) {
  std::uint64_t& counter = site_counter_[static_cast<std::size_t>(from_site)];
  // Counter-major: at equal delivery times, earlier posts from any one
  // site precede later ones, and ties across sites break by site id.
  return counter++ * static_cast<std::uint64_t>(topo_.tile_count()) +
         static_cast<std::uint64_t>(from_site);
}

void SiteFabric::dispatch(TileId site, SimTime when, FabricCallback fn) {
  const std::uint64_t rank = next_rank(current_site());
  sim_.schedule_at_ranked(when, rank, [this, site, f = std::move(fn)]() mutable {
    const TileId prev = site_;
    site_ = site;
    f();
    site_ = prev;
  });
}

void SiteFabric::hop(TileId to, FabricCallback fn) {
  dispatch(to, sim_.now() + transit(current_site(), to), std::move(fn));
}

void SiteFabric::post_at(TileId to, SimTime when, FabricCallback fn) {
  SCCPIPE_CHECK_MSG(when >= sim_.now() + transit(current_site(), to),
                    "post_at(" << when.to_string()
                               << ") undercuts the transit time from site "
                               << current_site() << " to " << to);
  dispatch(to, when, std::move(fn));
}

void SiteFabric::after(SimTime delay, FabricCallback fn) {
  dispatch(current_site(), sim_.now() + delay, std::move(fn));
}

}  // namespace sccpipe
