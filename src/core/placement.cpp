#include "sccpipe/core/placement.hpp"

#include <algorithm>

#include "sccpipe/support/args.hpp"
#include "sccpipe/support/check.hpp"

namespace sccpipe {

const char* arrangement_name(Arrangement a) {
  switch (a) {
    case Arrangement::Unordered: return "unordered";
    case Arrangement::Ordered: return "ordered";
    case Arrangement::Flipped: return "flipped";
  }
  return "?";
}

Status parse_arrangement(const std::string& text, Arrangement* out) {
  return parse_choice<Arrangement>(text,
                                   {{"unordered", Arrangement::Unordered},
                                    {"ordered", Arrangement::Ordered},
                                    {"flipped", Arrangement::Flipped}},
                                   "arrangement", out);
}

std::vector<CoreId> Placement::all_cores() const {
  std::vector<CoreId> cores;
  for (const auto& pl : pipeline_cores) {
    cores.insert(cores.end(), pl.begin(), pl.end());
  }
  if (producer >= 0) cores.push_back(producer);
  if (transfer >= 0) cores.push_back(transfer);
  std::sort(cores.begin(), cores.end());
  SCCPIPE_CHECK_MSG(std::adjacent_find(cores.begin(), cores.end()) ==
                        cores.end(),
                    "placement assigned a core twice");
  return cores;
}

namespace {

/// Cores of one grid row, west to east (both cores of each tile).
std::vector<CoreId> row_cores(const MeshTopology& topo, int row) {
  std::vector<CoreId> cores;
  const int cpt = topo.layout().cores_per_tile;
  for (int x = 0; x < topo.layout().width; ++x) {
    const TileId t = topo.tile_at(TileCoord{x, row});
    for (int c = 0; c < cpt; ++c) cores.push_back(t * cpt + c);
  }
  return cores;
}

/// Row "slots": consecutive groups of slot_size cores within a row. Slot s
/// lives in row s % height, segment s / height.
std::vector<std::vector<CoreId>> make_slots(const MeshTopology& topo,
                                            int slot_size) {
  std::vector<std::vector<CoreId>> slots;
  const int height = topo.layout().height;
  const int per_row =
      topo.layout().width * topo.layout().cores_per_tile / slot_size;
  for (int seg = 0; seg < per_row; ++seg) {
    for (int row = 0; row < height; ++row) {
      const auto rc = row_cores(topo, row);
      std::vector<CoreId> slot(
          rc.begin() + static_cast<std::ptrdiff_t>(seg) * slot_size,
          rc.begin() + static_cast<std::ptrdiff_t>(seg + 1) * slot_size);
      slots.push_back(std::move(slot));
    }
  }
  return slots;
}

/// Cores of the unordered walk in plain id order: producer, pipelines back
/// to back, transfer. Core ids are not bounds-checked here; \p used returns
/// how many cores the walk consumed (skipped blur-tile siblings included).
Placement place_unordered(int cpt, const PlacementRequest& req, int* used) {
  Placement out;
  out.pipeline_cores.resize(static_cast<std::size_t>(req.pipelines));
  CoreId next = 0;
  if (req.needs_producer) out.producer = next++;
  for (int p = 0; p < req.pipelines; ++p) {
    auto& cores = out.pipeline_cores[static_cast<std::size_t>(p)];
    for (int s = 0; s < req.stages_per_pipeline; ++s) {
      if (req.isolate_blur_tile && s == req.stages_per_pipeline - 4) {
        // Blur (second filter stage): skip to the next empty tile and
        // reserve it whole.
        while (next % cpt != 0) ++next;
        cores.push_back(next++);
        while (next % cpt != 0) ++next;  // leave the tile's sibling idle
        continue;
      }
      cores.push_back(next++);
    }
  }
  out.transfer = next++;
  *used = next;
  return out;
}

}  // namespace

Status placement_fit(const MeshTopology& topo, Arrangement arrangement,
                     const PlacementRequest& req) {
  const int cores = topo.core_count();
  const int row = topo.layout().width * topo.layout().cores_per_tile;
  const int slot = req.stages_per_pipeline + (req.isolate_blur_tile ? 1 : 0);
  const int slots =
      slot < 1 || slot > row ? 0 : row / slot * topo.layout().height;
  int used = 0;
  std::string why;
  if (req.pipelines < 1 || req.stages_per_pipeline < 1) {
    why = "a placement needs at least one pipeline of one stage";
  } else if (static_cast<long long>(req.pipelines) * req.stages_per_pipeline >
             cores) {  // checked first: the walk below is sized by it
    why = "more stages than the chip's " + std::to_string(cores) + " cores";
  } else if (arrangement == Arrangement::Unordered) {
    place_unordered(topo.layout().cores_per_tile, req, &used);
    if (used > cores) {
      why = "needs " + std::to_string(used) + " of the chip's " +
            std::to_string(cores) + " cores";
    }
  } else if (req.pipelines + 1 > slots) {
    // One row slot per pipeline plus one for the producer and transfer.
    why = "needs " + std::to_string(req.pipelines + 1) + " row slots of " +
          std::to_string(slot) + " cores, the chip has " +
          std::to_string(slots);
  }
  return why.empty() ? Status() : Status(StatusCode::InvalidArgument, why);
}

Placement make_placement(const MeshTopology& topo, Arrangement arrangement,
                         const PlacementRequest& req) {
  const Status fit = placement_fit(topo, arrangement, req);
  SCCPIPE_CHECK_MSG(fit.ok(), fit.message());
  const int cpt = topo.layout().cores_per_tile;

  if (arrangement == Arrangement::Unordered) {
    int used = 0;
    Placement out = place_unordered(cpt, req, &used);
    for (CoreId c = used; c < topo.core_count(); ++c) {
      out.spare_cores.push_back(c);
    }
    return out;
  }

  Placement out;
  out.pipeline_cores.resize(static_cast<std::size_t>(req.pipelines));
  // Ordered / flipped: one pipeline per row slot.
  auto slots = make_slots(
      topo, req.stages_per_pipeline + (req.isolate_blur_tile ? 1 : 0));

  for (int p = 0; p < req.pipelines; ++p) {
    std::vector<CoreId> slot = slots[static_cast<std::size_t>(p)];
    if (arrangement == Arrangement::Flipped && (p % 2) == 1) {
      std::reverse(slot.begin(), slot.end());
    }
    auto& cores = out.pipeline_cores[static_cast<std::size_t>(p)];
    if (req.isolate_blur_tile) {
      // The slot carries one spare core. Give blur a whole tile: blur takes
      // the first core of the second tile in the slot and that tile's
      // sibling core stays idle; every other stage takes the remaining
      // cores in slot order.
      const int blur_stage = req.stages_per_pipeline - 4;  // see header
      std::vector<CoreId> rest;
      CoreId blur_core = -1;
      for (std::size_t si = 0; si < slot.size(); ++si) {
        const CoreId c = slot[si];
        if (blur_core < 0 && si + 1 < slot.size() &&
            topo.tile_of(c) == topo.tile_of(slot[si + 1])) {
          // c starts a full tile pair inside the slot; reserve it for blur
          // unless it is the very first pair (keep the head stage at the
          // slot entrance so data still flows west to east).
          if (si >= 2 || slot.size() <= 2) {
            blur_core = c;
            ++si;  // sibling stays idle
            continue;
          }
        }
        rest.push_back(c);
      }
      SCCPIPE_CHECK_MSG(blur_core >= 0, "no free tile for the blur stage");
      std::size_t ri = 0;
      for (int s = 0; s < req.stages_per_pipeline; ++s) {
        if (s == blur_stage) {
          cores.push_back(blur_core);
        } else {
          SCCPIPE_CHECK(ri < rest.size());
          cores.push_back(rest[ri++]);
        }
      }
    } else {
      cores.assign(slot.begin(),
                   slot.begin() + req.stages_per_pipeline);
    }
  }

  // Producer and transfer take the two ends of the next free slot: the
  // producer nearest the pipelines' heads, the transfer at the far end.
  const auto& spare = slots[static_cast<std::size_t>(req.pipelines)];
  std::size_t spare_i = 0;
  if (req.needs_producer) out.producer = spare[spare_i++];
  out.transfer = spare[spare_i++];
  // Everything left over is recovery headroom: first the rest of the
  // producer/transfer slot, then the untouched slots beyond it. With
  // isolate_blur_tile the skipped tile siblings stay idle (not spares) —
  // promoting one would put pipeline work back onto the isolated tile.
  for (; spare_i < spare.size(); ++spare_i) {
    out.spare_cores.push_back(spare[spare_i]);
  }
  for (std::size_t s = static_cast<std::size_t>(req.pipelines) + 1;
       s < slots.size(); ++s) {
    out.spare_cores.insert(out.spare_cores.end(), slots[s].begin(),
                           slots[s].end());
  }
  return out;
}

}  // namespace sccpipe
