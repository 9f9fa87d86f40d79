#include "numarck/sim/flash/mesh.hpp"

#include <array>

#include "numarck/util/parallel_for.hpp"

namespace numarck::sim::flash {

namespace {
using numarck::util::ThreadPool;
}

BlockMesh::BlockMesh(const MeshConfig& cfg, ThreadPool* pool)
    : cfg_(cfg),
      nb_(cfg.blocks_per_dim),
      dx_(cfg.domain_length /
          static_cast<double>(cfg.blocks_per_dim * cfg.block_interior)),
      pool_(pool) {
  NUMARCK_EXPECT(cfg.blocks_per_dim >= 1, "need at least one block per axis");
  NUMARCK_EXPECT(cfg.block_interior >= cfg.guard,
                 "block interior must be >= guard depth for one-hop exchange");
  blocks_.reserve(nb_ * nb_ * nb_);
  for (std::size_t b = 0; b < nb_ * nb_ * nb_; ++b) {
    blocks_.emplace_back(cfg.block_interior, cfg.guard);
  }
}

std::size_t BlockMesh::interior_cells() const noexcept {
  return blocks_.size() * cfg_.block_interior * cfg_.block_interior *
         cfg_.block_interior;
}

std::array<double, 3> BlockMesh::cell_center(std::size_t b, std::size_t i,
                                             std::size_t j,
                                             std::size_t k) const noexcept {
  const std::size_t bx = b % nb_;
  const std::size_t by = (b / nb_) % nb_;
  const std::size_t bz = b / (nb_ * nb_);
  const std::size_t ng = cfg_.guard;
  const std::size_t ni = cfg_.block_interior;
  auto coord = [&](std::size_t bidx, std::size_t cell) {
    return (static_cast<double>(bidx * ni) +
            (static_cast<double>(cell) - static_cast<double>(ng)) + 0.5) *
           dx_;
  };
  return {coord(bx, i), coord(by, j), coord(bz, k)};
}

void BlockMesh::for_each_block(const std::function<void(std::size_t)>& fn) {
  auto& tp = pool_ ? *pool_ : ThreadPool::global();
  // Grain 1: a block is already a large unit of work, so small meshes
  // still spread one block per chunk across the pool.
  numarck::util::parallel_chunks(
      tp, numarck::util::ChunkPlan(0, blocks_.size(), tp.size(), 1),
      [&fn](std::size_t, std::size_t b0, std::size_t b1) {
        for (std::size_t b = b0; b < b1; ++b) fn(b);
      });
}

void BlockMesh::fill_guards() {
  // Axis sweeps must be globally ordered (see header); each sweep is
  // parallel over blocks because a sweep only reads neighbour *interior*
  // cells and previously-completed-axis guards, which no block mutates
  // during this sweep's axis.
  for (int axis = 0; axis < 3; ++axis) {
    for_each_block([this, axis](std::size_t b) { fill_axis(b, axis); });
  }
}

void BlockMesh::fill_axis(std::size_t b, int axis) {
  Block& blk = blocks_[b];
  const std::size_t ng = cfg_.guard;
  const std::size_t ni = cfg_.block_interior;
  const std::size_t nt = blk.total();
  const std::size_t bx = b % nb_;
  const std::size_t by = (b / nb_) % nb_;
  const std::size_t bz = b / (nb_ * nb_);
  const std::array<std::size_t, 3> bpos{bx, by, bz};

  // Maps (a, t1, t2) with `a` the swept axis coordinate to (i,j,k).
  auto cell = [axis](std::size_t a, std::size_t t1,
                     std::size_t t2) -> std::array<std::size_t, 3> {
    switch (axis) {
      case 0:
        return {a, t1, t2};
      case 1:
        return {t1, a, t2};
      default:
        return {t1, t2, a};
    }
  };
  const ConsField normal_mom =
      axis == 0 ? kMomX : (axis == 1 ? kMomY : kMomZ);

  for (int side = 0; side < 2; ++side) {  // 0 = low face, 1 = high face
    const bool low = side == 0;
    const bool has_neighbor =
        low ? bpos[axis] > 0 : bpos[axis] + 1 < nb_;
    const Block* src = nullptr;
    if (has_neighbor || cfg_.boundary == Boundary::kPeriodic) {
      std::array<std::size_t, 3> npos = bpos;
      if (has_neighbor) {
        npos[axis] = low ? bpos[axis] - 1 : bpos[axis] + 1;
      } else {
        npos[axis] = low ? nb_ - 1 : 0;  // periodic wrap
      }
      src = &blocks_[block_id(npos[0], npos[1], npos[2])];
    }

    for (std::size_t g = 0; g < ng; ++g) {
      const std::size_t p = low ? g : ng + ni + g;  // padded guard coord
      for (std::size_t t2 = 0; t2 < nt; ++t2) {
        for (std::size_t t1 = 0; t1 < nt; ++t1) {
          const auto dst = cell(p, t1, t2);
          if (src != nullptr) {
            // Interior-to-guard copy across the face (periodic or internal).
            const std::size_t q = low ? p + ni : p - ni;
            const auto s = cell(q, t1, t2);
            for (std::size_t f = 0; f < kNumCons; ++f) {
              blk.at(static_cast<ConsField>(f), dst[0], dst[1], dst[2]) =
                  src->at(static_cast<ConsField>(f), s[0], s[1], s[2]);
            }
          } else if (cfg_.boundary == Boundary::kOutflow) {
            const std::size_t q = low ? ng : ng + ni - 1;  // nearest interior
            const auto s = cell(q, t1, t2);
            for (std::size_t f = 0; f < kNumCons; ++f) {
              blk.at(static_cast<ConsField>(f), dst[0], dst[1], dst[2]) =
                  blk.at(static_cast<ConsField>(f), s[0], s[1], s[2]);
            }
          } else {  // reflecting: mirror across the face, flip normal momentum
            const std::size_t q = low ? (2 * ng - 1 - p) : (2 * (ng + ni) - 1 - p);
            const auto s = cell(q, t1, t2);
            for (std::size_t f = 0; f < kNumCons; ++f) {
              double v = blk.at(static_cast<ConsField>(f), s[0], s[1], s[2]);
              if (static_cast<ConsField>(f) == normal_mom) v = -v;
              blk.at(static_cast<ConsField>(f), dst[0], dst[1], dst[2]) = v;
            }
          }
        }
      }
    }
  }
}

void BlockMesh::for_each_interior(
    const std::function<void(std::size_t, std::size_t, std::size_t,
                             std::size_t, std::size_t)>& fn) const {
  std::size_t flat = 0;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const Block& blk = blocks_[b];
    for (std::size_t k = blk.lo(); k < blk.hi(); ++k) {
      for (std::size_t j = blk.lo(); j < blk.hi(); ++j) {
        for (std::size_t i = blk.lo(); i < blk.hi(); ++i) {
          fn(b, i, j, k, flat++);
        }
      }
    }
  }
}

}  // namespace numarck::sim::flash
