#include "storage/grid_index.h"

#include <algorithm>
#include <cmath>

namespace bqs {

GridIndex::GridIndex(double cell_size) : cell_size_(cell_size) {}

int64_t GridIndex::CellKey(Vec2 pos) const {
  const auto cx = static_cast<int64_t>(std::floor(pos.x / cell_size_));
  const auto cy = static_cast<int64_t>(std::floor(pos.y / cell_size_));
  // Interleave the two 32-bit cell coordinates into one key.
  return (cx << 32) ^ (cy & 0xffffffffLL);
}

void GridIndex::Insert(uint64_t id, Vec2 pos) {
  cells_[CellKey(pos)].push_back(Entry{id, pos});
  ++size_;
}

bool GridIndex::Remove(uint64_t id, Vec2 pos) {
  const auto it = cells_.find(CellKey(pos));
  if (it == cells_.end()) return false;
  auto& bucket = it->second;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i].id == id) {
      bucket[i] = bucket.back();
      bucket.pop_back();
      if (bucket.empty()) cells_.erase(it);
      --size_;
      return true;
    }
  }
  return false;
}

std::vector<uint64_t> GridIndex::Query(Vec2 center, double radius) const {
  std::vector<uint64_t> out;
  const double r2 = radius * radius;
  const double fx0 = std::floor((center.x - radius) / cell_size_);
  const double fx1 = std::floor((center.x + radius) / cell_size_);
  const double fy0 = std::floor((center.y - radius) / cell_size_);
  const double fy1 = std::floor((center.y + radius) / cell_size_);
  // A sweep over more cells than are occupied (tiny cells, huge radius)
  // walks the entries instead. Each entry's cell is recomputed from its
  // position (a key keeps only the low 32 bits of the y cell), and hits
  // are put in sweep order, so the result is the same either way.
  if ((fx1 - fx0 + 1.0) * (fy1 - fy0 + 1.0) >
      static_cast<double>(cells_.size())) {
    struct Hit {
      double cx, cy;
      uint64_t id;
    };
    std::vector<Hit> hits;
    for (const auto& cell : cells_) {
      for (const Entry& e : cell.second) {
        const double cx = std::floor(e.pos.x / cell_size_);
        const double cy = std::floor(e.pos.y / cell_size_);
        if (cx < fx0 || cx > fx1 || cy < fy0 || cy > fy1) continue;
        if (DistanceSq(e.pos, center) <= r2) hits.push_back({cx, cy, e.id});
      }
    }
    // Stable: entries of one cell share a bucket and keep its order.
    std::stable_sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
      return a.cx != b.cx ? a.cx < b.cx : a.cy < b.cy;
    });
    for (const Hit& h : hits) out.push_back(h.id);
    return out;
  }
  const auto x0 = static_cast<int64_t>(fx0);
  const auto x1 = static_cast<int64_t>(fx1);
  const auto y0 = static_cast<int64_t>(fy0);
  const auto y1 = static_cast<int64_t>(fy1);
  for (int64_t cx = x0; cx <= x1; ++cx) {
    for (int64_t cy = y0; cy <= y1; ++cy) {
      const int64_t key = (cx << 32) ^ (cy & 0xffffffffLL);
      const auto it = cells_.find(key);
      if (it == cells_.end()) continue;
      for (const Entry& e : it->second) {
        if (DistanceSq(e.pos, center) <= r2) out.push_back(e.id);
      }
    }
  }
  return out;
}

void GridIndex::Clear() {
  cells_.clear();
  size_ = 0;
}

}  // namespace bqs
