#include "geometry/melkman_hull.h"

#include <algorithm>
#include <cmath>

#include "geometry/convex_hull2.h"

namespace bqs {
namespace {

/// >0 when (a, b, c) is a strict left (CCW) turn.
double Turn(Vec2 a, Vec2 b, Vec2 c) { return (b - a).Cross(c - a); }

/// Conservative upper bound on the absolute floating-point error of
/// Turn(a, b, c): the coordinate subtractions contribute error proportional
/// to the coordinate magnitudes times the opposite difference, the products
/// and final subtraction a few ulps of the term magnitudes. The constant is
/// dozens of ulps (2^-53 ~ 1.1e-16) for safety margin.
///
/// Sign decisions are only trusted outside this band; borderline cases are
/// resolved conservatively (keep the point / rebuild), never by dropping a
/// potential extreme. This is what makes the hull safe on the nearly
/// collinear slivers that straight trajectory runs produce, where exact-sign
/// Melkman silently loses macroscopic hull extent.
constexpr double kTurnErr = 1e-14;

double TurnErrorBound(Vec2 a, Vec2 b, Vec2 c) {
  const double sa = std::fabs(a.x) + std::fabs(a.y);
  const double sb = std::fabs(b.x) + std::fabs(b.y);
  const double sc = std::fabs(c.x) + std::fabs(c.y);
  const double du = std::fabs(b.x - a.x) + std::fabs(b.y - a.y);
  const double dv = std::fabs(c.x - a.x) + std::fabs(c.y - a.y);
  return kTurnErr * ((sa + sb) * dv + (sa + sc) * du + du * dv);
}

}  // namespace

void MelkmanHull::Clear() {
  bot_ = 0;
  top_ = 0;
  degenerate_ = true;
  line_[0] = Vec2{};
  line_[1] = Vec2{};
  points_added_ = 0;
  scale_ = 0.0;
  coarse_band_ = 0.0;
}

double MelkmanHull::Band(double cross, Vec2 a, Vec2 b, Vec2 c) const {
  // coarse_band_ >= TurnErrorBound for any three points seen so far
  // (each |.|_1 <= scale_, each difference <= 2 * scale_, so the detailed
  // bound is at most 12 * kTurnErr * scale_^2 < coarse_band_), making one
  // compare sufficient for the overwhelmingly common clear-signed case.
  if (std::fabs(cross) > coarse_band_) return 0.0;
  return TurnErrorBound(a, b, c);
}

std::vector<Vec2> MelkmanHull::Vertices() const {
  const std::span<const Vec2> verts = VertexSpan();
  return {verts.begin(), verts.end()};
}

double MelkmanHull::MaxDeviation(Vec2 a, Vec2 b,
                                 DistanceMetric metric) const {
  double dev = 0.0;
  for (const Vec2 v : VertexSpan()) {
    dev = std::max(dev, PointDeviation(v, a, b, metric));
  }
  return dev;
}

void MelkmanHull::AddDegenerate(Vec2 p) {
  if (points_added_ == 1) {
    line_[0] = p;
    line_[1] = p;
    return;
  }
  if (line_[0] == line_[1]) {
    if (!(p == line_[0])) line_[1] = p;
    return;
  }
  const double turn = Turn(line_[0], line_[1], p);
  if (std::fabs(turn) <= Band(turn, line_[0], line_[1], p)) {
    // Collinear to within floating-point resolution: keep only the chain
    // extremes. A dropped mid-chain point sits within the error band of the
    // chain itself, so MaxDeviation changes by a correspondingly negligible
    // amount; extent is always preserved via the extreme updates.
    const Vec2 d = line_[1] - line_[0];
    const double t = d.Dot(p - line_[0]);
    if (t < 0.0) {
      line_[0] = p;
    } else if (t > d.NormSq()) {
      line_[1] = p;
    }
    return;
  }
  // First point confidently off the line: seed the deque with the CCW
  // triangle.
  Vec2 a = line_[0];
  Vec2 b = line_[1];
  if (turn < 0.0) std::swap(a, b);
  const Vec2 verts[3] = {p, a, b};
  degenerate_ = false;
  Place(verts, 3);
}

void MelkmanHull::Place(const Vec2* verts, std::size_t m) {
  const std::size_t slack = std::max<std::size_t>(32, m);
  const std::size_t want = m + 1 + 2 * slack;
  if (ring_.size() < want) ring_.resize(std::max<std::size_t>(want, 128));
  bot_ = (ring_.size() - (m + 1)) / 2;
  top_ = bot_ + m;
  std::copy(verts, verts + m,
            ring_.begin() + static_cast<std::ptrdiff_t>(bot_));
  ring_[top_] = verts[0];
}

void MelkmanHull::Recenter() {
  scratch_.assign(ring_.begin() + static_cast<std::ptrdiff_t>(bot_),
                  ring_.begin() + static_cast<std::ptrdiff_t>(top_));
  Place(scratch_.data(), scratch_.size());
}

void MelkmanHull::Rebuild(Vec2 p) {
  scratch_.assign(ring_.begin() + static_cast<std::ptrdiff_t>(bot_),
                  ring_.begin() + static_cast<std::ptrdiff_t>(top_));
  RebuildWith(p);
}

void MelkmanHull::RebuildWith(Vec2 p) {
  scratch_.push_back(p);
  const std::vector<Vec2> hull = ConvexHull(scratch_);
  if (hull.size() < 3) {
    // Collapsed to a segment or point: back to the degenerate phase.
    // ConvexHull returns the sorted deduplicated points here, so front and
    // back are the chain extremes.
    degenerate_ = true;
    line_[0] = hull.empty() ? p : hull.front();
    line_[1] = hull.empty() ? p : hull.back();
    return;
  }
  Place(hull.data(), hull.size());
}

bool MelkmanHull::Contains(Vec2 p) const {
  // Returns true only when p is CONFIDENTLY inside (every decisive
  // orientation outside its error band); everything borderline returns
  // false and the caller rebuilds, which keeps the point when in doubt.
  const std::size_t m = top_ - bot_;
  const Vec2 v0 = ring_[bot_];
  {
    const Vec2 v1 = ring_[bot_ + 1];
    const double c = Turn(v0, v1, p);
    if (c <= Band(c, v0, v1, p)) return false;
  }
  {
    const Vec2 vl = ring_[bot_ + m - 1];
    const double c = Turn(v0, vl, p);
    if (c >= -Band(c, v0, vl, p)) return false;
  }
  // Binary search for the fan wedge whose triangle (v0, v_lo, v_lo+1)
  // should contain p. The comparisons inside the search only pick the
  // candidate; the final confident test decides, so a borderline pick can
  // only cause a conservative rebuild, never a wrong "inside".
  const Vec2 d = p - v0;
  std::size_t lo = 1;
  std::size_t hi = m - 1;
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if ((ring_[bot_ + mid] - v0).Cross(d) >= 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const Vec2 a = ring_[bot_ + lo];
  const Vec2 b = ring_[bot_ + lo + 1];
  const double c = Turn(a, b, p);
  return c > Band(c, a, b, p);
}

void MelkmanHull::Add(Vec2 p) {
  ++points_added_;
  const double magnitude = std::fabs(p.x) + std::fabs(p.y);
  if (magnitude > scale_) {
    scale_ = magnitude;
    coarse_band_ = 16.0 * kTurnErr * scale_ * scale_;
  }
  if (degenerate_) {
    AddDegenerate(p);
    return;
  }

  const double cross_bot = Turn(ring_[bot_], ring_[bot_ + 1], p);
  const double err_bot = Band(cross_bot, ring_[bot_], ring_[bot_ + 1], p);
  const double cross_top = Turn(ring_[top_ - 1], ring_[top_], p);
  const double err_top = Band(cross_top, ring_[top_ - 1], ring_[top_], p);

  if (cross_bot > err_bot && cross_top > err_top) {
    // Confidently inside the wedge at the anchor vertex. Melkman stops
    // here, which is only sound for simple polylines; a self-intersecting
    // trajectory can exit the hull through a far edge while staying inside
    // this wedge, so confirm against the whole hull before dropping the
    // point.
    if (Contains(p)) return;
    Rebuild(p);
    return;
  }

  if (!(cross_bot < -err_bot || cross_top < -err_top)) {
    // Borderline at the anchor (nearly collinear sliver): no sign can be
    // trusted, so take the conservative O(h log h) path.
    Rebuild(p);
    return;
  }

  // p is confidently outside and the anchor lies on its visible chain: the
  // standard Melkman restore, popping only on confident turns. A vertex a
  // confident pop discards ends up inside or on the new hull, so no
  // deviation extreme is ever lost; a borderline vertex is simply kept
  // (hull vertices are all genuine input points, so extras are harmless).
  if (bot_ == 0 || top_ + 1 == ring_.size()) Recenter();
  std::size_t bot = bot_;
  std::size_t top = top_;
  while (top > bot + 1) {
    const double t = Turn(ring_[bot], ring_[bot + 1], p);
    if (t >= -Band(t, ring_[bot], ring_[bot + 1], p)) break;
    ++bot;
  }
  while (top > bot + 1) {
    const double t = Turn(ring_[top - 1], ring_[top], p);
    if (t >= -Band(t, ring_[top - 1], ring_[top], p)) break;
    --top;
  }
  const double closing = Turn(ring_[bot], ring_[top], p);
  if (top == bot + 1 &&
      std::fabs(closing) <= Band(closing, ring_[bot], ring_[top], p)) {
    // Everything popped down to one edge that is itself collinear with p:
    // the deque would close with (near-)zero area. Let the batch hull sort
    // it out.
    scratch_.assign({ring_[bot], ring_[top]});
    RebuildWith(p);
    return;
  }
  --bot;
  ++top;
  ring_[bot] = p;
  ring_[top] = p;
  bot_ = bot;
  top_ = top;

  const double area =
      top_ - bot_ == 3
          ? Turn(ring_[bot_], ring_[bot_ + 1], ring_[bot_ + 2])
          : 1.0;
  if (top_ - bot_ == 3 &&
      std::fabs(area) <=
          Band(area, ring_[bot_], ring_[bot_ + 1], ring_[bot_ + 2])) {
    // A triangle squashed onto a line: demote to the collinear phase so
    // later wedge tests stay sound.
    Rebuild(p);
  }
}

}  // namespace bqs
