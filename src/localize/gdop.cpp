#include "localize/gdop.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/numerics.hpp"

namespace spotfi {

Expected<GdopResult, std::string> try_bearing_gdop(
    std::span<const ArrayPose> aps, Vec2 point, double sigma_aoa_rad) {
  SPOTFI_EXPECTS(aps.size() >= 2, "GDOP needs at least two APs");
  SPOTFI_EXPECTS(sigma_aoa_rad > 0.0, "AoA sigma must be positive");

  // Each bearing i measures the direction to the target; a small AoA
  // error sigma displaces the implied position by d_i * sigma along the
  // unit vector u_perp_i perpendicular to the line of sight. Fisher
  // information: sum_i u_perp_i u_perp_i^T / (d_i * sigma)^2, the
  // symmetric 2x2 [[f00, f01], [f01, f11]].
  double f00 = 0.0;
  double f01 = 0.0;
  double f11 = 0.0;
  for (const auto& ap : aps) {
    const Vec2 los = point - ap.position;
    const double d = los.norm();
    if (d < 1e-6) continue;  // on top of an AP: that AP adds nothing
    const Vec2 u_perp = (los / d).perp();
    const double w = 1.0 / ((d * sigma_aoa_rad) * (d * sigma_aoa_rad));
    f00 += w * u_perp.x * u_perp.x;
    f01 += w * u_perp.x * u_perp.y;
    f11 += w * u_perp.y * u_perp.y;
  }

  // Covariance = FIM^-1; its eigenvalues are the squared ellipse axes.
  const double det = f00 * f11 - f01 * f01;
  const double scale = std::max({std::abs(f00), std::abs(f01), std::abs(f11)});
  if (!(det > 1e-12 * (1.0 + scale * scale))) {
    // !(>) also rejects a NaN determinant from non-finite poses.
    count_numerics(&NumericsCounters::gdop_degenerate);
    return std::string(
        "bearing_gdop: degenerate geometry (all bearings parallel — "
        "APs collinear with the query point, or non-finite input)");
  }
  const double c00 = f11 / det;
  const double c01 = -f01 / det;
  const double c11 = f00 / det;

  // Closed-form eigenvalues of the symmetric 2x2 covariance. The larger
  // one is mean + radius; the smaller comes from det(C) = 1/det(FIM)
  // rather than mean - radius, which cancels when the ellipse is thin.
  const double mean = 0.5 * (c00 + c11);
  const double radius = std::hypot(0.5 * (c00 - c11), c01);
  const double lambda_major = mean + radius;
  const double lambda_minor = (1.0 / det) / lambda_major;
  GdopResult result;
  result.minor_m = std::sqrt(std::max(lambda_minor, 0.0));
  result.major_m = std::sqrt(std::max(lambda_major, 0.0));
  result.drms_m = std::hypot(result.major_m, result.minor_m);
  return result;
}

GdopResult bearing_gdop(std::span<const ArrayPose> aps, Vec2 point,
                        double sigma_aoa_rad) {
  Expected<GdopResult, std::string> r =
      try_bearing_gdop(aps, point, sigma_aoa_rad);
  if (!r) throw NumericalError(r.error());
  return std::move(*r);
}

}  // namespace spotfi
