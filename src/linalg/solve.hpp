// Direct solver for small dense real symmetric positive definite systems:
// Cholesky, as used by the normal equations inside Levenberg-Marquardt,
// the triangulation baseline and the CRLB. Indefiniteness (including
// NaN/Inf input) throws NumericalError; callers that can recover — the
// LM damping loop — catch it and raise their own damping instead.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace spotfi {

/// Solves A x = b for symmetric positive definite A via Cholesky. Throws
/// NumericalError if A is not positive definite.
[[nodiscard]] RVector solve_spd(const RMatrix& a, std::span<const double> b);

/// Workspace variant: the factor and the intermediate solve live on
/// `ws`, the solution is written into `x` (size = A's dimension). The
/// value flavour wraps this one; same arithmetic, same throws.
void solve_spd_into(ConstRMatrixView a, std::span<const double> b,
                    std::span<double> x, Workspace& ws);

}  // namespace spotfi
