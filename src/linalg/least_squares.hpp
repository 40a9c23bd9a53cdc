// Symmetric positive-definite solve for linear least squares via normal
// equations with optional ridge damping. Problem sizes here are tiny
// (<= 16 unknowns), so Cholesky on AᵀA + λI is appropriate and keeps the
// dependency surface at zero; fit_pcr (linalg/pca.hpp) forms AᵀA + λI and
// Aᵀb itself, in one pass over its rows.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace amoeba::linalg {

/// Cholesky solve of the SPD system m x = rhs. Throws ContractError when m
/// is not positive definite within numerical tolerance.
[[nodiscard]] std::vector<double> solve_spd(const Matrix& m,
                                            const std::vector<double>& rhs);

}  // namespace amoeba::linalg
