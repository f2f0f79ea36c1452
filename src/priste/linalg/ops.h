#ifndef PRISTE_LINALG_OPS_H_
#define PRISTE_LINALG_OPS_H_

#include "priste/linalg/matrix.h"
#include "priste/linalg/vector.h"

namespace priste::linalg {

/// M · v (matrix times column vector). Requires v.size() == M.cols().
Vector MatVec(const Matrix& m, const Vector& v);

/// vᵀ · M (row vector times matrix). Requires v.size() == M.rows().
Vector VecMat(const Vector& v, const Matrix& m);

/// A · B. Requires A.cols() == B.rows().
Matrix MatMul(const Matrix& a, const Matrix& b);

/// M · dᴰ — scales column j of M by d[j]. The cheap form of the paper's
/// right-multiplication by a diagonal emission matrix p̃ᴰ_o.
Matrix ScaleColumns(const Matrix& m, const Vector& d);

}  // namespace priste::linalg

#endif  // PRISTE_LINALG_OPS_H_
