// Driver for distributed QSQ (paper §3.2): each peer rewrites its own
// rules on demand; the driver seeds the query's call pattern (kSubquery)
// and its bound arguments (the in_ relation) at the query relation's
// owner, runs the network to quiescence, and reads the adorned answers.
#ifndef DQSQ_DIST_DQSQ_H_
#define DQSQ_DIST_DQSQ_H_

#include "dist/dnaive.h"

namespace dqsq::dist {

/// Evaluates `query` with dQSQ. Returns the same answers as centralized
/// QSQ / naive evaluation (paper Theorem 1), materializing only demanded
/// facts. Shares its body with DistNaiveSolve (dnaive.cc).
StatusOr<DistResult> DistQsqSolve(DatalogContext& ctx, const Program& program,
                                  const ParsedQuery& query,
                                  const DistOptions& options);

}  // namespace dqsq::dist

#endif  // DQSQ_DIST_DQSQ_H_
