// Certification of computed specifications (our addition; the constructive
// side of Proposition 3.2).
//
// The engine's labels are derivation-justified, so unfold(quotient) is
// contained in LFP(Z, D). VerifyQuotientModel checks the converse: that the
// (B, F) served is a *model* of Z and D — all database facts are present,
// the global rules are closed, and every local rule is closed on every
// cluster (with children read through the successor maps). Together the two
// directions certify unfold(quotient) == LFP(Z, D). The property-based tests
// lean on this check, and it doubles as an internal-consistency assertion
// for the fixpoint engine.

#ifndef RELSPEC_CORE_VERIFY_H_
#define RELSPEC_CORE_VERIFY_H_

#include "src/base/status.h"
#include "src/core/graph_spec.h"
#include "src/core/ground.h"

namespace relspec {

/// Returns OK iff `spec` (labels + successor maps + globals) is a model of
/// the grounded program `ground`. Every context proposition is read off the
/// model itself: a global holds iff it is among spec.globals(), a pinned
/// proposition iff its trunk cluster's label holds the atom. The spec must
/// share the ground program's atom dictionary and alphabet (an engine's
/// spec does, and so does one loaded from its snapshot); InvalidArgument
/// otherwise. Any violated rule instance is reported with its cluster.
Status VerifyQuotientModel(const GraphSpecification& spec,
                           const GroundProgram& ground);

}  // namespace relspec

#endif  // RELSPEC_CORE_VERIFY_H_
