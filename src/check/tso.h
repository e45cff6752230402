// Static TSO-soundness checker for recompiled IR.
//
// Obligation model (x86-TSO -> C++11 mapping, paper §3.3.4): the lifter
// pins guest memory order by emitting an acquire fence AFTER every guest
// load and a release fence BEFORE every guest store; atomics (kAtomicRmw /
// kCmpXchg) are seq_cst and order themselves. TSO permits only the
// store->later-load reordering, so the residual obligations are:
//
//   load  L : an acquire barrier must appear between L and the NEXT guest
//             access on EVERY forward path (a path ending at ret /
//             unreachable discharges trivially);
//   store S : a release barrier must appear between the PREVIOUS guest
//             access and S on EVERY backward path (reaching function entry
//             discharges: the call that got us here is itself a barrier).
//
// Barriers = fences of the right order (or seq_cst), atomics, and calls
// (this repo's optimizer never reorders memory across calls, and callees
// re-establish their own ordering).
//
// An access may instead carry an elision witness (ir::FenceWitness) claiming
// it is thread-private. The checker does not TRUST the witness: it
// re-derives the claim from the IR. For kStackLocal the address must be
// computed from the emulated stack pointer (vr_rsp, or vr_rbp in functions
// the lifter marked frame_pointer) through address arithmetic / phis /
// selects / spill reloads. For kHeapLocal (stamped by the static analyzer,
// src/analyze) the address must re-derive as a pure same-function
// allocation whose sites never escape — checked with the very same
// check/derive.h code the analyzer ran — and a sealed StaticCert bound to
// the image must accompany the module. A witnessed access whose claim
// cannot be re-derived is reported as a forged witness. Verified
// thread-private accesses are invisible to other accesses' path scans
// (thread-private traffic cannot violate TSO).
//
// Whole-module fence removal (RemoveFences after a spin-free verdict) is
// accepted only under a sealed ElisionCert bound to the image being checked.
#ifndef POLYNIMA_CHECK_TSO_H_
#define POLYNIMA_CHECK_TSO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/check/witness.h"
#include "src/ir/ir.h"
#include "src/obs/report.h"

namespace polynima::check {

struct TsoCheckOptions {
  // Accept module-wide fence elision when this cert seals and binds.
  const ElisionCert* cert = nullptr;
  // Accept per-access kHeapLocal witnesses when this cert seals and binds.
  // Every stamped access is still re-derived (provenance must be purely
  // same-function allocations, none of whose sites escape — the same
  // derive.h code the analyzer ran); the cert only authorizes the attempt.
  const StaticCert* static_cert = nullptr;
  // External slot -> name table of the lifted program; required to
  // recognize allocation calls when re-deriving kHeapLocal witnesses
  // (without it every heap witness is reported forged).
  const std::vector<std::string>* externals = nullptr;
  // Expected BinaryKey of the image the module was lifted from (0 = don't
  // verify the binding; tests that build IR by hand use 0).
  uint64_t binary_key = 0;
  // Observability sinks (all nullable; see src/obs): one "check"-category
  // span per CheckModule call and the check.* counters.
  obs::Session obs;
};

struct TsoViolation {
  std::string function;
  std::string block;       // block holding the unsatisfied access
  uint64_t guest_address = 0;  // block's guest address (0 if synthetic)
  std::string kind;        // "load-acquire" | "store-release" |
                           // "forged-witness" | "bad-cert"
  std::string message;     // path-specific diagnostic
};

struct TsoCheckReport {
  size_t accesses_checked = 0;    // guest loads/stores examined
  size_t fenced_accesses = 0;     // discharged by a barrier on every path
  size_t witnesses_consumed = 0;  // stack-local witnesses that re-verified
  size_t heap_witnesses_consumed = 0;  // kHeapLocal witnesses that re-derived
  size_t cert_covered = 0;        // discharged by the module-wide cert
  size_t path_scans = 0;          // cross-block path scans performed
  std::vector<TsoViolation> violations;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

// Checks every function in the module. Never mutates the IR.
TsoCheckReport CheckModule(const ir::Module& m,
                           const TsoCheckOptions& options = {});

}  // namespace polynima::check

#endif  // POLYNIMA_CHECK_TSO_H_
