// Contract annotations for the interprocedural analyzer
// (tools/prepare_analyze.py).
//
// PR 3 made the locking discipline machine-checked with Clang's
// -Wthread-safety; these macros do the same for the two contracts that
// previously lived only in comments:
//
//   PREPARE_DRIVER_CONFINED   on a class (or a single method): instances
//       are confined to the single driver thread. The analyzer builds
//       the whole-program call graph and proves that no annotated
//       method is reachable from a worker lambda handed to a
//       ThreadPool::parallel_for (rule `thread-confined`). Confinement is a
//       determinism contract, not only a race contract — EventLog is
//       internally locked yet still confined, because the recorded
//       event ORDER must not depend on worker scheduling.
//
//   PREPARE_HOT   on a function: it is on the steady-state per-tick
//       prediction path and must transitively perform no heap
//       allocation (operator new, malloc, growing container ops, string
//       construction), acquire no lock, and do no stdio/stream IO
//       (rules `hot-alloc` / `hot-lock` / `hot-io`). Worker lambdas
//       passed to parallel_for are implicitly hot — a fan-out body is
//       the steady state.
//
// No code in the tree fans out today: the management round runs on one
// thread (DESIGN.md section 10) and there is no ThreadPool, so no worker
// lambda roots either proof. The rules guard against a reintroduced
// fan-out (the parked shard-grain parallelism); the analyzer fixtures
// declare a stand-in ThreadPool to keep them exercised.
//
// Deliberate exceptions (e.g. a capacity-steady `resize` that only
// reuses storage after the first round, or the Histogram instrument's
// internal lock) are suppressed at the offending line with
//   // prepare-analyze: allow(RULE): <reason>        (RULE e.g. hot-alloc)
// and every suppression is itself audited: the analyzer flags allow()
// comments that no longer suppress anything (rule `unused-suppression`).
//
// The attribute is Clang's `annotate`, which survives into the AST that
// libclang sees but generates no code; GCC builds see a no-op macro, so
// annotated code compiles everywhere while CI (which parses with
// libclang regardless of the build compiler) still enforces the
// contracts. See DESIGN.md "Static analysis architecture".
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(annotate)
#define PREPARE_ANALYZE_ANNOTATION(tag) __attribute__((annotate(tag)))
#endif
#endif
#ifndef PREPARE_ANALYZE_ANNOTATION
#define PREPARE_ANALYZE_ANNOTATION(tag)  // no-op outside Clang
#endif

/// Type (or method) confined to the driver thread: never reachable from
/// a worker lambda handed to a ThreadPool::parallel_for (none exists
/// today; see above).
#define PREPARE_DRIVER_CONFINED PREPARE_ANALYZE_ANNOTATION("prepare::driver_confined")

/// Steady-state hot path: transitively allocation-, lock- and IO-free.
#define PREPARE_HOT PREPARE_ANALYZE_ANNOTATION("prepare::hot")
