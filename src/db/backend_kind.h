#ifndef PERFEVAL_DB_BACKEND_KIND_H_
#define PERFEVAL_DB_BACKEND_KIND_H_

#include <string>

#include "common/result.h"

namespace perfeval {
namespace db {

/// Which execution backend serves queries. The knob travels
/// DatabaseOptions -> SQL shell (`\backend col|row`) -> bench
/// (`--dbBackend=`), so the same logical plan can be raced through two
/// genuinely different physical designs under one harness — the paper's
/// hamsterdb-vs-berkeleydb shape reproduced internally.
///
///  - kColumnar: the operator-at-a-time vectorized executor over columnar
///    storage with selection vectors (src/db/plan.cc) — the engine every
///    prior A-bench measured.
///  - kRowStore: db::RowStoreBackend — tables packed as fixed-stride
///    row tuples over a shared string heap, executed row-at-a-time with
///    batching (no selection vectors, tuple-at-a-time CPU cost, row-major
///    I/O). A different design point, not a wrapper over the reference
///    interpreter.
enum class BackendKind {
  kColumnar,
  kRowStore,
};

const char* BackendKindName(BackendKind kind);

/// Parses "col" / "columnar" / "row" / "rowstore".
Result<BackendKind> ParseBackendKind(const std::string& text);

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_DB_BACKEND_KIND_H_
