#!/usr/bin/env bash
# Compile-fail probes. Each compiles a violating TU, which must fail with the
# probe's diagnostic, and a sanctioned TU, which must compile:
#   nodiscard      discarding a Status or Result<T> under -Werror=unused-result
#                  (any compiler; tests/status_nodiscard_test.cc is the
#                  positive half);
#   thread_safety  reading a CDB_GUARDED_BY member without its mutex under
#                  -Werror=thread-safety-analysis, which proves the clean
#                  clang build meaningful (clang only: GCC defines the CDB_*
#                  annotation macros away).
#
# Usage: tools/check_compile_probes.sh <c++-compiler> <src-include-dir> <probe>
# runs the one named probe (ctest: cdb_nodiscard, cdb_thread_safety).
set -u -o pipefail

USAGE="usage: check_compile_probes.sh <c++> <src> nodiscard|thread_safety"
CXX="${1:?${USAGE}}"
INC="${2:?${USAGE}}"
PROBE="${3:?${USAGE}}"

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

# probe <name> <diagnostic-regex> <flags...>: ${TMP}/<name>_bad.cc must fail
# with a diagnostic matching the regex; ${TMP}/<name>_good.cc must compile.
probe() {
  local name="$1" diagnostic="$2"
  shift 2
  local compile=("${CXX}" -std=c++20 -I"${INC}" -fsyntax-only "$@")
  if "${compile[@]}" "${TMP}/${name}_bad.cc" 2> "${TMP}/bad.err"; then
    echo "FAIL: ${name}: the violating TU compiled cleanly" >&2
    exit 1
  fi
  if ! grep -q "${diagnostic}" "${TMP}/bad.err"; then
    echo "FAIL: ${name}: the violating TU failed, but not with a" \
         "'${diagnostic}' diagnostic:" >&2
    cat "${TMP}/bad.err" >&2
    exit 1
  fi
  if ! "${compile[@]}" "${TMP}/${name}_good.cc" 2> "${TMP}/good.err"; then
    echo "FAIL: ${name}: the sanctioned TU did not compile:" >&2
    cat "${TMP}/good.err" >&2
    exit 1
  fi
  echo "PASS: ${name} (${CXX})"
}

cat > "${TMP}/nodiscard_bad.cc" <<'EOF'
#include "common/status.h"
cdb::Status MakeStatus();
cdb::Result<int> MakeResult();
void Discards() {
  MakeStatus();  // discarded Status: must be a hard error
  MakeResult();  // discarded Result: must be a hard error
}
EOF
cat > "${TMP}/nodiscard_good.cc" <<'EOF'
#include "common/status.h"
cdb::Status MakeStatus();
cdb::Result<int> MakeResult();
cdb::Status Propagates() {
  CDB_RETURN_IF_ERROR(MakeStatus());
  CDB_ASSIGN_OR_RETURN(int v, MakeResult());
  (void)v;
  (void)MakeStatus();  // explicit, visible discard stays legal
  return cdb::Status::Ok();
}
EOF

cat > "${TMP}/thread_safety_bad.cc" <<'EOF'
#include "common/mutex.h"
#include "common/thread_annotations.h"
namespace cdb {
class Account {
 public:
  int Read() { return balance_; }  // unguarded read: must be a hard error
 private:
  Mutex mu_;
  int balance_ CDB_GUARDED_BY(mu_) = 0;
};
}  // namespace cdb
EOF
cat > "${TMP}/thread_safety_good.cc" <<'EOF'
#include "common/mutex.h"
#include "common/thread_annotations.h"
namespace cdb {
class Account {
 public:
  int Read() CDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return balance_;
  }
  void Add(int delta) CDB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    AddLocked(delta);
  }
 private:
  void AddLocked(int delta) CDB_REQUIRES(mu_) { balance_ += delta; }
  Mutex mu_;
  int balance_ CDB_GUARDED_BY(mu_) = 0;
};
}  // namespace cdb
EOF

case "${PROBE}" in
  nodiscard) probe nodiscard 'nodiscard\|unused-result' -Werror=unused-result ;;
  thread_safety)
    if ! "${CXX}" -dM -E -x c++ /dev/null 2> /dev/null | grep -q __clang__; then
      echo "NOTICE: ${CXX} is not clang; skipping the thread-safety probe" \
           "(GCC defines the annotation macros away)." >&2
      exit 0
    fi
    probe thread_safety 'thread-safety\|requires holding' \
      -Wthread-safety -Wthread-safety-beta -Werror=thread-safety-analysis ;;
  *) echo "${USAGE}" >&2; exit 2 ;;
esac
