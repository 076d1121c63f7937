// Shared task-budget accounting (Section 5.1.3). A BudgetLedger is the one
// place budget is debited: a QuerySession draws its per-round publishes and
// retry reposts from its own ledger, and MultiQueryScheduler drives a global
// ledger shared by every session so concurrent queries cannot overspend a
// common budget. A ledger without a limit grants everything.
//
// The unlimited case is explicit: remaining() returns nullopt instead of an
// INT64_MAX sentinel, so a caller adding slack ("remaining() + reposts")
// cannot silently overflow. Spend accounting saturates at INT64_MAX for the
// same reason. The ledger is internally mutex-guarded because the
// MultiQueryScheduler debits it across parked sessions and future drivers
// may do so from worker threads.
//
// Check-then-act is banned: remaining() and Exhausted() are observational
// only (termination checks, reporting). Any sequence that *tests* either and
// then spends races between the two lock acquisitions the moment a second
// session shares the ledger — another debitor can drain the budget in the
// gap. Spending therefore happens only through the two single-acquisition
// primitives: TryDebit (partial grant: take what is left) and TrySpend
// (all-or-nothing: exact amount or no spend). cdb_lint's mutex-annotation
// rule and the thread-safety annotations below make this class the repo's
// reference CDB_CAPABILITY pattern: every guarded member names its
// capability, public entry points declare CDB_EXCLUDES(mutex_), and the
// shared locked core is an AssertHeld-style CDB_REQUIRES helper.
#ifndef CDB_COST_LEDGER_H_
#define CDB_COST_LEDGER_H_

#include <cstdint>
#include <optional>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cdb {

class BudgetLedger {
 public:
  // No limit: every debit is granted in full.
  BudgetLedger() = default;
  explicit BudgetLedger(std::optional<int64_t> limit);
  BudgetLedger(const BudgetLedger&) = delete;
  BudgetLedger& operator=(const BudgetLedger&) = delete;

  [[nodiscard]] bool limited() const CDB_EXCLUDES(mutex_);

  // Tasks still grantable; nullopt when unlimited. Callers doing arithmetic
  // must handle the unlimited case explicitly — there is no sentinel to
  // overflow. Observational: the value may be stale by the time it is used;
  // never follow it with a spend (use TryDebit/TrySpend).
  [[nodiscard]] std::optional<int64_t> remaining() const CDB_EXCLUDES(mutex_);

  // True iff the ledger is limited and fully spent. The unlimited ledger is
  // never exhausted. Observational, like remaining().
  [[nodiscard]] bool Exhausted() const CDB_EXCLUDES(mutex_);

  // Grants min(want, remaining()) tasks (all of `want` when unlimited),
  // records the spend, and returns the granted count — test and spend under
  // one lock acquisition. `want` must be >= 0.
  int64_t TryDebit(int64_t want) CDB_EXCLUDES(mutex_);

  // All-or-nothing spend under one lock acquisition: debits exactly `amount`
  // iff the full amount is still grantable (always, when unlimited) and
  // returns true; otherwise spends nothing and returns false. The atomic
  // replacement for every Exhausted()/remaining()-then-spend sequence.
  // `amount` must be >= 0.
  [[nodiscard]] bool TrySpend(int64_t amount) CDB_EXCLUDES(mutex_);

  [[nodiscard]] int64_t spent() const CDB_EXCLUDES(mutex_);

 private:
  // Tasks still grantable under the lock; INT64_MAX when unlimited (internal
  // only — the public surface keeps the explicit nullopt contract).
  [[nodiscard]] int64_t RemainingLocked() const CDB_REQUIRES(mutex_);
  // Records a granted spend, saturating at INT64_MAX.
  void RecordSpendLocked(int64_t granted) CDB_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::optional<int64_t> limit_ CDB_GUARDED_BY(mutex_);
  int64_t spent_ CDB_GUARDED_BY(mutex_) = 0;
};

}  // namespace cdb

#endif  // CDB_COST_LEDGER_H_
