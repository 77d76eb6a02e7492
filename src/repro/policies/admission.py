"""Transaction admission policies (the ``"admission"`` policy layer).

The paper's model admits transactions FCFS with no multiprogramming
limit.  Its §3.7 observes that under heavy load (``ntrans = 200``)
fine granularity collapses because lock-processing overhead grows with
the number of transactions, and points to *transaction level
scheduling* (the authors' companion work, refs [3, 4]) as the remedy.
This module implements that remedy as an extension:

* :class:`FCFSAdmission` — the paper's policy, optionally with a fixed
  multiprogramming limit (MPL);
* :class:`SmallestFirstAdmission` — admit the smallest pending
  transaction first (small transactions conflict less, §3.2);
* :class:`AdaptiveAdmission` — adjust the MPL from the observed lock
  denial rate, shrinking under thrash and growing when requests
  succeed.

A policy only decides *which* pending transaction may issue its lock
request next and *whether* one may right now; the queueing mechanics —
the pending list, the in-flight count, the admit events — live in
:class:`AdmissionGate`, which the model orchestrator owns.
"""


class FCFSAdmission:
    """First-come-first-served, with an optional fixed MPL.

    Parameters
    ----------
    mpl_limit:
        Maximum transactions admitted-and-unfinished at once;
        0 means unlimited (the paper's model).
    """

    name = "fcfs"

    def __init__(self, mpl_limit=0):
        if mpl_limit < 0:
            raise ValueError("mpl_limit must be >= 0")
        self.mpl_limit = mpl_limit
        #: Optional callable ``notify(kind, details)`` for telemetry;
        #: policies report scheduling transitions through it (the
        #: adaptive policy emits ``"mpl_change"`` whenever feedback
        #: moves its multiprogramming limit).
        self.notify = None

    def select(self, pending, in_flight):
        """Index into *pending* to admit now, or ``None`` to hold."""
        if not pending:
            return None
        if self.mpl_limit and in_flight >= self.mpl_limit:
            return None
        return 0

    def on_grant(self):
        """Feedback hook: a lock request succeeded (unused here)."""

    def on_deny(self):
        """Feedback hook: a lock request was denied (unused here)."""


class SmallestFirstAdmission(FCFSAdmission):
    """Admit the smallest pending transaction first."""

    name = "smallest"

    def select(self, pending, in_flight):
        """Index of the smallest pending transaction, or ``None``."""
        if not pending:
            return None
        if self.mpl_limit and in_flight >= self.mpl_limit:
            return None
        smallest = 0
        for i in range(1, len(pending)):
            if pending[i].nu < pending[smallest].nu:
                smallest = i
        return smallest


class PriorityAdmission(FCFSAdmission):
    """Admit the highest transaction-class priority first.

    Priorities come from ``txn.txn_class.priority`` (0 for classless
    transactions, so the policy degrades to FCFS in single-class
    runs).  Ties are broken FCFS — the first pending transaction of
    the best priority wins — so starvation within a priority level
    cannot happen; across levels this is strict priority scheduling,
    the classic OLTP-over-batch admission discipline.
    """

    name = "priority"

    def select(self, pending, in_flight):
        """Index of the first highest-priority transaction, or ``None``."""
        if not pending:
            return None
        if self.mpl_limit and in_flight >= self.mpl_limit:
            return None
        best = 0
        for i in range(1, len(pending)):
            if pending[i].priority > pending[best].priority:
                best = i
        return best


class AdaptiveAdmission(FCFSAdmission):
    """MPL adjusted from the recent lock denial rate.

    Every *window* completed lock requests, the policy compares the
    denial fraction with two thresholds: above *high* the MPL halves
    (never below 1); below *low* it grows by one (never above
    *max_mpl*).  This is a simple rendition of the adaptive
    transaction-level scheduling the paper credits with controlling
    lock-processing overhead.
    """

    name = "adaptive"

    def __init__(self, initial_mpl=8, max_mpl=1024, window=50, low=0.1, high=0.4):
        super().__init__(mpl_limit=initial_mpl)
        if initial_mpl < 1:
            raise ValueError("initial_mpl must be >= 1")
        if not 0 <= low < high <= 1:
            raise ValueError("need 0 <= low < high <= 1")
        self.max_mpl = max_mpl
        self.window = window
        self.low = low
        self.high = high
        self._grants = 0
        self._denials = 0

    def on_grant(self):
        """Count a granted request and maybe adapt."""
        self._grants += 1
        self._maybe_adapt()

    def on_deny(self):
        """Count a denied request and maybe adapt."""
        self._denials += 1
        self._maybe_adapt()

    def _maybe_adapt(self):
        total = self._grants + self._denials
        if total < self.window:
            return
        denial_rate = self._denials / total
        before = self.mpl_limit
        if denial_rate > self.high:
            self.mpl_limit = max(1, self.mpl_limit // 2)
        elif denial_rate < self.low:
            self.mpl_limit = min(self.max_mpl, self.mpl_limit + 1)
        if self.mpl_limit != before and self.notify is not None:
            self.notify(
                "mpl_change",
                {
                    "mpl": self.mpl_limit,
                    "previous": before,
                    "denial_rate": round(denial_rate, 4),
                },
            )
        self._grants = 0
        self._denials = 0


class AdmissionGate:
    """The pending queue and MPL accounting around an admission policy.

    Extracted from the model so the orchestrator only says "gate this
    transaction" and "one finished": the gate owns the pending list,
    the in-flight count and the admit events, and pumps the policy
    whenever either changes.
    """

    def __init__(self, policy, env, metrics):
        self.policy = policy
        self.env = env
        self.metrics = metrics
        self._pending = []
        self.in_flight = 0

    def admit(self, txn):
        """Generator: park *txn* until the policy admits it."""
        admit = self.env.event()
        self._pending.append((txn, admit))
        self.metrics.pending.update(len(self._pending))
        self.pump()
        yield admit

    def pump(self):
        """Admit pending transactions while the policy allows."""
        while self._pending:
            index = self.policy.select(
                [txn for txn, _ in self._pending], self.in_flight
            )
            if index is None:
                return
            _, admit = self._pending.pop(index)
            self.metrics.pending.update(len(self._pending))
            self.in_flight += 1
            admit.succeed()

    def on_complete(self):
        """One admitted transaction finished; re-pump the queue."""
        self.in_flight -= 1
        self.pump()


def _fcfs(params):
    return FCFSAdmission(params.mpl_limit)


def _smallest(params):
    return SmallestFirstAdmission(params.mpl_limit)


def _priority(params):
    return PriorityAdmission(params.mpl_limit)


def _adaptive(params):
    if params.mpl_limit:
        initial = params.mpl_limit
    else:
        # Start near the machine's natural parallelism rather than
        # admitting the whole population: under heavy load the
        # uncontrolled request storm saturates the disks with lock
        # work before any feedback accrues.
        initial = min(params.ntrans, 2 * params.npros)
    return AdaptiveAdmission(initial_mpl=max(1, initial))


def make_admission_policy(params):
    """Build the admission policy described by *params*."""
    from repro.policies import resolve

    return resolve("admission", params.txn_policy)(params)
