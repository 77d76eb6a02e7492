"""Granule placement strategies (paper §2 and §3.5).

A placement strategy answers two questions about a transaction that
accesses ``NU`` entities out of ``dbsize``, when the database is
covered by ``ltot`` equal granules:

* ``lock_count(nu)`` — how many locks (``LUi``) must it set?  This is
  what the probabilistic conflict engine and the overhead accounting
  consume.  Random placement returns the *expected* value (a float),
  exactly as the paper's mean-value formula does.
* ``granules(nu, rng)`` — which concrete granule ids does it touch?
  Only the explicit lock-table engine needs this; each strategy
  materialises a set whose size distribution matches its
  ``lock_count`` model.
"""

import math

from repro.analytic.yao import expected_granules_touched


class BestPlacement:
    """Entities packed into the fewest granules (sequential access).

    ``LU = ceil(NU * ltot / dbsize)`` — the number of locks is
    proportional to the fraction of the database accessed.  The
    materialised set is a contiguous wrap-around run of granules
    starting at a random position, mimicking a range scan.
    """

    name = "best"

    def __init__(self, dbsize, ltot):
        self.dbsize = dbsize
        self.ltot = ltot

    def lock_count(self, nu):
        """``ceil(nu * ltot / dbsize)`` (at least 1 for nu >= 1)."""
        if nu <= 0:
            return 0
        return math.ceil(nu * self.ltot / self.dbsize)

    def granules(self, nu, rng):
        """A contiguous run of ``lock_count(nu)`` granules (wraps).

        ``nu <= dbsize`` keeps the count at most ``ltot``, so the run
        wraps at most once: it is one or two ``range``s.
        """
        ltot = self.ltot
        count = self.lock_count(nu)
        start = rng.randrange(ltot)
        wrapped = start + count - ltot
        if wrapped <= 0:
            return list(range(start, start + count))
        return [*range(start, ltot), *range(wrapped)]


class WorstPlacement:
    """Every entity in a different granule (fully scattered access).

    ``LU = min(NU, ltot)`` — a transaction larger than the granule
    count must lock the entire database.
    """

    name = "worst"

    def __init__(self, dbsize, ltot):
        self.dbsize = dbsize
        self.ltot = ltot

    def lock_count(self, nu):
        """``min(nu, ltot)``."""
        return min(nu, self.ltot)

    def granules(self, nu, rng):
        """``lock_count(nu)`` distinct granules chosen uniformly."""
        count = self.lock_count(nu)
        if count >= self.ltot:
            return list(range(self.ltot))
        return rng.sample(range(self.ltot), count)


class RandomPlacement:
    """Entities chosen uniformly at random (Yao's formula).

    ``lock_count`` returns Yao's expectation (a float — the paper's
    mean-value usage).  ``granules`` samples ``NU`` entities without
    replacement and maps them onto granules, so the materialised set's
    size is *exactly* Yao-distributed.
    """

    name = "random"

    def __init__(self, dbsize, ltot):
        self.dbsize = dbsize
        self.ltot = ltot
        self._granule_size = dbsize / ltot

    def lock_count(self, nu):
        """Yao's expected number of granules touched."""
        if nu <= 0:
            return 0.0
        return expected_granules_touched(self.dbsize, self.ltot, nu)

    def granules(self, nu, rng):
        """Granules of ``nu`` entities sampled without replacement."""
        if nu >= self.dbsize:
            return list(range(self.ltot))
        entities = rng.sample(range(self.dbsize), nu)
        # Balanced split: the first (dbsize % ltot) granules hold one
        # extra entity, consistent with the Yao computation.
        small = self.dbsize // self.ltot
        n_large = self.dbsize - small * self.ltot
        boundary = n_large * (small + 1)
        touched = set()
        for entity in entities:
            if entity < boundary:
                touched.add(entity // (small + 1))
            else:
                touched.add(n_large + (entity - boundary) // small)
        return sorted(touched)


class SkewedPlacement:
    """Hot-spot access: granules drawn from a Zipf-like distribution.

    The paper assumes uniformly random access; real workloads
    concentrate on hot data, which raises conflict rates at any
    granularity.  This strategy draws each transaction's granules
    without replacement from a discrete power-law over granule ids
    (weight of granule ``g`` proportional to ``1 / (g + 1)**theta``),
    so granule 0 is the hottest.  ``theta = 0`` degenerates to uniform
    random placement over granules.

    ``lock_count`` is the materialised set's size distributionally, so
    for the probabilistic engine we return ``min(nu, ltot)``-capped
    Yao as an approximation; the engine of record for skew studies is
    the explicit lock table, which uses the exact materialised sets.
    """

    name = "skewed"

    def __init__(self, dbsize, ltot, theta=0.8):
        if theta < 0:
            raise ValueError("theta must be >= 0")
        self.dbsize = dbsize
        self.ltot = ltot
        self.theta = theta
        weights = [1.0 / (g + 1) ** theta for g in range(ltot)]
        total = sum(weights)
        self._cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)

    def lock_count(self, nu):
        """Yao's uniform expectation (approximation; see class doc)."""
        if nu <= 0:
            return 0.0
        return expected_granules_touched(self.dbsize, self.ltot, nu)

    def _draw(self, rng):
        import bisect

        return bisect.bisect_left(self._cumulative, rng.random())

    def granules(self, nu, rng):
        """Up to ``min(nu, ltot)`` distinct granules, hot ones likelier."""
        want = min(nu, self.ltot)
        if want >= self.ltot:
            return list(range(self.ltot))
        chosen = set()
        # Rejection sampling without replacement; the tail switches to
        # a scan so pathological skews still terminate.
        attempts = 0
        while len(chosen) < want and attempts < 20 * want:
            chosen.add(min(self._draw(rng), self.ltot - 1))
            attempts += 1
        granule = 0
        while len(chosen) < want:
            chosen.add(granule)
            granule += 1
        return sorted(chosen)


def make_placement(params):
    """Build the placement strategy described by *params* (via the registry)."""
    from repro.policies import resolve

    return resolve("placement", params.placement)(params)
