"""Lock modes and their compatibility matrix.

The mode lattice follows Gray's classic multi-granularity scheme:

* ``S``  — shared: read the granule.
* ``X``  — exclusive: read/write the granule.
* ``IS`` — intention shared: S locks will be taken below this node.
* ``IX`` — intention exclusive: X locks will be taken below.
* ``SIX``— S on this node plus IX below (read all, write some).

The paper's simulation model does not distinguish readers from
writers (every transaction effectively takes X locks), but the lock
manager supports the full matrix so that the read-share extension and
the hierarchical substrate are exercised by tests and examples.
"""

import enum


class LockMode(enum.Enum):
    """A lock mode in Gray's multi-granularity lattice."""

    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    X = "X"

    def __str__(self):
        return self.value

    @property
    def is_intention(self):
        """True for IS/IX/SIX — modes taken on ancestors of the target."""
        return self in (LockMode.IS, LockMode.IX, LockMode.SIX)


#: Classic compatibility matrix: ``COMPATIBILITY[held][requested]``.
COMPATIBILITY = {
    LockMode.IS: {
        LockMode.IS: True,
        LockMode.IX: True,
        LockMode.S: True,
        LockMode.SIX: True,
        LockMode.X: False,
    },
    LockMode.IX: {
        LockMode.IS: True,
        LockMode.IX: True,
        LockMode.S: False,
        LockMode.SIX: False,
        LockMode.X: False,
    },
    LockMode.S: {
        LockMode.IS: True,
        LockMode.IX: False,
        LockMode.S: True,
        LockMode.SIX: False,
        LockMode.X: False,
    },
    LockMode.SIX: {
        LockMode.IS: True,
        LockMode.IX: False,
        LockMode.S: False,
        LockMode.SIX: False,
        LockMode.X: False,
    },
    LockMode.X: {
        LockMode.IS: False,
        LockMode.IX: False,
        LockMode.S: False,
        LockMode.SIX: False,
        LockMode.X: False,
    },
}

#: The least mode covering both operands (join in the mode lattice),
#: used when a transaction upgrades a lock it already holds.
_SUPREMUM = {
    (LockMode.IS, LockMode.IS): LockMode.IS,
    (LockMode.IS, LockMode.IX): LockMode.IX,
    (LockMode.IS, LockMode.S): LockMode.S,
    (LockMode.IS, LockMode.SIX): LockMode.SIX,
    (LockMode.IS, LockMode.X): LockMode.X,
    (LockMode.IX, LockMode.IX): LockMode.IX,
    (LockMode.IX, LockMode.S): LockMode.SIX,
    (LockMode.IX, LockMode.SIX): LockMode.SIX,
    (LockMode.IX, LockMode.X): LockMode.X,
    (LockMode.S, LockMode.S): LockMode.S,
    (LockMode.S, LockMode.SIX): LockMode.SIX,
    (LockMode.S, LockMode.X): LockMode.X,
    (LockMode.SIX, LockMode.SIX): LockMode.SIX,
    (LockMode.SIX, LockMode.X): LockMode.X,
    (LockMode.X, LockMode.X): LockMode.X,
}


# Each mode carries one bit and the mask of the modes it admits, so
# compatible() is a single ``&`` on the grant/conflict hot path (it runs
# once per held lock per request under contention) and never hashes an
# enum member.
for _index, _mode in enumerate(LockMode):
    _mode.bit = 1 << _index
for _mode in LockMode:
    _mode.compatible_mask = sum(
        requested.bit
        for requested, ok in COMPATIBILITY[_mode].items()
        if ok
    )
del _index, _mode


def compatible(held, requested):
    """True if *requested* can be granted alongside *held*."""
    return held.compatible_mask & requested.bit != 0


def supremum(a, b):
    """The least mode at least as strong as both *a* and *b*."""
    if (a, b) in _SUPREMUM:
        return _SUPREMUM[(a, b)]
    return _SUPREMUM[(b, a)]
