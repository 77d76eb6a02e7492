"""Conflict-engine policies (the ``"conflict"`` registry layer).

Factories binding the engines of :mod:`repro.core.conflict` (and the
multi-granularity engine of :mod:`repro.core.hierarchy_engine`) into
the policy registry.  Unlike the other layers these factories take
``(params, rng)`` — the probabilistic engine draws its interval test
from a dedicated stream; table-backed engines ignore the stream.

Capability attributes on each factory replace hardcoded engine-name
checks elsewhere in the stack:

``needs_granules``
    Transactions must materialise their granule sets up front
    (an extra ``placement`` draw per transaction).
``table_backed``
    The engine tracks real per-granule state, so placement policies
    that shape the granule distribution (``skewed``) work.
``supports_granule_cc``
    Granule-tracking CC protocols (``incremental``, ``wound-wait``)
    can run on this engine.
``validate_params``
    Optional hook ``validate_params(params)`` raising ``ValueError``
    for engine-specific parameter problems.
"""

from repro.core.conflict import ExplicitConflicts, ProbabilisticConflicts


def probabilistic(params, rng):
    """The paper's Ries–Stonebraker interval conflict model."""
    return ProbabilisticConflicts(params.ltot, rng)


probabilistic.needs_granules = False
probabilistic.table_backed = False
probabilistic.supports_granule_cc = False


def explicit(params, rng):
    """A real flat lock table over materialised granule sets."""
    return ExplicitConflicts()


explicit.needs_granules = True
explicit.table_backed = True
explicit.supports_granule_cc = True


def hierarchical(params, rng):
    """File/granule multi-granularity locking with optional escalation."""
    from repro.core.hierarchy_engine import HierarchicalConflicts

    # A database of 1 granule cannot have 20 files: clamp so the
    # ltot sweep grids work unchanged.
    return HierarchicalConflicts(
        params.ltot,
        min(params.nfiles, params.ltot),
        params.escalation_threshold,
    )


hierarchical.needs_granules = True
hierarchical.table_backed = True
hierarchical.supports_granule_cc = False


def _validate_hierarchical(params):
    """nfiles/escalation_threshold sanity for the hierarchy engine.

    ``nfiles > ltot`` is *not* an error — the factory clamps it so a
    fixed ``nfiles`` survives sweeps over the ``ltot`` grid — but a
    file count beyond the database size, or an escalation threshold no
    transaction could ever reach, is a dead configuration worth
    rejecting loudly.
    """
    if params.nfiles > params.dbsize:
        raise ValueError(
            "nfiles must be <= dbsize={} (every file holds at least "
            "one block), got {}".format(params.dbsize, params.nfiles)
        )
    if params.escalation_threshold > params.ltot:
        raise ValueError(
            "escalation_threshold must be <= ltot={} (a transaction "
            "can never hold more block locks than exist), got {}".format(
                params.ltot, params.escalation_threshold
            )
        )


hierarchical.validate_params = _validate_hierarchical
