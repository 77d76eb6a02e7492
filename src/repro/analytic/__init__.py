"""Closed-form companions to the simulation.

:mod:`repro.analytic.yao`
    Yao's block-access formula (CACM 1977): the expected number of
    granules touched when entities are selected at random — the basis
    of the paper's *random placement* strategy.
:mod:`repro.analytic.granularity`
    Back-of-envelope approximations for conflict probability, lock
    overhead, and the throughput trade-off; used to sanity-check the
    simulator and to pick promising granularities without simulating.
:mod:`repro.analytic.queueing`
    Operational laws (Denning–Buzen) for the closed model: service
    demands, asymptotic throughput/response bounds that the simulator
    provably must obey — and the tests check that it does.
:mod:`repro.analytic.mva`
    The analytic fast path: approximate mean-value analysis coupled
    to a lock-contention fixed point, predicting throughput, blocking
    probability and lock overhead per configuration in microseconds —
    the model behind ``repro-locking predict``/``crossval`` and the
    ``--accelerator analytic`` sweep pruner.

Nothing is imported here, so placement's use of Yao's formula never
loads the MVA solver; import from the submodules.
"""
