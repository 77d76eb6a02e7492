"""Transaction-size distributions.

The paper's base workload draws ``NUi`` uniformly from ``1 ..
maxtransize`` (mean ≈ ``maxtransize / 2``).  Section 3.6 adds a mixed
workload: 80% small transactions (``maxtransize = 50``) and 20% large
ones (``maxtransize = 500``).  A fixed-size sampler is provided for
controlled experiments and tests.
"""


class UniformSizes:
    """``NU ~ U{1 .. maxtransize}`` (the paper's base workload)."""

    def __init__(self, maxtransize):
        if maxtransize < 1:
            raise ValueError("maxtransize must be >= 1")
        self.maxtransize = maxtransize

    def sample(self, rng):
        """Draw one transaction size."""
        return rng.randint(1, self.maxtransize)

    @property
    def mean(self):
        """Expected transaction size."""
        return (self.maxtransize + 1) / 2.0


class ClassMixSizes:
    """Sampler over a :class:`repro.core.txnclass.WorkloadMix`.

    ``sample`` draws the class (one uniform variate, cumulative
    fraction inversion in declaration order) then that class's size
    from the *same* stream — the single-stream discipline the
    historical ``MixedSizes`` used.  The multi-class model instead
    splits the two draws over dedicated streams via ``pick_class`` /
    ``sample_for`` so every class owns its size stream.
    """

    def __init__(self, mix):
        self.mix = mix
        self._samplers = {
            cls.name: class_size_sampler(cls) for cls in mix
        }

    def pick_class(self, u):
        """The class selected by one uniform variate *u*."""
        return self.mix.pick(u)

    def sample_for(self, cls, rng):
        """Draw one size for *cls* from *rng* (its dedicated stream)."""
        return self._samplers[cls.name].sample(rng)

    def sample(self, rng):
        """Draw one transaction size from the mixture (single stream)."""
        cls = self.mix.pick(rng.random())
        return self._samplers[cls.name].sample(rng)

    @property
    def mean(self):
        """Expected transaction size of the mixture."""
        return self.mix.mean_size


class MixedSizes(ClassMixSizes):
    """A small/large mix (§3.6): each class is itself uniform.

    Re-expressed as a two-class :class:`ClassMixSizes` (compatibility
    alias): the historical coin-flip sampler is exactly a workload
    mix of ``small`` and ``large`` uniform classes, and the random
    stream is consumed identically (one uniform for the class, then
    the class's size draw).

    Parameters
    ----------
    small_fraction:
        Probability a transaction is small (paper: 0.8).
    small_maxtransize / large_maxtransize:
        Upper bounds of the two uniform classes (paper: 50 / 500).
    """

    def __init__(self, small_fraction=0.8, small_maxtransize=50, large_maxtransize=500):
        from repro.core.txnclass import TransactionClass, WorkloadMix

        if not 0.0 <= small_fraction <= 1.0:
            raise ValueError("small_fraction must be in [0, 1]")
        # Degenerate fractions (0 or 1) collapse to one class; the
        # class-pick variate is still drawn, like the historical coin
        # flip, so the stream consumption is unchanged.
        classes = [
            TransactionClass("small", small_fraction, small_maxtransize),
            TransactionClass(
                "large", 1.0 - small_fraction, large_maxtransize
            ),
        ]
        mix = WorkloadMix(
            [cls for cls in classes if cls.fraction > 0.0]
        )
        ClassMixSizes.__init__(self, mix)
        self.small_fraction = small_fraction
        self.small = UniformSizes(small_maxtransize)
        self.large = UniformSizes(large_maxtransize)


class FixedSizes:
    """Every transaction accesses exactly *size* entities."""

    def __init__(self, size):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size

    def sample(self, rng):
        """Return the fixed size (rng unused, kept for interface parity)."""
        return self.size

    @property
    def mean(self):
        """Expected (= fixed) transaction size."""
        return float(self.size)


def class_size_sampler(cls):
    """The per-class sampler for one :class:`TransactionClass`."""
    if cls.size_dist == "fixed":
        return FixedSizes(cls.maxtransize)
    return UniformSizes(cls.maxtransize)


def make_size_sampler(params):
    """Build the size sampler described by *params* (via the registry)."""
    from repro.policies import resolve

    return resolve("workload", params.workload)(params)
