"""One experiment spec per paper exhibit (Table 1, Figures 2–12), with its claims.

Every builder returns an :class:`~repro.experiments.config.ExperimentSpec`
whose defaults match the paper's setup (Table 1 parameters, horizontal
partitioning, best placement, probabilistic conflicts) with only the
deviations that exhibit studies.  Ablation specs beyond the paper's
exhibits live at the bottom.

Beside each builder sit the exhibit's *claims*, the qualitative
findings it must reproduce, and its *check grid*, the short sweep
those claims are checked on in the test suite.  A claim is a predicate
named for the finding, whose docstring states it.  The predicate reads
curves through ``c(exhibit, y_field) -> {label: {x: y}}``, so a claim
may compare exhibits, and returns ``(holds, numbers)``: a bool and the
numbers it compared.  :func:`check_claims` evaluates them on any set
of results, fresh sweeps or persisted rows alike.
"""

from collections import namedtuple

from repro.core.parameters import TABLE_1, SimulationParameters
from repro.experiments.config import (
    DEFAULT_TMAX,
    LTOT_GRID,
    NPROS_GRID,
    ExperimentSpec,
)

#: maxtransize values of §3.2 (Figure 6).
SIZE_GRID = (50, 100, 500, 2500, 5000)
#: Lock I/O times of §3.3 (Figure 7).
LIOTIME_GRID = (0.2, 0.1, 0.0)
#: Placement strategies of §3.5 (Figures 9–12).
PLACEMENT_GRID = ("best", "random", "worst")


#: Claim verdicts.  Interval-aware comparisons would add "unresolved"
#: (the compared intervals overlap) in :func:`check_claims`.
HOLDS, FAILS, NO_DATA = "holds", "fails", "no data"

#: Horizon of the one-configuration pass of exhibits without claims.
ENTRY_TMAX = 60.0


class Claim(namedtuple("Claim", "exhibit name text predicate")):
    """One qualitative finding of an exhibit, as a checkable predicate."""

    __slots__ = ()

    def __str__(self):
        return "{}:{}".format(self.exhibit, self.name)


#: Every claim, in exhibit order.
CLAIMS = []
#: Exhibit key -> (horizon, sweeps) of its check grid.
CHECK_GRIDS = {}


def _claim(exhibit):
    """Register the decorated predicate as a claim of *exhibit*.

    The claim is named after the predicate, and its docstring is the
    claim's text.
    """

    def register(predicate):
        text = " ".join((predicate.__doc__ or "").split())
        CLAIMS.append(Claim(exhibit, predicate.__name__, text, predicate))
        return predicate

    return register


def _stated(exhibit):
    """*exhibit*'s claims as text: its spec's expected shape."""
    return " ".join(claim.text for claim in CLAIMS if claim.exhibit == exhibit)


def _grid(exhibit, tmax, **sweeps):
    CHECK_GRIDS[exhibit] = (tmax, sweeps)


def _peak(curve, xs=None):
    """The x of *curve*'s maximum, over the points *xs* if given."""
    return max(xs or curve, key=curve.__getitem__)


def _only(c, exhibit, y_field):
    """The single y of a one-point result (Table 1)."""
    (y,) = [y for curve in c(exhibit, y_field).values() for y in curve.values()]
    return y


def _ratios(curve, reference):
    """``curve[x] / reference[x]`` at every x where the reference is positive."""
    return [curve[x] / y for x, y in reference.items() if y > 0]


def _placements(c, exhibit):
    """``{placement: throughput curve}`` of *exhibit*, at npros 30 where npros varies."""
    return {
        label.split(",")[0][len("placement="):]: curve
        for label, curve in c(exhibit, "throughput").items()
        if "npros" not in label or label.endswith("npros=30")
    }


def _base(**changes):
    return SimulationParameters(tmax=DEFAULT_TMAX).replace(**changes)


def table1():
    """Table 1 — the input parameter set (a single run at defaults)."""
    return ExperimentSpec(
        key="table1",
        title="Input parameters used in the simulation experiments",
        base=_base(),
        sweeps={},
        series_fields=(),
        y_fields=("throughput", "response_time"),
        expected_shape=_stated("table1"),
    )


_grid("table1", 150.0)


@_claim("table1")
def parameters_reach_model(c):
    """The Table 1 parameters reach the model unchanged."""
    names = ("dbsize", "ntrans", "cputime", "iotime", "lcputime", "liotime")
    used = {name: _only(c, "table1", name) for name in names}
    return all(used[name] == getattr(TABLE_1, name) for name in names), used


@_claim("table1")
def baseline_io_bound(c):
    """The defaults complete work and are I/O bound."""
    got = {f: _only(c, "table1", f) for f in ("totcom", "io_utilization", "cpu_utilization")}
    return got["totcom"] > 0 and got["io_utilization"] > got["cpu_utilization"], got


def figure2():
    """Fig 2 — throughput & response time vs locks × processors."""
    return ExperimentSpec(
        key="fig2",
        title="Effects of number of locks and number of processors on "
        "throughput and response time",
        base=_base(),
        sweeps={"npros": NPROS_GRID, "ltot": LTOT_GRID},
        series_fields=("npros",),
        y_fields=("throughput", "response_time"),
        expected_shape=_stated("fig2"),
    )


_grid("fig2", 150.0, npros=NPROS_GRID, ltot=(1, 10, 20, 50, 100, 200, 1000, 5000))


@_claim("fig2")
def throughput_rises_with_npros(c):
    """Throughput rises with npros: 30 above 2 at every ltot; 1 < 5 < 30 at ltot 50."""
    t = c("fig2", "throughput")
    gap = min(t["npros=30"][x] - y for x, y in t["npros=2"].items())
    at50 = [t["npros={}".format(n)][50] for n in (1, 5, 30)]
    return gap > 0 and at50[0] < at50[1] < at50[2], {"min gap 30-2": gap, "ltot 50": at50}


@_claim("fig2")
def optimum_interior(c):
    """Each curve peaks >= ltot 1 and > ltot 5000; npros 10 at ltot 20 beats both."""
    t = c("fig2", "throughput")
    peaks = {label: _peak(curve) for label, curve in t.items()}
    inside = all(t[k][x] >= t[k][1] and t[k][x] > t[k][5000] for k, x in peaks.items())
    n10 = t["npros=10"]
    holds = inside and n10[20] > max(n10[1], n10[5000])
    return holds, {"npros 10 at 1/20/5000": [n10[1], n10[20], n10[5000]]}


@_claim("fig2")
def optimum_below_200_locks(c):
    """Each curve peaks at <= 200 locks, npros 30 also on ltot {1,10,50,200,1000,5000}."""
    t = c("fig2", "throughput")
    peaks = {label: _peak(curve) for label, curve in t.items()}
    peaks["npros=30, coarse grid"] = _peak(t["npros=30"], (1, 10, 50, 200, 1000, 5000))
    return all(x <= 200 for x in peaks.values()), peaks


@_claim("fig2")
def fine_penalty_grows_with_npros(c):
    """The loss from ltot 20 to ltot 5000 is larger at npros 30 than at npros 2."""
    t = c("fig2", "throughput")
    loss = [t["npros={}".format(n)][20] - t["npros={}".format(n)][5000] for n in (2, 30)]
    return loss[1] > loss[0], {"loss npros 2/30": loss}


@_claim("fig2")
def response_falls_with_npros(c):
    """Response time: npros 30 below 2 at ltot 100; npros 1 > 10 > 30 at ltot 50."""
    r = c("fig2", "response_time")
    at100 = [r["npros=2"][100], r["npros=30"][100]]
    at50 = [r["npros={}".format(n)][50] for n in (1, 10, 30)]
    holds = at100[1] < at100[0] and at50[0] > at50[1] > at50[2]
    return holds, {"ltot 100 (2, 30)": at100, "ltot 50 (1, 10, 30)": at50}


def figure3():
    """Fig 3 — useful I/O and useful CPU time vs locks × processors."""
    return ExperimentSpec(
        key="fig3",
        title="Effects of number of locks and number of processors on "
        "useful I/O time and useful CPU time",
        base=_base(),
        sweeps={"npros": NPROS_GRID, "ltot": LTOT_GRID},
        series_fields=("npros",),
        y_fields=("usefulios", "usefulcpus"),
        expected_shape=_stated("fig3"),
    )


_grid("fig3", 150.0, npros=(1, 2, 10, 30), ltot=(1, 10, 50, 100, 1000, 5000))


@_claim("fig3")
def useful_time_convex(c):
    """Useful I/O and CPU: ltot 10 >= 0.95x ltot 1 and > 5000; npros 10 I/O peaks at 50."""
    curves = [v for f in ("usefulios", "usefulcpus") for v in c("fig3", f).values()]
    io = c("fig3", "usefulios")["npros=10"]
    holds = all(v[10] >= 0.95 * v[1] and v[10] > v[5000] for v in curves)
    return holds and io[50] > max(io[1], io[5000]), {"npros 10 I/O at 1/50/5000": [
        io[1], io[50], io[5000]]}


@_claim("fig3")
def small_systems_lose_more_to_locks(c):
    """At ltot 5000 npros 1 and npros 2 keep less useful I/O than npros 30."""
    io = c("fig3", "usefulios")
    fine = {n: io["npros={}".format(n)][5000] for n in (1, 2, 30)}
    return fine[1] < fine[30] and fine[2] < fine[30], fine


@_claim("fig3")
def coarse_useful_io_falls_with_npros(c):
    """At ltot 1 npros 30 keeps less useful I/O than npros 1."""
    io = c("fig3", "usefulios")
    coarse = {n: io["npros={}".format(n)][1] for n in (1, 30)}
    return coarse[30] < coarse[1], coarse


def figure4():
    """Fig 4 — lock overhead vs locks × processors, large transactions."""
    return ExperimentSpec(
        key="fig4",
        title="Effect of number of processors and number of locks on lock "
        "overhead with large transactions (maxtransize = 500)",
        base=_base(maxtransize=500),
        sweeps={"npros": NPROS_GRID, "ltot": LTOT_GRID},
        series_fields=("npros",),
        y_fields=("lock_overhead", "lockios", "lockcpus"),
        expected_shape=_stated("fig4"),
    )


_grid("fig4", 150.0, npros=(2, 10, 30), ltot=(1, 10, 100, 200, 1000, 5000))


@_claim("fig4")
def overhead_steep_past_200(c):
    """Lock overhead: ltot 1000 > 100, 5000 > 2x 100 per curve; npros 10 5000 > 3x 200."""
    o = c("fig4", "lock_overhead")
    n10 = o["npros=10"]
    steep = all(v[1000] > v[100] and v[5000] > 2 * v[100] for v in o.values())
    return steep and n10[5000] > 3 * n10[200], {"npros 10 at 100/200/5000": [
        n10[100], n10[200], n10[5000]]}


@_claim("fig4")
def lock_io_dominates(c):
    """Lock I/O time exceeds lock CPU time at ltot 5000 on every curve."""
    io, cpu = c("fig4", "lockios"), c("fig4", "lockcpus")
    pairs = {label: [io[label][5000], cpu[label][5000]] for label in io}
    return all(a > b for a, b in pairs.values()), pairs


def figure5():
    """Fig 5 — lock overhead vs locks × processors, small transactions."""
    return ExperimentSpec(
        key="fig5",
        title="Effect of number of processors and number of locks on lock "
        "overhead with small transactions (maxtransize = 50)",
        base=_base(maxtransize=50),
        sweeps={"npros": NPROS_GRID, "ltot": LTOT_GRID},
        series_fields=("npros",),
        y_fields=("lock_overhead", "lockios", "lockcpus"),
        expected_shape=_stated("fig5"),
    )


_grid("fig5", 150.0, npros=(2, 10, 30), ltot=(1, 10, 100, 1000, 5000))


@_claim("fig5")
def overhead_rises_to_fine(c):
    """Lock overhead at ltot 5000 exceeds ltot 100 on every curve."""
    pairs = {label: [v[100], v[5000]] for label, v in c("fig5", "lock_overhead").items()}
    return all(fine > mid for mid, fine in pairs.values()), pairs


@_claim("fig5")
def small_txns_more_overhead_when_coarse(c):
    """Small transactions pay more lock overhead: fig5 above fig4 at npros 10, ltot 10."""
    small, large = (c(key, "lock_overhead")["npros=10"][10] for key in ("fig5", "fig4"))
    return small > large, {"fig5": small, "fig4": large}


def figure6():
    """Fig 6 — throughput & response time vs locks × transaction size."""
    return ExperimentSpec(
        key="fig6",
        title="Effects of number of locks and transaction size on "
        "throughput and response time (npros = 10)",
        base=_base(npros=10),
        sweeps={"maxtransize": SIZE_GRID, "ltot": LTOT_GRID},
        series_fields=("maxtransize",),
        y_fields=("throughput", "response_time"),
        expected_shape=_stated("fig6"),
    )


_grid(
    "fig6", 150.0, maxtransize=(50, 500, 2500, 5000),
    ltot=(1, 5, 10, 20, 100, 500, 1000, 5000),
)
#: The ltot points the optimum shift between sizes is read on.
_FIG6_SHIFT_GRID = (1, 5, 20, 100, 500, 5000)


@_claim("fig6")
def small_txns_higher_throughput(c):
    """maxtransize 50 beats 5000 at every ltot > 1, and by over 5x at ltot 100."""
    t = c("fig6", "throughput")
    small, large = t["maxtransize=50"], t["maxtransize=5000"]
    above = all(small[x] > y for x, y in large.items() if x > 1)
    return above and small[100] > 5 * large[100], {"ltot 100": [small[100], large[100]]}


@_claim("fig6")
def optimum_below_200(c):
    """Every size's throughput peaks at <= 200 locks."""
    t = c("fig6", "throughput")
    peaks = {label: _peak(curve) for label, curve in t.items()}
    peaks["maxtransize=50, shift grid"] = _peak(t["maxtransize=50"], _FIG6_SHIFT_GRID)
    return all(x <= 200 for x in peaks.values()), peaks


@_claim("fig6")
def optimum_shifts_right(c):
    """maxtransize 50 peaks at or past maxtransize 2500's peak."""
    t = c("fig6", "throughput")
    small, large = (_peak(t[k], _FIG6_SHIFT_GRID) for k in ("maxtransize=50", "maxtransize=2500"))
    return small >= large, {"peak 50": small, "peak 2500": large}


@_claim("fig6")
def small_txns_flatter_response(c):
    """Response time spans a narrower range at maxtransize 50 than at 5000."""
    curves = (c("fig6", "response_time")[k] for k in ("maxtransize=50", "maxtransize=5000"))
    spread = [max(v.values()) - min(v.values()) for v in curves]
    return spread[0] < spread[1], {"spread 50/5000": spread}


def figure7():
    """Fig 7 — throughput vs locks × lock I/O time."""
    return ExperimentSpec(
        key="fig7",
        title="Effects of number of locks and lock I/O time on throughput "
        "(npros = 10)",
        base=_base(npros=10),
        sweeps={"liotime": LIOTIME_GRID, "ltot": LTOT_GRID},
        series_fields=("liotime",),
        y_fields=("throughput",),
        expected_shape=_stated("fig7"),
    )


_grid("fig7", 150.0, liotime=LIOTIME_GRID, ltot=(1, 10, 100, 1000, 5000))


def _liotime(c):
    """Throughput curves at liotime 0.2, 0.1 and 0."""
    t = c("fig7", "throughput")
    return t["liotime=0.2"], t["liotime=0.1"], t["liotime=0.0"]


@_claim("fig7")
def zero_lock_io_flat(c):
    """With liotime 0 ltot 5000 is within 10% of ltot 100."""
    zero = _liotime(c)[2]
    return abs(zero[5000] - zero[100]) <= 0.10 * zero[100], {"ltot 100/5000": [
        zero[100], zero[5000]]}


@_claim("fig7")
def lock_io_punishes_fine(c):
    """With liotime 0.2 ltot 5000 is below 0.7x ltot 100."""
    full = _liotime(c)[0]
    return full[5000] < 0.7 * full[100], {"ltot 100/5000": [full[100], full[5000]]}


@_claim("fig7")
def intermediate_cost_between(c):
    """At ltot 5000 liotime 0.1 sits between liotime 0.2 and 1.05x liotime 0."""
    at = [curve[5000] for curve in _liotime(c)]
    return at[0] <= at[1] <= 1.05 * at[2], {"liotime 0.2/0.1/0": at}


@_claim("fig7")
def memory_table_no_higher_peak(c):
    """A memory-resident lock table (liotime 0) peaks within 1.15x of liotime 0.2."""
    full, _, zero = _liotime(c)
    peaks = [max(zero.values()), max(full.values())]
    near = [max(zero[x] for x in (10, 100, 5000)), max(full[x] for x in (10, 100))]
    return peaks[0] <= 1.15 * peaks[1] and near[0] <= 1.15 * near[1], {"peak 0/0.2": peaks}


def figure8():
    """Fig 8 — Fig 2's sweep under random partitioning."""
    return ExperimentSpec(
        key="fig8",
        title="Effects of number of locks and number of processors on "
        "throughput (random partitioning)",
        base=_base(partitioning="random"),
        sweeps={"npros": NPROS_GRID, "ltot": LTOT_GRID},
        series_fields=("npros",),
        y_fields=("throughput",),
        expected_shape=_stated("fig8"),
    )


_grid("fig8", 150.0, npros=(2, 10, 20, 30), ltot=(1, 10, 50, 100, 1000, 5000))


@_claim("fig8")
def npros_ordering_kept(c):
    """Random partitioning: npros 30 above 2 at every ltot; 2 < 10 < 30 at ltot 50."""
    t = c("fig8", "throughput")
    gap = min(t["npros=30"][x] - y for x, y in t["npros=2"].items())
    at50 = [t["npros={}".format(n)][50] for n in (2, 10, 30)]
    return gap > 0 and at50[0] < at50[1] < at50[2], {"min gap 30-2": gap, "ltot 50": at50}


@_claim("fig8")
def horizontal_beats_random(c):
    """Horizontal partitioning (fig2) beats random (fig8) at npros 10, ltot 10 and 100."""
    h, r = (c(key, "throughput")["npros=10"] for key in ("fig2", "fig8"))
    pairs = {x: [h[x], r[x]] for x in (10, 100)}
    return all(a > b for a, b in pairs.values()), pairs


@_claim("fig8")
def horizontal_beats_random_npros_20(c):
    """Horizontal partitioning (fig2) beats random (fig8) at npros 20, ltot 50."""
    h, r = (c(key, "throughput")["npros=20"][50] for key in ("fig2", "fig8"))
    return h > r, {"fig2": h, "fig8": r}


def figure9():
    """Fig 9 — placement strategies, large transactions."""
    return ExperimentSpec(
        key="fig9",
        title="Effects of number of locks and granule placement on "
        "throughput with large transactions (maxtransize = 500)",
        base=_base(maxtransize=500),
        sweeps={
            "placement": PLACEMENT_GRID,
            "npros": (1, 30),
            "ltot": LTOT_GRID,
        },
        series_fields=("placement", "npros"),
        y_fields=("throughput",),
        expected_shape=_stated("fig9"),
    )


_grid("fig9", 150.0, npros=(30,), ltot=(1, 20, 250, 1000, 5000))


@_claim("fig9")
def best_placement_convex(c):
    """Best placement's peak is above both ltot 1 and ltot 5000 (npros 30)."""
    best = _placements(c, "fig9")["best"]
    peak = max(best.values())
    return peak > max(best[1], best[5000]), {"ltot 1/peak/5000": [best[1], peak, best[5000]]}


@_claim("fig9")
def trough_at_mean_size(c):
    """Random and worst placement: ltot 250 below ltot 1 and ltot 5000 (npros 30)."""
    p = _placements(c, "fig9")
    at = {name: [p[name][x] for x in (1, 250, 5000)] for name in ("random", "worst")}
    return all(v[1] < min(v[0], v[2]) for v in at.values()), at


@_claim("fig9")
def worst_not_above_random(c):
    """Worst placement stays at or below 1.05x random at every ltot (npros 30)."""
    p = _placements(c, "fig9")
    rand, worst = p["random"], p["worst"]
    x = max(rand, key=lambda x: worst[x] - 1.05 * rand[x])
    return worst[x] <= 1.05 * rand[x], {"closest ltot": x, "random, worst": [rand[x], worst[x]]}


@_claim("fig9")
def placements_meet_at_extremes(c):
    """Worst equals best at ltot 1 and is within 25% of it at ltot 5000 (npros 30)."""
    p = _placements(c, "fig9")
    best, worst = p["best"], p["worst"]
    holds = worst[1] == best[1] and abs(worst[5000] - best[5000]) < 0.25 * best[5000]
    return holds, {"ltot 1": [best[1], worst[1]], "ltot 5000": [best[5000], worst[5000]]}


def figure10():
    """Fig 10 — placement strategies, small transactions."""
    return ExperimentSpec(
        key="fig10",
        title="Effects of number of locks and granule placement on "
        "throughput with small transactions (maxtransize = 50)",
        base=_base(maxtransize=50),
        sweeps={
            "placement": PLACEMENT_GRID,
            "npros": (1, 30),
            "ltot": LTOT_GRID,
        },
        series_fields=("placement", "npros"),
        y_fields=("throughput",),
        expected_shape=_stated("fig10"),
    )


_grid("fig10", 150.0, npros=(30,), ltot=(1, 25, 50, 100, 1000, 5000))


@_claim("fig10")
def trough_near_mean_size(c):
    """Random/worst trough at ltot 25 or 100 of {1, 25, 100, 1000, 5000}, then 1.5x at 5000."""
    p = _placements(c, "fig10")
    troughs = {k: min((1, 25, 100, 1000, 5000), key=p[k].__getitem__) for k in ("random", "worst")}
    holds = all(x in (25, 100) and p[k][5000] > 1.5 * p[k][x] for k, x in troughs.items())
    return holds, troughs


@_claim("fig10")
def best_dominates_random(c):
    """Best placement stays at or above 0.95x random at every ltot (npros 30)."""
    p = _placements(c, "fig10")
    rand, best = p["random"], p["best"]
    x = min(rand, key=lambda x: best[x] - 0.95 * rand[x])
    return best[x] >= 0.95 * rand[x], {"closest ltot": x, "random, best": [rand[x], best[x]]}


@_claim("fig10")
def placements_agree_at_ltot_1(c):
    """Best and worst placement agree within 5% at ltot 1 (npros 30)."""
    p = _placements(c, "fig10")
    best, worst = p["best"][1], p["worst"][1]
    return abs(best - worst) <= 0.05 * worst, {"best": best, "worst": worst}


@_claim("fig10")
def small_random_wants_fine(c):
    """Random placement at ltot 5000 beats 1.5x its ltot 50 throughput (npros 30)."""
    rand = _placements(c, "fig10")["random"]
    return rand[5000] > 1.5 * rand[50], {"ltot 50/5000": [rand[50], rand[5000]]}


def figure11():
    """Fig 11 — placement strategies under the 80/20 size mix."""
    return ExperimentSpec(
        key="fig11",
        title="Effects of number of locks and granule placement on "
        "throughput with mixed transactions: 80% small and 20% large "
        "(npros = 30)",
        base=_base(npros=30, workload="mixed"),
        sweeps={"placement": PLACEMENT_GRID, "ltot": LTOT_GRID},
        series_fields=("placement",),
        y_fields=("throughput",),
        expected_shape=_stated("fig11"),
    )


_grid("fig11", 150.0, ltot=(1, 100, 5000))


def _size_mix(c):
    """``{placement: [large, mixed, small]}`` throughput at ltot 5000, npros 30."""
    large, small = _placements(c, "fig9"), _placements(c, "fig10")
    return {
        name: [large[name][5000], mixed[5000], small[name][5000]]
        for name, mixed in _placements(c, "fig11").items()
    }


@_claim("fig11")
def mix_between_extremes(c):
    """At ltot 5000 the 80/20 mix lies between fig9 (large) and fig10 (small), any placement."""
    at = _size_mix(c)
    return all(large < mixed < small for large, mixed, small in at.values()), at


@_claim("fig11")
def mix_dragged_below_small(c):
    """At ltot 5000 the 80/20 mix stays below 0.6x fig10's all-small throughput."""
    ratio = {name: mixed / small for name, (_, mixed, small) in _size_mix(c).items()}
    return all(r < 0.6 for r in ratio.values()), {"mix/small": ratio}


def figure12():
    """Fig 12 — heavy load (ntrans = 200) × placement strategies."""
    return ExperimentSpec(
        key="fig12",
        title="Effects of number of locks and granule placement on "
        "throughput with large number of transactions (ntrans = 200, "
        "npros = 20, maxtransize = 500)",
        base=_base(ntrans=200, npros=20, maxtransize=500),
        sweeps={"placement": PLACEMENT_GRID, "ltot": LTOT_GRID},
        series_fields=("placement",),
        y_fields=("throughput",),
        expected_shape=_stated("fig12"),
    )


_grid("fig12", 500.0, placement=("best", "random"), ltot=(1, 100, 5000))


@_claim("fig12")
def fine_below_single_lock(c):
    """Under heavy load ltot 5000 yields less throughput than ltot 1, any placement."""
    at = {name: [v[1], v[5000]] for name, v in _placements(c, "fig12").items()}
    return all(fine < coarse for coarse, fine in at.values()), at


@_claim("fig12")
def fine_below_ltot_100(c):
    """Under heavy load ltot 5000 yields less throughput than ltot 100, any placement."""
    at = {name: [v[100], v[5000]] for name, v in _placements(c, "fig12").items()}
    return all(fine < mid for mid, fine in at.values()), at


@_claim("fig12")
def overhead_grows_with_population(c):
    """Lock overhead per time unit at ltot 5000: ntrans 200 (fig12) above 10 (fig2, npros 20)."""
    rate = [
        c(key, "lock_overhead")[label][5000] / c(key, "tmax")[label][5000]
        for key, label in (("fig12", "placement=best"), ("fig2", "npros=20"))
    ]
    return rate[0] > rate[1], {"ntrans 200/10": rate}


# -- ablations beyond the paper's exhibits --------------------------------


def ablation_conflict_engine():
    """Probabilistic vs explicit lock-table conflicts on the Fig 2 grid."""
    return ExperimentSpec(
        key="ablation_conflict",
        title="Ablation: probabilistic interval model vs explicit lock "
        "table (npros = 10)",
        base=_base(npros=10),
        sweeps={
            "conflict_engine": ("probabilistic", "explicit"),
            "ltot": LTOT_GRID,
        },
        series_fields=("conflict_engine",),
        y_fields=("throughput", "denial_rate"),
        expected_shape=_stated("ablation_conflict"),
    )


_grid("ablation_conflict", 150.0, ltot=(1, 10, 20, 100, 1000, 5000))


def _engines(c):
    t = c("ablation_conflict", "throughput")
    return t["conflict_engine=probabilistic"], t["conflict_engine=explicit"]


@_claim("ablation_conflict")
def engines_same_shape(c):
    """Both engines: ltot 10 above 0.95x ltot 1 and above ltot 5000."""
    at = [[v[x] for x in (1, 10, 5000)] for v in _engines(c)]
    return all(v[1] > 0.95 * v[0] and v[1] > v[2] for v in at), {"prob, expl": at}


@_claim("ablation_conflict")
def engines_agree_within_band(c):
    """The explicit table stays within 0.6x-1.7x of the interval model at every ltot."""
    prob, expl = _engines(c)
    ratios = _ratios(expl, prob)
    return all(0.6 < r < 1.7 for r in ratios), {"range": [min(ratios), max(ratios)]}


@_claim("ablation_conflict")
def engines_same_regime_ordering(c):
    """Both engines order ltot 20 against ltot 1 and ltot 5000 the same way."""
    prob, expl = _engines(c)
    same = all((prob[20] > prob[x]) == (expl[20] > expl[x]) for x in (1, 5000))
    return same, {"prob, expl at 1/20/5000": [[v[x] for x in (1, 20, 5000)] for v in (prob, expl)]}


def ablation_protocol():
    """Preclaim vs incremental (claim-as-needed) 2PL — footnote 1."""
    return ExperimentSpec(
        key="ablation_protocol",
        title="Ablation: conservative preclaim vs claim-as-needed 2PL "
        "(explicit engine, npros = 10)",
        base=_base(npros=10, conflict_engine="explicit"),
        sweeps={"protocol": ("preclaim", "incremental"), "ltot": LTOT_GRID},
        series_fields=("protocol",),
        y_fields=("throughput", "deadlock_aborts"),
        expected_shape=_stated("ablation_protocol"),
    )


_grid("ablation_protocol", 150.0, ltot=(1, 10, 100, 1000, 5000))


@_claim("ablation_protocol")
def protocols_collapse_at_fine(c):
    """Both 2PL variants: ltot 10 above ltot 5000."""
    t = c("ablation_protocol", "throughput")
    at = {k: [t[k][10], t[k][5000]] for k in ("protocol=preclaim", "protocol=incremental")}
    return all(mid > fine for mid, fine in at.values()), at


@_claim("ablation_protocol")
def incremental_tracks_preclaim(c):
    """Claim-as-needed stays within 0.5x-2x of preclaim at every ltot."""
    t = c("ablation_protocol", "throughput")
    ratios = _ratios(t["protocol=incremental"], t["protocol=preclaim"])
    return all(0.5 < r < 2.0 for r in ratios), {"range": [min(ratios), max(ratios)]}


@_claim("ablation_protocol")
def preclaim_deadlock_free(c):
    """Preclaim never aborts for deadlock."""
    aborts = c("ablation_protocol", "deadlock_aborts")["protocol=preclaim"]
    return all(v == 0 for v in aborts.values()), {"max aborts": max(aborts.values())}


def ablation_cc_protocols():
    """All four CC protocols on the paper's granularity grid.

    The blocking protocols (preclaim, incremental) against the
    restart-oriented family (no-waiting, wound-wait) — the comparison
    Agrawal/Carey/Livny framed for single-site systems, here on the
    paper's multiprocessor grid.  The explicit engine is used for all
    four so the protocols differ only in conflict-resolution policy.
    """
    return ExperimentSpec(
        key="ablation_cc",
        title="Ablation: concurrency-control protocols (explicit engine, "
        "npros = 10)",
        base=_base(npros=10, conflict_engine="explicit"),
        sweeps={
            "protocol": ("preclaim", "incremental", "no-waiting", "wound-wait"),
            "ltot": LTOT_GRID,
        },
        series_fields=("protocol",),
        y_fields=("throughput", "deadlock_aborts", "denial_rate"),
        expected_shape=_stated("ablation_cc"),
    )


_grid("ablation_cc", 300.0, ltot=(10, 100, 1000))


def _cc(c, field):
    curves = c("ablation_cc", field)
    return {
        name: curves["protocol=" + name]
        for name in ("preclaim", "incremental", "no-waiting", "wound-wait")
    }


@_claim("ablation_cc")
def no_waiting_thrashes_at_fine(c):
    """At ltot 1000 no-waiting completes nothing; preclaim, incremental, wound-wait keep > 0.1."""
    at = {name: curve[1000] for name, curve in _cc(c, "throughput").items()}
    others = [y for name, y in at.items() if name != "no-waiting"]
    return at["no-waiting"] == 0 and min(others) > 0.1, at


@_claim("ablation_cc")
def wound_wait_tracks_incremental(c):
    """Wound-wait stays within 0.85x-1.15x of incremental's throughput at every ltot."""
    t = _cc(c, "throughput")
    ratios = _ratios(t["wound-wait"], t["incremental"])
    return all(0.85 < r < 1.15 for r in ratios), {"range": [min(ratios), max(ratios)]}


@_claim("ablation_cc")
def no_waiting_restarts_most(c):
    """No-waiting aborts at least 10x as often as wound-wait at every ltot."""
    aborts = _cc(c, "deadlock_aborts")
    nowait, wound = aborts["no-waiting"], aborts["wound-wait"]
    holds = all(y > 0 and y >= 10 * wound[x] for x, y in nowait.items())
    return holds, {"min ratio": min(_ratios(nowait, wound), default=float("inf"))}


def ablation_txn_scheduling():
    """Admission policies under heavy load (the §3.7 remedy)."""
    return ExperimentSpec(
        key="ablation_scheduling",
        title="Ablation: transaction admission policies under heavy load "
        "(ntrans = 200, npros = 20)",
        base=_base(ntrans=200, npros=20, maxtransize=500),
        sweeps={
            "txn_policy": ("fcfs", "smallest", "adaptive"),
            "ltot": (1, 10, 100, 1000, 5000),
        },
        series_fields=("txn_policy",),
        y_fields=("throughput", "denial_rate"),
        expected_shape=_stated("ablation_scheduling"),
    )


_grid("ablation_scheduling", 500.0, txn_policy=("fcfs", "adaptive"), ltot=(1, 5000))


def _policies_at_5000(c, field):
    curves = c("ablation_scheduling", field)
    return curves["txn_policy=fcfs"][5000], curves["txn_policy=adaptive"][5000]


@_claim("ablation_scheduling")
def adaptive_recovers_fine(c):
    """Under heavy load adaptive admission beats FCFS throughput at ltot 5000."""
    fcfs, adaptive = _policies_at_5000(c, "throughput")
    return adaptive > fcfs, {"fcfs": fcfs, "adaptive": adaptive}


@_claim("ablation_scheduling")
def adaptive_fewer_fine_denials(c):
    """Under heavy load adaptive admission lowers the denial rate at ltot 5000."""
    fcfs, adaptive = _policies_at_5000(c, "denial_rate")
    return adaptive < fcfs, {"fcfs": fcfs, "adaptive": adaptive}


def ablation_discipline():
    """Sub-transaction scheduling discipline (refs [3]): FCFS vs SJF."""
    return ExperimentSpec(
        key="ablation_discipline",
        title="Ablation: sub-transaction queueing discipline at each "
        "CPU/disk (npros = 10)",
        base=_base(npros=10),
        sweeps={"discipline": ("fcfs", "sjf"), "ltot": (1, 10, 100, 1000, 5000)},
        series_fields=("discipline",),
        y_fields=("throughput", "response_time"),
        expected_shape=_stated("ablation_discipline"),
    )


_grid("ablation_discipline", 150.0, ltot=(1, 100, 5000))


def _disciplines(c):
    t = c("ablation_discipline", "throughput")
    return t["discipline=fcfs"], t["discipline=sjf"]


@_claim("ablation_discipline")
def sjf_tracks_fcfs(c):
    """SJF stays within 0.7x-1.4x of FCFS throughput at every ltot."""
    fcfs, sjf = _disciplines(c)
    ratios = _ratios(sjf, fcfs)
    return all(0.7 < r < 1.4 for r in ratios), {"range": [min(ratios), max(ratios)]}


@_claim("ablation_discipline")
def disciplines_same_fine_falloff(c):
    """FCFS and SJF agree on whether ltot 100 beats ltot 5000."""
    fcfs, sjf = _disciplines(c)
    same = (fcfs[100] > fcfs[5000]) == (sjf[100] > sjf[5000])
    return same, {"fcfs, sjf at 100/5000": [[v[100], v[5000]] for v in (fcfs, sjf)]}


def ablation_escalation():
    """Lock escalation (file/block hierarchy) vs flat granularity."""
    return ExperimentSpec(
        key="ablation_escalation",
        title="Ablation: lock escalation over a file/block hierarchy vs "
        "flat block locking (npros = 10, 10 files)",
        base=_base(
            npros=10, conflict_engine="hierarchical", nfiles=10
        ),
        sweeps={
            "escalation_threshold": (0, 10),
            "ltot": (100, 500, 1000, 5000),
        },
        series_fields=("escalation_threshold",),
        y_fields=("throughput", "lock_overhead", "lock_escalations"),
        expected_shape=_stated("ablation_escalation"),
    )


_grid("ablation_escalation", 150.0, ltot=(100, 1000, 5000))


def _escalation(c, field):
    curves = c("ablation_escalation", field)
    return curves["escalation_threshold=0"], curves["escalation_threshold=10"]


@_claim("ablation_escalation")
def escalation_trims_fine_overhead(c):
    """Escalation lowers lock overhead at ltot 1000 and 5000."""
    flat, escalated = _escalation(c, "lock_overhead")
    at = {x: [flat[x], escalated[x]] for x in (1000, 5000)}
    return all(esc < plain for plain, esc in at.values()), at


@_claim("ablation_escalation")
def escalation_fires(c):
    """Escalation fires at least once."""
    fired = _escalation(c, "lock_escalations")[1]
    return max(fired.values()) > 0, {"max escalations": max(fired.values())}


@_claim("ablation_escalation")
def escalation_keeps_fine_throughput(c):
    """Escalation keeps ltot 5000 throughput at or above 0.95x flat locking."""
    flat, escalated = _escalation(c, "throughput")
    return escalated[5000] >= 0.95 * flat[5000], {"flat, escalated": [flat[5000], escalated[5000]]}


def ablation_read_mix():
    """Read/write mix: shared locks soften the granularity trade-off."""
    return ExperimentSpec(
        key="ablation_readmix",
        title="Ablation: fraction of update transactions (S/X sharing) "
        "vs lock granularity (npros = 10)",
        base=_base(npros=10),
        sweeps={
            "write_fraction": (1.0, 0.5, 0.1),
            "ltot": (1, 10, 100, 1000, 5000),
        },
        series_fields=("write_fraction",),
        y_fields=("throughput", "denial_rate"),
        expected_shape=_stated("ablation_readmix"),
    )


_grid("ablation_readmix", 150.0, ltot=(1, 100, 5000))


@_claim("ablation_readmix")
def readers_no_worse_when_coarse(c):
    """10% writers keep at least 0.98x the all-writer throughput at ltot 1 and 100."""
    t = c("ablation_readmix", "throughput")
    at = {x: [t["write_fraction=1.0"][x], t["write_fraction=0.1"][x]] for x in (1, 100)}
    return all(readers >= 0.98 * writers for writers, readers in at.values()), at


@_claim("ablation_readmix")
def readers_fewer_coarse_denials(c):
    """10% writers are denied less often than all writers at ltot 1."""
    d = c("ablation_readmix", "denial_rate")
    writers, readers = d["write_fraction=1.0"][1], d["write_fraction=0.1"][1]
    return readers < writers, {"all writers": writers, "10% writers": readers}


@_claim("ablation_readmix")
def fine_still_pays_overhead(c):
    """With 10% writers ltot 5000 still sits below the throughput curve's peak."""
    readers = c("ablation_readmix", "throughput")["write_fraction=0.1"]
    peak = max(readers.values())
    return readers[5000] < peak, {"ltot 5000": readers[5000], "peak": peak}


def ablation_analytic():
    """Sim-vs-analytic cross-validation grid (the analytic fast path).

    A deliberately small grid (3 lock counts × 2 processor counts)
    spanning the optimum and both flanks, used by ``repro-locking
    crossval`` and CI's crossval-smoke job to bound the mean-value
    model's error cheaply.  The full Fig. 2 grid is the thorough
    validation; this is the canary.
    """
    return ExperimentSpec(
        key="ablation_analytic",
        title="Ablation: simulated vs analytic mean-value model "
        "(npros = 10, 30)",
        base=_base(),
        sweeps={"npros": (10, 30), "ltot": (10, 100, 1000)},
        series_fields=("npros",),
        y_fields=("throughput", "response_time"),
        expected_shape=(
            "The analytic model tracks simulated throughput within "
            "~15% mean relative error on valid cells; both agree the "
            "optimum sits at intermediate granularity."
        ),
    )


def ablation_classes():
    """Multi-class mix: per-class granularity curves.

    A two-class OLTP/batch mix (80% short transactions of up to 50
    blocks, 20% batch jobs of up to 1000) swept over the paper's lock
    grid.  The per-class columns (``throughput__oltp`` /
    ``throughput__batch`` and the response times) expose what the
    aggregate curve averages away: each class loses throughput at
    both extremes of the grid, and batch members, which pay lock
    overhead per granule across huge access sets, respond slower
    there.  The batch curve is flat from ltot 5 to 200 at the full
    horizon, so where it peaks is not resolved.
    """
    return ExperimentSpec(
        key="ablation_classes",
        title="Ablation: two-class OLTP/batch mix vs lock granularity "
        "(npros = 10, 80% oltp <= 50, 20% batch <= 1000)",
        base=_base(
            npros=10,
            workload="classes",
            txn_classes="oltp:0.8:50,batch:0.2:1000",
        ),
        sweeps={"ltot": LTOT_GRID},
        series_fields=(),
        y_fields=(
            "throughput",
            "throughput__oltp",
            "throughput__batch",
            "response_time__oltp",
            "response_time__batch",
        ),
        expected_shape=_stated("ablation_classes"),
    )


_grid("ablation_classes", 300.0, ltot=(1, 20, 200, 5000))


def _classes(c, field):
    return {
        name: c("ablation_classes", "{}__{}".format(field, name))["all"]
        for name in ("oltp", "batch")
    }


@_claim("ablation_classes")
def each_class_peaks_inside(c):
    """Each class's throughput peaks above both its ltot 1 and its ltot 5000 point."""
    at = {
        "{} at 1/{}/5000".format(name, _peak(curve)): [curve[1], curve[_peak(curve)], curve[5000]]
        for name, curve in _classes(c, "throughput").items()
    }
    return all(peak > max(coarse, fine) for coarse, peak, fine in at.values()), at


@_claim("ablation_classes")
def batch_slower_at_extremes(c):
    """Batch response time is above oltp's at ltot 1 and at ltot 5000."""
    r = _classes(c, "response_time")
    at = {"oltp, batch at {}".format(x): [r["oltp"][x], r["batch"][x]] for x in (1, 5000)}
    return all(batch > oltp for oltp, batch in at.values()), at


def ablation_commit():
    """Distributed commit protocols vs granularity × network latency.

    The paper's machine, split across a 3-node cluster: every
    transaction still runs its sub-transactions on the shared
    multiprocessor, but the commit decision now crosses the network.
    2PC (presumed abort) pays two round trips to every participant on
    the critical path; primary-copy replication pays roughly one
    forward trip and lets readers commit locally.  Sweeping the
    paper's ``ltot`` grid at two network latencies measures what
    commit costs against lock contention: at these latencies commit
    latency stays a few percent of response time, so the protocol
    barely moves the granularity curve.
    """
    return ExperimentSpec(
        key="ablation_commit",
        title="Ablation: distributed commit protocol vs lock granularity "
        "and network latency (npros = 10, nnodes = 3)",
        base=_base(npros=10, nnodes=3),
        sweeps={
            "commit_protocol": ("2pc", "primary-copy"),
            "net_latency": (0.05, 0.5),
            "ltot": LTOT_GRID,
        },
        series_fields=("commit_protocol", "net_latency"),
        y_fields=("throughput", "response_time", "commit_latency",
                  "messages_sent"),
        expected_shape=_stated("ablation_commit"),
    )


_grid("ablation_commit", 300.0, ltot=(10, 1000))


def _primary_copy_ratios(c, field):
    """Primary-copy's *field* over 2PC's, at every latency and ltot."""
    curves = c("ablation_commit", field)
    label = "commit_protocol={}, net_latency={}".format
    return [
        r for latency in (0.05, 0.5)
        for r in _ratios(curves[label("primary-copy", latency)], curves[label("2pc", latency)])
    ]


@_claim("ablation_commit")
def primary_copy_commits_faster(c):
    """Primary-copy's commit latency is 0.6x-0.7x of 2PC's at every point."""
    ratios = _primary_copy_ratios(c, "commit_latency")
    return all(0.6 < r < 0.7 for r in ratios), {"range": [min(ratios), max(ratios)]}


@_claim("ablation_commit")
def primary_copy_fewer_messages(c):
    """Primary-copy sends under 0.6x of 2PC's messages at every point."""
    ratios = _primary_copy_ratios(c, "messages_sent")
    return all(r < 0.6 for r in ratios), {"max ratio": max(ratios)}


@_claim("ablation_commit")
def commit_barely_moves_throughput(c):
    """Primary-copy keeps 0.9x-1.1x of 2PC's throughput: commit takes under 3% of response time."""
    ratios = _primary_copy_ratios(c, "throughput")
    latency, response = (c("ablation_commit", f) for f in ("commit_latency", "response_time"))
    share = max(
        latency[label][x] / y
        for label, curve in response.items() for x, y in curve.items() if y > 0
    )
    holds = all(0.9 < r < 1.1 for r in ratios) and share < 0.03
    return holds, {"range": [min(ratios), max(ratios)], "max commit share": share}


def ablation_open_system():
    """Open Poisson arrivals: saturation knee vs lock granularity."""
    return ExperimentSpec(
        key="ablation_open",
        title="Ablation: open-system saturation vs lock granularity "
        "(npros = 10, Poisson arrivals)",
        base=_base(npros=10, arrival_process="open"),
        sweeps={
            "ltot": (20, 5000),
            "arrival_rate": (0.05, 0.1, 0.15, 0.2),
        },
        x_field="arrival_rate",
        series_fields=("ltot",),
        y_fields=("throughput", "response_time", "mean_blocked"),
        expected_shape=_stated("ablation_open"),
    )


_grid("ablation_open", 300.0, ltot=(20, 5000))


def _open_at(c, field, rate):
    curves = c("ablation_open", field)
    return curves["ltot=20"][rate], curves["ltot=5000"][rate]


@_claim("ablation_open")
def both_track_light_load(c):
    """At arrival rate 0.05 ltot 20 carries over 0.035 and ltot 5000 over 0.03."""
    good, fine = _open_at(c, "throughput", 0.05)
    return good > 0.035 and fine > 0.03, {"ltot 20": good, "ltot 5000": fine}


@_claim("ablation_open")
def fine_saturates_first(c):
    """At arrival rate 0.15 ltot 20 carries over 1.5x the throughput of ltot 5000."""
    good, fine = _open_at(c, "throughput", 0.15)
    return good > 1.5 * fine, {"ltot 20": good, "ltot 5000": fine}


@_claim("ablation_open")
def fine_backlog_explodes(c):
    """At arrival rate 0.2 ltot 5000 has more blocked transactions than ltot 20."""
    good, fine = _open_at(c, "mean_blocked", 0.2)
    return fine > good, {"ltot 20": good, "ltot 5000": fine}


#: Registry of every exhibit and ablation, by key.
EXHIBITS = {
    "table1": table1,
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "fig11": figure11,
    "fig12": figure12,
    "ablation_conflict": ablation_conflict_engine,
    "ablation_protocol": ablation_protocol,
    "ablation_cc": ablation_cc_protocols,
    "ablation_scheduling": ablation_txn_scheduling,
    "ablation_discipline": ablation_discipline,
    "ablation_escalation": ablation_escalation,
    "ablation_readmix": ablation_read_mix,
    "ablation_analytic": ablation_analytic,
    "ablation_classes": ablation_classes,
    "ablation_commit": ablation_commit,
    "ablation_open": ablation_open_system,
}


def check_spec(key):
    """*key*'s spec on its check grid, at seed 1.

    An exhibit without claims runs only its first configuration at
    :data:`ENTRY_TMAX`, which still drives its whole entry point.
    """
    spec = EXHIBITS[key]()
    tmax, sweeps = CHECK_GRIDS.get(
        key, (ENTRY_TMAX, {name: values[:1] for name, values in spec.sweeps.items()})
    )
    return spec.scaled(tmax=tmax, replace_sweeps=sweeps, seed=1)


def check_claims(results):
    """Evaluate every claim on *results*, a mapping exhibit key -> result.

    A result is anything with ``series(y_field)``, such as an
    :class:`~repro.experiments.runner.ExperimentResult`.  Returns one
    ``(claim, verdict, numbers)`` triple per claim, in :data:`CLAIMS`
    order.  A claim that reads an exhibit, field or point the results
    lack reads :data:`NO_DATA`.
    """
    curves = {}

    def c(exhibit, y_field):
        if (exhibit, y_field) not in curves:
            curves[exhibit, y_field] = {
                label: dict(points)
                for label, points in results[exhibit].series(y_field).items()
            }
        return curves[exhibit, y_field]

    verdicts = []
    for claim in CLAIMS:
        try:
            holds, numbers = claim.predicate(c)
        except KeyError:
            verdicts.append((claim, NO_DATA, {}))
        else:
            verdicts.append((claim, HOLDS if holds else FAILS, numbers))
    return verdicts


def get_exhibit(key):
    """Build the spec for *key* (accepts ``2``, ``"2"``, or ``"fig2"``)."""
    name = str(key)
    if name.isdigit():
        name = "fig{}".format(name)
    try:
        return EXHIBITS[name]()
    except KeyError:
        raise KeyError(
            "unknown exhibit {!r}; known: {}".format(key, ", ".join(sorted(EXHIBITS)))
        ) from None
